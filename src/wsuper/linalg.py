"""Exact linear algebra: two elimination routines.

The generic one, `rref`, works over any Field object: sparse Gauss-Jordan
elimination on {column: coefficient} rows, read by every rational system and
the small mod-p ones.  The RREF is unique, so echelon bases and particular
solutions do not depend on the order of the rows.  The numpy one works mod p
through one blocked Gauss-Jordan routine, `_echelon_mod_p`, behind
`rank_mod_p`, `rref_mod_p`, `nullspace_mod_p` and `row_space_mod_p`; it
exists because the reduced-module kernels reach dimension a few thousand.  It
stores integers in float64 so that its block updates run as BLAS matrix
products, and reduces mod p once per block.  Its intermediates stay below
BLOCK*(p-1)**2 + p, so it is exact only while that is below 2**53, that is
for p <= 11,863,279; it raises ValueError otherwise.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np


# ---------------------------------------------------------------------------
# generic field matrices
# ---------------------------------------------------------------------------

def mat_mul(field, a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[field.zero] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if field.is_zero(c):
                continue
            bk = b[k]
            for j in range(cols):
                if not field.is_zero(bk[j]):
                    oi[j] = field.add(oi[j], field.mul(c, bk[j]))
    return out


def mat_vec(field, a, v):
    out = []
    for row in a:
        acc = field.zero
        for c, x in zip(row, v):
            if not field.is_zero(c) and not field.is_zero(x):
                acc = field.add(acc, field.mul(c, x))
        out.append(acc)
    return out


def _sparse_row(field, row):
    """A fresh {column: coefficient} dict without zeros; a dense row (a
    sequence) is keyed by position."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {j: x for j, x in items if not field.is_zero(x)}


def _subtract(field, row, a, src, lead):
    """row -= a * src off src's pivot column `lead`, in place; returns the
    columns it filled in."""
    new = []
    for j, x in src.items():
        if j == lead:
            continue
        old = row.get(j)
        if old is None:
            row[j] = field.neg(field.mul(a, x))
            new.append(j)
        else:
            v = field.sub(old, field.mul(a, x))
            if field.is_zero(v):
                del row[j]
            else:
                row[j] = v
    return new


def _echelon(field, rows):
    """Forward elimination: {pivot column: row with a 1 there}.  Each row is
    cleared of the pivot columns found so far, lowest first (a pivot row
    fills in only to the right of its pivot), and becomes a pivot row at its
    lowest remaining column."""
    pivots = {}
    for row in rows:
        row = _sparse_row(field, row)
        todo = [c for c in row if c in pivots]
        heapify(todo)
        while todo:
            c = heappop(todo)
            a = row.pop(c, None)
            if a is not None:  # None: cancelled, or pushed twice
                for j in _subtract(field, row, a, pivots[c], c):
                    if j in pivots:
                        heappush(todo, j)
        if row:
            c = min(row)
            inv = field.inv(row[c])
            pivots[c] = {j: field.mul(inv, x) for j, x in row.items()}
    return pivots


def rref(field, rows):
    """Reduced row echelon form by sparse Gauss-Jordan elimination.

    rows are {column: coefficient} dicts or dense sequences; columns are any
    mutually comparable keys, pivoted in increasing order.  Returns (reduced,
    pivots): the nonzero RREF rows as dicts, in the order of the sorted pivot
    columns.  Back-substitution runs from the highest pivot down, so each row
    is cleared with rows already reduced and gains no pivot column."""
    pivots = _echelon(field, rows)
    order = sorted(pivots)
    for c in reversed(order):
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            _subtract(field, row, row.pop(j), pivots[j], j)
    return [pivots[c] for c in order], order


def rank(field, rows):
    return len(_echelon(field, rows))


def nullspace(field, mat, cols=None):
    """Canonical kernel basis of mat (sparse rows need `cols`): the vector
    for free column j is 1 at j and 0 at the other free columns."""
    if cols is None:
        cols = len(mat[0]) if mat else 0
    reduced, piv = rref(field, mat)
    basis = []
    for j in sorted(set(range(cols)) - set(piv)):
        v = [field.zero] * cols
        v[j] = field.one
        for row, pc in zip(reduced, piv):
            v[pc] = field.neg(row.get(j, field.zero))
        basis.append(v)
    return basis


def solve_affine(field, mat, rhs, cols=None):
    """The solution of mat x = rhs with every free variable zero, or None
    when the system is inconsistent.  Sparse rows need `cols`, the number of
    unknowns; the right-hand side is eliminated as column `cols`."""
    if cols is None:
        cols = len(mat[0]) if mat else 0
    aug = [_sparse_row(field, row) for row in mat]
    for row, b in zip(aug, rhs):
        if not field.is_zero(b):
            row[cols] = b
    reduced, piv = rref(field, aug)
    if piv and piv[-1] == cols:
        return None
    x = [field.zero] * cols
    for row, pc in zip(reduced, piv):
        x[pc] = row.get(cols, field.zero)
    return x


def invert(field, mat):
    n = len(mat)
    aug = [_sparse_row(field, row) for row in mat]
    for i, row in enumerate(aug):
        row[n + i] = field.one
    reduced, piv = rref(field, aug)
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(n + j, field.zero) for j in range(n)] for row in reduced]


def in_span(field, vectors, v):
    """Whether v lies in the row span of vectors."""
    return rank(field, list(vectors) + [v]) == rank(field, vectors)


def intersect_zero(field, vectors_a, vectors_b):
    """Whether the spans of the two families intersect trivially."""
    return (rank(field, list(vectors_a) + list(vectors_b))
            == rank(field, vectors_a) + rank(field, vectors_b))


def echelon_span(field, vectors):
    """The nonzero rows of the rref of dense vectors, as dense lists."""
    cols = len(vectors[0]) if vectors else 0
    return [[row.get(j, field.zero) for j in range(cols)]
            for row in rref(field, vectors)[0]]


# ---------------------------------------------------------------------------
# numpy arrays mod p
# ---------------------------------------------------------------------------

BLOCK = 64
SLAB = 256


def exact_mod_p(p, block=BLOCK):
    """Whether `_echelon_mod_p` is exact at p: every intermediate is an
    integer of magnitude at most block*(p-1)**2 + p, and float64 holds such
    integers exactly while that bound is below 2**53."""
    return block * (p - 1) ** 2 + p < 2 ** 53


def _check_exact(p, block):
    if not exact_mod_p(p, block):
        raise ValueError("p = %d breaks the float64 bound %d*(p-1)**2 + p < 2**53"
                         % (p, block))


def _reduce(a, p):
    """Reduce a float64 array of integers below 2**53 mod p, in place.

    a - p*floor(a/p) with 1/p rounded is off by at most one multiple of p,
    which one fix-up each way corrects; float `%` would be several times
    slower."""
    t = a * (1.0 / p)
    np.floor(t, out=t)
    t *= p
    a -= t
    np.add(a, p, out=a, where=a < 0)
    np.subtract(a, p, out=a, where=a >= p)
    return a


def _panel(w, p):
    """Gauss-Jordan on one panel, row by row with a delayed reduction.

    w holds the live rows of the panel's columns, entries in [0, p).  A right
    half records each row as a combination of the pivot rows, so that the
    pivot rows' half ends as the inverse of the pivot block.  Returns the
    positions of the pivot rows in w (in pivot order), the pivot columns, the
    reduced pivot rows and that inverse."""
    m, b = w.shape
    w = np.concatenate([w, np.zeros((m, b))], axis=1)
    order = np.arange(m)
    pivcols = []
    k = 0
    for c in range(b):
        if k == m:
            break
        nz = np.flatnonzero(w[k:, c] % p)
        if nz.size == 0:
            continue
        i = k + int(nz[0])
        if i != k:
            w[[k, i]] = w[[i, k]]
            order[[k, i]] = order[[i, k]]
        row = w[k] % p
        row[b + k] = 1
        row *= pow(int(row[c]), p - 2, p)
        w[k] = row = row % p
        mult = w[:, c] % p
        mult[k] = 0
        hit = np.flatnonzero(mult)
        if hit.size:
            # delayed reduction: entries stay below p + b*(p-1)**2
            w[hit] -= np.outer(mult[hit], row)
        pivcols.append(c)
        k += 1
    top = _reduce(w[:k], p)
    return order[:k], pivcols, top[:, :b], top[:, b:b + k]


def _update(a, lo, hi, pivabs, c, u, p):
    """a[i, c:] -= a[i, pivabs] @ u mod p for the rows lo <= i < hi, in
    slabs of SLAB rows, skipping rows whose multipliers are all zero."""
    for s in range(lo, hi, SLAB):
        e = min(s + SLAB, hi)
        x = a[s:e, pivabs]
        live = np.flatnonzero(x.any(axis=1))
        if live.size == e - s:
            blk = a[s:e, c:]
            blk -= x @ u
            _reduce(blk, p)
        elif live.size:
            rows = s + live
            blk = a[rows, c:]
            blk -= x[live] @ u
            a[rows, c:] = _reduce(blk, p)


def _echelon_mod_p(mat, p, block=BLOCK, reduced=True):
    """Blocked Gauss-Jordan elimination over F_p on float64 (the scheme of
    FFLAS-FFPACK: exact integer arithmetic in floating point, one reduction
    mod p per block).

    Each panel of `block` columns is eliminated row by row; its k pivot rows
    move up by swapping only the rows in the way, become U = P^-1 rows with
    the k x k pivot-block inverse P^-1, and one GEMM per slab updates every
    other live row: rows above become reduced, rows below the Schur
    complement.  Returns (rows, pivots): the rank rows of the reduced row
    echelon form (float64 holding integers in [0, p)) and its pivot
    columns.  With reduced=False the rows above each panel are left alone
    and only the pivots are meaningful.
    """
    _check_exact(p, block)
    mat = np.asarray(mat)
    rows, cols = mat.shape
    a = np.empty((rows, cols))
    for s in range(0, rows, SLAB):
        a[s:s + SLAB] = mat[s:s + SLAB] % p
    piv = []
    r = 0
    for c0 in range(0, cols, block):
        if r == rows:
            break
        c1 = min(c0 + block, cols)
        live = r + np.flatnonzero(a[r:, c0:c1].any(axis=1))
        if live.size == 0:
            continue
        # every live row is nonzero mod p in the panel, so k >= 1
        order, pivcols, head, inv = _panel(a[live, c0:c1], p)
        k = len(pivcols)
        pos = live[order]
        u = _reduce(inv @ a[pos, c1:], p)
        # move the non-pivot rows out of r..r+k-1 into the pivot rows' places
        target = np.arange(r, r + k)
        a[np.setdiff1d(pos, target)] = a[np.setdiff1d(target, pos)]
        a[r:r + k, :c0] = 0
        a[r:r + k, c0:c1] = head
        a[r:r + k, c1:] = u
        pivabs = [c0 + c for c in pivcols]
        if reduced and r:
            _update(a, 0, r, pivabs, c0, a[r:r + k, c0:], p)
        _update(a, r + k, rows, pivabs, c1, u, p)
        piv.extend(pivabs)
        r += k
    return a[:r], piv


def rank_mod_p(mat, p):
    """Rank over F_p by `_echelon_mod_p`; a prime past its float64 bound
    raises ValueError."""
    return len(_echelon_mod_p(mat, p, reduced=False)[1])


def rref_mod_p(mat, p):
    """Reduced row echelon form mod p, same shape as mat: (rref, pivots)."""
    ech, piv = _echelon_mod_p(mat, p)
    out = np.zeros(np.shape(mat), dtype=np.int64)
    out[:len(piv)] = ech
    return out, piv


def nullspace_mod_p(mat, p):
    """Canonical echelonized kernel basis, rows of shape (nullity, cols):
    the row for free column j is 1 at j and 0 at the other free columns."""
    a, piv = rref_mod_p(mat, p)
    cols = a.shape[1]
    free = np.setdiff1d(np.arange(cols), piv)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = (-a[:len(piv), free].T) % p
    return basis


def row_space_mod_p(mat, p):
    a, piv = rref_mod_p(mat, p)
    return a[: len(piv)]
