"""Exact dense linear algebra.

Two implementations live here.  The generic one works over any Field object
(list-of-list matrices, used for all rational computations and for small mod-p
systems); it is plain Gaussian elimination with deterministic pivoting, so
echelon bases and particular solutions are reproducible.  The numpy one works
mod p through one blocked Gauss-Jordan routine, `_echelon_mod_p`, behind
`rank_mod_p`, `rref_mod_p`, `nullspace_mod_p` and `row_space_mod_p`; it
exists because the reduced-module kernels reach dimension a few thousand.  It
stores integers in float64 so that its block updates run as BLAS matrix
products, and reduces mod p once per block.  Its intermediates stay below
BLOCK*(p-1)**2 + p, so it is exact only while that is below 2**53, that is
for p <= 11,863,279; it raises ValueError otherwise.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# generic field matrices (lists of lists)
# ---------------------------------------------------------------------------

def zeros(field, rows, cols):
    return [[field.zero] * cols for _ in range(rows)]


def identity(field, n):
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def mat_mul(field, a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(field, rows, cols)
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


def rref(field, mat):
    """Reduced row echelon form.  Returns (rref_matrix, pivot_columns)."""
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    piv_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = None
        for i in range(r, rows):
            if not field.is_zero(a[i][c]):
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            a[r], a[sel] = a[sel], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(rows):
            if i != r and not field.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    return a, piv_cols


def rank(field, mat):
    return len(rref(field, mat)[1])


def nullspace(field, mat, cols=None):
    """Echelonized basis of {v : mat v = 0}, one vector per free column.

    The basis is canonical: vector for free column j has entry 1 at j, zero at
    the other free columns.
    """
    rows = len(mat)
    if cols is None:
        cols = len(mat[0]) if rows else 0
    if rows == 0:
        return [[field.one if i == j else field.zero for i in range(cols)]
                for j in range(cols)]
    a, piv = rref(field, mat)
    piv_set = set(piv)
    basis = []
    for j in range(cols):
        if j in piv_set:
            continue
        v = [field.zero] * cols
        v[j] = field.one
        for r, pc in enumerate(piv):
            v[pc] = field.neg(a[r][j])
        basis.append(v)
    return basis


def solve_affine(field, mat, rhs):
    """One solution of mat x = rhs with all free variables set to zero.

    Returns None when the system is inconsistent.  Deterministic: the solution
    is the reduced-echelon particular solution.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [mat[i][:] + [rhs[i]] for i in range(rows)]
    a, piv = rref(field, aug)
    for r, pc in enumerate(piv):
        if pc == cols:
            return None
    x = [field.zero] * cols
    for r, pc in enumerate(piv):
        x[pc] = a[r][cols]
    return x


def invert(field, mat):
    n = len(mat)
    aug = [mat[i][:] + identity(field, n)[i] for i in range(n)]
    a, piv = rref(field, aug)
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in a]


def span_dim(field, vectors):
    if not vectors:
        return 0
    return rank(field, [list(v) for v in vectors])


def in_span(field, vectors, v):
    """Whether v lies in the row span of vectors."""
    if all(field.is_zero(x) for x in v):
        return True
    if not vectors:
        return False
    base = [list(w) for w in vectors]
    return rank(field, base) == rank(field, base + [list(v)])


def intersect_zero(field, vectors_a, vectors_b):
    """Whether the spans of the two families intersect trivially."""
    ra = span_dim(field, vectors_a)
    rb = span_dim(field, vectors_b)
    rab = span_dim(field, list(vectors_a) + list(vectors_b))
    return rab == ra + rb


def echelon_span(field, vectors):
    """Canonical echelonized spanning set (rows of the rref, zero rows dropped)."""
    if not vectors:
        return []
    a, piv = rref(field, [list(v) for v in vectors])
    return [a[i] for i in range(len(piv))]


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


def rank_mod_p(mat, p, block=BLOCK):
    """Rank over F_p by `_echelon_mod_p`; a prime past its float64 bound
    raises ValueError.  `block` is the panel width."""
    return len(_echelon_mod_p(mat, p, block, reduced=False)[1])


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


def same_row_space_mod_p(a, b, p):
    ea = row_space_mod_p(a, p)
    eb = row_space_mod_p(b, p)
    return ea.shape == eb.shape and bool(np.array_equal(ea, eb))
