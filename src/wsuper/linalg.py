"""Exact dense linear algebra.

Two implementations live here.  The generic one works over any Field object
(list-of-list matrices, used for all rational computations and for small mod-p
systems); it is plain Gaussian elimination with deterministic pivoting, so
echelon bases and particular solutions are reproducible.  The numpy one works
mod p with int64 arrays and a blocked elimination whose inner update is an
integer matrix product; it exists because the reduced-module kernels reach
dimension a few thousand.  Its intermediates stay below block*(p-1)**2 + p, so
it is exact only while that is below 2**63; it raises ValueError otherwise.
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

BLOCK = 256


def exact_mod_p(p, block=BLOCK):
    """Whether the int64 eliminations below are exact at p: every
    intermediate is bounded by block*(p-1)**2 + p."""
    return block * (p - 1) ** 2 + p < 2 ** 63


def _check_exact(p, block):
    if not exact_mod_p(p, block):
        raise ValueError("p = %d breaks the int64 bound %d*(p-1)**2 + p < 2**63"
                         % (p, block))


def _np_mod(a, p):
    return np.asarray(a, dtype=np.int64) % p


def _inv_small_mod_p(mat, p):
    n = mat.shape[0]
    a = np.concatenate([mat % p, np.eye(n, dtype=np.int64)], axis=1)
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            raise ValueError("singular pivot block")
        i = c + int(nz[0])
        if i != c:
            a[[c, i]] = a[[i, c]]
        a[c] = (a[c] * pow(int(a[c, c]), p - 2, p)) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != c]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[c])) % p
    return a[:, n:]


def rank_mod_p(mat, p, block=BLOCK):
    """Rank over F_p via blocked elimination; int64 throughout.

    Entry magnitudes inside a block stay below block*(p-1)**2 + p; a prime
    for which that reaches 2**63 raises ValueError instead of overflowing.
    """
    _check_exact(p, block)
    a = _np_mod(mat, p)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return 0
    r = 0
    for c0 in range(0, cols, block):
        if r == rows:
            break
        c1 = min(c0 + block, cols)
        w = a[r:, c0:c1].copy()
        idx = np.arange(r, rows)
        pr = 0
        pivcols = []
        for c in range(c1 - c0):
            if pr == w.shape[0]:
                break
            col = w[pr:, c] % p
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            i = pr + int(nz[0])
            if i != pr:
                w[[pr, i]] = w[[i, pr]]
                idx[[pr, i]] = idx[[i, pr]]
            w[pr] %= p
            wr = (w[pr] * pow(int(w[pr, c]), p - 2, p)) % p
            mult = w[pr + 1:, c] % p
            hit = np.nonzero(mult)[0]
            if hit.size:
                bi = pr + 1 + hit
                # delayed mod: values stay bounded by p + block*p*p
                w[bi] = w[bi] - np.outer(mult[hit], wr)
            pivcols.append(c)
            pr += 1
        if pr == 0:
            continue
        a[r:] = a[idx]
        k = pr
        pivot_block = a[r:r + k, c0:c1][:, pivcols]
        if c1 < cols:
            u = (_inv_small_mod_p(pivot_block, p) @ a[r:r + k, c1:]) % p
            q = a[r + k:, c0:c1][:, pivcols]
            live = np.nonzero(q.any(axis=1))[0]
            if live.size:
                a[r + k + live, c1:] = (a[r + k + live, c1:] - q[live] @ u) % p
        r += k
    return r


def rref_mod_p(mat, p):
    """Reduced row echelon form mod p (straightforward, for moderate sizes).

    Rows are reduced after every pivot, so the bound is that of a block of 1.
    """
    _check_exact(p, 1)
    a = _np_mod(mat, p)
    rows, cols = a.shape
    piv = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        piv.append(c)
        r += 1
    return a, piv


def nullspace_mod_p(mat, p):
    """Canonical echelonized kernel basis, rows of shape (nullity, cols)."""
    a, piv = rref_mod_p(mat, p)
    cols = a.shape[1]
    piv_set = set(piv)
    free = [j for j in range(cols) if j not in piv_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, j in enumerate(free):
        basis[k, j] = 1
        for r, pc in enumerate(piv):
            basis[k, pc] = (-int(a[r, j])) % p
    return basis


def row_space_mod_p(mat, p):
    a, piv = rref_mod_p(mat, p)
    return a[: len(piv)]


def same_row_space_mod_p(a, b, p):
    ea = row_space_mod_p(a, p)
    eb = row_space_mod_p(b, p)
    return ea.shape == eb.shape and bool(np.array_equal(ea, eb))
