"""Exact linear algebra: one elimination routine.

`rref` is sparse Gauss-Jordan elimination on {column: coefficient} rows over
any Field object.  It serves every system wsuper solves: the rational ones
(the generator solves, the graded check, the nilpotent analysis) and every
mod-p one of a `verify all` row.  The largest of those are the links of the
joint kernel of ad z, z in m, on the reduced module Q
(`modp.ReducedQ._m_kernel`): the transposed sparse ad columns of the first
generator, then the transposed images of each kernel basis under the next
one, each at most dim Q rows and streamed in as a generator.  The PBW
monomial vectors of `modp.reduced_w` and the image of the m-invariants
under the middle odd vector go through `rank_mod_p`, one of the two entry
points over F_p, as lists.  The RREF is unique, so echelon bases and
particular solutions do not depend on the order of the rows; the cost does.
The elimination uses Python's operators on the entries: over F_p each entry
is reduced mod p when its row enters and after each update, and each pivot
costs one `field.inv`.  Python ints do not overflow, so the routine is exact
for every prime p and puts no bound on it; the size of Q, which grows as a
power of p, is what bounds p (`modp.q_footprint`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .scalars import PrimeField


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


def _sparse_row(field, row):
    """A fresh {column: coefficient} dict without zeros, its entries reduced
    mod p over F_p; a dense row (a sequence) is keyed by position."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    p = field.char
    if p:
        return {j: x % p for j, x in items if x % p}
    return {j: x for j, x in items if x}


def _subtract(p, row, a, src, lead):
    """row -= a * src off src's pivot column `lead`, in place, mod p when
    p > 0; returns the columns it filled in."""
    new = []
    for j, x in src.items():
        if j == lead:
            continue
        old = row.get(j)
        if old is None:
            row[j] = -a * x % p if p else -a * x
            new.append(j)
        else:
            v = old - a * x
            if p:
                v %= p
            if v:
                row[j] = v
            else:
                del row[j]
    return new


def _echelon(field, rows):
    """Forward elimination: {pivot column: row with a 1 there}.  Each row is
    cleared of the pivot columns found so far, lowest first (a pivot row
    fills in only to the right of its pivot), and becomes a pivot row at its
    lowest remaining column."""
    p = field.char
    pivots = {}
    for row in rows:
        row = _sparse_row(field, row)
        todo = [c for c in row if c in pivots]
        heapify(todo)
        while todo:
            c = heappop(todo)
            a = row.pop(c, None)
            if a is not None:  # None: cancelled, or pushed twice
                for j in _subtract(p, row, a, pivots[c], c):
                    if j in pivots:
                        heappush(todo, j)
        if row:
            c = min(row)
            inv = field.inv(row[c])
            if p:
                pivots[c] = {j: inv * x % p for j, x in row.items()}
            else:
                pivots[c] = {j: inv * x for j, x in row.items()}
    return pivots


def rref(field, rows):
    """Reduced row echelon form by sparse Gauss-Jordan elimination.

    rows are {column: coefficient} dicts or dense sequences; columns are any
    mutually comparable keys, pivoted in increasing order.  Returns (reduced,
    pivots): the nonzero RREF rows as dicts, in the order of the sorted pivot
    columns.  Back-substitution runs from the highest pivot down, so each row
    is cleared with rows already reduced and gains no pivot column."""
    p = field.char
    pivots = _echelon(field, rows)
    order = sorted(pivots)
    for c in reversed(order):
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            _subtract(p, row, row.pop(j), pivots[j], j)
    return [pivots[c] for c in order], order


def rank(field, rows):
    return len(_echelon(field, rows))


def kernel_rows(field, reduced, piv, cols):
    """The canonical kernel basis of an RREF (its rows and pivot columns) on
    columns 0..cols-1, as {column: c} rows: the row for free column j is 1
    at j and -c at the pivot column of each reduced row with c at j.  A
    reduced row is nonzero off its pivot only at free columns to its right,
    so j is the largest key of its row."""
    pivots = set(piv)
    basis = {j: {j: field.one} for j in range(cols) if j not in pivots}
    for row, pc in zip(reduced, piv):
        for j, c in row.items():
            if j != pc:
                basis[j][pc] = field.neg(c)
    return list(basis.values())


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


def invert(field, rows):
    """The inverse of the square matrix with the given rows ({column: c}
    dicts or dense sequences), as {column: c} rows; ValueError when it is
    singular."""
    n = len(rows)
    aug = [_sparse_row(field, row) for row in rows]
    for i, row in enumerate(aug):
        row[n + i] = field.one
    reduced, piv = rref(field, aug)
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return [{j - n: c for j, c in row.items() if j >= n} for row in reduced]


def in_span(field, vectors, v):
    """Whether v lies in the row span of vectors."""
    return rank(field, list(vectors) + [v]) == rank(field, vectors)


def intersect_zero(field, vectors_a, vectors_b):
    """Whether the spans of the two families intersect trivially."""
    return (rank(field, list(vectors_a) + list(vectors_b))
            == rank(field, vectors_a) + rank(field, vectors_b))


# ---------------------------------------------------------------------------
# F_p
# ---------------------------------------------------------------------------

def rank_mod_p(rows, p):
    """`rank` over F_p of a list of {column: c} rows."""
    return rank(PrimeField(p), rows)


def rref_mod_p(rows, p):
    """`rref` over F_p of a list of {column: c} rows: (reduced, pivots)."""
    return rref(PrimeField(p), rows)
