"""Exact linear algebra: one elimination routine.

`rref` is sparse Gauss-Jordan elimination on {column: coefficient} rows over
Q or F_p.  It serves every system wsuper solves: the rational ones (the
generator solves, the graded check, the nilpotent analysis, the coordinates
of a realization) and every mod-p one of a `verify all` row.  The largest of
those are the links of the joint kernel of ad z, z in m, on the reduced
module Q (`modp.ReducedQ._m_kernel`): the transposed sparse ad columns of
the first generator, then the transposed images of each kernel basis under
the next one, each at most dim Q rows and streamed in as a generator.  The
PBW monomial vectors of `modp.reduced_w` go through `rank_mod_p`, one of the
two entry points over F_p, as a list.  The RREF is unique, so echelon bases
and particular solutions do not depend on the order of the rows; the cost
does.

Inside, every row is a {column: int} dict.  Over Q a row enters as its
numerators over the lcm of its denominators; a pivot row is a pair (row,
den) in lowest terms with den > 0 its entry at the pivot, so that row/den is
1 there (`scalars.lowest`, the helper of the PBW engine's pairs).  Clearing
a pivot column from a row whose entry a there is not a multiple of den first
rewrites row/a over lcm(a, den) (`scalars.widen`): the row is scaled by
den/gcd(a, den), and every update is an integer multiply-add.  Fractions are
formed only in the reduced rows `rref` returns.  Over F_p den is 1: each
entry is reduced mod p when its row enters and after each update, and each
pivot costs one `field.inv`.  The forward elimination over F_p is a loop of
its own in `_echelon`, with the update written inline: no call and no list
of filled-in columns per pivot row; the row's entry at the pivot column
cancels against the pivot row's 1 there, and a pivot column that an update
fills in goes onto the heap as it appears.  Forward elimination over Q, and
back-substitution over either field, clear a column by `_subtract`.  The
branch between the fields is taken once per elimination or per update call,
never per entry.  Python ints do not overflow, so
the routine is exact for every prime p and puts no bound on it; the size of
Q, which grows as a power of p, is what bounds p (`modp.q_footprint`).
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from .scalars import PrimeField, lowest, widen


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


def _int_row(row, p):
    """A fresh {column: int} dict without zeros: over F_p the entries
    reduced mod p, over Q the row times the lcm of its denominators (the
    elimination may scale a row by any nonzero factor); a dense row (a
    sequence) is keyed by position."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    if p:
        return {j: y for j, x in items if (y := x % p)}
    items = [(j, x) for j, x in items if x]
    den = lcm(1, *(x.denominator for _, x in items))
    return {j: x.numerator * (den // x.denominator) for j, x in items}


def _subtract(p, row, a, pivot, lead):
    """Clear column `lead`, whose entry a has been popped, from row with the
    pivot row of `lead`, a pair (src, den) with den at `lead`, in place and
    mod p when p > 0; returns the columns it filled in.  Over Q row/a is
    first rewritten over lcm(a, den) when den does not divide a, so that
    row is scaled by den/g and loses (a/g) src, g = gcd(a, den); over F_p
    den is 1 and row loses a src."""
    src, den = pivot
    if den > 1:
        a = widen(row, a, den) // den if a % den else a // den
    new = []
    if p:
        for j, x in src.items():
            if j == lead:
                continue
            old = row.get(j)
            if old is None:
                row[j] = -a * x % p
                new.append(j)
            else:
                v = (old - a * x) % p
                if v:
                    row[j] = v
                else:
                    del row[j]
    else:
        for j, x in src.items():
            if j == lead:
                continue
            old = row.get(j)
            if old is None:
                row[j] = -a * x
                new.append(j)
            else:
                v = old - a * x
                if v:
                    row[j] = v
                else:
                    del row[j]
    return new


def _pivot_row(field, row, c):
    """The pair (row, den) of a row whose lowest column is c: over F_p the
    row times the inverse of its entry at c, with den 1; over Q the row in
    lowest terms with den > 0 at c."""
    p = field.char
    a = row[c]
    if p:
        inv = field.inv(a)
        return {j: inv * x % p for j, x in row.items()}, 1
    if a < 0:
        for j in row:
            row[j] = -row[j]
        a = -a
    return lowest(row, a)


def _echelon(field, rows):
    """Forward elimination: {pivot column: (row, den)}, each row an int
    dict with den at its pivot column (`_pivot_row`).  Each row is cleared
    of the pivot columns found so far, lowest first (a pivot row fills in
    only to the right of its pivot), and becomes a pivot row at its lowest
    remaining column.  Over F_p the update is `_subtract`'s, inlined."""
    p = field.char
    pivots = {}
    if p:
        # the row loses a times the pivot row of c, added as p - a times it;
        # its entry at c is left in place and cancels against the 1 there
        for row in rows:
            row = _int_row(row, p)
            get = row.get
            todo = [c for c in row if c in pivots]
            heapify(todo)
            while todo:
                c = heappop(todo)
                a = get(c)
                if a is None:  # cancelled, or pushed twice
                    continue
                a = p - a
                for j, x in pivots[c][0].items():
                    old = get(j)
                    if old is None:
                        row[j] = a * x % p
                        if j in pivots:
                            heappush(todo, j)
                    else:
                        v = (old + a * x) % p
                        if v:
                            row[j] = v
                        else:
                            del row[j]
            if row:
                c = min(row)
                pivots[c] = _pivot_row(field, row, c)
        return pivots
    for row in rows:
        row = _int_row(row, p)
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
            pivots[c] = _pivot_row(field, row, c)
    return pivots


def rref(field, rows):
    """Reduced row echelon form by sparse Gauss-Jordan elimination.

    rows are {column: coefficient} dicts or dense sequences; columns are any
    mutually comparable keys, pivoted in increasing order.  Returns (reduced,
    pivots): the nonzero RREF rows as dicts, in the order of the sorted pivot
    columns, with Fraction entries over Q and residues over F_p.
    Back-substitution runs from the highest pivot down, so each row is
    cleared with rows already reduced and gains no pivot column; a row
    rescaled on the way is brought back to lowest terms over its entry at
    its pivot."""
    p = field.char
    pivots = _echelon(field, rows)
    order = sorted(pivots)
    for c in reversed(order):
        row = pivots[c][0]
        for j in [j for j in row if j != c and j in pivots]:
            _subtract(p, row, row.pop(j), pivots[j], j)
        pivots[c] = lowest(row, row[c])
    reduced = [pivots[c] for c in order]
    if p:
        return [row for row, _ in reduced], order
    return [{j: Fraction(x, den) for j, x in row.items()}
            for row, den in reduced], order


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


def _copy(row):
    """A fresh {column: c} dict of a row given as a dict or a dense
    sequence."""
    return dict(row) if isinstance(row, dict) else dict(enumerate(row))


def solve_affine(field, mat, rhs, cols):
    """The solution of mat x = rhs with every free variable zero, or None
    when the system is inconsistent.  cols is the number of unknowns, which
    a sparse row does not tell; the right-hand side is column `cols`."""
    aug = [_copy(row) for row in mat]
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
    aug = [_copy(row) for row in rows]
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
