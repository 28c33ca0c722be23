"""Basic Lie superalgebras gl(m|n), sl(m|n), osp(m|2k) from matrix realizations.

A supermatrix of size (m|n) is a list of m+n rows of rationals in canonical
form (`scalars.exact`: ints where integral); indices below m are even, the
rest odd.  An algebra is built by picking a basis of homogeneous
supermatrices, computing structure constants from supercommutators and the
invariant form from the supertrace.  Both read sparse views of the
realization's matrices ({row: {column: c}}, `_sparse`): a supercommutator is
formed from the nonzero entries alone and coordinatized through the reduced
rows of the `Coordinatizer`, read by column, and a gram entry str(R_i R_j)
sums the products of R_i's entries with their transposed partners in R_j.
The realization itself stays dense.  The axioms are checked whenever a
`LieSuperalgebra` is constructed: once over Q by `build_algebra`, and again
for each prime when `modp.reduce_mod_p` rebuilds the algebra over F_p.
Super skew-symmetry, evenness and supersymmetry of the form are checked on
every basis pair.  The super Jacobi identity and invariance of the form are
checked one basis pair (i, j) at a time, on every b_k at once, as identities
of operators read from the nonzero columns of ad:
ad_i ad_j - (-1)^{|i||j|} ad_j ad_i - ad_[b_i,b_j] = 0, column by column,
and ([b_i,b_j], .) = (b_i, ad_j .), from the sparse rows of the gram.  The
column k of a pair's identity is the identity on the triple (i, j, k), so
these are the same identities as on every basis triple, and the first
failing triple is named.  Over F_p axiom (b) of the p-map,
[x^[p], y] = (ad x)^p (y), is checked on every basis pair as well: (ad x)^p
is taken once per even basis vector x by the repeated squaring of `mat_pow`,
about 2·log2(p) products of d × d matrices, and its column j is compared
with [x^[p], b_j].  The checks run in Python ints: over Q on the table and
the gram each scaled by the lcm of its denominators, over F_p on the
residues.  One sparse bracket, `_bracket`, serves the p-map check, the
nilpotent analysis and the closure of m's generators
(`wchar0.check_generates_m`).
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import linalg
from .scalars import QQ


class AlgebraError(ValueError):
    pass


class DegenerateFormError(AlgebraError):
    pass


# ---------------------------------------------------------------------------
# supermatrix helpers
# ---------------------------------------------------------------------------

def zero_matrix(n, field=QQ):
    return [[field.zero] * n for _ in range(n)]


def mat_pow(field, a, k):
    """a**k by repeated squaring: one product per set bit of k and one
    squaring per bit below the top one."""
    n = len(a)
    out = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    while k:
        if k & 1:
            out = linalg.mat_mul(field, out, a)
        k >>= 1
        if k:
            a = linalg.mat_mul(field, a, a)
    return out


def _sparse(mat):
    """The sparse view of a matrix: {row: {column: c}} without zeros."""
    view = {}
    for i, row in enumerate(mat):
        entries = {j: c for j, c in enumerate(row) if c}
        if entries:
            view[i] = entries
    return view


# ---------------------------------------------------------------------------
# the algebra object
# ---------------------------------------------------------------------------

class BasisVector(namedtuple("BasisVector", "index parity label")):
    """A basis vector: its index, parity (0 even, 1 odd) and label."""
    __slots__ = ()


def _bracket(table, v, w, out):
    """Add [v, w] to out and return it.  v and w are sparse {index: coeff}
    vectors, table is {(i, j): {k: c}}; the arithmetic is Python's own, so
    over F_p the caller reduces the entries of out mod p.  Cancelled entries
    stay in out as zeros."""
    for i, a in v.items():
        for j, b in w.items():
            entries = table.get((i, j))
            if entries:
                ab = a * b
                for k, c in entries.items():
                    out[k] = out.get(k, 0) + ab * c
    return out


def _common_denominator(values):
    """The lcm of the denominators of rationals or ints."""
    return math.lcm(1, *{c.denominator for c in values})


def _integral(c, den):
    """The int c * den, where den is a multiple of c's denominator."""
    return c.numerator * (den // c.denominator)


def _nonzero(vec, p):
    """Whether the int vector {index: c} is nonzero (mod p when p > 0)."""
    if p:
        return any(c % p for c in vec.values())
    return any(vec.values())


def _compose(acc, outer, inner, d, scale):
    """Add scale * (outer inner) to acc.  The operators are {column: {row:
    c}} with only nonzero columns; acc is flat, {d * column + row: c}, so a
    pair's whole identity is one dict."""
    for k, col in inner.items():
        base = d * k
        for t, c in col.items():
            image = outer.get(t)
            if image:
                c *= scale
                for u, x in image.items():
                    acc[base + u] = acc.get(base + u, 0) + c * x


class LieSuperalgebra:
    """Finite-dimensional Lie superalgebra with a fixed homogeneous basis.

    structure: dict (i, j) -> {k: coeff} giving [b_i, b_j]; zero brackets
      and zero coefficients are left out.  The module-level `_bracket`
      reads it on sparse {index: coeff} vectors for the nilpotent analysis
      and the p-map check; the other axiom checks read it as the columns of
      ad, ad_i = {k: [b_i, b_k]}.
    gram: invariant form matrix (b_i, b_j), or None.
    realization: list of supermatrices, or None.
    p_map: dict even index -> coordinate tuple of b_i^[p], only mod p.

    The axioms are checked in Python ints: over Q on the table times the
    lcm of its denominators and the gram times the lcm of its own, over F_p
    on the residues, reduced mod p once per tested value.  Every identity is
    homogeneous in the table and in the gram, so the scaled one vanishes
    exactly when the rational one does.  The identities on basis triples
    are checked one pair (i, j) at a time, as operator identities on the
    columns of ad (`_verify_brackets`, `_verify_form`): a pair's identity
    holds exactly when it holds on every (i, j, k), and an error names the
    first failing triple in lexicographic order, or the first failing pair.
    Super Jacobi is checked on the pairs j >= i, which decide the others
    once skew-symmetry holds (`_verify_brackets`).
    """

    def __init__(self, field, basis, structure, gram=None, realization=None,
                 p_map=None, family=None, shape=None):
        self.field = field
        self.basis = list(basis)
        self.structure = dict(structure)
        self.gram = gram
        self.realization = realization
        self.p_map = p_map
        self.family = family
        self.shape = shape  # (m, n) as passed to the builder
        self.dim = len(self.basis)
        self.parities = tuple(b.parity for b in self.basis)
        self._verify()

    # -- basic structure ----------------------------------------------------

    def realize(self, v):
        if self.realization is None:
            raise AlgebraError("algebra carries no matrix realization")
        f = self.field
        out = zero_matrix(len(self.realization[0]), f)
        for c, mat in zip(v, self.realization):
            if f.is_zero(c):
                continue
            for row, ri in zip(out, mat):
                row[:] = [f.add(x, f.mul(c, y)) for x, y in zip(row, ri)]
        return out

    # -- verification ---------------------------------------------------------

    def _verify(self):
        den = _common_denominator(c for entries in self.structure.values()
                                  for c in entries.values())
        table = {key: {k: _integral(c, den) for k, c in entries.items()}
                 for key, entries in self.structure.items()}
        # ad by columns: ad[i][k] = [b_i, b_k], nonzero brackets only
        ad = [{} for _ in range(self.dim)]
        for (i, k), entries in table.items():
            if entries:
                ad[i][k] = entries
        self._verify_brackets(table, ad)
        if self.gram is not None:
            self._verify_form(table, ad)
        if self.p_map is not None:
            self._verify_p_map(table, ad)

    def _verify_brackets(self, table, ad):
        """Super skew-symmetry on every pair, then super Jacobi on every b_k
        at once, as the operator identity J(i, j) = ad_i ad_j - s ad_j ad_i
        - ad_[b_i,b_j] = 0 with s = (-1)^{|i||j|}, whose column k is the
        triple (i, j, k), on the pairs with j >= i alone.  Once
        skew-symmetry holds, the table has [b_j,b_i] = -s [b_i,b_j], so
        J(j, i) = ad_j ad_i - s ad_i ad_j + s ad_[b_i,b_j] = -s J(i, j):
        (j, i, k) fails exactly when (i, j, k) does.  So the pairs j >= i
        decide every pair, and the first failing triple in lexicographic
        order, the one named, has i <= j: when j < i, (j, i, k) comes
        before (i, j, k)."""
        p = self.field.char
        d = self.dim
        par = self.parities
        empty = {}
        for i in range(d):
            for j in range(d):
                # super skew-symmetry: [b_i,b_j] + (-1)^{|i||j|}[b_j,b_i] = 0
                acc = dict(table.get((i, j), empty))
                sign = -1 if par[i] and par[j] else 1
                for k, c in table.get((j, i), empty).items():
                    acc[k] = acc.get(k, 0) + sign * c
                if _nonzero(acc, p):
                    raise AlgebraError("super skew-symmetry fails at (%d,%d)" % (i, j))
        for i in range(d):
            for j in range(i, d):
                acc = {}
                _compose(acc, ad[i], ad[j], d, 1)
                _compose(acc, ad[j], ad[i], d, 1 if par[i] and par[j] else -1)
                for t, c in table.get((i, j), empty).items():
                    # ad_[b_i,b_j] is the sum of c ad_t over [b_i,b_j]'s terms
                    for k, col in ad[t].items():
                        base = d * k
                        for u, x in col.items():
                            acc[base + u] = acc.get(base + u, 0) - c * x
                bad = [key for key, c in acc.items() if (c % p if p else c)]
                if bad:
                    raise AlgebraError("super Jacobi fails at (%d,%d,%d)"
                                       % (i, j, min(bad) // d))

    def _verify_form(self, table, ad):
        p = self.field.char
        d = self.dim
        par = self.parities
        den = _common_denominator(c for row in self.gram for c in row)
        g = [[_integral(c, den) for c in row] for row in self.gram]
        for i in range(d):
            for j in range(d):
                if par[i] != par[j] and (g[i][j] % p if p else g[i][j]):
                    raise AlgebraError("form is not even")
                v = g[i][j] + g[j][i] if par[i] and par[j] else g[i][j] - g[j][i]
                if v % p if p else v:
                    raise AlgebraError("form is not supersymmetric")
        rows = [{k: c for k, c in enumerate(row) if c} for row in g]
        empty = {}
        for i in range(d):
            gi = rows[i]
            for j in range(d):
                # invariance on every b_k at once: the row functional
                # ([b_i,b_j], .) equals (b_i, ad_j .)
                acc = {}
                for t, c in table.get((i, j), empty).items():
                    for k, x in rows[t].items():
                        acc[k] = acc.get(k, 0) + c * x
                for k, col in ad[j].items():
                    v = acc.get(k, 0)
                    for t, c in col.items():
                        x = gi.get(t)
                        if x:
                            v -= c * x
                    acc[k] = v
                if _nonzero(acc, p):
                    raise AlgebraError("form is not invariant")
        # nondegeneracy is checked in invariant_form: sl(n|n) builds with a
        # degenerate supertrace form and must fail only when the form is used

    def _verify_p_map(self, table, ad):
        p = self.field.char
        d = self.dim
        if p == 0:
            raise AlgebraError("a p-map needs a field of positive characteristic")
        unit = [{i: 1} for i in range(d)]
        for i, coords in self.p_map.items():
            if self.parities[i]:
                raise AlgebraError("p-map defined on an odd vector (%d)" % i)
            xp = {k: c for k, c in enumerate(coords) if c % p}
            # (ad x)^p by squaring; column j is (ad x)^p (b_j)
            ad_x = [[0] * d for _ in range(d)]
            for j, col in ad[i].items():
                for k, c in col.items():
                    ad_x[k][j] = c % p
            power = mat_pow(self.field, ad_x, p)
            for j in range(d):
                # axiom (b) on basis pairs: [x^[p], y] - (ad x)^p (y) = 0
                acc = _bracket(table, xp, unit[j], {})
                for k in range(d):
                    acc[k] = acc.get(k, 0) - power[k][j]
                if _nonzero(acc, p):
                    raise AlgebraError("restrictedness axiom (b) fails on basis pair"
                                       " (%d,%d)" % (i, j))


# ---------------------------------------------------------------------------
# coordinatization of matrices in a basis
# ---------------------------------------------------------------------------

class Coordinatizer:
    """Solves M = sum_i x_i R_i for matrices in the span of the realization."""

    def __init__(self, field, realization):
        self.field = field
        self.n = len(realization[0])
        self.dim = len(realization)
        # row k of [M | I]: the k-th entries of the flattened realization
        # matrices, then a 1 in column dim + k
        aug = [{self.dim + k: field.one} for k in range(self.n * self.n)]
        for i, r in enumerate(realization):
            for a in range(self.n):
                for b in range(self.n):
                    if not field.is_zero(r[a][b]):
                        aug[a * self.n + b][i] = r[a][b]
        red, piv = linalg.rref(field, aug)
        if piv[: self.dim] != list(range(self.dim)):
            raise AlgebraError("realization matrices are linearly dependent")
        # the I part of the reduced rows, read by column: flattened entry
        # t -> [(row, c)]; the rows past dim are the consistency conditions
        self._columns = {}
        for i, row in enumerate(red):
            for k, c in row.items():
                if k >= self.dim:
                    self._columns.setdefault(k - self.dim, []).append((i, c))

    def sparse_coords(self, entries):
        """The nonzero coordinates {i: x_i}, in increasing i, of the matrix
        with the {flattened entry: c} entries."""
        f = self.field
        values = {}
        for t, v in entries.items():
            if f.is_zero(v):
                continue
            for i, c in self._columns.get(t, ()):
                values[i] = f.add(values.get(i, f.zero), f.mul(c, v))
        out = {}
        for i in sorted(values):
            v = values[i]
            if not f.is_zero(v):
                if i >= self.dim:
                    raise AlgebraError("matrix lies outside the algebra")
                out[i] = v
        return out

    def coords(self, mat):
        f = self.field
        n = self.n
        sparse = self.sparse_coords({a * n + b: x for a, row in enumerate(mat)
                                     for b, x in enumerate(row)})
        return [sparse.get(i, f.zero) for i in range(self.dim)]


def _super_commutator(field, a, b, n, odd):
    """[A, B] = AB - (-1)^{|A||B|} BA for sparse views, as {flattened
    entry: c}; odd says whether both A and B are odd."""
    out = {}
    for x_rows, y_rows, combine in ((a, b, field.add),
                                    (b, a, field.add if odd else field.sub)):
        for r, xr in x_rows.items():
            for k, x in xr.items():
                yk = y_rows.get(k)
                if yk:
                    for c, y in yk.items():
                        t = r * n + c
                        out[t] = combine(out.get(t, field.zero),
                                         field.mul(x, y))
    return out


def structure_from_realization(field, realization, parities):
    """The table {(i, j): {k: c}} with [R_i, R_j] = sum_k c R_k, from the
    sparse views of the R_i."""
    coord = Coordinatizer(field, realization)
    n = coord.n
    views = [_sparse(r) for r in realization]
    structure = {}
    for i, a in enumerate(views):
        for j, b in enumerate(views):
            entries = coord.sparse_coords(_super_commutator(
                field, a, b, n, parities[i] and parities[j]))
            if entries:
                structure[(i, j)] = entries
    return structure


def supertrace_gram(field, realization, m_even):
    """The gram (R_i, R_j) = str(R_i R_j) of the sparse views: the sum of
    (R_i)_{rk} (R_j)_{kr}, with a minus sign for odd r."""
    views = [_sparse(r) for r in realization]

    def str_product(a, b):
        s = field.zero
        for r, ar in a.items():
            combine = field.add if r < m_even else field.sub
            for k, x in ar.items():
                y = b.get(k, {}).get(r)
                if y is not None:
                    s = combine(s, field.mul(x, y))
        return s

    return [[str_product(a, b) for b in views] for a in views]


# ---------------------------------------------------------------------------
# the three families
# ---------------------------------------------------------------------------

def _matrix_algebra(family, shape, basis, realization):
    """The rational algebra spanned by a homogeneous realization, with its
    supertrace form."""
    structure = structure_from_realization(QQ, realization,
                                           [b.parity for b in basis])
    gram = supertrace_gram(QQ, realization, shape[0])
    return LieSuperalgebra(QQ, basis, structure, gram=gram,
                           realization=realization, family=family, shape=shape)


def _elementary_units(family, m, n, diagonal):
    """The matrix units E_ij in row order, the diagonal ones only when asked,
    as (basis, realization)."""
    if m < 0 or n < 0 or m + n == 0:
        raise AlgebraError("%s(%d|%d) is not a valid shape" % (family, m, n))
    N = m + n
    basis = []
    realization = []
    for i in range(N):
        for j in range(N):
            if i == j and not diagonal:
                continue
            parity = 0 if (i < m) == (j < m) else 1
            basis.append(BasisVector(len(basis), parity, "E%d%d" % (i + 1, j + 1)))
            mat = zero_matrix(N)
            mat[i][j] = 1
            realization.append(mat)
    return basis, realization


def build_gl(m, n):
    basis, realization = _elementary_units("gl", m, n, diagonal=True)
    return _matrix_algebra("gl", (m, n), basis, realization)


def build_sl(m, n):
    # the supertrace form degenerates on sl(n|n); the build itself is allowed
    basis, realization = _elementary_units("sl", m, n, diagonal=False)
    N = m + n
    for i in range(N - 1):
        # str-homogeneous diagonal: E_ii - E_{i+1,i+1}, sign-flipped at the block edge
        mat = zero_matrix(N)
        mat[i][i] = 1
        mat[i + 1][i + 1] = -1 if (i + 1 != m) else 1
        basis.append(BasisVector(len(basis), 0, "H%d" % (i + 1)))
        realization.append(mat)
    return _matrix_algebra("sl", (m, n), basis, realization)


def osp_form_matrix(m, two_k):
    """Gram of the defining even form: antidiagonal symmetric on the even part,
    standard symplectic on the odd part."""
    N = m + two_k
    B = zero_matrix(N)
    for i in range(m):
        B[i][m - 1 - i] = 1
    k = two_k // 2
    for i in range(k):
        B[m + i][m + k + i] = 1
        B[m + k + i][m + i] = -1
    return B


def build_osp(m, n):
    if n % 2 != 0 or n <= 0 or m < 0 or m + n == 0:
        raise AlgebraError("osp takes shape (m|2k) with k >= 1, got (%d|%d)" % (m, n))
    N = m + n
    B = osp_form_matrix(m, n)
    realization = []
    parities = []
    # parity sectors solved separately so the basis is homogeneous
    for target_parity in (0, 1):
        positions = [(i, j) for i in range(N) for j in range(N)
                     if (0 if (i < m) == (j < m) else 1) == target_parity]
        rows = []
        # condition: b(Xu,w) + (-1)^{|X||u|} b(u,Xw) = 0 for basis u, w
        for a in range(N):
            for b_ix in range(N):
                row = []
                sgn = -1 if (target_parity == 1 and a >= m) else 1
                for (i, j) in positions:
                    coef = 0
                    # (X^T B)_{a,b}: X_{i,a} B_{i,b} contribution when i == ... expand
                    if a == j:
                        coef += B[i][b_ix]
                    if b_ix == j:
                        coef += sgn * B[a][i]
                    row.append(coef)
                rows.append(row)
        for v in linalg.kernel(QQ, rows, len(positions)):
            mat = zero_matrix(N)
            for t, c in v.items():
                i, j = positions[t]
                mat[i][j] = c
            realization.append(mat)
            parities.append(target_parity)
    basis = [BasisVector(i, parities[i], "G%d" % (i + 1)) for i in range(len(realization))]
    return _matrix_algebra("osp", (m, n), basis, realization)


def build_algebra(family, m, n):
    if family == "gl":
        return build_gl(m, n)
    if family == "sl":
        return build_sl(m, n)
    if family == "osp":
        return build_osp(m, n)
    raise AlgebraError("unknown family %r" % (family,))


def invariant_form(alg):
    """The supertrace form of the realization, verified nondegenerate."""
    if alg.gram is None:
        raise AlgebraError("algebra carries no invariant form")
    if linalg.rank(alg.field, alg.gram) != alg.dim:
        raise DegenerateFormError("supertrace form is degenerate for %s%s"
                                  % (alg.family, alg.shape))
    return alg.gram
