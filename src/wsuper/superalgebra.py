"""Basic Lie superalgebras gl(m|n), sl(m|n), osp(m|2k) from matrix realizations.

A supermatrix of size (m|n) is a list of m+n rows of Fractions; indices below m
are even, the rest odd.  An algebra is built by picking a basis of homogeneous
supermatrices, computing structure constants from supercommutators and the
invariant form from the supertrace.  Super skew-symmetry, the super Jacobi
identity, evenness, supersymmetry and invariance of the form are checked on
every basis pair and triple whenever a `LieSuperalgebra` is constructed: once
over Q by `build_algebra`, and again for each prime when `modp.reduce_mod_p`
rebuilds the algebra over F_p, where axiom (b) of the p-map,
[x^[p], y] = (ad x)^p (y), is checked on every basis pair as well: (ad x)^p
is taken once per even basis vector x by the repeated squaring of `mat_pow`,
about 2·log2(p) products of d × d matrices, and its column j is compared
with [x^[p], b_j].  The checks run in Python ints: over Q on the table and
the gram each scaled by the lcm of its denominators, over F_p on the
residues.  One sparse bracket, `_bracket`, serves the checks and the
nilpotent analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


def supertrace(field, a, m_even):
    s = field.zero
    for i in range(len(a)):
        d = a[i][i]
        s = field.add(s, d) if i < m_even else field.sub(s, d)
    return s


def super_commutator(field, a, b, pa, pb):
    ab = linalg.mat_mul(field, a, b)
    ba = linalg.mat_mul(field, b, a)
    combine = field.add if pa and pb else field.sub
    return [[combine(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


# ---------------------------------------------------------------------------
# the algebra object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisVector:
    index: int
    parity: int   # 0 even, 1 odd
    label: str


def _bracket(table, v, w, out, scale=1):
    """Add scale * [v, w] to out and return it.  v and w are sparse
    {index: coeff} vectors, table is {(i, j): {k: c}}; the arithmetic is
    Python's own, so over F_p the caller reduces the entries of out mod p.
    Cancelled entries stay in out as zeros."""
    for i, a in v.items():
        if scale != 1:
            a = scale * a
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


class LieSuperalgebra:
    """Finite-dimensional Lie superalgebra with a fixed homogeneous basis.

    structure: dict (i, j) -> {k: coeff} giving [b_i, b_j]; zero brackets
      and zero coefficients are left out.  The module-level `_bracket` is
      the one routine that reads it: every axiom check and the nilpotent
      analysis go through it on sparse {index: coeff} vectors.
    gram: invariant form matrix (b_i, b_j), or None.
    realization: list of supermatrices, or None.
    p_map: dict even index -> coordinate tuple of b_i^[p], only mod p.

    The axioms are checked on every basis pair and triple in Python ints:
    over Q on the table times the lcm of its denominators and the gram times
    the lcm of its own, over F_p on the residues, reduced mod p once per
    tested value.  Every identity is homogeneous in the table and in the
    gram, so the scaled one vanishes exactly when the rational one does.
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
        p = self.field.char
        d = self.dim
        par = self.parities
        den = _common_denominator(c for entries in self.structure.values()
                                  for c in entries.values())
        table = {key: {k: _integral(c, den) for k, c in entries.items()}
                 for key, entries in self.structure.items()}
        unit = [{i: 1} for i in range(d)]
        for i in range(d):
            for j in range(d):
                # super skew-symmetry: [b_i,b_j] + (-1)^{|i||j|}[b_j,b_i] = 0
                acc = _bracket(table, unit[i], unit[j], {})
                _bracket(table, unit[j], unit[i], acc,
                         -1 if par[i] and par[j] else 1)
                if _nonzero(acc, p):
                    raise AlgebraError("super skew-symmetry fails at (%d,%d)" % (i, j))
        empty = {}
        for i in range(d):
            for j in range(d):
                bij = table.get((i, j), empty)
                sign = 1 if par[i] and par[j] else -1
                for k in range(d):
                    # [b_i,[b_j,b_k]] = [[b_i,b_j],b_k] + (-1)^{|i||j|}[b_j,[b_i,b_k]]
                    jk = table.get((j, k), empty)
                    ik = table.get((i, k), empty)
                    if not (bij or jk or ik):
                        continue  # all three terms are zero
                    acc = _bracket(table, unit[i], jk, {})
                    _bracket(table, bij, unit[k], acc, -1)
                    _bracket(table, unit[j], ik, acc, sign)
                    if _nonzero(acc, p):
                        raise AlgebraError("super Jacobi fails at (%d,%d,%d)" % (i, j, k))
        if self.gram is not None:
            self._verify_form(table)
        if self.p_map is not None:
            self._verify_p_map(table, unit)

    def _verify_form(self, table):
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
        # column k of the gram, so that (v, b_k) reads only v's support
        columns = list(zip(*g))
        empty = {}
        for i in range(d):
            gi = g[i]
            for j in range(d):
                bij = table.get((i, j), empty)
                for k in range(d):
                    # ([b_i,b_j], b_k) = (b_i, [b_j,b_k])
                    jk = table.get((j, k), empty)
                    if not (bij or jk):
                        continue  # both sides are zero
                    gk = columns[k]
                    v = (sum(c * gk[t] for t, c in bij.items())
                         - sum(c * gi[t] for t, c in jk.items()))
                    if v % p if p else v:
                        raise AlgebraError("form is not invariant")
        # nondegeneracy is checked in invariant_form: sl(n|n) builds with a
        # degenerate supertrace form and must fail only when the form is used

    def _verify_p_map(self, table, unit):
        p = self.field.char
        d = self.dim
        if p == 0:
            raise AlgebraError("a p-map needs a field of positive characteristic")
        for i, coords in self.p_map.items():
            if self.parities[i]:
                raise AlgebraError("p-map defined on an odd vector (%d)" % i)
            xp = {k: c for k, c in enumerate(coords) if c % p}
            # (ad x)^p by squaring; column j is (ad x)^p (b_j)
            ad = [[0] * d for _ in range(d)]
            for j in range(d):
                for k, c in table.get((i, j), {}).items():
                    ad[k][j] = c % p
            power = mat_pow(self.field, ad, p)
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
        # the I part of each reduced row, keyed by flattened entry; the rows
        # past dim are the consistency conditions
        self._rows = [{k - self.dim: c for k, c in row.items() if k >= self.dim}
                      for row in red]

    def coords(self, mat):
        f = self.field
        flat = [mat[a][b] for a in range(self.n) for b in range(self.n)]
        values = []
        for row in self._rows:
            acc = f.zero
            for t, c in row.items():
                if not f.is_zero(flat[t]):
                    acc = f.add(acc, f.mul(c, flat[t]))
            values.append(acc)
        if any(not f.is_zero(v) for v in values[self.dim:]):
            raise AlgebraError("matrix lies outside the algebra")
        return values[: self.dim]


def structure_from_realization(field, realization, parities):
    """The table {(i, j): {k: c}} with [R_i, R_j] = sum_k c R_k."""
    coord = Coordinatizer(field, realization)
    structure = {}
    for i, ri in enumerate(realization):
        for j, rj in enumerate(realization):
            c = coord.coords(super_commutator(field, ri, rj,
                                              parities[i], parities[j]))
            entries = {k: v for k, v in enumerate(c) if not field.is_zero(v)}
            if entries:
                structure[(i, j)] = entries
    return structure


def supertrace_gram(field, realization, m_even):
    return [[supertrace(field, linalg.mat_mul(field, a, b), m_even)
             for b in realization] for a in realization]


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
            mat[i][j] = Fraction(1)
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
        mat[i][i] = Fraction(1)
        mat[i + 1][i + 1] = Fraction(-1) if (i + 1 != m) else Fraction(1)
        basis.append(BasisVector(len(basis), 0, "H%d" % (i + 1)))
        realization.append(mat)
    return _matrix_algebra("sl", (m, n), basis, realization)


def osp_form_matrix(m, two_k):
    """Gram of the defining even form: antidiagonal symmetric on the even part,
    standard symplectic on the odd part."""
    N = m + two_k
    B = zero_matrix(N)
    for i in range(m):
        B[i][m - 1 - i] = Fraction(1)
    k = two_k // 2
    for i in range(k):
        B[m + i][m + k + i] = Fraction(1)
        B[m + k + i][m + i] = Fraction(-1)
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
                    coef = Fraction(0)
                    # (X^T B)_{a,b}: X_{i,a} B_{i,b} contribution when i == ... expand
                    if a == j:
                        coef += B[i][b_ix]
                    if b_ix == j:
                        coef += Fraction(sgn) * B[a][i]
                    row.append(coef)
                rows.append(row)
        for v in linalg.kernel_rows(QQ, *linalg.rref(QQ, rows), len(positions)):
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
