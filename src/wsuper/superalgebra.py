"""Basic Lie superalgebras gl(m|n), sl(m|n), osp(m|2k) from matrix realizations.

A supermatrix of size (m|n) is a list of m+n rows of Fractions; indices below m
are even, the rest odd.  An algebra is built by picking a basis of homogeneous
supermatrices, computing structure constants from supercommutators and the
invariant form from the supertrace.  Skew symmetry, the super Jacobi identity
and the four bilinear-form axioms are checked exhaustively at construction,
which is cheap at these dimensions.
"""

from __future__ import annotations

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
    n = len(a)
    out = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = linalg.mat_mul(field, out, a)
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
    if pa and pb:
        return _mat_add_f(field, ab, ba)
    return _mat_sub_f(field, ab, ba)


def _mat_add_f(field, a, b):
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_sub_f(field, a, b):
    return [[field.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# ---------------------------------------------------------------------------
# the algebra object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisVector:
    index: int
    parity: int   # 0 even, 1 odd
    label: str


class LieSuperalgebra:
    """Finite-dimensional Lie superalgebra with a fixed homogeneous basis.

    structure: dict (i, j) -> tuple of (k, coeff) pairs giving [b_i, b_j].
    gram: invariant form matrix (b_i, b_j), or None.
    realization: list of supermatrices, or None.
    p_map: dict even index -> coordinate tuple of b_i^[p], only mod p.
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

    def dim_pair(self):
        even = sum(1 for b in self.basis if b.parity == 0)
        return (even, self.dim - even)

    def bracket_basis(self, i, j):
        return self.structure.get((i, j), ())

    def bracket(self, v, w):
        """Supercommutator of two coordinate vectors (not required homogeneous)."""
        f = self.field
        out = [f.zero] * self.dim
        for i, ci in enumerate(v):
            if f.is_zero(ci):
                continue
            for j, cj in enumerate(w):
                if f.is_zero(cj):
                    continue
                for k, c in self.bracket_basis(i, j):
                    out[k] = f.add(out[k], f.mul(f.mul(ci, cj), c))
        return out

    def ad_matrix(self, v):
        """Matrix of ad v in the basis, columns indexed by basis vectors."""
        f = self.field
        cols = []
        for j in range(self.dim):
            img = [f.zero] * self.dim
            for i, ci in enumerate(v):
                if f.is_zero(ci):
                    continue
                for k, c in self.bracket_basis(i, j):
                    img[k] = f.add(img[k], f.mul(ci, c))
            cols.append(img)
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def parity_of_vector(self, v):
        f = self.field
        par = None
        for i, c in enumerate(v):
            if not f.is_zero(c):
                p = self.parities[i]
                if par is None:
                    par = p
                elif par != p:
                    return None
        return 0 if par is None else par

    def realize(self, v):
        assert self.realization is not None, "no matrix realization"
        f = self.field
        n = len(self.realization[0])
        out = [[f.zero] * n for _ in range(n)]
        for i, c in enumerate(v):
            if f.is_zero(c):
                continue
            ri = self.realization[i]
            for a in range(n):
                for b in range(n):
                    out[a][b] = f.add(out[a][b], f.mul(c, ri[a][b]))
        return out

    def form(self, v, w):
        assert self.gram is not None
        f = self.field
        acc = f.zero
        for i, ci in enumerate(v):
            if f.is_zero(ci):
                continue
            gi = self.gram[i]
            for j, cj in enumerate(w):
                if not f.is_zero(cj):
                    acc = f.add(acc, f.mul(f.mul(ci, cj), gi[j]))
        return acc

    # -- verification ---------------------------------------------------------

    def _bracket_dict(self, elt, j):
        """[elt, b_j] for a dict-represented element."""
        f = self.field
        out = {}
        for i, ci in elt.items():
            for k, c in self.bracket_basis(i, j):
                out[k] = f.add(out.get(k, f.zero), f.mul(ci, c))
        return {k: v for k, v in out.items() if not f.is_zero(v)}

    def _verify(self):
        f = self.field
        d = self.dim
        for i in range(d):
            for j in range(d):
                # super skew-symmetry: [i,j] = -(-1)^{|i||j|}[j,i]
                lhs = dict(self.bracket_basis(i, j))
                rhs = dict(self.bracket_basis(j, i))
                sign_pos = bool(self.parities[i] and self.parities[j])
                for k in set(lhs) | set(rhs):
                    a = lhs.get(k, f.zero)
                    b = rhs.get(k, f.zero)
                    expect = b if sign_pos else f.neg(b)
                    if not f.is_zero(f.sub(a, expect)):
                        raise AlgebraError("super skew-symmetry fails at (%d,%d)" % (i, j))
        for i in range(d):
            for j in range(d):
                bij = dict(self.bracket_basis(i, j))
                for k in range(d):
                    # [b_i,[b_j,b_k]] = [[b_i,b_j],b_k] + (-1)^{|i||j|}[b_j,[b_i,b_k]]
                    inner = dict(self.bracket_basis(j, k))
                    lhs = {}
                    for c_idx, cv in inner.items():
                        for t, c in self.bracket_basis(i, c_idx):
                            lhs[t] = f.add(lhs.get(t, f.zero), f.mul(cv, c))
                    t1 = self._bracket_dict(bij, k)
                    inner2 = dict(self.bracket_basis(i, k))
                    t2 = {}
                    for c_idx, cv in inner2.items():
                        for t, c in self.bracket_basis(j, c_idx):
                            t2[t] = f.add(t2.get(t, f.zero), f.mul(cv, c))
                    sgn = -1 if (self.parities[i] and self.parities[j]) else 1
                    for t in set(lhs) | set(t1) | set(t2):
                        val = f.sub(lhs.get(t, f.zero), t1.get(t, f.zero))
                        tv = t2.get(t, f.zero)
                        val = f.sub(val, tv) if sgn > 0 else f.add(val, tv)
                        if not f.is_zero(val):
                            raise AlgebraError("super Jacobi fails at (%d,%d,%d)" % (i, j, k))
        if self.gram is not None:
            self._verify_form()
        if self.p_map is not None:
            self._verify_p_map()

    def _verify_form(self):
        f = self.field
        d = self.dim
        g = self.gram
        for i in range(d):
            for j in range(d):
                if self.parities[i] != self.parities[j] and not f.is_zero(g[i][j]):
                    raise AlgebraError("form is not even")
                sgn = -1 if (self.parities[i] and self.parities[j]) else 1
                expect = g[j][i] if sgn > 0 else f.neg(g[j][i])
                if not f.is_zero(f.sub(g[i][j], expect)):
                    raise AlgebraError("form is not supersymmetric")
        basis_vecs = [[f.one if t == i else f.zero for t in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(d):
                bij = self.bracket(basis_vecs[i], basis_vecs[j])
                for k in range(d):
                    lhs = self.form(bij, basis_vecs[k])
                    rhs = self.form(basis_vecs[i], self.bracket(basis_vecs[j], basis_vecs[k]))
                    if not f.is_zero(f.sub(lhs, rhs)):
                        raise AlgebraError("form is not invariant")
        # nondegeneracy is checked in invariant_form: sl(n|n) builds with a
        # degenerate supertrace form and must fail only when the form is used

    def _verify_p_map(self):
        f = self.field
        p = f.char
        assert p > 0
        for i, coords in self.p_map.items():
            assert self.parities[i] == 0, "p-map defined on an odd vector"
            # axiom (b) on basis pairs: [x^[p], y] = (ad x)^p (y)
            xpb = list(coords)
            for j in range(self.dim):
                y = [f.one if t == j else f.zero for t in range(self.dim)]
                lhs = self.bracket(xpb, y)
                img = y
                x = [f.one if t == i else f.zero for t in range(self.dim)]
                for _ in range(p):
                    img = self.bracket(x, img)
                if any(not f.is_zero(f.sub(a, b)) for a, b in zip(lhs, img)):
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


def structure_from_realization(field, realization, parities, m_even):
    coord = Coordinatizer(field, realization)
    structure = {}
    d = len(realization)
    for i in range(d):
        for j in range(d):
            br = super_commutator(field, realization[i], realization[j],
                                  parities[i], parities[j])
            c = coord.coords(br)
            entries = tuple((k, v) for k, v in enumerate(c) if not field.is_zero(v))
            if entries:
                structure[(i, j)] = entries
    return structure, coord


def supertrace_gram(field, realization, m_even):
    d = len(realization)
    g = [[field.zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            g[i][j] = supertrace(field, linalg.mat_mul(
                field, realization[i], realization[j]), m_even)
    return g


# ---------------------------------------------------------------------------
# the three families
# ---------------------------------------------------------------------------

def _elementary(n, i, j, field=QQ):
    m = zero_matrix(n, field)
    m[i][j] = field.one
    return m


def build_gl(m, n):
    if m < 0 or n < 0 or m + n == 0:
        raise AlgebraError("gl(%d|%d) is not a valid shape" % (m, n))
    N = m + n
    basis = []
    realization = []
    for i in range(N):
        for j in range(N):
            parity = 0 if (i < m) == (j < m) else 1
            basis.append(BasisVector(len(basis), parity, "E%d%d" % (i + 1, j + 1)))
            realization.append(_elementary(N, i, j))
    structure, _ = structure_from_realization(QQ, realization,
                                              [b.parity for b in basis], m)
    gram = supertrace_gram(QQ, realization, m)
    return LieSuperalgebra(QQ, basis, structure, gram=gram,
                           realization=realization, family="gl", shape=(m, n))


def build_sl(m, n):
    if m + n == 0 or (m, n) == (0, 0):
        raise AlgebraError("sl(0|0) is not a valid shape")
    if m == n:
        # supertrace form degenerates on sl(n|n); the build itself is allowed
        pass
    N = m + n
    basis = []
    realization = []
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            parity = 0 if (i < m) == (j < m) else 1
            basis.append(BasisVector(len(basis), parity, "E%d%d" % (i + 1, j + 1)))
            realization.append(_elementary(N, i, j))
    for i in range(N - 1):
        # str-homogeneous diagonal: E_ii - E_{i+1,i+1}, sign-flipped at the block edge
        mat = zero_matrix(N)
        mat[i][i] = Fraction(1)
        mat[i + 1][i + 1] = Fraction(-1) if (i + 1 != m) else Fraction(1)
        basis.append(BasisVector(len(basis), 0, "H%d" % (i + 1)))
        realization.append(mat)
    structure, _ = structure_from_realization(QQ, realization,
                                              [b.parity for b in basis], m)
    gram = supertrace_gram(QQ, realization, m)
    return LieSuperalgebra(QQ, basis, structure, gram=gram,
                           realization=realization, family="sl", shape=(m, n))


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
        for v in linalg.nullspace(QQ, rows, cols=len(positions)):
            mat = zero_matrix(N)
            for (pos, c) in zip(positions, v):
                mat[pos[0]][pos[1]] = c
            realization.append(mat)
            parities.append(target_parity)
    basis = [BasisVector(i, parities[i], "G%d" % (i + 1)) for i in range(len(realization))]
    structure, _ = structure_from_realization(QQ, realization, parities, m)
    gram = supertrace_gram(QQ, realization, m)
    return LieSuperalgebra(QQ, basis, structure, gram=gram,
                           realization=realization, family="osp", shape=(m, n))


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
