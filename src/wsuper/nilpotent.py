"""Nilpotent datum: sl2-triple, Dynkin grading, co-basis, and the subalgebras
m, m' and p that drive everything downstream.

analyze_nilpotent rebuilds a basis of the algebra adapted to the nilpotent:
co-basis generators x (even, weight >= 0), y (odd, weight >= 0), u (even,
weight -1, symplectically normalized), v (odd, weight -1, symmetrically
normalized), followed by the generators of m.  All the structural identities
(the orthogonal decomposition of the annihilator of m, the decomposition of
the nonnegative part, the dimension count per parity) are asserted here, so a
NilpotentData that constructs at all is already verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .scalars import is_rational_square
from .superalgebra import AlgebraError


class NilpotentError(ValueError):
    pass


class FormNormalizationError(NilpotentError):
    """Raised when hyperbolic/unit normalization needs an irrational square
    root; carries the diagonal Gram that was achieved."""

    def __init__(self, msg, achieved=None):
        super().__init__(msg)
        self.achieved = achieved


@dataclass(frozen=True)
class Sl2Triple:
    e: tuple
    h: tuple
    f: tuple

    def is_zero(self):
        return all(x == 0 for x in self.e)


@dataclass(frozen=True)
class AdaptedGenerator:
    vector: tuple      # coordinates in the original basis
    parity: int
    weight: int
    label: str
    kind: str          # one of "x", "y", "u", "v", "m"


# ---------------------------------------------------------------------------
# sl2 triples
# ---------------------------------------------------------------------------

def is_nilpotent_element(alg, e):
    ad = alg.ad_matrix(list(e))
    f = alg.field
    power = [row[:] for row in ad]
    for _ in range(alg.dim):
        if all(f.is_zero(x) for row in power for x in row):
            return True
        power = linalg.mat_mul(f, power, ad)
    return all(f.is_zero(x) for row in power for x in row)


def sl2_triple(alg, e):
    """Complete an even nilpotent e to (e, h, f) with [h,e]=2e, [h,f]=-2f,
    [e,f]=h.  Solutions are picked deterministically (echelon particular
    solutions with free variables zero)."""
    f = alg.field
    e = [f.of(c) for c in e]
    par = alg.parity_of_vector(e)
    if par == 1:
        raise NilpotentError("nilpotent element must be even")
    if all(f.is_zero(c) for c in e):
        z = tuple([f.zero] * alg.dim)
        return Sl2Triple(z, z, z)
    if not is_nilpotent_element(alg, e):
        raise NilpotentError("element is not ad-nilpotent")
    ad_e = alg.ad_matrix(e)
    ad_e2 = linalg.mat_mul(f, ad_e, ad_e)
    even_cols = [i for i in range(alg.dim) if alg.parities[i] == 0]
    # step 1: h = [e, w] with (ad e)^2 w = -2e
    mat = [[ad_e2[r][c] for c in even_cols] for r in range(alg.dim)]
    rhs = [f.mul(f.of(-2), c) for c in e]
    sol = linalg.solve_affine(f, mat, rhs)
    if sol is None:
        raise NilpotentError("no sl2 completion: h equation unsolvable")
    w = [f.zero] * alg.dim
    for c, i in enumerate(even_cols):
        w[i] = sol[c]
    h = alg.bracket(e, w)
    # step 2: f with [e,f] = h and [h,f] = -2f
    ad_h = alg.ad_matrix(h)
    rows = []
    rhs2 = []
    for r in range(alg.dim):
        rows.append([ad_e[r][c] for c in even_cols])
        rhs2.append(h[r])
    for r in range(alg.dim):
        row = [ad_h[r][c] for c in even_cols]
        row = [f.add(row[t], f.of(2) if even_cols[t] == r else f.zero)
               for t in range(len(even_cols))]
        rows.append(row)
        rhs2.append(f.zero)
    sol = linalg.solve_affine(f, rows, rhs2)
    if sol is None:
        raise NilpotentError("no sl2 completion: f equation unsolvable")
    fv = [f.zero] * alg.dim
    for c, i in enumerate(even_cols):
        fv[i] = sol[c]
    triple = Sl2Triple(tuple(e), tuple(h), tuple(fv))
    _check_triple(alg, triple)
    return triple


def _check_triple(alg, tr):
    f = alg.field
    if tr.is_zero():
        return
    he = alg.bracket(list(tr.h), list(tr.e))
    hf = alg.bracket(list(tr.h), list(tr.f))
    ef = alg.bracket(list(tr.e), list(tr.f))
    for i in range(alg.dim):
        if not f.is_zero(f.sub(he[i], f.mul(f.of(2), tr.e[i]))):
            raise NilpotentError("[h,e] != 2e")
        if not f.is_zero(f.add(hf[i], f.mul(f.of(2), tr.f[i]))):
            raise NilpotentError("[h,f] != -2f")
        if not f.is_zero(f.sub(ef[i], tr.h[i])):
            raise NilpotentError("[e,f] != h")


# ---------------------------------------------------------------------------
# weight-space decomposition
# ---------------------------------------------------------------------------

def _eigen_layers(alg, h):
    """Exact eigenspace bases of ad h per (integer weight, parity).

    Returns dict (weight, parity) -> list of vectors.  Fails if ad h is not
    diagonalizable with integer eigenvalues.
    """
    f = alg.field
    d = alg.dim
    ad_h = alg.ad_matrix(list(h))
    bound = 0
    for row in ad_h:
        s = sum(abs(Fraction(x)) for x in row)
        bound = max(bound, int(s) + 1)
    layers = {}
    total = 0
    for wt in range(-bound, bound + 1):
        for par in (0, 1):
            cols = [i for i in range(d) if alg.parities[i] == par]
            if not cols:
                continue
            mat = []
            for r in range(d):
                row = []
                for c in cols:
                    v = ad_h[r][c]
                    if c == r:
                        v = f.sub(v, f.of(wt))
                    row.append(v)
                mat.append(row)
            basis = linalg.nullspace(f, mat, cols=len(cols))
            vecs = []
            for b in basis:
                vec = [f.zero] * d
                for t, c in enumerate(cols):
                    vec[c] = b[t]
                vecs.append(tuple(vec))
            if vecs:
                layers[(wt, par)] = vecs
                total += len(vecs)
    if total != d:
        raise NilpotentError("ad h is not integrally diagonalizable"
                             " (found %d of %d dimensions)" % (total, d))
    return layers


def original_basis_weights(alg, h):
    """Per-basis-vector ad-h eigenvalues, or None if the basis is not graded."""
    f = alg.field
    ad_h = alg.ad_matrix(list(h))
    weights = []
    for j in range(alg.dim):
        wt = ad_h[j][j]
        for i in range(alg.dim):
            if i != j and not f.is_zero(ad_h[i][j]):
                return None
        if f.char == 0 and Fraction(wt).denominator != 1:
            return None
        weights.append(int(wt))
    return tuple(weights)


# ---------------------------------------------------------------------------
# bilinear form normalizations on g(-1)
# ---------------------------------------------------------------------------

def _reduce_against_pair(field, form, vecs, a, b):
    """Project vecs onto the orthogonal complement of the hyperbolic pair
    (a, b).  form(a,b) is -1 in the symplectic convention, 1 in the symmetric
    one; the formulas below only use the actual pair values."""
    fab = form(a, b)
    out = []
    for w in vecs:
        ca = field.div(form(w, b), fab)
        fba = form(b, a)
        cb = field.div(form(w, a), fba)
        w2 = [field.sub(field.sub(w[i], field.mul(ca, a[i])), field.mul(cb, b[i]))
              for i in range(len(w))]
        out.append(w2)
    return [v for v in linalg.echelon_span(field, out)]


def symplectic_normal_basis(field, vectors, form):
    """Darboux basis u_1..u_2s with form(u_i, u_j) = i* delta_{i+j,2s+1},
    where i* is -1 for i <= s and 1 otherwise."""
    work = [list(v) for v in linalg.echelon_span(field, [list(v) for v in vectors])]
    if len(work) % 2 != 0:
        raise NilpotentError("symplectic space of odd dimension")
    s = len(work) // 2
    firsts = []
    seconds = []
    while work:
        a = work[0]
        partner = None
        for cand in work[1:]:
            if not field.is_zero(form(a, cand)):
                partner = cand
                break
        if partner is None:
            raise NilpotentError("degenerate symplectic form")
        beta = form(a, partner)
        # scale so that form(a, b) = -1
        b = [field.div(field.neg(x), beta) for x in partner]
        firsts.append(tuple(a))
        seconds.append(tuple(b))
        rest = [w for w in work if w is not a and w is not partner]
        work = _reduce_against_pair(field, form, rest, a, b)
    assert len(firsts) == s
    return firsts + list(reversed(seconds))


def _square_root_in(field, x):
    if field.char == 0:
        return is_rational_square(x)
    return _square_mod_p(field, x)


def _find_rational_isotropic(field, work, form):
    for w in work:
        if field.is_zero(form(w, w)):
            return list(w)
    # try two-vector combinations w_i + t w_j with t in the base field
    for i in range(len(work)):
        for j in range(len(work)):
            if i == j:
                continue
            a = form(work[i], work[i])
            b = form(work[j], work[j])
            c = form(work[i], work[j])
            disc = field.sub(field.mul(c, c), field.mul(a, b))
            ok, root = _square_root_in(field, disc)
            if not ok:
                continue
            # a + 2tc + t^2 b = 0
            if field.is_zero(b):
                if field.is_zero(c):
                    continue
                t = field.div(field.neg(a), field.mul(field.of(2), c))
            else:
                t = field.div(field.sub(root, c), b)
            return [field.add(work[i][k], field.mul(t, work[j][k]))
                    for k in range(len(work[i]))]
    return None


def symmetric_normal_basis(field, vectors, form):
    """Basis v_1..v_r with form(v_i, v_j) = delta_{i+j,r+1} off the middle;
    for odd r the self-paired middle vector gets norm 1 when the needed square
    root is rational, otherwise its norm is returned as-is.

    Returns (vectors, middle_norm or None, normalized flag)."""
    work = [list(v) for v in linalg.echelon_span(field, [list(v) for v in vectors])]
    r = len(work)
    t = r // 2
    firsts = []
    seconds = []
    for _ in range(t):
        a = _find_rational_isotropic(field, work, form)
        if a is None:
            achieved = _diagonalized_gram(field, work, form)
            raise FormNormalizationError(
                "no rational isotropic vector for a hyperbolic pair", achieved)
        partner = None
        for cand in work:
            if not field.is_zero(form(a, cand)):
                partner = cand
                break
        if partner is None:
            raise NilpotentError("degenerate symmetric form")
        beta = form(a, partner)
        zz = form(partner, partner)
        # make the partner isotropic, then scale the pairing to 1
        bp = [field.sub(partner[k], field.mul(field.div(zz, field.mul(field.of(2), beta)), a[k]))
              for k in range(len(a))]
        b = [field.div(x, form(a, bp)) for x in bp]
        firsts.append(tuple(a))
        seconds.append(tuple(b))
        rest = []
        for w in work:
            da = form(w, b)
            db = form(w, a)
            w2 = [field.sub(field.sub(w[k], field.mul(da, a[k])), field.mul(db, b[k]))
                  for k in range(len(w))]
            rest.append(w2)
        work = [list(v) for v in linalg.echelon_span(field, rest)]
    middle_norm = None
    normalized = True
    middle = []
    if r % 2 == 1:
        assert len(work) == 1
        m = work[0]
        c = form(m, m)
        if field.is_zero(c):
            raise NilpotentError("degenerate symmetric form on the middle line")
        square, root = _square_root_in(field, c)
        if square:
            m = [field.div(x, root) for x in m]
            middle_norm = field.one
            normalized = True
        else:
            middle_norm = c
            normalized = False
        middle = [tuple(m)]
    elif work:
        raise NilpotentError("symmetric normalization left unexpected vectors")
    return firsts + middle + list(reversed(seconds)), middle_norm, normalized


def _square_mod_p(field, c):
    p = field.char
    c = c % p
    for x in range(1, p):
        if (x * x) % p == c:
            return True, x
    return False, None


def _diagonalized_gram(field, work, form):
    """Gram-Schmidt diagonal of the form, reported with the obstruction."""
    vecs = [list(v) for v in work]
    diag = []
    while vecs:
        a = None
        for w in vecs:
            if not field.is_zero(form(w, w)):
                a = w
                break
        if a is None:
            a_iso = _find_rational_isotropic(field, vecs, form)
            diag.append(field.zero if a_iso is None else field.zero)
            break
        diag.append(form(a, a))
        rest = []
        for w in vecs:
            if w is a:
                continue
            coef = field.div(form(w, a), form(a, a))
            rest.append([field.sub(w[k], field.mul(coef, a[k])) for k in range(len(w))])
        vecs = [list(v) for v in linalg.echelon_span(field, rest)]
    return diag


# ---------------------------------------------------------------------------
# the nilpotent datum
# ---------------------------------------------------------------------------

class NilpotentData:
    """Everything the enveloping-algebra layer needs, in one verified object.

    generators: adapted basis, co-basis first (x, y, u, v order) then m.
    brackets: dict (i, j) -> dict k -> coeff over adapted indices.
    chi: value of the normalized invariant form (e, .) on each generator.
    """

    def __init__(self, alg, triple, **data):
        self.alg = alg
        self.triple = triple
        self.__dict__.update(data)

    # counts: l, q, s, r, t as in the construction; m_count/n_count are the
    # numbers of x and y generators; t_cb is the number of co-basis v's.

    @property
    def q_prime(self):
        return self.q + 1 if self.r % 2 == 1 else self.q

    @property
    def r_odd(self):
        return self.r % 2 == 1

    def u_index(self, i):
        return self.m_count + self.n_count + i - 1

    def v_index(self, i):
        return self.m_count + self.n_count + self.s + i - 1

    @property
    def v_mid_index(self):
        assert self.r_odd
        return self.v_index(self.t + 1)

    @property
    def m_indices(self):
        return list(range(self.cobasis_count, len(self.generators)))

    @property
    def mprime_indices(self):
        idx = self.m_indices
        if self.r_odd:
            idx = [self.v_mid_index] + idx
        return idx

    @property
    def p_indices(self):
        return list(range(0, self.m_count + self.n_count))

    def dims_tuple(self):
        return (self.l, self.q, self.s, self.r, self.t)

    def __eq__(self, other):
        if not isinstance(other, NilpotentData):
            return NotImplemented
        return (self.triple == other.triple
                and self.generators == other.generators
                and self.chi == other.chi
                and self.middle_norm == other.middle_norm)


def analyze_nilpotent(alg, triple):
    f = alg.field
    if alg.gram is None:
        raise NilpotentError("algebra has no invariant form")
    if linalg.rank(f, [row[:] for row in alg.gram]) != alg.dim:
        raise AlgebraError("invariant form is degenerate")
    _check_triple(alg, triple)

    e, h, fv = list(triple.e), list(triple.h), list(triple.f)
    zero_case = triple.is_zero()

    # normalize the form so that (e, f) = 1; an isotropic triple ((e,f) = 0,
    # possible in gl(n|n)-like algebras) keeps the raw form and is flagged
    ef_normalized = True
    if zero_case:
        scale = f.one
    else:
        ef = alg.form(e, fv)
        if f.is_zero(ef):
            scale = f.one
            ef_normalized = False
        else:
            scale = f.inv(ef)
    gram = [[f.mul(scale, x) for x in row] for row in alg.gram]

    def form(v, w):
        acc = f.zero
        for i, ci in enumerate(v):
            if f.is_zero(ci):
                continue
            gi = gram[i]
            for j, cj in enumerate(w):
                if not f.is_zero(cj):
                    acc = f.add(acc, f.mul(f.mul(ci, cj), gi[j]))
        return acc

    chi_of = lambda v: form(e, v)

    layers = _eigen_layers(alg, h)
    weights_orig = original_basis_weights(alg, h)
    min_wt = min(w for (w, p) in layers)
    max_wt = max(w for (w, p) in layers)

    # cross-weight orthogonality and nondegenerate pairing g(i) with g(-i)
    for (wi, pi_), vi in layers.items():
        for (wj, pj), vj in layers.items():
            if wi + wj != 0:
                for a in vi:
                    for b in vj:
                        if not f.is_zero(form(list(a), list(b))):
                            raise NilpotentError("(g(i),g(j)) != 0 for i+j != 0")
    for (wt, par) in list(layers):
        mate = layers.get((-wt, par), [])
        blk = [[form(list(a), list(b)) for b in mate] for a in layers[(wt, par)]]
        if len(mate) != len(layers[(wt, par)]) or (
                blk and linalg.rank(f, blk) != len(blk)):
            raise NilpotentError("g(%d) does not pair nondegenerately with g(%d)"
                                 % (wt, -wt))

    if not zero_case:
        if not _vector_in_layer(alg, f, e, layers.get((2, 0), [])):
            raise NilpotentError("e is not in g(2) even part")
        if not _vector_in_layer(alg, f, fv, layers.get((-2, 0), [])):
            raise NilpotentError("f is not in g(-2) even part")

    # chi is supported on g(-2) even and vanishes on the odd part
    for (wt, par), vecs in layers.items():
        for v in vecs:
            val = chi_of(list(v))
            if (wt != -2 or par != 0) and not f.is_zero(val):
                raise NilpotentError("chi does not vanish on g(%d) parity %d"
                                     % (wt, par))

    ad_e = alg.ad_matrix(e)
    ad_f = alg.ad_matrix(fv)

    def image_under(ad, vecs):
        out = []
        for v in vecs:
            out.append(tuple(linalg.mat_vec(f, ad, list(v))))
        return [tuple(v) for v in linalg.echelon_span(f, [list(v) for v in out])]

    def kernel_in_layer(ad, vecs):
        if not vecs:
            return []
        cols = [list(v) for v in vecs]
        mat = [[f.zero] * len(cols) for _ in range(alg.dim)]
        for c, v in enumerate(cols):
            img = linalg.mat_vec(f, ad, v)
            for r in range(alg.dim):
                mat[r][c] = img[r]
        sols = linalg.nullspace(f, mat, cols=len(cols))
        out = []
        for sgl in sols:
            vec = [f.zero] * alg.dim
            for t, coef in enumerate(sgl):
                for r in range(alg.dim):
                    vec[r] = f.add(vec[r], f.mul(coef, cols[t][r]))
            out.append(tuple(vec))
        return out

    # centralizer layers and the complement inside p
    xs_ge, xs_im, ys_ge, ys_im = [], [], [], []
    for wt in range(0, max_wt + 1):
        for par, ge_list, im_list in ((0, xs_ge, xs_im), (1, ys_ge, ys_im)):
            vecs = layers.get((wt, par), [])
            ge = kernel_in_layer(ad_e, vecs)
            ge_list.extend(ge)
            src = layers.get((wt + 2, par), [])
            im = image_under(ad_f, src)
            im_list.extend(im)
            # direct-sum check inside this layer of p
            if vecs:
                if not linalg.intersect_zero(f, [list(v) for v in ge],
                                             [list(v) for v in im]):
                    raise NilpotentError("p-layer decomposition is not direct")
                if len(ge) + len(im) != len(vecs):
                    raise NilpotentError("p-layer decomposition misses vectors")

    l, q = len(xs_ge), len(ys_ge)
    xs = xs_ge + xs_im
    ys = ys_ge + ys_im
    m_count, n_count = len(xs), len(ys)

    # weight -1 spaces and their normalized bases
    even_m1 = layers.get((-1, 0), [])
    odd_m1 = layers.get((-1, 1), [])
    if len(even_m1) % 2 != 0:
        raise NilpotentError("dim g(-1) even part is odd")
    pair_form = lambda a, b: chi_of(alg.bracket(list(a), list(b)))
    us = symplectic_normal_basis(f, even_m1, pair_form) if even_m1 else []
    s = len(us) // 2
    if odd_m1:
        vs, middle_norm, middle_normalized = symmetric_normal_basis(
            f, odd_m1, pair_form)
    else:
        vs, middle_norm, middle_normalized = [], None, True
    r = len(vs)
    t = r // 2
    t_cb = t + 1 if r % 2 == 1 else t

    # m: everything of weight <= -2 plus the isotropic halves of g(-1)
    deep = []
    for wt in range(-2, min_wt - 1, -1):
        for par in (0, 1):
            deep.extend(layers.get((wt, par), []))
    m_even_g1 = us[s:]          # u_{s+1}..u_{2s}
    m_odd_g1 = vs[t_cb:]        # v_{t_cb+1}..v_r

    generators = []
    for i, v in enumerate(xs):
        generators.append(AdaptedGenerator(tuple(v), 0, _weight_of_vec(alg, f, v, layers),
                                           "x%d" % (i + 1), "x"))
    for i, v in enumerate(ys):
        generators.append(AdaptedGenerator(tuple(v), 1, _weight_of_vec(alg, f, v, layers),
                                           "y%d" % (i + 1), "y"))
    for i, v in enumerate(us[:s]):
        generators.append(AdaptedGenerator(tuple(v), 0, -1, "u%d" % (i + 1), "u"))
    for i, v in enumerate(vs[:t_cb]):
        generators.append(AdaptedGenerator(tuple(v), 1, -1, "v%d" % (i + 1), "v"))
    cobasis_count = len(generators)
    for i, v in enumerate(m_even_g1):
        generators.append(AdaptedGenerator(tuple(v), 0, -1, "u%d" % (s + i + 1), "m"))
    for i, v in enumerate(m_odd_g1):
        generators.append(AdaptedGenerator(tuple(v), 1, -1, "v%d" % (t_cb + i + 1), "m"))
    for i, v in enumerate(deep):
        generators.append(AdaptedGenerator(tuple(v), _parity_of_vec(alg, v),
                                           _weight_of_vec(alg, f, v, layers),
                                           "w%d" % (i + 1), "m"))

    # change of basis and adapted structure constants
    change = [[generators[j].vector[i] for j in range(len(generators))]
              for i in range(alg.dim)]
    try:
        change_inv = linalg.invert(f, change)
    except ValueError:
        raise NilpotentError("adapted generators do not form a basis")
    brackets = {}
    for i, gi in enumerate(generators):
        for j, gj in enumerate(generators):
            br = alg.bracket(list(gi.vector), list(gj.vector))
            coords = linalg.mat_vec(f, change_inv, br)
            entry = {k: c for k, c in enumerate(coords) if not f.is_zero(c)}
            if entry:
                brackets[(i, j)] = entry

    chi = tuple(chi_of(list(g.vector)) for g in generators)

    nd = NilpotentData(
        alg, triple,
        gram=gram, form_scale=scale, weights_original=weights_orig,
        generators=generators, brackets=brackets, chi=chi,
        cobasis_count=cobasis_count,
        l=l, q=q, s=s, r=r, t=t, t_cb=t_cb,
        m_count=m_count, n_count=n_count,
        middle_norm=middle_norm, middle_normalized=middle_normalized,
        ef_normalized=ef_normalized,
        layer_dims={k: len(v) for k, v in layers.items()},
    )
    _verify_datum(nd, layers, form)
    return nd


def _parity_of_vec(alg, v):
    p = alg.parity_of_vector(list(v))
    assert p is not None, "adapted generator is not parity homogeneous"
    return p


def _weight_of_vec(alg, f, v, layers):
    for (wt, par), vecs in layers.items():
        if _vector_in_layer(alg, f, list(v), vecs):
            return wt
    raise NilpotentError("vector lies in no single weight layer")


def _vector_in_layer(alg, f, v, vecs):
    if all(f.is_zero(c) for c in v):
        return True
    if not vecs:
        return False
    return linalg.in_span(f, [list(w) for w in vecs], list(v))


def _verify_datum(nd, layers, form):
    """The structural identities: m-annihilator decomposition, decomposition
    of the nonnegative part, dimension identity per parity, and the normal
    forms of the weight -1 pairings."""
    alg, f = nd.alg, nd.alg.field
    e, fv = list(nd.triple.e), list(nd.triple.f)
    gens = nd.generators

    # weights and parities of generators are consistent
    for g in gens:
        if g.kind in ("x",) and g.parity != 0:
            raise NilpotentError("x generator with odd parity")
        if g.kind in ("y",) and g.parity != 1:
            raise NilpotentError("y generator with even parity")

    # u/v gram shapes
    s, r = nd.s, nd.r
    pairf = lambda a, b: _chi_pair(nd, a, b)
    for i in range(1, 2 * s + 1):
        for j in range(1, 2 * s + 1):
            want = f.zero
            if i + j == 2 * s + 1:
                want = f.of(-1) if i <= s else f.one
            got = pairf(_u_by_label(gens, i), _u_by_label(gens, j))
            if not f.is_zero(f.sub(got, want)):
                raise NilpotentError("symplectic normal form violated at u(%d,%d)" % (i, j))
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            want = f.zero
            if i + j == r + 1 and i != j:
                want = f.one
            if i == j and r % 2 == 1 and i == (r + 1) // 2:
                want = nd.middle_norm
            got = pairf(_v_by_label(gens, i), _v_by_label(gens, j))
            if not f.is_zero(f.sub(got, want)):
                raise NilpotentError("symmetric normal form violated at v(%d,%d)" % (i, j))

    # x spans the even centralizer, y the odd one
    ad_e = alg.ad_matrix(e)
    for k in range(nd.l):
        img = linalg.mat_vec(f, ad_e, list(gens[k].vector))
        if any(not f.is_zero(c) for c in img):
            raise NilpotentError("x%d is not in the centralizer" % (k + 1))
    for k in range(nd.q):
        img = linalg.mat_vec(f, ad_e, list(gens[nd.m_count + k].vector))
        if any(not f.is_zero(c) for c in img):
            raise NilpotentError("y%d is not in the centralizer" % (k + 1))

    # m-annihilator decomposition: ann(m) = [m', e] + g^f, direct, per parity
    m_vecs = [list(gens[i].vector) for i in nd.m_indices]
    mprime_vecs = [list(gens[i].vector) for i in nd.mprime_indices]
    ann = _form_annihilator(nd, m_vecs)
    bracket_img = [alg.bracket(v, e) for v in mprime_vecs]
    gf = _kernel_of(alg, alg.ad_matrix(fv))
    for par in (0, 1):
        a_p = [v for v in (_split_parity(alg, v, par) for v in ann) if v]
        b_p = [v for v in (_split_parity(alg, v, par) for v in bracket_img) if v]
        g_p = [v for v in (_split_parity(alg, v, par) for v in gf) if v]
        da = linalg.span_dim(f, a_p)
        db = linalg.span_dim(f, b_p)
        dg = linalg.span_dim(f, g_p)
        dall = linalg.span_dim(f, b_p + g_p)
        if db + dg != dall or dall != da:
            raise NilpotentError("annihilator of m does not split as [m',e] + g^f")
        for v in b_p + g_p:
            if not linalg.in_span(f, a_p or [[f.zero] * alg.dim], v):
                raise NilpotentError("[m',e] + g^f escapes the annihilator of m")

    # nonnegative part: p = sum_{j>=2} [f, g(j)] + g^e, direct
    p_vecs = [list(gens[i].vector) for i in nd.p_indices]
    ge = [list(gens[i].vector) for i in range(nd.l)] + \
         [list(gens[nd.m_count + j].vector) for j in range(nd.q)]
    imgf = []
    for (wt, par), vecs in layers.items():
        if wt >= 2:
            for v in vecs:
                imgf.append(alg.bracket(fv, list(v)))
    d_ge = linalg.span_dim(f, ge)
    d_img = linalg.span_dim(f, imgf) if imgf else 0
    d_p = linalg.span_dim(f, p_vecs)
    d_both = linalg.span_dim(f, ge + imgf)
    if d_ge + d_img != d_both or d_both != d_p:
        raise NilpotentError("nonnegative part does not split as [f,g(>=2)] + g^e")

    # dimension identity per parity
    for par in (0, 1):
        dim_g = sum(1 for p_ in alg.parities if p_ == par)
        dim_ge = nd.l if par == 0 else nd.q
        rhs = 0
        for (wt, par2), n in nd.layer_dims.items():
            if par2 != par:
                continue
            if wt <= -2:
                rhs += 2 * n
            elif wt == -1:
                rhs += n
        if dim_g - dim_ge != rhs:
            raise NilpotentError("dimension identity fails for parity %d" % par)


def _chi_pair(nd, a, b):
    alg, f = nd.alg, nd.alg.field
    br = alg.bracket(list(a), list(b))
    acc = f.zero
    e = list(nd.triple.e)
    for i, ci in enumerate(e):
        if f.is_zero(ci):
            continue
        gi = nd.gram[i]
        for j, cj in enumerate(br):
            if not f.is_zero(cj):
                acc = f.add(acc, f.mul(f.mul(ci, cj), gi[j]))
    return acc


def _u_by_label(gens, i):
    for g in gens:
        if g.label == "u%d" % i:
            return g.vector
    raise KeyError(i)


def _v_by_label(gens, i):
    for g in gens:
        if g.label == "v%d" % i:
            return g.vector
    raise KeyError(i)


def _split_parity(alg, v, par):
    f = alg.field
    out = [c if alg.parities[i] == par else f.zero for i, c in enumerate(v)]
    if all(f.is_zero(c) for c in out):
        return None
    return out


def _form_annihilator(nd, m_vecs):
    """Vectors x with (x, m) = 0, via the normalized gram."""
    alg, f = nd.alg, nd.alg.field
    if not m_vecs:
        return [[f.one if i == j else f.zero for i in range(alg.dim)]
                for j in range(alg.dim)]
    rows = []
    for v in m_vecs:
        row = []
        for j in range(alg.dim):
            acc = f.zero
            for i, ci in enumerate(v):
                if not f.is_zero(ci):
                    acc = f.add(acc, f.mul(ci, nd.gram[i][j]))
            row.append(acc)
        rows.append(row)
    return linalg.nullspace(f, rows, cols=alg.dim)


def _kernel_of(alg, ad):
    return linalg.nullspace(alg.field, [row[:] for row in ad], cols=alg.dim)
