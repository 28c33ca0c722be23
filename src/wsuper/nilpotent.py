"""Nilpotent datum: sl2-triple, Dynkin grading, co-basis, and the subalgebras
m, m' and p that drive everything downstream.

analyze_nilpotent rebuilds a basis of the algebra adapted to the nilpotent:
co-basis generators x (even, weight >= 0), y (odd, weight >= 0), u (even,
weight -1, symplectically normalized), v (odd, weight -1, symmetrically
normalized), followed by the generators of m.  All the structural identities
(the orthogonal decomposition of the annihilator of m, the decomposition of
the nonnegative part, the dimension count per parity) are checked here, and
each one that fails raises NilpotentError, so a NilpotentData that constructs
at all is already verified.

The analysis is rational and sparse.  An algebra over F_p is refused with
NilpotentError; the mod-p layer reduces the rational datum instead.  Every
vector is a {basis index: c} dict without zeros, each c in canonical form
(`scalars.exact`: an int where integral, else a Fraction), and every
division goes through `QQ.div`, so no quotient of ints becomes a float; the
datum handed out is canonical throughout.  Brackets go through
`superalgebra._bracket`, the form through the rows of the gram, and every
span, rank and kernel through `linalg.rref`, `rank` and `kernel`; a system
given by its columns is transposed by `linalg.transposed`, which decides the
order of its rows.  Dense coordinate tuples appear only where the datum is
stored, in `Sl2Triple` and `AdaptedGenerator.vector`.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg
from .scalars import QQ, exact, is_rational_square
from .superalgebra import AlgebraError, _bracket

ZERO = 0
ONE = 1


class NilpotentError(ValueError):
    pass


class FormNormalizationError(NilpotentError):
    """Raised when hyperbolic/unit normalization needs an irrational square
    root; carries the diagonal Gram that was achieved."""

    def __init__(self, msg, achieved=None):
        super().__init__(msg)
        self.achieved = achieved


class Sl2Triple(namedtuple("Sl2Triple", "e h f")):
    """The coordinate tuples of e, h and f."""
    __slots__ = ()

    def is_zero(self):
        return all(x == 0 for x in self.e)


class AdaptedGenerator(namedtuple("AdaptedGenerator",
                                  "vector parity weight label kind")):
    """vector: coordinates in the original basis; kind: one of "x", "y",
    "u", "v", "m"."""
    __slots__ = ()


# ---------------------------------------------------------------------------
# sparse rational vectors
# ---------------------------------------------------------------------------

def _rational(alg):
    if alg.field.char:
        raise NilpotentError("the nilpotent analysis runs over Q, not over"
                             " F_%d; reduce the rational datum instead"
                             % alg.field.char)


def _sparse(v):
    return {i: c for i, c in enumerate(v) if c}


def _dense(v, dim):
    return tuple(v.get(i, ZERO) for i in range(dim))


def _combine(terms):
    """The sum of c * v over the (c, v) pairs, without zeros."""
    out = {}
    for c, v in terms:
        for k, x in v.items():
            out[k] = out.get(k, 0) + c * x
    return {k: exact(x) for k, x in out.items() if x}


def _dot(u, v):
    return exact(sum((c * v[k] for k, c in u.items() if k in v), ZERO))


def _br(alg, v, w):
    """[v, w] without zeros."""
    return {k: exact(c) for k, c in _bracket(alg.structure, v, w, {}).items()
            if c}


def _ad_columns(alg, v):
    """The columns [v, b_j] of ad v."""
    return [_br(alg, v, {j: ONE}) for j in range(alg.dim)]


def _kernel(columns, n):
    """The canonical kernel basis, as {column: c} rows, of the matrix with n
    rows and the given columns."""
    return linalg.kernel(QQ, linalg.transposed(columns, n), len(columns))


def _covector(gram_rows, v):
    """The functional (v, .) as a {index: c} dict."""
    return _combine((c, gram_rows[i]) for i, c in v.items())


# ---------------------------------------------------------------------------
# sl2 triples
# ---------------------------------------------------------------------------

def is_nilpotent_element(alg, e):
    """Whether (ad e)^(dim + 1) kills every basis vector."""
    _rational(alg)
    e = _sparse(e)
    images = [{j: ONE} for j in range(alg.dim)]
    for _ in range(alg.dim + 1):
        images = [w for w in (_br(alg, e, v) for v in images) if w]
        if not images:
            return True
    return False


def _solve_even(even, columns, rhs):
    """The vector sum_c x_c b_{even[c]} for the particular solution x (free
    variables zero) of the system with one column per index in `even`, or
    None when the system is inconsistent.  The rows come last row first
    (`linalg.transposed`), so the right-hand side is reversed to match."""
    sol = linalg.solve_affine(QQ, list(linalg.transposed(columns, len(rhs))),
                              rhs[::-1], len(even))
    if sol is None:
        return None
    return {i: x for i, x in zip(even, sol) if x}


def sl2_triple(alg, e):
    """Complete an even nilpotent e to (e, h, f) with [h,e]=2e, [h,f]=-2f,
    [e,f]=h.  Solutions are picked deterministically (echelon particular
    solutions with free variables zero)."""
    _rational(alg)
    dim = alg.dim
    e = [QQ.of(c) for c in e]
    ev = _sparse(e)
    if {alg.parities[i] for i in ev} == {1}:
        raise NilpotentError("nilpotent element must be even")
    if not ev:
        z = (ZERO,) * dim
        return Sl2Triple(z, z, z)
    if not is_nilpotent_element(alg, e):
        raise NilpotentError("element is not ad-nilpotent")
    even = [i for i in range(dim) if alg.parities[i] == 0]
    ad_e = [_br(alg, ev, {i: ONE}) for i in even]
    # step 1: h = [e, w] with (ad e)^2 w = -2e
    w = _solve_even(even, [_br(alg, ev, col) for col in ad_e],
                    [-2 * c for c in e])
    if w is None:
        raise NilpotentError("no sl2 completion: h equation unsolvable")
    h = _br(alg, ev, w)
    # step 2: f with [e,f] = h (rows 0..dim-1) and [h,f] + 2f = 0 (the rest)
    columns = []
    for col, i in zip(ad_e, even):
        shifted = _combine([(1, _br(alg, h, {i: ONE})), (2, {i: ONE})])
        columns.append({**col, **{dim + r: x for r, x in shifted.items()}})
    fv = _solve_even(even, columns, list(_dense(h, dim)) + [ZERO] * dim)
    if fv is None:
        raise NilpotentError("no sl2 completion: f equation unsolvable")
    triple = Sl2Triple(tuple(e), _dense(h, dim), _dense(fv, dim))
    _check_triple(alg, triple)
    return triple


def _check_triple(alg, tr):
    """The three sl2 relations, failing at the lowest coordinate where one
    fails and, at that coordinate, in the order below."""
    if tr.is_zero():
        return
    e, h, f = _sparse(tr.e), _sparse(tr.h), _sparse(tr.f)
    residues = [
        (_combine([(1, _br(alg, h, e)), (-2, e)]), "[h,e] != 2e"),
        (_combine([(1, _br(alg, h, f)), (2, f)]), "[h,f] != -2f"),
        (_combine([(1, _br(alg, e, f)), (-1, h)]), "[e,f] != h"),
    ]
    bad = [(min(res), k) for k, (res, _) in enumerate(residues) if res]
    if bad:
        raise NilpotentError(residues[min(bad)[1]][1])


# ---------------------------------------------------------------------------
# weight-space decomposition
# ---------------------------------------------------------------------------

def _eigen_layers(alg, ad_h):
    """Exact eigenspace bases of ad h per (integer weight, parity), from the
    columns of ad h.

    Returns dict (weight, parity) -> list of vectors.  Fails if ad h is not
    diagonalizable with integer eigenvalues.
    """
    d = alg.dim
    row_sums = [ZERO] * d
    for col in ad_h:
        for r, x in col.items():
            row_sums[r] += abs(x)
    bound = max((int(s) + 1 for s in row_sums), default=0)
    layers = {}
    for wt in range(-bound, bound + 1):
        for par in (0, 1):
            cols = [i for i in range(d) if alg.parities[i] == par]
            if not cols:
                continue
            shifted = [_combine([(1, ad_h[i]), (-wt, {i: ONE})]) for i in cols]
            vecs = [{cols[t]: c for t, c in row.items()}
                    for row in _kernel(shifted, d)]
            if vecs:
                layers[(wt, par)] = vecs
    total = sum(len(vecs) for vecs in layers.values())
    if total != d:
        raise NilpotentError("ad h is not integrally diagonalizable"
                             " (found %d of %d dimensions)" % (total, d))
    return layers


def original_basis_weights(ad_h):
    """Per-basis-vector ad-h eigenvalues from the columns of ad h, or None if
    the basis is not graded."""
    weights = []
    for j, col in enumerate(ad_h):
        wt = col.get(j, ZERO)
        if col.keys() - {j} or wt.denominator != 1:
            return None
        weights.append(int(wt))
    return tuple(weights)


# ---------------------------------------------------------------------------
# bilinear form normalizations on g(-1)
# ---------------------------------------------------------------------------

def _reduce_against_pair(form, vecs, a, b):
    """Project vecs onto the orthogonal complement of the hyperbolic pair
    (a, b).  form(a,b) is -1 in the symplectic convention, 1 in the symmetric
    one; the formulas below only use the actual pair values."""
    fab, fba = form(a, b), form(b, a)
    out = [_combine([(1, w), (QQ.div(-form(w, b), fab), a),
                     (QQ.div(-form(w, a), fba), b)])
           for w in vecs]
    return linalg.rref(QQ, out)[0]


def symplectic_normal_basis(vectors, form):
    """Darboux basis u_1..u_2s with form(u_i, u_j) = i* delta_{i+j,2s+1},
    where i* is -1 for i <= s and 1 otherwise.  The vectors are {index: c}
    dicts over Q."""
    work = linalg.rref(QQ, vectors)[0]
    if len(work) % 2 != 0:
        raise NilpotentError("symplectic space of odd dimension")
    s = len(work) // 2
    firsts = []
    seconds = []
    while work:
        a = work[0]
        partner = next((cand for cand in work[1:] if form(a, cand)), None)
        if partner is None:
            raise NilpotentError("degenerate symplectic form")
        beta = form(a, partner)
        # scale so that form(a, b) = -1
        b = {k: QQ.div(-x, beta) for k, x in partner.items()}
        firsts.append(a)
        seconds.append(b)
        rest = [w for w in work if w is not a and w is not partner]
        work = _reduce_against_pair(form, rest, a, b)
    if len(firsts) != s:
        raise NilpotentError("symplectic basis has %d pairs, expected %d"
                             % (len(firsts), s))
    return firsts + seconds[::-1]


def _find_rational_isotropic(work, form):
    for w in work:
        if not form(w, w):
            return w
    # try two-vector combinations w_i + t w_j with t rational
    for i, wi in enumerate(work):
        for j, wj in enumerate(work):
            if i == j:
                continue
            a, b, c = form(wi, wi), form(wj, wj), form(wi, wj)
            ok, root = is_rational_square(c * c - a * b)
            if not ok:
                continue
            # a + 2tc + t^2 b = 0
            if not b:
                if not c:
                    continue
                t = QQ.div(-a, 2 * c)
            else:
                t = QQ.div(root - c, b)
            return _combine([(1, wi), (t, wj)])
    return None


def symmetric_normal_basis(vectors, form):
    """Basis v_1..v_r with form(v_i, v_j) = delta_{i+j,r+1} off the middle;
    for odd r the self-paired middle vector gets norm 1 when the needed square
    root is rational, otherwise its norm is returned as-is.  The vectors are
    {index: c} dicts over Q.

    Returns (vectors, middle_norm or None, normalized flag)."""
    work = linalg.rref(QQ, vectors)[0]
    r = len(work)
    firsts = []
    seconds = []
    for _ in range(r // 2):
        a = _find_rational_isotropic(work, form)
        if a is None:
            raise FormNormalizationError(
                "no rational isotropic vector for a hyperbolic pair",
                _diagonalized_gram(work, form))
        partner = next((cand for cand in work if form(a, cand)), None)
        if partner is None:
            raise NilpotentError("degenerate symmetric form")
        beta = form(a, partner)
        zz = form(partner, partner)
        # make the partner isotropic, then scale the pairing to 1
        bp = _combine([(1, partner), (QQ.div(-zz, 2 * beta), a)])
        fabp = form(a, bp)
        b = {k: QQ.div(x, fabp) for k, x in bp.items()}
        firsts.append(a)
        seconds.append(b)
        work = _reduce_against_pair(form, work, a, b)
    middle_norm = None
    normalized = True
    middle = []
    if r % 2 == 1:
        if len(work) != 1:
            raise NilpotentError("middle line has dimension %d, expected 1"
                                 % len(work))
        m = work[0]
        c = form(m, m)
        if not c:
            raise NilpotentError("degenerate symmetric form on the middle line")
        square, root = is_rational_square(c)
        if square:
            m = {k: QQ.div(x, root) for k, x in m.items()}
            middle_norm = ONE
        else:
            middle_norm = c
            normalized = False
        middle = [m]
    elif work:
        raise NilpotentError("symmetric normalization left unexpected vectors")
    return firsts + middle + seconds[::-1], middle_norm, normalized


def _diagonalized_gram(work, form):
    """Gram-Schmidt diagonal of the form, reported with the obstruction."""
    vecs = list(work)
    diag = []
    while vecs:
        a = next((w for w in vecs if form(w, w)), None)
        if a is None:
            diag.append(ZERO)
            break
        faa = form(a, a)
        diag.append(faa)
        vecs = linalg.rref(QQ, [
            _combine([(1, w), (QQ.div(-form(w, a), faa), a)])
            for w in vecs if w is not a])[0]
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
    def field(self):
        return self.alg.field

    @property
    def q_prime(self):
        return self.q + 1 if self.r % 2 == 1 else self.q

    @property
    def r_odd(self):
        return self.r % 2 == 1

    def v_index(self, i):
        return self.m_count + self.n_count + self.s + i - 1

    @property
    def v_mid_index(self):
        if not self.r_odd:
            raise NilpotentError("v_mid exists only for odd r (r = %d)"
                                 % self.r)
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

    def __eq__(self, other):
        if not isinstance(other, NilpotentData):
            return NotImplemented
        return (self.triple == other.triple
                and self.generators == other.generators
                and self.chi == other.chi
                and self.middle_norm == other.middle_norm)


def analyze_nilpotent(alg, triple):
    _rational(alg)
    if alg.gram is None:
        raise NilpotentError("algebra has no invariant form")
    if linalg.rank(QQ, alg.gram) != alg.dim:
        raise AlgebraError("invariant form is degenerate")
    _check_triple(alg, triple)

    dim = alg.dim
    e, h, fv = _sparse(triple.e), _sparse(triple.h), _sparse(triple.f)
    zero_case = triple.is_zero()

    # normalize the form so that (e, f) = 1; an isotropic triple ((e,f) = 0,
    # possible in gl(n|n)-like algebras) keeps the raw form and is flagged
    gram_rows = [_sparse(row) for row in alg.gram]
    ef_normalized = True
    scale = ONE
    if not zero_case:
        ef = _dot(_covector(gram_rows, e), fv)
        if ef:
            scale = QQ.inv(ef)
            gram_rows = [{j: exact(scale * c) for j, c in row.items()}
                         for row in gram_rows]
        else:
            ef_normalized = False
    chi_row = _covector(gram_rows, e)
    chi_of = lambda v: _dot(chi_row, v)

    ad_h = _ad_columns(alg, h)
    layers = _eigen_layers(alg, ad_h)
    weights_orig = original_basis_weights(ad_h)
    min_wt = min(w for (w, p) in layers)
    max_wt = max(w for (w, p) in layers)

    # cross-weight orthogonality and nondegenerate pairing g(i) with g(-i)
    covectors = {key: [_covector(gram_rows, a) for a in vecs]
                 for key, vecs in layers.items()}
    for (wi, _), vi in covectors.items():
        for (wj, _), vj in layers.items():
            if wi + wj != 0:
                for a in vi:
                    for b in vj:
                        if _dot(a, b):
                            raise NilpotentError("(g(i),g(j)) != 0 for i+j != 0")
    for (wt, par) in list(layers):
        mate = layers.get((-wt, par), [])
        blk = [{t: _dot(a, b) for t, b in enumerate(mate)}
               for a in covectors[(wt, par)]]
        if len(mate) != len(layers[(wt, par)]) or (
                blk and linalg.rank(QQ, blk) != len(blk)):
            raise NilpotentError("g(%d) does not pair nondegenerately with g(%d)"
                                 % (wt, -wt))

    if not zero_case:
        if not linalg.in_span(QQ, layers.get((2, 0), []), e):
            raise NilpotentError("e is not in g(2) even part")
        if not linalg.in_span(QQ, layers.get((-2, 0), []), fv):
            raise NilpotentError("f is not in g(-2) even part")

    # chi is supported on g(-2) even and vanishes on the odd part
    for (wt, par), vecs in layers.items():
        for v in vecs:
            if (wt != -2 or par != 0) and chi_of(v):
                raise NilpotentError("chi does not vanish on g(%d) parity %d"
                                     % (wt, par))

    def image_under(x, vecs):
        return linalg.rref(QQ, [_br(alg, x, v) for v in vecs])[0]

    def kernel_in_layer(x, vecs):
        return [_combine((c, vecs[t]) for t, c in row.items())
                for row in _kernel([_br(alg, x, v) for v in vecs], dim)]

    # centralizer layers and the complement inside p
    xs_ge, xs_im, ys_ge, ys_im = [], [], [], []
    for wt in range(0, max_wt + 1):
        for par, ge_list, im_list in ((0, xs_ge, xs_im), (1, ys_ge, ys_im)):
            vecs = layers.get((wt, par), [])
            ge = kernel_in_layer(e, vecs)
            ge_list.extend(ge)
            im = image_under(fv, layers.get((wt + 2, par), []))
            im_list.extend(im)
            # direct-sum check inside this layer of p
            if vecs:
                if not linalg.intersect_zero(QQ, ge, im):
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
    pair_form = lambda a, b: chi_of(_br(alg, a, b))
    us = symplectic_normal_basis(even_m1, pair_form) if even_m1 else []
    s = len(us) // 2
    if odd_m1:
        vs, middle_norm, middle_normalized = symmetric_normal_basis(
            odd_m1, pair_form)
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

    vecs = []
    generators = []

    def add(v, parity, weight, label, kind):
        vecs.append(v)
        generators.append(AdaptedGenerator(_dense(v, dim), parity, weight,
                                           label, kind))

    for i, v in enumerate(xs):
        add(v, 0, _weight_of_vec(v, layers), "x%d" % (i + 1), "x")
    for i, v in enumerate(ys):
        add(v, 1, _weight_of_vec(v, layers), "y%d" % (i + 1), "y")
    for i, v in enumerate(us[:s]):
        add(v, 0, -1, "u%d" % (i + 1), "u")
    for i, v in enumerate(vs[:t_cb]):
        add(v, 1, -1, "v%d" % (i + 1), "v")
    cobasis_count = len(generators)
    for i, v in enumerate(m_even_g1):
        add(v, 0, -1, "u%d" % (s + i + 1), "m")
    for i, v in enumerate(m_odd_g1):
        add(v, 1, -1, "v%d" % (t_cb + i + 1), "m")
    for i, v in enumerate(deep):
        add(v, _parity_of_vec(alg, v), _weight_of_vec(v, layers),
            "w%d" % (i + 1), "m")

    # adapted structure constants: row k of the inverse holds the adapted
    # coordinates of the basis vector b_k
    try:
        coords = linalg.invert(QQ, vecs)
    except ValueError:
        raise NilpotentError("adapted generators do not form a basis")
    brackets = {}
    for i, vi in enumerate(vecs):
        for j, vj in enumerate(vecs):
            entry = _combine((c, coords[k]) for k, c in _br(alg, vi, vj).items())
            if entry:
                brackets[(i, j)] = dict(sorted(entry.items()))

    chi = tuple(chi_of(v) for v in vecs)

    nd = NilpotentData(
        alg, triple,
        form_scale=scale, weights_original=weights_orig,
        generators=generators, brackets=brackets, chi=chi,
        cobasis_count=cobasis_count,
        l=l, q=q, s=s, r=r, t=t, t_cb=t_cb,
        m_count=m_count, n_count=n_count,
        middle_norm=middle_norm, middle_normalized=middle_normalized,
        ef_normalized=ef_normalized,
        layer_dims={k: len(v) for k, v in layers.items()},
    )
    _verify_datum(nd, layers, gram_rows)
    return nd


def _parity_of_vec(alg, v):
    parities = {alg.parities[i] for i in v}
    if len(parities) > 1:
        raise NilpotentError("adapted generator is not parity homogeneous")
    return max(parities, default=0)


def _weight_of_vec(v, layers):
    # each layer's vectors are a basis of the layer
    for (wt, par), vecs in layers.items():
        if linalg.rank(QQ, vecs + [v]) == len(vecs):
            return wt
    raise NilpotentError("vector lies in no single weight layer")


def _verify_datum(nd, layers, gram_rows):
    """The structural identities: m-annihilator decomposition, decomposition
    of the nonnegative part, dimension identity per parity, and the normal
    forms of the weight -1 pairings.  gram_rows are the rows of the
    normalized form."""
    alg = nd.alg
    dim = alg.dim
    e, fv = _sparse(nd.triple.e), _sparse(nd.triple.f)
    gens = nd.generators
    vecs = [_sparse(g.vector) for g in gens]
    chi_row = _covector(gram_rows, e)

    # weights and parities of generators are consistent
    for g in gens:
        if g.kind in ("x",) and g.parity != 0:
            raise NilpotentError("x generator with odd parity")
        if g.kind in ("y",) and g.parity != 1:
            raise NilpotentError("y generator with even parity")

    # u/v gram shapes
    s, r = nd.s, nd.r
    by_label = {g.label: v for g, v in zip(gens, vecs)}
    pairf = lambda a, b: _dot(chi_row, _br(alg, by_label[a], by_label[b]))
    for i in range(1, 2 * s + 1):
        for j in range(1, 2 * s + 1):
            want = 0
            if i + j == 2 * s + 1:
                want = -1 if i <= s else 1
            if pairf("u%d" % i, "u%d" % j) != want:
                raise NilpotentError("symplectic normal form violated at u(%d,%d)" % (i, j))
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            want = 0
            if i + j == r + 1 and i != j:
                want = 1
            if i == j and r % 2 == 1 and i == (r + 1) // 2:
                want = nd.middle_norm
            if pairf("v%d" % i, "v%d" % j) != want:
                raise NilpotentError("symmetric normal form violated at v(%d,%d)" % (i, j))

    # x spans the even centralizer, y the odd one
    for k in range(nd.l):
        if _br(alg, e, vecs[k]):
            raise NilpotentError("x%d is not in the centralizer" % (k + 1))
    for k in range(nd.q):
        if _br(alg, e, vecs[nd.m_count + k]):
            raise NilpotentError("y%d is not in the centralizer" % (k + 1))

    # m-annihilator decomposition: ann(m) = [m', e] + g^f, direct, per parity
    ann = linalg.kernel(
        QQ, [_covector(gram_rows, vecs[i]) for i in nd.m_indices], dim)
    bracket_img = [_br(alg, vecs[i], e) for i in nd.mprime_indices]
    gf = _kernel(_ad_columns(alg, fv), dim)
    for par in (0, 1):
        a_p, b_p, g_p = ([w for w in (_parity_part(alg, v, par) for v in vs)
                          if w] for vs in (ann, bracket_img, gf))
        da = linalg.rank(QQ, a_p)
        db = linalg.rank(QQ, b_p)
        dg = linalg.rank(QQ, g_p)
        dall = linalg.rank(QQ, b_p + g_p)
        if db + dg != dall or dall != da:
            raise NilpotentError("annihilator of m does not split as [m',e] + g^f")
        if linalg.rank(QQ, a_p + b_p + g_p) != da:
            raise NilpotentError("[m',e] + g^f escapes the annihilator of m")

    # nonnegative part: p = sum_{j>=2} [f, g(j)] + g^e, direct
    p_vecs = [vecs[i] for i in nd.p_indices]
    ge = vecs[:nd.l] + vecs[nd.m_count:nd.m_count + nd.q]
    imgf = [_br(alg, fv, v) for (wt, par), vs in layers.items() if wt >= 2
            for v in vs]
    d_ge = linalg.rank(QQ, ge)
    d_img = linalg.rank(QQ, imgf)
    d_p = linalg.rank(QQ, p_vecs)
    d_both = linalg.rank(QQ, ge + imgf)
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


def _parity_part(alg, v, par):
    return {i: c for i, c in v.items() if alg.parities[i] == par}
