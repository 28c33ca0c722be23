"""Generators and relations of the finite W-superalgebra over the rationals.

The invariants of Q under the adjoint action of m are computed by exact linear
algebra on the finite filtration pieces of Q (the adjoint action of m strictly
lowers the e-degree, so each piece is stable).  One generator is solved per
centralizer basis vector, with leading coefficient one and a deterministic
echelon representative; for an odd-dimensional g(-1) odd part there is one
extra odd generator whose square is half the middle norm.  Commutators are
re-expressed in the ordered PBW monomials by descending elimination on
(e-degree, weight).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby

from . import linalg
from .pbw import engine_from_datum, exponent_tuples


class SolverError(RuntimeError):
    pass


class NotInvariantError(ValueError):
    pass


class LeadingShapeError(ValueError):
    pass


def m_generators(nd):
    """A generating set S of m, as sorted adapted indices: chosen once per
    datum (the rational one, or one reduced mod p, over its own field and
    brackets) and kept on it, when first asked for.

    ad is a homomorphism of Lie superalgebras, so the kernels of ad x and
    ad y lie in the kernel of ad [x, y]: an element is m-invariant exactly
    when ad z kills it for each z in S.  m lies in negative degrees, hence
    is nilpotent, so any S that spans m modulo [m, m] generates it.  S is
    picked greedily, weight nearest 0 first and then by index, each z kept
    when it raises the rank modulo [m, m], and checked by
    `check_generates_m`."""
    known = vars(nd).get("_m_generators")
    if known is None:
        known = nd._m_generators = check_generates_m(nd, _spanning_set(nd))
    return known


def _spanning_set(nd):
    """The greedy picks of m modulo [m, m]: the pivot columns past the
    brackets of a matrix whose columns are the brackets [b_i, b_j] of m,
    then the unit vector of each z of m in the order of `m_generators`."""
    m = nd.m_indices
    inside = set(m)
    gens = nd.generators
    order = sorted(m, key=lambda z: (-gens[z].weight, z))
    cols = [v for (i, j), v in nd.brackets.items()
            if i in inside and j in inside]
    rows = {k: {} for k in m}
    for c, v in enumerate(cols):
        for k, x in v.items():
            rows[k][c] = x
    for t, z in enumerate(order):
        rows[z][len(cols) + t] = nd.field.one
    _, piv = linalg.rref(nd.field, list(rows.values()))
    return sorted(order[c - len(cols)] for c in piv if c >= len(cols))


def check_generates_m(nd, gens):
    """gens, once the span of their closure under brackets is checked to be
    m; SolverError otherwise.  The closure is the smallest subspace that
    holds gens and is stable under ad s for each s in gens, grown one round
    of brackets at a time."""
    f = nd.field
    m = nd.m_indices
    basis = [{z: f.one} for z in gens]
    while True:
        grown = basis + [_bracket_with(f, nd.brackets, s, v)
                         for s in gens for v in basis]
        reduced, piv = linalg.rref(f, grown)
        if len(piv) == len(basis):
            break
        basis = reduced
    inside = set(m)
    if len(basis) != len(m) or any(k not in inside for v in basis
                                   for k in v):
        raise SolverError(
            "generators %s of m span a subalgebra of dimension %d, not m's"
            " %d" % ([nd.generators[z].label for z in gens], len(basis),
                     len(m)))
    return list(gens)


def _bracket_with(f, brackets, s, v):
    """[b_s, v] for a {adapted index: c} vector v; `linalg.rref` drops the
    zeros it may hold."""
    out = {}
    for j, c in v.items():
        for k, b in brackets.get((s, j), {}).items():
            out[k] = f.add(out.get(k, f.zero), f.mul(c, b))
    return out


class WGenerator(namedtuple("WGenerator", "index leading_gen label parity"
                                          " weight filtration_degree value")):
    """index: 1-based position among the generators; leading_gen: adapted
    generator index of the leading term; weight: m_k, the adjoint weight of
    the leading vector; filtration_degree: m_k + 2; value: the class in Q
    (an `Element`), applied to the cyclic vector."""
    __slots__ = ()


class ThetaPolynomial:
    """Super-polynomial in the generators: exponent tuple -> coefficient,
    odd exponents at most one, evaluated in increasing generator order."""

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = dict(terms)

    def __eq__(self, other):
        return (isinstance(other, ThetaPolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def constant_term(self, field):
        return self.terms.get((0,) * self.nvars, field.zero)

    def linear_terms(self):
        out = {}
        for mono, c in self.terms.items():
            if sum(mono) == 1:
                out[mono.index(1)] = c
        return out

    def __repr__(self):
        return "ThetaPolynomial(%r)" % (self.terms,)


class WPresentation(namedtuple("WPresentation",
                               "generators relations middle_norm")):
    """relations: (i, j), 1-based, i <= j -> ThetaPolynomial."""
    __slots__ = ()

    def relation(self, i, j):
        return self.relations[(i, j)]


class WContext:
    """Shared state for one nilpotent datum: the engine, the solved
    generators, and a cache of evaluated PBW monomials."""

    def __init__(self, nd, engine=None):
        self.nd = nd
        self.engine = (engine_from_datum(nd, None, None) if engine is None
                       else engine)
        self._gens = None
        self._eval_cache = {}
        # adapted index of each generator's leading vector -> its 1-based
        # position among the generators
        self._position = {self.leading_gen_index(k): k
                          for k in range(1, self.n_generators() + 1)}

    # -- generator bookkeeping ------------------------------------------------

    def n_generators(self):
        return self.nd.l + self.nd.q_prime

    def leading_gen_index(self, k):
        """The W-generator to adapted-index map: theta_1..theta_l lead with
        x_1..x_l, the next q with y_1..y_q, and the extra odd generator (odd r)
        with v_mid."""
        nd = self.nd
        if k <= nd.l:
            return k - 1
        if k <= nd.l + nd.q:
            return nd.m_count + (k - nd.l) - 1
        if not (nd.r_odd and k == nd.l + nd.q + 1):
            raise SolverError("no W-generator theta_%d" % k)
        return nd.v_mid_index

    def generator_degrees(self):
        return [self.engine.weights[self.leading_gen_index(k)] + 2
                for k in range(1, self.n_generators() + 1)]

    def pure_positions(self):
        """Leading vectors of the centralizer generators (not v_mid)."""
        limit = self.nd.l + self.nd.q
        return {i for i, k in self._position.items() if k <= limit}

    # -- invariance -------------------------------------------------------------

    def is_invariant(self, q):
        """Whether ad z kills q for each z in `m_generators`, which is
        invariance under all of m."""
        e = self.engine
        return all(e.ad_act(z, q).is_zero() for z in m_generators(self.nd))

    def check_invariant(self, q):
        if not self.is_invariant(q):
            raise NotInvariantError("element is not invariant under ad m")

    # -- candidate spaces -------------------------------------------------------

    def candidate_monomials(self, k):
        """Unknown columns for generator k: non-pure co-basis monomials of
        e-degree at most m_k + 2, with standard degree at least two on the top
        layer."""
        e = self.engine
        lead = self.leading_gen_index(k)
        bound = e.weights[lead] + 2
        pure = self.pure_positions()
        cands = []
        for m in e.cobasis_monomials(bound):
            if all(m[i] == 0 or i in pure for i in range(e.n_gens)):
                continue
            if e.e_degree(m) == bound and sum(m) < 2:
                continue
            cands.append(m)
        return cands

    # -- generator solving --------------------------------------------------------

    def solve_theta(self, k):
        nd, e = self.nd, self.engine
        f = e.field
        if not 1 <= k <= self.n_generators():
            raise ValueError("generator index out of range")
        lead = self.leading_gen_index(k)
        if nd.r_odd and k == nd.l + nd.q + 1:
            value = e.q_reduce(e.gen(lead))
            self.check_invariant(value)
            return self._pack_generator(k, lead, value)
        cands = self.candidate_monomials(k)
        zs = m_generators(nd)
        target = e.q_reduce(e.gen(lead))
        # one sparse equation per (z, monomial) of the ad z images, z in a
        # generating set of m; the unknowns are the candidates' coefficients
        rows, rhs = {}, {}
        for cidx, m in enumerate(cands):
            for z in zs:
                img = e.ad_act(z, e.element({m: f.one}))
                for mm, c in img.terms.items():
                    rows.setdefault((z, mm), {})[cidx] = c
        for z in zs:
            img = e.ad_act(z, target)
            for mm, c in img.terms.items():
                rows.setdefault((z, mm), {})
                rhs[(z, mm)] = f.neg(c)
        sol = linalg.solve_affine(f, list(rows.values()),
                                  [rhs.get(key, f.zero) for key in rows],
                                  len(cands))
        if sol is None:
            raise SolverError("invariance system for generator %d has no"
                              " solution" % k)
        terms = {self.engine._gen_mono(lead): f.one}
        for m, c in zip(cands, sol):
            if not f.is_zero(c):
                terms[m] = c
        value = e.element(terms)
        self.check_invariant(value)
        self._check_generator_shape(k, lead, value)
        return self._pack_generator(k, lead, value)

    def _pack_generator(self, k, lead, value):
        e = self.engine
        return WGenerator(
            index=k, leading_gen=lead, label="theta%d" % k,
            parity=e.parities[lead], weight=e.weights[lead],
            filtration_degree=e.weights[lead] + 2, value=value)

    def _check_generator_shape(self, k, lead, value):
        e = self.engine
        bound = e.weights[lead] + 2
        lead_mono = e._gen_mono(lead)
        for m, c in value.terms.items():
            d = e.e_degree(m)
            if d > bound:
                raise SolverError("generator %d exceeds its filtration degree" % k)
            if d == bound and m != lead_mono and sum(m) < 2:
                raise SolverError("generator %d has a stray linear leading term" % k)
        if value.coefficient(lead_mono) != e.field.one:
            raise SolverError("generator %d has leading coefficient != 1" % k)
        self.check_leading_shape(value)

    def check_leading_shape(self, q):
        """Leading monomials of an invariant: no u part, the x/y parts inside
        the centralizer block, and the v part at most the middle vector."""
        e = self.engine
        for m in e.leading_terms(q):
            for i in range(e.n_gens):
                if m[i] and i not in self._position:
                    raise LeadingShapeError(
                        "leading monomial involves generator %s" % e.labels[i])

    def generators(self):
        if self._gens is None:
            self._gens = [self.solve_theta(k)
                          for k in range(1, self.n_generators() + 1)]
        return self._gens

    # -- PBW expression -----------------------------------------------------------

    def eval_monomial(self, expo):
        expo = tuple(expo)
        if expo in self._eval_cache:
            return self._eval_cache[expo]
        if not any(expo):
            out = self.engine.unit()
        else:
            last = max(i for i, v in enumerate(expo) if v)
            prev = list(expo)
            prev[last] -= 1
            left = self.eval_monomial(tuple(prev))
            out = self.engine.q_mul(left, self.generators()[last].value)
        self._eval_cache[expo] = out
        return out

    def _leading_to_expo(self, mono):
        expo = [0] * self.n_generators()
        for i, a in enumerate(mono):
            if not a:
                continue
            if i not in self._position:
                raise LeadingShapeError(
                    "monomial outside the centralizer block: %s" % (mono,))
            expo[self._position[i] - 1] = a
        return tuple(expo)

    def express_in_pbw(self, q):
        """Rewrite an invariant as a polynomial in the ordered generators by
        descending elimination on (e-degree, weight)."""
        e = self.engine
        f = e.field
        self.check_invariant(q)
        cur = q
        out = {}
        prev_key = None
        while not cur.is_zero():
            n, big, monos = e.leading_data(cur)
            key = (n, big)
            if prev_key is not None and key >= prev_key:
                raise SolverError("PBW elimination does not descend")
            prev_key = key
            for m in sorted(monos):
                lam = cur.coefficient(m)
                if f.is_zero(lam):
                    continue
                expo = self._leading_to_expo(m)
                ev = self.eval_monomial(expo)
                kappa = ev.coefficient(m)
                if f.is_zero(kappa):
                    raise SolverError("evaluated monomial lost its leading term")
                coef = f.div(lam, kappa)
                cur = cur - ev.scale(coef)
                out[expo] = f.add(out.get(expo, f.zero), coef)
        out = {m: c for m, c in out.items() if not f.is_zero(c)}
        poly = ThetaPolynomial(self.n_generators(), out)
        if self.evaluate(poly) != q:
            raise SolverError("PBW expression does not evaluate back")
        return poly

    def evaluate(self, poly):
        e = self.engine
        acc = e.zero()
        for expo, c in poly.terms.items():
            acc = acc + self.eval_monomial(expo).scale(c)
        return acc

    # -- relations -------------------------------------------------------------

    def super_bracket(self, a, b):
        e = self.engine
        pa, pb = a.parity(), b.parity()
        if pa is None or pb is None:
            raise SolverError("super bracket of inhomogeneous elements")
        left = e.q_mul(a, b)
        right = e.q_mul(b, a)
        if pa and pb:
            return left + right
        return left - right

    def centralizer_structure(self, i, j):
        """Coefficients alpha with [Y_i, Y_j] = sum alpha_k Y_k in the
        centralizer, as a dict over 1-based generator positions."""
        key = (self.leading_gen_index(i), self.leading_gen_index(j))
        limit = self.nd.l + self.nd.q
        out = {}
        for kgen, c in self.engine.brackets.get(key, {}).items():
            k = self._position.get(kgen)
            if k is None or k > limit:
                raise SolverError("centralizer bracket leaves the centralizer")
            out[k] = c
        return out

    def commutator_table(self):
        gens = self.generators()
        ng = self.n_generators()
        degrees = self.generator_degrees()
        relations = {}
        for i in range(1, ng + 1):
            for j in range(i, ng + 1):
                br = self.super_bracket(gens[i - 1].value, gens[j - 1].value)
                poly = self.express_in_pbw(br)
                self._check_relation(i, j, poly, degrees)
                relations[(i, j)] = poly
        return WPresentation(generators=gens, relations=relations,
                             middle_norm=self.nd.middle_norm)

    def _check_relation(self, i, j, poly, degrees):
        nd, e = self.nd, self.engine
        f = e.field
        mi = self.generators()[i - 1].weight
        mj = self.generators()[j - 1].weight
        odd_index = nd.l + nd.q + 1 if nd.r_odd else None
        bound = mi + mj + 2
        for mono, c in poly.terms.items():
            deg = sum(ee * d for ee, d in zip(mono, degrees))
            if deg > bound:
                raise SolverError("relation (%d,%d) breaks the filtration bound"
                                  % (i, j))
            par = sum(mono[t] for t in range(len(mono))
                      if self.generators()[t].parity) % 2
            want = (self.generators()[i - 1].parity
                    + self.generators()[j - 1].parity) % 2
            if par != want:
                raise SolverError("relation (%d,%d) has a parity-violating term"
                                  % (i, j))
        if odd_index is not None and (i == odd_index or j == odd_index):
            # mixed relations with the extra odd generator obey the general
            # filtration bound checked above; no canonical leading shape is
            # asserted (the square of the extra generator is pinned below)
            if i == j == odd_index:
                const = poly.constant_term(f)
                expect = nd.middle_norm
                rest = {m: c for m, c in poly.terms.items() if any(m)}
                if rest or not f.is_zero(f.sub(const, expect)):
                    raise SolverError("square of the extra odd generator is not"
                                      " the middle norm")
            return
        # linear part at the top filtration layer agrees with the centralizer
        alpha = self.centralizer_structure(i, j)
        linear = poly.linear_terms()
        for t in range(self.n_generators()):
            du = degrees[t]
            coeff = linear.get(t, f.zero)
            want = alpha.get(t + 1, f.zero)
            if du == bound:
                if not f.is_zero(f.sub(coeff, want)):
                    raise SolverError("linear part of relation (%d,%d) does not"
                                      " match the centralizer bracket" % (i, j))
            elif du > bound:
                if not f.is_zero(coeff):
                    raise SolverError("relation (%d,%d) has an overweight linear"
                                      " term" % (i, j))

    # -- graded dimension check --------------------------------------------------

    def graded_check(self, max_degree):
        degrees = self.generator_degrees()
        odd_flags = [g.parity for g in self.generators()]
        series = _graded_symmetric_series(degrees, odd_flags, max_degree)
        counts = [0] * (max_degree + 1)
        independent = True
        e = self.engine
        f = e.field
        layers = groupby(
            exponent_tuples(degrees, odd_flags, None, max_degree, ()),
            key=lambda expo: sum(a * b for a, b in zip(expo, degrees)))
        for d, expos in layers:
            # the degree-d layer of each evaluated monomial, as a sparse row
            # keyed by PBW monomial
            vecs = []
            for expo in expos:
                ev = self.eval_monomial(expo)
                vecs.append({m: c for m, c in ev.terms.items()
                             if e.e_degree(m) == d})
            counts[d] = len(vecs)
            if linalg.rank(f, vecs) != len(vecs):
                independent = False
        ok = independent and counts == series
        return GradedReport(max_degree=max_degree, pbw_counts=counts,
                            symmetric_dims=series, leading_independent=independent,
                            ok=ok)


class GradedReport(namedtuple("GradedReport", "max_degree pbw_counts"
                              " symmetric_dims leading_independent ok")):
    __slots__ = ()


def _graded_symmetric_series(degrees, odd_flags, max_degree):
    """Coefficients of prod 1/(1-t^d) over even generators times
    prod (1+t^d) over odd ones, the graded dimensions of the supersymmetric
    algebra on the centralizer (plus the extra odd line when present)."""
    series = [1] + [0] * max_degree
    for d, odd in zip(degrees, odd_flags):
        if odd:
            nxt = series[:]
            for i in range(max_degree + 1 - d):
                nxt[i + d] += series[i]
            series = nxt
        else:
            # multiply by geometric series in t^d
            for i in range(d, max_degree + 1):
                series[i] += series[i - d]
    return series
