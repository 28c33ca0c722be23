"""Generators and relations of the finite W-superalgebra over the rationals.

The invariants of Q under the adjoint action of m are computed by exact linear
algebra on the finite filtration pieces of Q (the adjoint action of m strictly
lowers the e-degree, so each piece is stable).  One generator is solved per
centralizer basis vector, with leading coefficient one and a deterministic
echelon representative; for an odd-dimensional g(-1) odd part there is one
extra odd generator whose square is half the middle norm.  Commutators are
re-expressed in the ordered PBW monomials by descending elimination on
(e-degree, weight).

The whole chain computes on the engine's pairs (`pbw`): integer numerators
keyed by packed monomial over one positive denominator, in lowest terms
(residues over denominator 1 mod p).  The solve's rows hold ints, and a
Fraction only where a pair's denominator exceeds 1; the PBW monomials
evaluated in Q are memoized as pairs, and the relation table, the descent,
its evaluate-back check and the graded check's rows read that memo.  A
generator's `value` is its pair, and `is_invariant`, `check_leading_shape`,
`eval_monomial`, `evaluate` and `express_in_pbw` take or return pairs;
Fractions appear only as a `ThetaPolynomial`'s coefficients, whose
exponents are tuples over the generators.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import groupby

from . import linalg
from .pbw import engine_from_datum, exponent_tuples
from .scalars import lowest
from .superalgebra import _bracket


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
    of brackets at a time.  `linalg.rref` reduces each bracket mod p over
    F_p and drops the zeros that `_bracket` leaves."""
    f = nd.field
    m = nd.m_indices
    basis = [{z: f.one} for z in gens]
    while True:
        grown = basis + [_bracket(nd.brackets, {s: f.one}, v, {})
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


class WGenerator(namedtuple("WGenerator", "index leading_gen label parity"
                                          " weight filtration_degree value")):
    """index: 1-based position among the generators; leading_gen: adapted
    generator index of the leading term; weight: m_k, the adjoint weight of
    the leading vector; filtration_degree: m_k + 2; value: the class in Q
    applied to the cyclic vector, as a pair (nums, den) in lowest terms."""
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


class WContext:
    """Shared state for one nilpotent datum: the engine, the solved
    generators, and the memo of evaluated PBW monomials as pairs.

    Without an engine the context builds one over Q whose packed exponents
    hold every monomial of the solve and the relation table: these form
    classes of e-degree at most twice the top co-basis e-degree, and every
    co-basis generator has e-degree at least 1, so no exponent passes it.
    A graded check past that degree runs on a wider engine
    (`graded_check`)."""

    def __init__(self, nd, engine=None):
        self.nd = nd
        if engine is None:
            top = max(g.weight for g in nd.generators[:nd.cobasis_count]) + 2
            engine = engine_from_datum(nd, None, None, 2 * top)
        self.engine = engine
        self._gens = None
        self._eval_cache = {}
        # adapted index of each generator's leading vector -> its 1-based
        # position among the generators
        self._position = {self.leading_gen_index(k): k
                          for k in range(1, self.n_generators() + 1)}
        # the fields of the generators outside the centralizer block
        self._outside = engine.fields_of(
            i for i in range(engine.n_gens) if i not in self._position)

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

    def generator_parities(self):
        """The parity of each generator, its leading vector's, known before
        any generator is solved (`solve_theta` gives it that parity)."""
        return [self.engine.parities[self.leading_gen_index(k)]
                for k in range(1, self.n_generators() + 1)]

    def graded_monomial_count(self, max_degree):
        """The number of PBW monomials that `graded_check` evaluates up to
        max_degree, read off the generator degrees and parities before any
        generator is solved: the sum of the supersymmetric series'
        coefficients, which count the ordered exponent tuples (odd
        exponents at most 1) of each degree."""
        return sum(_graded_symmetric_series(
            self.generator_degrees(), self.generator_parities(), max_degree))

    def pure_positions(self):
        """Leading vectors of the centralizer generators (not v_mid)."""
        limit = self.nd.l + self.nd.q
        return {i for i, k in self._position.items() if k <= limit}

    # -- invariance -------------------------------------------------------------

    def is_invariant(self, pair):
        """Whether ad z kills the pair of classes for each z in
        `m_generators`, which is invariance under all of m; AmbientMismatch
        when the pair has a letter of m."""
        ad = self.engine.ad_act
        return all(not ad(z, pair)[0] for z in m_generators(self.nd))

    def _check_invariant(self, pair):
        if not self.is_invariant(pair):
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
        impure = e.fields_of(i for i in range(e.n_gens) if i not in pure)
        cands = []
        for m in e.cobasis_monomials(bound):
            if not m & impure:
                continue
            # a single letter: the linear terms of the top layer
            if e.e_degree(m) == bound and m in e.units:
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
        # the unit monomial of a co-basis lead is already a class in Q
        target = ({e.units[lead]: 1}, 1)
        if nd.r_odd and k == nd.l + nd.q + 1:
            self._check_invariant(target)
            return self._pack_generator(k, lead, target)
        cands = self.candidate_monomials(k)
        zs = m_generators(nd)
        # one sparse equation per (z, monomial) of the ad z images, z in a
        # generating set of m; the unknowns are the candidates'
        # coefficients.  Each entry is an int, or a Fraction where the
        # image's denominator exceeds 1
        rows, rhs = {}, {}
        for cidx, m in enumerate(cands):
            for z in zs:
                nums, den = e.ad_act(z, ({m: 1}, 1))
                for mm, c in nums.items():
                    rows.setdefault((z, mm), {})[cidx] = (
                        c if den == 1 else Fraction(c, den))
        for z in zs:
            nums, den = e.ad_act(z, target)
            for mm, c in nums.items():
                rows.setdefault((z, mm), {})
                rhs[(z, mm)] = -c if den == 1 else Fraction(-c, den)
        sol = linalg.solve_affine(f, list(rows.values()),
                                  [rhs.get(key, f.zero) for key in rows],
                                  len(cands))
        if sol is None:
            raise SolverError("invariance system for generator %d has no"
                              " solution" % k)
        terms = {e.units[lead]: f.one}
        for m, c in zip(cands, sol):
            if not f.is_zero(c):
                terms[m] = c
        value = e._scaled(terms)
        self._check_invariant(value)
        self._check_generator_shape(k, lead, value)
        return self._pack_generator(k, lead, value)

    def _pack_generator(self, k, lead, pair):
        e = self.engine
        return WGenerator(
            index=k, leading_gen=lead, label="theta%d" % k,
            parity=e.parities[lead], weight=e.weights[lead],
            filtration_degree=e.weights[lead] + 2, value=pair)

    def _check_generator_shape(self, k, lead, pair):
        e = self.engine
        nums, den = pair
        bound = e.weights[lead] + 2
        lead_mono = e.units[lead]
        for m in nums:
            d = e.e_degree(m)
            if d > bound:
                raise SolverError("generator %d exceeds its filtration degree" % k)
            if d == bound and m != lead_mono and (not m or m in e.units):
                raise SolverError("generator %d has a stray linear leading term" % k)
        # in lowest terms the coefficient is 1 exactly when it is den/den
        if nums.get(lead_mono) != den:
            raise SolverError("generator %d has leading coefficient != 1" % k)
        self.check_leading_shape(pair)

    def check_leading_shape(self, pair):
        """Leading monomials of an invariant given as a pair: no u part,
        the x/y parts inside the centralizer block, and the v part at most
        the middle vector."""
        e = self.engine
        nums = pair[0]
        if not nums:
            return
        for m in e.leading_data(nums)[2]:
            if m & self._outside:
                raise LeadingShapeError(
                    "leading monomial involves generator %s"
                    % e.labels[e.first(m & self._outside)])

    def generators(self):
        if self._gens is None:
            self._gens = [self.solve_theta(k)
                          for k in range(1, self.n_generators() + 1)]
        return self._gens

    # -- PBW expression -----------------------------------------------------------

    def eval_monomial(self, expo):
        """The class theta^a 1 in Q of the ordered monomial with exponent
        tuple a, as a pair in lowest terms, by the left action of U on Q:
        with k the first generator of a, theta^a 1 = theta_k (theta^{a-e_k}
        1), theta_k acting as its lift (`Enveloping.q_mul`), as
        `modp.ReducedQ.pbw_vectors` does on Q's basis indices.  Memoized
        per exponent tuple; callers do not change the pairs it returns."""
        hit = self._eval_cache.get(expo)
        if hit is not None:
            return hit
        e = self.engine
        k = next((i for i, v in enumerate(expo) if v), None)
        if k is None:
            out = ({e.unit_mono: 1}, 1)
        else:
            theta = self.generators()[k].value
            prev = self.eval_monomial(expo[:k] + (expo[k] - 1,)
                                      + expo[k + 1:])
            out = e.q_mul(theta, prev)
        self._eval_cache[expo] = out
        return out

    def _leading_to_expo(self, mono):
        """The exponent tuple over the generators of a packed monomial in
        their leading vectors."""
        tup = self.engine.decode(mono)
        if mono & self._outside:
            raise LeadingShapeError(
                "monomial outside the centralizer block: %s" % (tup,))
        expo = [0] * self.n_generators()
        for i, k in self._position.items():
            expo[k - 1] = tup[i]
        return tuple(expo)

    def express_in_pbw(self, pair):
        """The ThetaPolynomial of an invariant given as a pair, by
        descending elimination on (e-degree, weight): each leading monomial
        b^m of the remainder is cancelled by the evaluated PBW monomial
        theta^a whose leading monomial it is, and the polynomial must
        evaluate back to the pair, brought first to lowest terms (mod p, to
        residues in [0, p) over denominator 1)."""
        e = self.engine
        f = e.field
        p = f.char
        if p:
            inv = pow(pair[1], -1, p)
            cur = {m: c * inv % p for m, c in pair[0].items()}
            pair = {m: c for m, c in cur.items() if c}, 1
        else:
            pair = lowest({m: c for m, c in pair[0].items() if c}, pair[1])
        self._check_invariant(pair)
        cur, den = dict(pair[0]), pair[1]
        out = {}
        prev_key = None
        while cur:
            n, big, monos = e.leading_data(cur)
            key = (n, big)
            if prev_key is not None and key >= prev_key:
                raise SolverError("PBW elimination does not descend")
            prev_key = key
            for m in sorted(monos):
                lam = cur.get(m)
                if lam is None:
                    continue
                expo = self._leading_to_expo(m)
                ev, ed = self.eval_monomial(expo)
                kappa = ev.get(m)
                if kappa is None:
                    raise SolverError("evaluated monomial lost its leading term")
                # cur -= coef theta^a 1 with coef = (lam/den) / (kappa/ed)
                if f.char:
                    coef = f.div(lam, kappa)
                    den = e._acc(cur, den, ev, -coef)
                else:
                    coef = Fraction(lam * ed, den * kappa)
                    den = e._acc(cur, den, ev, -coef.numerator,
                                 coef.denominator * ed)
                out[expo] = f.add(out.get(expo, f.zero), coef)
            den = lowest(cur, den)[1]
        poly = ThetaPolynomial(self.n_generators(),
                               {m: c for m, c in out.items()
                                if not f.is_zero(c)})
        if self.evaluate(poly) != pair:
            raise SolverError("PBW expression does not evaluate back")
        return poly

    def evaluate(self, poly):
        """The class in Q of a ThetaPolynomial: the sum of c theta^a 1 over
        its terms {a: c}, as a pair in lowest terms."""
        e = self.engine
        acc, den = {}, 1
        for expo, c in poly.terms.items():
            nums, d = self.eval_monomial(expo)
            den = e._acc(acc, den, nums, c.numerator, c.denominator * d)
        return lowest(acc, den)

    # -- relations -------------------------------------------------------------

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
        """The relation of each pair i <= j: the super bracket [theta_i,
        theta_j] on pairs, expressed in the PBW monomials
        (`express_in_pbw`) and checked (`_check_relation`).  For i < j the
        product theta_i theta_j is the PBW monomial theta^{e_i + e_j}, read
        from the evaluation memo, and theta_j theta_i is theta_j's lift
        acting on theta_i (`Enveloping.q_mul`).  For i = j the bracket is 0
        for an even theta_i and 2 theta_i^2, its product formed once, for an
        odd one."""
        e = self.engine
        gens = self.generators()
        values = [g.value for g in gens]
        ng = self.n_generators()
        degrees = self.generator_degrees()
        parities = [e.element_parity(nums) for nums, _ in values]
        relations = {}
        for i in range(1, ng + 1):
            a, pa = values[i - 1], parities[i - 1]
            for j in range(i, ng + 1):
                b, pb = values[j - 1], parities[j - 1]
                if pa is None or pb is None:
                    raise SolverError("super bracket of inhomogeneous elements")
                if i < j:
                    expo = [0] * ng
                    expo[i - 1] = expo[j - 1] = 1
                    br = _super_sum(e, self.eval_monomial(tuple(expo)),
                                    e.q_mul(b, a), pa and pb)
                elif pa:
                    square = e.q_mul(a, a)
                    br = _super_sum(e, square, square, True)
                else:
                    br = ({}, 1)
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
        """The PBW monomials' layers up to max_degree against the
        supersymmetric series.  The check forms classes of e-degree at most
        max_degree, so no exponent passes max_degree (see `WContext`); over
        Q, past the engine's bound it runs in a context over an engine that
        holds max_degree, with this context's generators re-encoded, and
        leaves this context as it was."""
        e = self.engine
        if not e.field.char and max_degree > e.max_exponent:
            return self._widened(max_degree).graded_check(max_degree)
        degrees = self.generator_degrees()
        odd_flags = self.generator_parities()
        series = _graded_symmetric_series(degrees, odd_flags, max_degree)
        counts = [0] * (max_degree + 1)
        independent = True
        f = e.field
        layers = groupby(
            exponent_tuples(degrees, odd_flags, None, max_degree),
            key=lambda expo: sum(a * b for a, b in zip(expo, degrees)))
        for d, expos in layers:
            # the degree-d layer of each evaluated monomial, as a sparse row
            # of its numerators keyed by PBW monomial: scaling a row by its
            # denominator keeps the rank
            vecs = []
            for expo in expos:
                nums, _ = self.eval_monomial(expo)
                vecs.append({m: c for m, c in nums.items()
                             if e.e_degree(m) == d})
            counts[d] = len(vecs)
            if linalg.rank(f, vecs) != len(vecs):
                independent = False
        ok = independent and counts == series
        return GradedReport(max_degree=max_degree, pbw_counts=counts,
                            symmetric_dims=series, leading_independent=independent,
                            ok=ok)

    def _widened(self, max_exponent):
        """A context over Q on the engine that holds exponents up to
        max_exponent, with the generators of this context, solved once."""
        e = self.engine
        wide = engine_from_datum(self.nd, None, None, max_exponent)
        ctx = WContext(self.nd, engine=wide)
        ctx._gens = [
            th._replace(value=({wide.encode(e.decode(m)): c
                                for m, c in th.value[0].items()},
                               th.value[1]))
            for th in self.generators()]
        return ctx


def _super_sum(engine, left, right, both_odd):
    """The super bracket from its two products: left + right when both
    factors are odd, left - right otherwise, as a pair in lowest terms."""
    acc = dict(left[0])
    den = engine._acc(acc, left[1], right[0], 1 if both_odd else -1,
                      right[1])
    return lowest(acc, den)


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
