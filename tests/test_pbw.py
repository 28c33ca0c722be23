import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracle import (field_acc, field_ad_act, field_mul, field_q_mul,
                    field_q_reduce, product_exponent_tuples)
from wsuper import (analyze_nilpotent, build_algebra, reduce_datum,
                    resolve_nilpotent, sl2_triple)
from wsuper.pbw import (AmbientMismatch, Element, Enveloping,
                        engine_from_datum, exponent_tuples)


@pytest.fixture(scope="module")
def E(nd_gl11_zero):
    return engine_from_datum(nd_gl11_zero, None, None)


@pytest.fixture(scope="module")
def Es(nd_sl21_e12):
    return engine_from_datum(nd_sl21_e12, None, None)


@pytest.fixture(scope="module")
def Eo(nd_osp12_reg):
    return engine_from_datum(nd_osp12_reg, None, None)


def normalize(E, word):
    """The class in Q of a word given as (generator, exponent) pairs, in any
    order, by the left action: its letters act on the unit from the last
    one back; odd exponents beyond 1 contract, even ones cap mod p.  For
    the zero nilpotent m = 0, and the class is the normal form in U."""
    cur = E.unit()
    for g, e in reversed(word):
        for _ in range(e):
            cur = E.q_mul(E.gen(g), cur)
    return cur


def rand_elt(E, rng, nterms=3, emax=2):
    t = {}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, 1) if E.parities[i] else rng.randint(0, emax)
                     for i in range(E.n_gens))
        t[mono] = Fraction(rng.randint(-3, 3))
    return E.element(t)


def test_normalize_fixed_point(E):
    m = (2, 1, 0, 1)
    elt = E.element({m: Fraction(1)})
    again = normalize(E, [(i, e) for i, e in enumerate(m)])
    assert again == elt


def test_gl11_odd_swap(E):
    # adapted order: x1=E11, x2=E22, y1=E12, y2=E21
    y1, y2 = 2, 3
    res = normalize(E, [(y2, 1), (y1, 1)])
    want = (E.gen(0) + E.gen(1)) - E.q_mul(E.gen(y1), E.gen(y2))
    assert res == want


def test_odd_square_contracts(E, Eo):
    # [E12, E12] = 0 in gl(1|1)
    assert normalize(E, [(2, 2)]).is_zero()
    # the odd co-basis vector of osp(1|2) squares to half its bracket, whose
    # class in Q takes chi on m
    v1 = Eo.labels.index("v1")
    sq = normalize(Eo, [(v1, 2)])
    br = Eo.element({Eo._gen_mono(k): Fraction(c, 2)
                     for k, c in Eo.brackets[(v1, v1)].items()})
    assert sq == Eo.q_reduce(br)


def test_unit_is_neutral(Es):
    # on either side of q_mul the unit gives the class of the other factor
    rng = random.Random(5)
    for _ in range(5):
        a = rand_elt(Es, rng)
        assert Es.q_mul(Es.unit(), a) == Es.q_reduce(a) == Es.q_mul(a, Es.unit())


@pytest.fixture(scope="module")
def engines_q_and_mod_p(nd_gl11_zero, nd_sl21_e12, nd_osp12_reg):
    """The engine over Q, and the reduced engine at every eta sample for
    p = 3 and 5, of each datum."""
    out = []
    for nd in (nd_gl11_zero, nd_sl21_e12, nd_osp12_reg):
        out.append(engine_from_datum(nd, None, None))
        for p in (3, 5):
            dat = reduce_datum(nd, p)
            out.extend(engine_from_datum(dat, eta, dat.pmap_adapted)
                       for _, eta in dat.eta_samples())
    return out


@st.composite
def _elements(draw, E):
    # mod p the even exponents reach the cap p - 1, so products pass
    # through g^p = g^[p] + eta(g)^p
    top = E.field.char - 1 if E.field.char else 2
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        mono = tuple(draw(st.integers(0, 1 if odd else top))
                     for odd in E.parities)
        terms[mono] = draw(st.integers(-3, 3))
    return E.element(terms)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_associativity_random(engines_q_and_mod_p, data):
    # the module axiom a (b c) = (a b) c of the left action, with the product
    # a b formed in U by the Field-method oracle
    E = data.draw(st.sampled_from(engines_q_and_mod_p))
    a, b, c = (data.draw(_elements(E)) for _ in range(3))
    assert (E.q_mul(a, E.q_mul(b, c))
            == E.q_mul(Element(E, field_mul(E, a.terms, b.terms)), c))


def test_ambient_mismatch(E, Es):
    with pytest.raises(AmbientMismatch):
        E.q_mul(E.unit(), Es.unit())


def test_filtration_compatibility(Es):
    rng = random.Random(23)
    for _ in range(15):
        a, b = rand_elt(Es, rng), rand_elt(Es, rng)
        ab = Es.q_mul(a, b)
        if ab.is_zero() or a.is_zero() or b.is_zero():
            continue
        da = max(Es.e_degree(m) for m in a.terms)
        db = max(Es.e_degree(m) for m in b.terms)
        assert max(Es.e_degree(m) for m in ab.terms) <= da + db


def test_commutator_drops_two_degrees(Es):
    # homogeneous a, b: ab -+ ba has e-degree <= deg a + deg b - 2
    rng = random.Random(31)
    for _ in range(20):
        ga = rng.randrange(Es.n_gens)
        gb = rng.randrange(Es.n_gens)
        a, b = Es.gen(ga), Es.gen(gb)
        sign = -1 if (Es.parities[ga] and Es.parities[gb]) else 1
        br = Es.q_mul(a, b) - Es.q_mul(b, a).scale(Fraction(sign))
        if br.is_zero():
            continue
        top = max(Es.e_degree(m) for m in br.terms)
        assert top <= Es.e_degrees[ga] + Es.e_degrees[gb] - 2


def _tau_sign(E, m1, m2):
    """Independent transposition count: odd letters of m1 then m2, merged
    stably by generator index."""
    src = []
    for tag, m in ((0, m1), (1, m2)):
        for i in range(E.n_gens):
            if E.parities[i] and m[i]:
                src.append((i, tag))
    order = sorted(range(len(src)), key=lambda k: (src[k][0], src[k][1]))
    inv = 0
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[a] > order[b]:
                inv += 1
    return -1 if inv % 2 else 1


def test_leading_coefficient_sign_law(Es, Eo):
    # the product of two co-basis monomials has top term K x^{a+a'}y^{b+b'}...
    # with K = 0 off the admissible set and otherwise the transposition sign
    rng = random.Random(41)
    for E in (Es, Eo):
        cb = E.cobasis_count
        for _ in range(60):
            m1 = tuple((rng.randint(0, 1) if E.parities[i] else rng.randint(0, 2))
                       if i < cb else 0 for i in range(E.n_gens))
            m2 = tuple((rng.randint(0, 1) if E.parities[i] else rng.randint(0, 2))
                       if i < cb else 0 for i in range(E.n_gens))
            combined = tuple(a + b for a, b in zip(m1, m2))
            prod = E.q_mul(E.element({m1: Fraction(1)}),
                           E.element({m2: Fraction(1)}))
            admissible = all(combined[i] <= 1 for i in range(E.n_gens)
                             if E.parities[i])
            got = prod.coefficient(combined)
            if not admissible:
                assert got == 0
            else:
                assert got == _tau_sign(E, m1, m2)


def test_q_reduce_examples(Es):
    f = Es.field
    # co-basis monomial is fixed
    mono = tuple(1 if i == 0 else 0 for i in range(Es.n_gens))
    assert Es.q_reduce(Es.element({mono: f.one})).terms == {mono: f.one}
    # the weight -2 generator acts through chi
    w1 = Es.labels.index("w1")
    assert Es.q_reduce(Es.gen(w1)).terms == {Es.unit_mono: f.of(1)}
    # nilpotent-killing: (z - chi(z)) annihilates everything on the right,
    # for products formed in U by the Field-method oracle
    rng = random.Random(4)
    for z in range(Es.cobasis_count, Es.n_gens):
        u = Es.element({tuple(rng.randint(0, 1) for _ in range(Es.n_gens)): f.one})
        n = Es.gen(z) - Es.unit().scale(Es.chi[z])
        assert Es.q_reduce(field_mul(Es, u.terms, n.terms)).is_zero()


def test_q_reduce_never_leaves_cobasis(Es):
    rng = random.Random(9)
    for _ in range(20):
        a, b = rand_elt(Es, rng), rand_elt(Es, rng)
        red = Es.q_reduce(field_mul(Es, a.terms, b.terms))
        assert Es.is_q_element(red) and Es.is_q_element(Es.q_mul(a, b))


def test_ad_act_examples(Eo, nd_osp12_reg):
    f = Eo.field
    one = Eo.unit()
    for z in nd_osp12_reg.m_indices:
        assert Eo.ad_act(z, one).is_zero()
    v1 = Eo.labels.index("v1")
    got = Eo.ad_act(v1, Eo.q_reduce(Eo.gen(v1)))
    assert got.terms == {Eo.unit_mono: f.of(nd_osp12_reg.middle_norm)}


def test_ad_act_rejects_an_unreduced_class(Eo, nd_osp12_reg):
    z = nd_osp12_reg.m_indices[0]
    with pytest.raises(AmbientMismatch, match="ad acts on reduced classes"):
        Eo.ad_act(z, Eo.gen(z))


def test_reduced_engine_needs_eta_and_p_map(nd_osp12_reg):
    dat = reduce_datum(nd_osp12_reg, 3)
    with pytest.raises(AmbientMismatch, match="p-character"):
        Enveloping(dat.field, [g.label for g in dat.generators],
                   [g.parity for g in dat.generators],
                   [g.weight for g in dat.generators], dat.brackets, dat.chi,
                   dat.cobasis_count)


def test_ad_act_lift_independent(Es, nd_sl21_e12):
    # the class of [z, lift] does not depend on the lift of an invariant
    from wsuper.wchar0 import WContext
    ctx = WContext(nd_sl21_e12, engine=Es)
    theta = ctx.generators()[1].value
    rng = random.Random(12)
    junk = rand_elt(Es, rng)
    z0 = Es.gen(nd_sl21_e12.m_indices[0])
    chi0 = Es.chi[nd_sl21_e12.m_indices[0]]
    # the products in U are the Field-method oracle's
    lift2 = Es.element(theta.terms) + Es.element(
        field_mul(Es, junk.terms, (z0 - Es.unit().scale(chi0)).terms))
    for z in nd_sl21_e12.m_indices:
        a = Es.ad_act(z, theta)
        b = (Es.element(field_q_mul(Es, Es.gen(z).terms, lift2.terms))
             - _signed_right(Es, lift2, z))
        assert a == b


def _signed_right(Es, elt, z):
    f = Es.field
    acc = Es.zero()
    pz = Es.parities[z]
    for m, c in elt.terms.items():
        sign = -1 if (pz and Es.mono_parity(m)) else 1
        term = Es.element(field_q_mul(Es, {m: c}, Es.gen(z).terms))
        acc = acc + term.scale(f.of(sign))
    return acc


def _pi_project(E, q, i, j):
    # the monomials of q with e-degree i and weight j
    return E.element({m: c for m, c in q.terms.items()
                      if E.e_degree(m) == i and E.weight(m) == j})


def test_pi_project_and_leading(Es):
    f = Es.field
    mono = tuple(1 if i == 0 else 0 for i in range(Es.n_gens))
    q = Es.element({mono: f.one})
    i, j = Es.e_degree(mono), Es.weight(mono)
    assert _pi_project(Es, q, i, j) == q
    assert _pi_project(Es, q, i + 1, j).is_zero()
    assert Es.leading_terms(Es.zero()) == set()
    # max selection between two degrees
    m2 = tuple(2 if i == 0 else 0 for i in range(Es.n_gens))
    both = Es.element({mono: f.one, m2: f.one})
    assert Es.leading_terms(both) == {m2}


# -- closed-form left multiplication against products in U ---------------------

def closed_form_left_multiply(E, w, mono):
    """Left multiplication of a homogeneous element by the closed binomial
    and sign-table formula, bubbling w through the x and y blocks in one
    step, with the products in U by the Field-method oracle.  Agrees with
    normal ordering; the tests below check that."""
    f = E.field
    par_w = w.parity()
    assert par_w is not None, "closed form needs a parity-homogeneous element"
    # block boundaries inside the co-basis: x then y then u then v
    xs = [i for i in range(E.cobasis_count) if E.labels[i][0] == "x"]
    ys = [i for i in range(E.cobasis_count) if E.labels[i][0] == "y"]
    tail = [i for i in range(E.n_gens) if i not in xs and i not in ys]
    a = [mono[i] for i in xs]
    b = [mono[i] for i in ys]
    acc = {}
    for ivec in _box(a):
        binom = 1
        for ai, ii in zip(a, ivec):
            binom *= comb(ai, ii)
        for jvec in _box(b):
            coeff = f.of(binom)
            # sign table: k_{t,0,0}=1, k_{t,0,1}=0,
            # k_{t,1,0}=(-1)^{|w|+j_1+..+j_{t-1}}, k_{t,1,1}=-k_{t,1,0}
            dead = False
            jsum = 0
            for tpos in range(len(b)):
                bt, jt = b[tpos], jvec[tpos]
                if bt == 0:
                    if jt:
                        dead = True
                        break
                    continue
                if jt == 0:
                    k = -1 if (par_w + jsum) % 2 else 1
                else:
                    k = 1 if (par_w + jsum) % 2 else -1
                if k < 0:
                    coeff = f.neg(coeff)
                jsum += jt
            if dead or f.is_zero(coeff):
                continue
            if sum(ivec) % 2:
                coeff = f.neg(coeff)
            # innermost first: ad x_1 .. ad x_m, then ad y_1 .. ad y_n
            bracket = w
            for gi, cnt in zip(xs, ivec):
                for _ in range(cnt):
                    bracket = _ad_in_u(E, gi, bracket)
            for tpos in range(len(ys)):
                for _ in range(jvec[tpos]):
                    bracket = _ad_in_u(E, ys[tpos], bracket)
            if bracket.is_zero():
                continue
            prefix = [0] * E.n_gens
            for gi, ai, ii in zip(xs, a, ivec):
                prefix[gi] = ai - ii
            for gi, bi, ji in zip(ys, b, jvec):
                prefix[gi] = bi - ji
            suffix = [0] * E.n_gens
            for gi in tail:
                suffix[gi] = mono[gi]
            term = field_mul(E, field_mul(E, {tuple(prefix): f.one},
                                          bracket.terms),
                             {tuple(suffix): f.one})
            field_acc(f, acc, term, coeff)
    return Element(E, acc)


def _ad_in_u(E, g, w):
    """[b_g, w] inside the enveloping algebra."""
    f = E.field
    left = Element(E, field_mul(E, E.gen(g).terms, w.terms))
    sign = -1 if (E.parities[g] and w.parity()) else 1
    right = Element(E, field_mul(E, w.terms, E.gen(g).terms)).scale(f.of(sign))
    return left - right


def _box(bounds):
    """All integer vectors 0 <= i_k <= bounds[k]."""
    if not bounds:
        yield ()
        return
    for rest in _box(bounds[1:]):
        for i in range(bounds[0] + 1):
            yield (i,) + rest


def test_closed_form_left_multiply(Es, Eo):
    rng = random.Random(77)
    for E in (Es, Eo):
        cb = E.cobasis_count
        for _ in range(25):
            w = E.gen(rng.randrange(E.n_gens))
            mono = tuple((rng.randint(0, 1) if E.parities[i] else rng.randint(0, 2))
                         if i < cb else 0 for i in range(E.n_gens))
            fast = closed_form_left_multiply(E, w, mono)
            slow = Element(E, field_mul(E, w.terms, {mono: Fraction(1)}))
            assert fast == slow
            # and its class is w acting on b^mono
            assert (E.q_reduce(fast)
                    == E.q_mul(w, E.element({mono: Fraction(1)})))


def test_closed_form_central_case(E):
    # the identity matrix is central in gl(1|1): w mon = mon w exactly; m
    # = 0 for the zero nilpotent, so q_mul is the product in U
    w = E.gen(0) + E.gen(1)
    for mono in [(1, 0, 1, 0), (2, 1, 0, 1), (0, 0, 1, 1)]:
        res = closed_form_left_multiply(E, w, mono)
        direct = E.q_mul(E.element({mono: Fraction(1)}), w)
        assert res == direct
        assert res == E.q_mul(w, E.element({mono: Fraction(1)}))


def test_mod_p_exponent_cap(nd_gl11_zero):
    dat = reduce_datum(nd_gl11_zero, 3)
    from wsuper.modp import build_reduced_q
    q = build_reduced_q(dat)
    E = q.engine
    # x1^3 = x1^[3] + eta(x1)^3 = x1 since E11^3 = E11 and eta = 0
    got = normalize(E, [(0, 3)])
    assert got == E.gen(0)


def test_filtration_index_identity(Es):
    # e-degree = weight + 2 * standard degree, per monomial
    rng = random.Random(55)
    for _ in range(20):
        mono = tuple(rng.randint(0, 1) if Es.parities[i] else rng.randint(0, 3)
                     for i in range(Es.n_gens))
        assert Es.e_degree(mono) == Es.weight(mono) + 2 * sum(mono)


def test_odd_left_multiplication_sign(E):
    # w odd against a single odd letter: w y = -y w + [w, y]; m = 0 for the
    # zero nilpotent, so q_mul is the product in U
    y1, y2 = 2, 3
    w = E.gen(y2)
    mono = E._gen_mono(y1)
    got = closed_form_left_multiply(E, w, mono)
    bracket = E.element({E._gen_mono(k): c
                         for k, c in E.brackets.get((y2, y1), {}).items()})
    want = bracket - E.q_mul(E.element({mono: Fraction(1)}), w)
    assert got == want == E.q_mul(w, E.element({mono: Fraction(1)}))


@settings(max_examples=200, deadline=None)
@given(gens=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 1)),
                     max_size=5),
       cap=st.one_of(st.none(), st.integers(0, 4)),
       budget=st.one_of(st.none(), st.integers(0, 12)))
def test_exponent_tuples_match_the_filtered_product(gens, cap, budget):
    if cap is None and budget is None:
        budget = 12
    degrees = [d for d, _ in gens]
    parities = [odd for _, odd in gens]
    assert (list(exponent_tuples(degrees, parities, cap, budget, ()))
            == product_exponent_tuples(degrees, parities, cap, budget))


# -- the integer engine against the Field-method oracle -----------------------

@pytest.fixture(scope="module")
def oracle_engines(nd_gl21_reg, nd_osp12_reg):
    """gl(2|1) and osp(1|2) regular (odd squares and the 1/2 of their
    contraction) over Q, and reduced at p = 5 at every eta sample; and
    gl(3|1) regular over Q, whose chi has denominator 4 and whose brackets
    have denominators 2 and 3."""
    out = []
    for nd in (nd_gl21_reg, nd_osp12_reg):
        out.append(engine_from_datum(nd, None, None))
        dat = reduce_datum(nd, 5)
        out.extend(engine_from_datum(dat, eta, dat.pmap_adapted)
                   for _, eta in dat.eta_samples())
    alg = build_algebra("gl", 3, 1)
    nd = analyze_nilpotent(alg, sl2_triple(alg, resolve_nilpotent(alg,
                                                                 "regular")))
    out.append(engine_from_datum(nd, None, None))
    return out


@st.composite
def _oracle_terms(draw, E, span):
    """Element terms over the first `span` generators: a few monomials of at
    most three letters (even exponents up to the cap p - 1 mod p, so that
    products reach g^p), with coefficients over denominators 1, 2, 3, 4, 6
    and 9 over Q and residues mod p."""
    p = E.field.char
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        mono = [0] * E.n_gens
        for g in draw(st.lists(st.integers(0, span - 1), max_size=3)):
            mono[g] = 1 if E.parities[g] else draw(
                st.integers(1, p - 1 if p else 2))
        if p:
            c = draw(st.integers(0, p - 1))
        else:
            c = Fraction(draw(st.integers(-6, 6)),
                         draw(st.sampled_from([1, 2, 3, 4, 6, 9])))
        terms[tuple(mono)] = c
    return E.element(terms).terms


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mul_q_mul_and_ad_act_equal_the_field_oracle(oracle_engines, data):
    E = data.draw(st.sampled_from(oracle_engines))
    a = data.draw(_oracle_terms(E, E.n_gens))
    b = data.draw(_oracle_terms(E, E.n_gens))
    # a and b have m-part letters: chi (eta) acts on them, and the class of
    # the product a b is a acting on the class of b
    assert E.q_mul(Element(E, a), Element(E, b)).terms == field_q_mul(E, a, b)
    # the pair of the class is the lowest-terms pair of the oracle's
    assert (E._lift_apply(E._scaled(a), E.q_reduce_pair(E._scaled(b)))
            == E._scaled(field_q_mul(E, a, b)))
    assert E.q_reduce(Element(E, a)).terms == field_q_reduce(E, a)
    qa = data.draw(_oracle_terms(E, E.cobasis_count))
    qb = data.draw(_oracle_terms(E, E.cobasis_count))
    assert (E.q_mul(Element(E, qa), Element(E, qb)).terms
            == field_q_mul(E, qa, qb))
    g = data.draw(st.integers(0, E.n_gens - 1))
    assert E.ad_act(g, Element(E, qa)).terms == field_ad_act(E, g, qa)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_q_is_a_left_module_on_every_engine(engines_q_and_mod_p,
                                            oracle_engines, data):
    # the module axiom a (b c) = (a b) c of the left action of U on Q on
    # every engine above, over Q and mod p: a and b over every generator,
    # letters of m included, with the product a b formed in U by the
    # Field-method oracle, and c a class in Q
    E = data.draw(st.sampled_from(engines_q_and_mod_p + oracle_engines))
    a, b = (Element(E, data.draw(_oracle_terms(E, E.n_gens)))
            for _ in range(2))
    c = Element(E, data.draw(_oracle_terms(E, E.cobasis_count)))
    assert (E.q_mul(a, E.q_mul(b, c))
            == E.q_mul(Element(E, field_mul(E, a.terms, b.terms)), c))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ad_act_of_every_generator_equals_the_field_oracle(oracle_engines,
                                                           data):
    # the left action of U on Q (`Enveloping.left_gen`) for each g, in m and
    # outside it, on every engine; each q holds a co-basis generator s at
    # its cap (exponent p - 1 mod p for an even s, 1 for an odd one), so
    # that b_s acting on it contracts a p-th power or an odd square; at the
    # second eta sample eta is nonzero on the first even co-basis generator
    for E in oracle_engines:
        p = E.field.char
        q = dict(data.draw(_oracle_terms(E, E.cobasis_count)))
        s = data.draw(st.integers(0, E.cobasis_count - 1))
        capped = [0] * E.n_gens
        capped[s] = 1 if E.parities[s] else (p - 1 if p else 2)
        q[tuple(capped)] = E.field.one
        for g in range(E.n_gens):
            assert (E.ad_act(g, Element(E, q)).terms
                    == field_ad_act(E, g, q))
            assert (E._terms(*E.left_gen(g, E.unit_mono))
                    == field_q_mul(E, {E._gen_mono(g): E.field.one},
                                   {E.unit_mono: E.field.one}))


def _in_lowest_terms(pair):
    nums, den = pair
    return (den >= 1 and all(isinstance(c, int) and c for c in nums.values())
            and gcd(den, *nums.values()) == 1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_char0_memo_entries_are_in_lowest_terms(oracle_engines, data):
    E = data.draw(st.sampled_from([E for E in oracle_engines
                                   if not E.field.char]))
    a = data.draw(_oracle_terms(E, E.n_gens))
    # a b with a monomial other than the unit, so that ad_act stores, for
    # each g in m, a bracket term of the left action, even when no earlier
    # example has filled the module-scoped engine's memo
    b = data.draw(_oracle_terms(E, E.cobasis_count).filter(
        lambda t: any(any(m) for m in t)))
    E.q_mul(Element(E, a), E.element(b))
    for g in range(E.n_gens):
        E.ad_act(g, E.element(b))
    memo = E._gen_cache
    assert memo
    # an entry is its numerator dict alone when the denominator is 1
    bad = [key for key, entry in memo.items()
           if not _in_lowest_terms(entry if type(entry) is tuple
                                   else (entry, 1))
           or type(entry) is tuple and entry[1] == 1]
    assert not bad
    assert all(E.left_gen(*key) == (entry if type(entry) is tuple
                                    else (entry, 1))
               for key, entry in memo.items())
