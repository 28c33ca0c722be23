import random
import re
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracle import (field_acc, field_ad_act, field_add, field_mul,
                    field_q_mul, field_q_reduce, field_scale, field_sub,
                    gen_pair, gen_tuple, pair_of, product_exponent_tuples,
                    terms_of, tuple_element_parity, tuple_parity, unit_tuple)
from wsuper import (analyze_nilpotent, build_algebra, reduce_datum,
                    resolve_nilpotent, sl2_triple)
from wsuper.pbw import (AmbientMismatch, Enveloping, ExponentOverflow,
                        engine_from_datum, exponent_tuples,
                        packed_monomials)


@pytest.fixture(scope="module")
def E(nd_gl11_zero):
    return engine_from_datum(nd_gl11_zero, None, None)


@pytest.fixture(scope="module")
def Es(nd_sl21_e12):
    return engine_from_datum(nd_sl21_e12, None, None)


@pytest.fixture(scope="module")
def Eo(nd_osp12_reg):
    return engine_from_datum(nd_osp12_reg, None, None)


def unit_pair(E):
    return {E.unit_mono: 1}, 1


def is_class(E, pair):
    """Whether a pair is a class in Q: no monomial has a letter of m."""
    return all(not m & E.m_mask for m in pair[0])


def normalize(E, word):
    """The class in Q of a word given as (generator, exponent) pairs, in any
    order, by the left action: its letters act on the unit from the last
    one back; odd exponents beyond 1 contract, even ones cap mod p.  For
    the zero nilpotent m = 0, and the class is the normal form in U."""
    cur = unit_pair(E)
    for g, e in reversed(word):
        for _ in range(e):
            cur = E.q_mul(gen_pair(E, g), cur)
    return cur


def rand_elt(E, rng, nterms=3, emax=2):
    """Field terms of a few random monomials over every generator."""
    t = {}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, 1) if E.parities[i] else rng.randint(0, emax)
                     for i in range(E.n_gens))
        t[mono] = Fraction(rng.randint(-3, 3))
    return {m: c for m, c in t.items() if c}


def test_normalize_fixed_point(E):
    m = (2, 1, 0, 1)
    again = normalize(E, [(i, e) for i, e in enumerate(m)])
    assert again == pair_of(E, {m: 1})


def test_gl11_odd_swap(E):
    # adapted order: x1=E11, x2=E22, y1=E12, y2=E21
    f = E.field
    y1, y2 = 2, 3
    res = normalize(E, [(y2, 1), (y1, 1)])
    prod = terms_of(E, E.q_mul(gen_pair(E, y1), gen_pair(E, y2)))
    want = field_sub(f, {gen_tuple(E, 0): f.one, gen_tuple(E, 1): f.one}, prod)
    assert terms_of(E, res) == want


def test_odd_square_contracts(E, Eo):
    # [E12, E12] = 0 in gl(1|1)
    assert normalize(E, [(2, 2)]) == ({}, 1)
    # the odd co-basis vector of osp(1|2) squares to half its bracket, whose
    # class in Q takes chi on m
    v1 = Eo.labels.index("v1")
    sq = normalize(Eo, [(v1, 2)])
    br = {gen_tuple(Eo, k): Fraction(c, 2)
          for k, c in Eo.brackets[(v1, v1)].items()}
    assert terms_of(Eo, sq) == field_q_reduce(Eo, br)


def test_unit_is_neutral(Es):
    # on either side of q_mul the unit gives the class of the other factor
    rng = random.Random(5)
    for _ in range(5):
        terms = rand_elt(Es, rng)
        a = pair_of(Es, terms)
        qa = pair_of(Es, field_q_reduce(Es, terms))
        assert (Es.q_mul(unit_pair(Es), qa) == qa
                == Es.q_mul(a, unit_pair(Es)))


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
    return terms_of(E, pair_of(E, terms))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_associativity_random(engines_q_and_mod_p, data):
    # the module axiom a (b c) = (a b) c of the left action, with the product
    # a b formed in U by the Field-method oracle and c's class in Q
    E = data.draw(st.sampled_from(engines_q_and_mod_p))
    a, b, c = (data.draw(_elements(E)) for _ in range(3))
    qc = pair_of(E, field_q_reduce(E, c))
    assert (E.q_mul(pair_of(E, a), E.q_mul(pair_of(E, b), qc))
            == E.q_mul(pair_of(E, field_mul(E, a, b)), qc))


def test_ambient_mismatch(Es, Eo):
    # a pair with a letter of m is not a class of Q: q_mul and ad_act refuse
    # it as their right operand, also beside a co-basis monomial, while
    # q_mul takes it as its left factor, an element of U
    for E in (Es, Eo):
        z = E.cobasis_count
        unit = unit_pair(E)
        for bad in (gen_pair(E, z), ({E.unit_mono: 1, E.units[z]: 1}, 1)):
            with pytest.raises(AmbientMismatch,
                               match="^q_mul acts on reduced classes$"):
                E.q_mul(unit, bad)
            for g in (0, z):
                with pytest.raises(AmbientMismatch,
                                   match="^ad acts on reduced classes$"):
                    E.ad_act(g, bad)
            assert (terms_of(E, E.q_mul(bad, unit))
                    == field_q_reduce(E, terms_of(E, bad)))


def test_filtration_compatibility(Es):
    rng = random.Random(23)
    for _ in range(15):
        a, b = rand_elt(Es, rng), rand_elt(Es, rng)
        ab = Es.q_mul(pair_of(Es, a), pair_of(Es, field_q_reduce(Es, b)))
        if not ab[0] or not a or not b:
            continue
        da = max(Es.e_degree(Es.encode(m)) for m in a)
        db = max(Es.e_degree(Es.encode(m)) for m in b)
        assert max(Es.e_degree(m) for m in ab[0]) <= da + db


def test_commutator_drops_two_degrees(Es):
    # homogeneous a, b: ab -+ ba has e-degree <= deg a + deg b - 2
    rng = random.Random(31)
    f = Es.field
    for _ in range(20):
        ga = rng.randrange(Es.n_gens)
        gb = rng.randrange(Es.n_gens)
        a, b = gen_pair(Es, ga), gen_pair(Es, gb)
        sign = -1 if (Es.parities[ga] and Es.parities[gb]) else 1
        ab = terms_of(Es, Es.q_mul(a, Es.q_mul(b, unit_pair(Es))))
        ba = terms_of(Es, Es.q_mul(b, Es.q_mul(a, unit_pair(Es))))
        br = field_sub(f, ab, field_scale(f, ba, sign))
        if not br:
            continue
        top = max(Es.e_degree(Es.encode(m)) for m in br)
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
            prod = terms_of(E, E.q_mul(pair_of(E, {m1: 1}),
                                       pair_of(E, {m2: 1})))
            admissible = all(combined[i] <= 1 for i in range(E.n_gens)
                             if E.parities[i])
            got = prod.get(combined, 0)
            if not admissible:
                assert got == 0
            else:
                assert got == _tau_sign(E, m1, m2)


def test_q_reduce_examples(Es):
    f = Es.field
    # the class in Q of an element is the element acting on the unit: a
    # co-basis monomial is fixed
    unit = unit_pair(Es)
    mono = Es.units[0]
    assert Es.q_mul(({mono: 1}, 1), unit) == ({mono: 1}, 1)
    # the weight -2 generator acts through chi
    w1 = Es.labels.index("w1")
    assert (terms_of(Es, Es.q_mul(gen_pair(Es, w1), unit))
            == {unit_tuple(Es): f.of(1)})
    # nilpotent-killing: (z - chi(z)) annihilates everything on the right,
    # for products formed in U by the Field-method oracle
    rng = random.Random(4)
    for z in range(Es.cobasis_count, Es.n_gens):
        u = {tuple(rng.randint(0, 1) for _ in range(Es.n_gens)): f.one}
        n = field_sub(f, {gen_tuple(Es, z): f.one},
                      {unit_tuple(Es): Es.chi[z]})
        assert Es.q_mul(pair_of(Es, field_mul(Es, u, n)), unit) == ({}, 1)


def test_q_reduce_never_leaves_cobasis(Es):
    rng = random.Random(9)
    for _ in range(20):
        a, b = rand_elt(Es, rng), rand_elt(Es, rng)
        red = Es.q_mul(pair_of(Es, field_mul(Es, a, b)), unit_pair(Es))
        ab = Es.q_mul(pair_of(Es, a), Es.q_mul(pair_of(Es, b),
                                               unit_pair(Es)))
        assert is_class(Es, red) and is_class(Es, ab)


def test_ad_act_examples(Eo, nd_osp12_reg):
    f = Eo.field
    for z in nd_osp12_reg.m_indices:
        assert Eo.ad_act(z, unit_pair(Eo)) == ({}, 1)
    v1 = Eo.labels.index("v1")
    got = Eo.ad_act(v1, Eo.q_mul(gen_pair(Eo, v1), unit_pair(Eo)))
    assert terms_of(Eo, got) == {unit_tuple(Eo):
                                 f.of(nd_osp12_reg.middle_norm)}


def test_ad_act_rejects_an_unreduced_class(Eo, nd_osp12_reg):
    z = nd_osp12_reg.m_indices[0]
    with pytest.raises(AmbientMismatch, match="ad acts on reduced classes"):
        Eo.ad_act(z, gen_pair(Eo, z))


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
    f = Es.field
    ctx = WContext(nd_sl21_e12, engine=Es)
    theta = ctx.generators()[1].value
    rng = random.Random(12)
    junk = rand_elt(Es, rng)
    z0 = nd_sl21_e12.m_indices[0]
    kill = field_sub(f, {gen_tuple(Es, z0): f.one},
                     {unit_tuple(Es): Es.chi[z0]})
    # the products in U are the Field-method oracle's
    lift2 = field_add(f, terms_of(Es, theta), field_mul(Es, junk, kill))
    for z in nd_sl21_e12.m_indices:
        a = Es.ad_act(z, theta)
        b = field_sub(f, field_q_mul(Es, {gen_tuple(Es, z): f.one}, lift2),
                      _signed_right(Es, lift2, z))
        assert terms_of(Es, a) == b


def _signed_right(Es, terms, z):
    f = Es.field
    acc = {}
    pz = Es.parities[z]
    for m, c in terms.items():
        sign = -1 if (pz and tuple_parity(Es, m)) else 1
        term = field_q_mul(Es, {m: c}, {gen_tuple(Es, z): f.one})
        field_acc(f, acc, term, f.of(sign))
    return acc


def _pi_project(E, q, i, j):
    # the monomials of the Field terms q with e-degree i and weight j
    return {m: c for m, c in q.items()
            if E.grade(E.encode(m)) == (i, j)}


def test_pi_project_and_leading(Es):
    f = Es.field
    mono = tuple(1 if i == 0 else 0 for i in range(Es.n_gens))
    q = {mono: f.one}
    i, j = Es.grade(Es.encode(mono))
    assert _pi_project(Es, q, i, j) == q
    assert not _pi_project(Es, q, i + 1, j)
    # max selection between two degrees
    m2 = tuple(2 if i == 0 else 0 for i in range(Es.n_gens))
    assert (Es.leading_data({Es.encode(mono): 1, Es.encode(m2): 1})[2]
            == {Es.encode(m2)})


# -- closed-form left multiplication against products in U ---------------------

def closed_form_left_multiply(E, w, mono):
    """Left multiplication of homogeneous Field terms w by the closed
    binomial and sign-table formula, bubbling w through the x and y blocks
    in one step, with the products in U by the Field-method oracle.  Agrees
    with normal ordering; the tests below check that."""
    f = E.field
    par_w = tuple_element_parity(E, w)
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
            if not bracket:
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
                                          bracket),
                             {tuple(suffix): f.one})
            field_acc(f, acc, term, coeff)
    return acc


def _ad_in_u(E, g, w):
    """[b_g, w] inside the enveloping algebra, for Field terms w."""
    f = E.field
    gen = {gen_tuple(E, g): f.one}
    sign = -1 if (E.parities[g] and tuple_element_parity(E, w)) else 1
    return field_sub(f, field_mul(E, gen, w),
                     field_scale(f, field_mul(E, w, gen), sign))


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
            g = rng.randrange(E.n_gens)
            w = {gen_tuple(E, g): E.field.one}
            mono = tuple((rng.randint(0, 1) if E.parities[i] else rng.randint(0, 2))
                         if i < cb else 0 for i in range(E.n_gens))
            fast = closed_form_left_multiply(E, w, mono)
            slow = field_mul(E, w, {mono: Fraction(1)})
            assert fast == slow
            # and its class is w acting on b^mono
            assert (pair_of(E, field_q_reduce(E, fast))
                    == E.q_mul(gen_pair(E, g), pair_of(E, {mono: 1})))


def test_closed_form_central_case(E):
    # the identity matrix is central in gl(1|1): w mon = mon w exactly; m
    # = 0 for the zero nilpotent, so q_mul is the product in U
    f = E.field
    w = {gen_tuple(E, 0): f.one, gen_tuple(E, 1): f.one}
    for mono in [(1, 0, 1, 0), (2, 1, 0, 1), (0, 0, 1, 1)]:
        res = pair_of(E, closed_form_left_multiply(E, w, mono))
        assert res == E.q_mul(pair_of(E, {mono: 1}), pair_of(E, w))
        assert res == E.q_mul(pair_of(E, w), pair_of(E, {mono: 1}))


def test_mod_p_exponent_cap(nd_gl11_zero):
    dat = reduce_datum(nd_gl11_zero, 3)
    from wsuper.modp import build_reduced_q
    q = build_reduced_q(dat)
    E = q.engine
    # x1^3 = x1^[3] + eta(x1)^3 = x1 since E11^3 = E11 and eta = 0
    got = normalize(E, [(0, 3)])
    assert got == gen_pair(E, 0)


def test_filtration_index_identity(Es):
    # e-degree = weight + 2 * standard degree, per monomial
    rng = random.Random(55)
    for _ in range(20):
        mono = tuple(rng.randint(0, 1) if Es.parities[i] else rng.randint(0, 3)
                     for i in range(Es.n_gens))
        e_degree, weight = Es.grade(Es.encode(mono))
        assert e_degree == weight + 2 * sum(mono)


def test_odd_left_multiplication_sign(E):
    # w odd against a single odd letter: w y = -y w + [w, y]; m = 0 for the
    # zero nilpotent, so q_mul is the product in U
    f = E.field
    y1, y2 = 2, 3
    mono = gen_tuple(E, y1)
    got = closed_form_left_multiply(E, {gen_tuple(E, y2): f.one}, mono)
    bracket = {gen_tuple(E, k): c
               for k, c in E.brackets.get((y2, y1), {}).items()}
    want = field_sub(f, bracket,
                     terms_of(E, E.q_mul(gen_pair(E, y1), gen_pair(E, y2))))
    assert got == want == terms_of(E, E.q_mul(gen_pair(E, y2),
                                              gen_pair(E, y1)))


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
    want = product_exponent_tuples(degrees, parities, cap, budget)
    assert list(exponent_tuples(degrees, parities, cap, budget)) == want
    # packed into 5-bit fields, which hold every exponent up to 12
    places = [1 << 5 * (len(gens) - 1 - i) for i in range(len(gens))]
    assert (list(packed_monomials(degrees, parities, cap, budget, places))
            == [sum(e * u for e, u in zip(expo, places)) for expo in want])


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
    """Field terms over the first `span` generators: a few monomials of at
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
    return terms_of(E, pair_of(E, terms))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mul_q_mul_and_ad_act_equal_the_field_oracle(oracle_engines, data):
    E = data.draw(st.sampled_from(oracle_engines))
    a = data.draw(_oracle_terms(E, E.n_gens))
    b = data.draw(_oracle_terms(E, E.n_gens))
    # a and b have m-part letters: chi (eta) acts on them, and the class of
    # the product a b is a acting on the class of b, whose pair is the
    # lowest-terms pair of the oracle's
    assert (E.q_mul(pair_of(E, a), pair_of(E, field_q_reduce(E, b)))
            == pair_of(E, field_q_mul(E, a, b)))
    assert (terms_of(E, E.q_mul(pair_of(E, a), unit_pair(E)))
            == field_q_reduce(E, a))
    qa = data.draw(_oracle_terms(E, E.cobasis_count))
    qb = data.draw(_oracle_terms(E, E.cobasis_count))
    assert (E.q_mul(pair_of(E, qa), pair_of(E, qb))
            == pair_of(E, field_q_mul(E, qa, qb)))
    g = data.draw(st.integers(0, E.n_gens - 1))
    assert E.ad_act(g, pair_of(E, qa)) == pair_of(E, field_ad_act(E, g, qa))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_q_is_a_left_module_on_every_engine(engines_q_and_mod_p,
                                            oracle_engines, data):
    # the module axiom a (b c) = (a b) c of the left action of U on Q on
    # every engine above, over Q and mod p: a and b over every generator,
    # letters of m included, with the product a b formed in U by the
    # Field-method oracle, and c a class in Q
    E = data.draw(st.sampled_from(engines_q_and_mod_p + oracle_engines))
    a, b = (data.draw(_oracle_terms(E, E.n_gens)) for _ in range(2))
    c = pair_of(E, data.draw(_oracle_terms(E, E.cobasis_count)))
    assert (E.q_mul(pair_of(E, a), E.q_mul(pair_of(E, b), c))
            == E.q_mul(pair_of(E, field_mul(E, a, b)), c))


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
            assert (E.ad_act(g, pair_of(E, q))
                    == pair_of(E, field_ad_act(E, g, q)))
            assert (terms_of(E, E.left_gen(g, E.unit_mono))
                    == field_q_mul(E, {gen_tuple(E, g): E.field.one},
                                   {unit_tuple(E): E.field.one}))


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
    E.q_mul(pair_of(E, a), pair_of(E, b))
    for g in range(E.n_gens):
        E.ad_act(g, pair_of(E, b))
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


# -- packed monomials ---------------------------------------------------------

@pytest.fixture(scope="module")
def E33():
    """The engine of gl(3|3) regular over Q: 36 generators in 8-bit fields,
    the widest packed monomials of the north-star run."""
    alg = build_algebra("gl", 3, 3)
    nd = analyze_nilpotent(alg, sl2_triple(alg, resolve_nilpotent(alg,
                                                                 "regular")))
    return engine_from_datum(nd, None, None)


def _expos(E):
    """Exponent tuples over every generator of E, each exponent up to the
    engine's bound."""
    return st.tuples(*[st.integers(0, E.max_exponent)] * E.n_gens)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packing_round_trips_and_keeps_tuple_order(E33, data):
    E = E33
    assert (E.n_gens, E.width, E.max_exponent) == (36, 8, 127)
    expos = data.draw(st.lists(_expos(E), min_size=2, max_size=6))
    monos = [E.encode(a) for a in expos]
    assert [E.decode(m) for m in monos] == expos
    # int order is tuple order, so a sort by monomial is a sort by tuple
    assert sorted(monos) == [E.encode(a) for a in sorted(expos)]
    a, m = expos[0], monos[0]
    assert E.first(m) == next((i for i, x in enumerate(a) if x),
                              E.cobasis_count)
    assert E.mono_parity(m) == sum(
        x for x, odd in zip(a, E.parities) if odd) % 2
    assert E.grade(m) == (sum(x * d for x, d in zip(a, E.e_degrees)),
                          sum(x * w for x, w in zip(a, E.weights)))
    assert bool(m & E.m_mask) == any(a[E.cobasis_count:])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_raise_into_the_guard_bit_is_an_overflow(E33, data):
    E = E33
    top = E.max_exponent
    g = data.draw(st.sampled_from([i for i in range(E.cobasis_count)
                                   if not E.parities[i]]))
    expo = list(data.draw(_expos(E)))
    expo[g] = top
    m = E.encode(tuple(expo))
    named = "generator %s " % re.escape(E.labels[g])
    with pytest.raises(ExponentOverflow, match=named):
        E.raised(m, g)
    # top + 1 is g's guard bit alone: no field changes but g's, the
    # neighbouring one above it included
    bumped = list(E.decode(m + E.units[g]))
    assert bumped[g] == top + 1 == 1 << (E.width - 1)
    assert bumped[:g] + bumped[g + 1:] == expo[:g] + expo[g + 1:]
    with pytest.raises(ExponentOverflow, match=named):
        E.encode(tuple(bumped))
    # the left action raises b_g^top through `left_gen` and `_left_apply`
    power = top * E.units[g]
    with pytest.raises(ExponentOverflow, match=named):
        E.left_gen(g, power)
    with pytest.raises(ExponentOverflow, match=named):
        E.q_mul(gen_pair(E, g), ({power: 1}, 1))


def test_a_reduced_engine_at_211_holds_exponent_210(nd_sl21_e12):
    dat = reduce_datum(nd_sl21_e12, 211)
    E = engine_from_datum(dat, dat.eta_chi(), dat.pmap_adapted)
    assert (E.max_exponent, E.width) == (210, 9)
    f = E.field
    for g in range(E.cobasis_count):
        if E.parities[g]:
            continue
        top = 210 * E.units[g]
        assert E.decode(top) == tuple(210 * x for x in gen_tuple(E, g))
        assert E.encode(E.decode(top)) == top
        # b_g raises b_g^209 to b_g^210 exactly, and on b_g^210 contracts
        # b_g^211 through the p-th power map, as the Field-method oracle does
        assert E.left_gen(g, top - E.units[g]) == ({top: 1}, 1)
        assert (terms_of(E, E.left_gen(g, top))
                == field_q_mul(E, {gen_tuple(E, g): f.one},
                               {E.decode(top): f.one}))
