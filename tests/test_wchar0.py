import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracle import (dense_bracket, dense_invert, dense_nullspace, elt_add,
                    elt_scale, elt_sub, field_mul, mat_vec)
from wsuper import (analyze_nilpotent, build_algebra, cli, linalg,
                    resolve_nilpotent, sl2_triple, wchar0)
from wsuper.scalars import QQ
from wsuper.wchar0 import (LeadingShapeError, NotInvariantError, SolverError,
                           ThetaPolynomial, WContext)


def series_product(factors, max_degree):
    """Independent generating-function arithmetic: factors are ("even", d) for
    1/(1-t^d) or ("odd", d) for (1+t^d)."""
    out = [1] + [0] * max_degree
    for kind, d in factors:
        if kind == "odd":
            nxt = out[:]
            for i in range(max_degree + 1 - d):
                nxt[i + d] += out[i]
            out = nxt
        else:
            nxt = [0] * (max_degree + 1)
            for i in range(0, max_degree + 1, d):
                for j in range(max_degree + 1 - i):
                    nxt[i + j] += out[j]
            out = nxt
    return out


def test_zero_nilpotent_generators_are_bare(nd_gl11_zero):
    ctx = WContext(nd_gl11_zero)
    for w in ctx.generators():
        assert w.value.terms == {ctx.engine._gen_mono(w.leading_gen): Fraction(1)}


def test_osp_extra_generator_is_the_middle_vector(ctx_osp12):
    nd = ctx_osp12.nd
    theta3 = ctx_osp12.generators()[2]
    assert theta3.parity == 1
    assert theta3.value.terms == {
        ctx_osp12.engine._gen_mono(nd.v_mid_index): Fraction(1)}
    assert ctx_osp12.is_invariant(theta3.value)


def test_all_generators_invariant_and_shaped(ctx_sl21, ctx_osp12):
    for ctx in (ctx_sl21, ctx_osp12):
        for w in ctx.generators():
            assert ctx.is_invariant(w.value)
            ctx.check_leading_shape(w.value)
            assert w.value.parity() == w.parity
            lead = ctx.engine._gen_mono(w.leading_gen)
            assert w.value.coefficient(lead) == 1
            bound = w.filtration_degree
            for m in w.value.terms:
                d = ctx.engine.e_degree(m)
                assert d <= bound
                if d == bound and m != lead:
                    assert sum(m) >= 2


def test_sl21_first_generator_is_central_element(ctx_sl21):
    # leading term has weight zero, all terms have e-degree <= 2, rational
    th1 = ctx_sl21.generators()[0]
    assert th1.weight == 0
    for m, c in th1.value.terms.items():
        assert ctx_sl21.engine.e_degree(m) <= 2
        assert isinstance(c, Fraction)


def test_sl21_theta1_against_direct_nullspace(nd_sl21_e12, ctx_sl21):
    # independent route: invariance system over all co-basis monomials of
    # e-degree <= 2, with no shape constraints, solved as a plain kernel
    e = ctx_sl21.engine
    monos = e.cobasis_monomials(2)
    rows = {}
    cols = []
    for m in monos:
        col = {}
        for z in nd_sl21_e12.m_indices:
            img = e.ad_act(z, e.element({m: Fraction(1)}))
            for mm, c in img.terms.items():
                col[(z, mm)] = c
                rows.setdefault((z, mm), len(rows))
        cols.append(col)
    mat = [[Fraction(0)] * len(monos) for _ in range(len(rows))]
    for ci, col in enumerate(cols):
        for key, c in col.items():
            mat[rows[key]][ci] = c
    kernel = dense_nullspace(QQ, mat, cols=len(monos))
    # theta1's coefficient vector over those monomials lies in the kernel span
    th1 = ctx_sl21.generators()[0].value
    vec = [th1.coefficient(m) for m in monos]
    assert linalg.in_span(QQ, kernel, vec)


def test_express_round_trip_random(ctx_sl21):
    rng = random.Random(99)
    n = ctx_sl21.n_generators()
    odd = [g.parity == 1 for g in ctx_sl21.generators()]
    for _ in range(8):
        terms = {}
        for _ in range(3):
            mono = tuple(rng.randint(0, 1) if odd[i] else rng.randint(0, 2)
                         for i in range(n))
            terms[mono] = Fraction(rng.randint(-2, 2))
        poly = ThetaPolynomial(n, {m: c for m, c in terms.items() if c})
        value = ctx_sl21.evaluate(poly)
        back = ctx_sl21.express_in_pbw(value)
        assert back == poly


def test_express_trivial_cases(ctx_osp12):
    e = ctx_osp12.engine
    one = ctx_osp12.express_in_pbw(e.unit())
    assert one.terms == {(0, 0, 0): Fraction(1)}
    th2 = ctx_osp12.generators()[1]
    p = ctx_osp12.express_in_pbw(th2.value)
    assert p.terms == {(0, 1, 0): Fraction(1)}
    assert ctx_osp12.express_in_pbw(e.zero()).is_zero()


def test_express_rejects_non_invariant(ctx_osp12):
    e = ctx_osp12.engine
    with pytest.raises(NotInvariantError):
        ctx_osp12.express_in_pbw(e.gen(1))


def test_express_rejects_a_wrong_evaluation(ctx_osp12, monkeypatch):
    # the evaluate-back check compares the pairs of `_evaluate`
    value = ctx_osp12.generators()[1].value
    monkeypatch.setattr(WContext, "_evaluate", lambda self, terms: ({}, 1))
    with pytest.raises(SolverError, match="does not evaluate back"):
        ctx_osp12.express_in_pbw(value)


WRONG_EVALUATION = """
import sys
from wsuper import analyze_nilpotent, build_algebra, resolve_nilpotent, sl2_triple
from wsuper.wchar0 import SolverError, WContext
alg = build_algebra("osp", 1, 2)
ctx = WContext(analyze_nilpotent(
    alg, sl2_triple(alg, resolve_nilpotent(alg, "regular"))))
value = ctx.generators()[1].value
WContext._evaluate = lambda self, terms: ({}, 1)
try:
    ctx.express_in_pbw(value)
except SolverError as exc:
    print(sys.flags.optimize, exc)
"""


def test_wrong_evaluation_is_caught_under_python_O():
    # python -O strips assert statements; this check must survive it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                          / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_EVALUATION],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 PBW expression does not evaluate back\n"


def test_generator_index_and_bracket_reject_bad_input(ctx_sl21):
    nd, e = ctx_sl21.nd, ctx_sl21.engine
    # r is even for sl(2|1) E12: there is no extra odd generator
    with pytest.raises(SolverError, match="no W-generator"):
        ctx_sl21.leading_gen_index(nd.l + nd.q + 1)
    mixed = elt_add(e.gen(e.parities.index(0)), e.gen(e.parities.index(1)))
    with pytest.raises(SolverError, match="inhomogeneous"):
        ctx_sl21.super_bracket(mixed, mixed)


def test_leading_shape_rejects_bad_monomials(ctx_sl21):
    e = ctx_sl21.engine
    bad = e.element({e._gen_mono(ctx_sl21.nd.l): Fraction(1)})  # an x beyond l
    with pytest.raises(LeadingShapeError):
        ctx_sl21.check_leading_shape(bad)


@pytest.fixture(scope="module")
def ctx_gl31_e12():
    # s = 1 and r = 2: u1 and v1 in the co-basis, u2 and v2 in m
    alg = build_algebra("gl", 3, 1)
    nd = analyze_nilpotent(alg, sl2_triple(alg, resolve_nilpotent(alg, "E12")))
    assert (nd.l, nd.q, nd.s, nd.r, nd.t) == (6, 4, 1, 2, 1)
    return WContext(nd)


def test_leading_to_expo_rejects_u_and_m_generators(ctx_gl31_e12):
    nd, e = ctx_gl31_e12.nd, ctx_gl31_e12.engine
    # u1 follows the x and y generators
    for g in (nd.m_count + nd.n_count, nd.m_indices[0]):
        with pytest.raises(LeadingShapeError):
            ctx_gl31_e12._leading_to_expo(e._gen_mono(g))


def test_centralizer_structure_rejects_brackets_outside(
        ctx_osp12, ctx_gl31_e12, monkeypatch):
    # v_mid leads the extra odd generator, but it is not in the centralizer;
    # neither are u1 (after the x and y generators) and m
    cases = [(ctx_osp12, ctx_osp12.nd.v_mid_index),
             (ctx_gl31_e12, ctx_gl31_e12.nd.m_count + ctx_gl31_e12.nd.n_count),
             (ctx_gl31_e12, ctx_gl31_e12.nd.m_indices[0])]
    for ctx, kgen in cases:
        with monkeypatch.context() as mp:
            mp.setitem(ctx.engine.brackets, (0, 0), {kgen: Fraction(1)})
            with pytest.raises(SolverError):
                ctx.centralizer_structure(1, 1)


def test_osp12_commutator_table(ctx_osp12):
    pres = ctx_osp12.commutator_table()
    nd = ctx_osp12.nd
    # the extra odd generator squares to the middle norm
    sq = pres.relation(3, 3)
    assert sq.terms == {(0, 0, 0): Fraction(nd.middle_norm)}
    assert nd.middle_norm == 2
    # even diagonal brackets vanish
    assert pres.relation(1, 1).is_zero()
    # closure: every relation evaluates back to the bracket
    for (i, j), poly in pres.relations.items():
        gi = pres.generators[i - 1].value
        gj = pres.generators[j - 1].value
        assert ctx_osp12.evaluate(poly) == ctx_osp12.super_bracket(gi, gj)


def test_antisymmetry(ctx_sl21):
    gens = ctx_sl21.generators()
    f = ctx_sl21.engine.field
    for i in range(len(gens)):
        for j in range(len(gens)):
            bij = ctx_sl21.super_bracket(gens[i].value, gens[j].value)
            bji = ctx_sl21.super_bracket(gens[j].value, gens[i].value)
            sign = -1 if not (gens[i].parity and gens[j].parity) else 1
            assert bij == elt_scale(bji, f.of(sign))


def test_sl21_linear_parts_match_centralizer(ctx_sl21, nd_sl21_e12):
    # independent alpha: bracket the adapted vectors in the original algebra
    # and convert through the change of basis
    pres = ctx_sl21.commutator_table()
    nd = nd_sl21_e12
    alg = nd.alg
    degrees = ctx_sl21.generator_degrees()
    change = [[nd.generators[j].vector[i] for j in range(len(nd.generators))]
              for i in range(alg.dim)]
    inv = dense_invert(QQ, change)
    for (i, j), poly in pres.relations.items():
        gi = ctx_sl21.leading_gen_index(i)
        gj = ctx_sl21.leading_gen_index(j)
        br = dense_bracket(alg, list(nd.generators[gi].vector),
                           list(nd.generators[gj].vector))
        coords = mat_vec(QQ, inv, br)
        bound = degrees[i - 1] + degrees[j - 1] - 2
        linear = poly.linear_terms()
        for t in range(ctx_sl21.n_generators()):
            if degrees[t] != bound:
                continue
            gt = ctx_sl21.leading_gen_index(t + 1)
            assert linear.get(t, Fraction(0)) == coords[gt]


def test_filtration_law_on_table(ctx_sl21):
    pres = ctx_sl21.commutator_table()
    e = ctx_sl21.engine
    gens = pres.generators
    for (i, j), poly in pres.relations.items():
        br = ctx_sl21.super_bracket(gens[i - 1].value, gens[j - 1].value)
        bound = gens[i - 1].weight + gens[j - 1].weight + 2
        for m in br.terms:
            assert e.e_degree(m) <= bound


def test_product_well_defined_on_lift_choice(ctx_sl21):
    # replacing the canonical lift of the left factor by any other lift,
    # formed in U by the Field-method oracle, gives the same product against
    # an invariant right factor
    e = ctx_sl21.engine
    nd = ctx_sl21.nd
    rng = random.Random(3)
    a = ctx_sl21.generators()[1].value
    b = ctx_sl21.generators()[2].value
    z = nd.m_indices[0]
    chi_z = e.chi[z]
    for _ in range(5):
        mono = tuple(rng.randint(0, 1) for _ in range(e.n_gens))
        junk = e.element({mono: Fraction(rng.randint(1, 3))})
        lift = elt_add(e.element(a.terms), e.element(field_mul(
            e, junk.terms, elt_sub(e.gen(z), elt_scale(e.unit(), chi_z)).terms)))
        assert e.q_mul(lift, e.element(b.terms)) == e.q_mul(a, b)


def test_graded_check_sl21(ctx_sl21):
    rep = ctx_sl21.graded_check(10)
    assert rep.ok
    # frozen oracle: degrees {2,4,3,3} from the centralizer weights {0,2,1,1}
    oracle = series_product(
        [("even", 2), ("even", 4), ("odd", 3), ("odd", 3)], 10)
    assert oracle == [1, 0, 1, 2, 2, 2, 3, 4, 4, 4, 5]
    assert rep.pbw_counts == oracle
    assert rep.symmetric_dims == oracle


def test_graded_check_osp12(ctx_osp12):
    rep = ctx_osp12.graded_check(10)
    assert rep.ok
    oracle = series_product([("even", 4), ("odd", 3), ("odd", 1)], 10)
    assert oracle == [1, 1, 0, 1, 2, 1, 0, 1, 2, 1, 0]
    assert rep.pbw_counts == oracle


def test_graded_check_zero_nilpotent(nd_gl11_zero):
    ctx = WContext(nd_gl11_zero)
    rep = ctx.graded_check(4)
    assert rep.ok
    # U(g) for the trivial grading: every generator sits in degree 2
    oracle = series_product(
        [("even", 2), ("even", 2), ("odd", 2), ("odd", 2)], 4)
    assert oracle == [1, 0, 4, 0, 8]
    assert rep.pbw_counts == oracle


def test_random_invariants_have_shaped_leads(ctx_osp12):
    rng = random.Random(15)
    gens = ctx_osp12.generators()
    for _ in range(6):
        acc = ctx_osp12.engine.zero()
        for g in gens:
            acc = elt_add(acc, elt_scale(g.value,
                                         Fraction(rng.randint(-2, 2))))
        acc = elt_add(acc, elt_scale(ctx_osp12.eval_monomial((1, 0, 1)),
                                     Fraction(rng.randint(-2, 2))))
        if acc.is_zero():
            continue
        ctx_osp12.check_leading_shape(acc)


def test_osp32_odd_r_with_pair():
    # r = 3: one hyperbolic pair of odd weight -1 vectors plus the middle one
    from wsuper import analyze_nilpotent, build_algebra, sl2_triple
    from wsuper.superalgebra import Coordinatizer, zero_matrix
    alg = build_algebra("osp", 3, 2)
    target = zero_matrix(5)
    target[3][4] = Fraction(1)
    e = Coordinatizer(QQ, alg.realization).coords(target)
    nd = analyze_nilpotent(alg, sl2_triple(alg, e))
    assert (nd.l, nd.q, nd.s, nd.r, nd.t) == (4, 3, 0, 3, 1)
    assert nd.r_odd and nd.t_cb == 2 and nd.middle_norm == 2
    ctx = WContext(nd)
    gens = ctx.generators()
    assert len(gens) == 8 and gens[-1].filtration_degree == 1
    pres = ctx.commutator_table()
    assert pres.relation(8, 8).terms == {(0,) * 8: Fraction(2)}
    rep = ctx.graded_check(8)
    assert rep.ok
    assert rep.pbw_counts == [1, 1, 3, 6, 10, 16, 25, 37, 52]


def test_gl31_symplectic_variables_in_pipeline():
    # s = 1: candidate spaces carry u variables, whose exponents must vanish
    # from every leading term
    from wsuper import analyze_nilpotent, build_algebra, sl2_triple
    from wsuper.presets import resolve_nilpotent
    alg = build_algebra("gl", 3, 1)
    nd = analyze_nilpotent(alg, sl2_triple(alg, resolve_nilpotent(alg, "E13")))
    assert (nd.l, nd.q, nd.s, nd.r, nd.t) == (6, 4, 1, 2, 1)
    ctx = WContext(nd)
    gens = ctx.generators()
    assert len(gens) == 10
    u_pos = nd.m_count + nd.n_count  # u1, after the x and y generators
    for w in gens:
        ctx.check_leading_shape(w.value)
        for m in ctx.engine.leading_terms(w.value):
            assert m[u_pos] == 0
    rep = ctx.graded_check(8)
    assert rep.ok
    assert rep.pbw_counts == [1, 0, 5, 4, 14, 20, 38, 56, 95]


# sha256 of every artifact of north-star char-0 runs, recorded before the
# chain ran on the engine's pairs (wpresentation.json of gl41-solve and
# gl32-relations while the rational elimination still ran on Fractions):
# the pair path must reproduce them byte for byte.  osp(1|4) with e the
# first root vector has odd r, so its table holds the one-product square of
# the extra odd generator, pinned to the middle norm
GOLDEN_PRESENTATIONS = {
    "gl41-solve": (
        ["w", "solve", "--family", "gl", "--m", "4", "--n", "1",
         "--nilpotent", "regular"],
        {"algebra.json": "b7d6120a4e3314483edf5c55239fb2fa"
                         "296cc1775ee44db9bb2e8dcf01607045",
         "nilpotent.json": "5db9432c98a9d085cb73bdf756b122903"
                           "e8fbc5f6fcef1731f7ce236ef851298",
         "wpresentation.json": "2df57015ad3248c0d4113a5239b6c9a6"
                               "a595e467f0d163f2681160f7f2d7e4dc"}),
    "gl32-relations": (
        ["w", "relations", "--family", "gl", "--m", "3", "--n", "2",
         "--nilpotent", "regular"],
        {"algebra.json": "f523878346d4fb8d8ec73583e7829f7e"
                         "50264c52998efcfbb9dfdb7c4cc41ff4",
         "nilpotent.json": "2245962aa3cccd0c18dcccd3bd6f7f52e"
                           "b3c8300eb300e5c5164d2f857a127a6",
         "wpresentation.json": "5d6edb4d731a1f7eeb3da157a147a3ae"
                               "1568f45d06fc1e8a922e438268b9798d"}),
    "osp14-relations": (
        ["w", "relations", "--family", "osp", "--m", "1", "--n", "4",
         "--nilpotent", "1,0,0,0,0,0,0,0,0,0,0,0,0,0"],
        {"algebra.json": "200d32a2c7528539415eb42b23f4871c"
                         "238e0ddfe6f70ed3d4b1c97164102044",
         "nilpotent.json": "33e234ac0e8b7aa90d1789d99a0482a9a"
                           "1f7d8a4c354d760301399967ebdb934",
         "wpresentation.json": "80fbe993c51752e9a04c5bcbfceeae19"
                               "223e723520d212311ca955fc91dd99af"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PRESENTATIONS))
def test_char0_presentation_reproduces_its_golden_digest(name, tmp_path,
                                                         monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    args, want = GOLDEN_PRESENTATIONS[name]
    assert cli.main([*args, "--out", str(tmp_path)]) == cli.EXIT_OK
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir()}
    assert got == want


# every configuration whose generators tier-1 solves over Q
CHAR0_CONFIGS = [
    ("gl", 1, 1, "zero"), ("sl", 2, 1, "E12"), ("osp", 1, 2, "regular"),
    ("gl", 2, 1, "regular"), ("osp", 2, 2, "0,1,0,0,0,0,0,0"),
    ("osp", 3, 2, "0,0,0,1,0,0,0,0,0,0,0,0"), ("gl", 3, 1, "E12"),
    ("gl", 3, 1, "E13"), ("gl", 3, 1, "regular"), ("gl", 4, 1, "regular"),
    ("gl", 3, 2, "regular"),
]


def _fresh_datum(family, m, n, nilpotent):
    alg = build_algebra(family, m, n)
    return analyze_nilpotent(alg, sl2_triple(alg, resolve_nilpotent(
        alg, nilpotent)))


@pytest.mark.parametrize("config", CHAR0_CONFIGS,
                         ids=["%s%d%d-%s" % c for c in CHAR0_CONFIGS])
def test_solves_over_a_generating_set_equal_the_solves_over_m(config,
                                                              monkeypatch):
    nd = _fresh_datum(*config)
    # the generating set is chosen when first asked for, not by the analysis
    assert "_m_generators" not in vars(nd)
    gens = WContext(nd).generators()
    S = vars(nd)["_m_generators"]
    assert set(S) <= set(nd.m_indices)
    if config in (("gl", 3, 1, "regular"), ("gl", 4, 1, "regular"),
                  ("gl", 3, 2, "regular")):
        # m is not abelian there, so S is smaller than m
        assert len(S) < len(nd.m_indices)
    monkeypatch.setattr(wchar0, "m_generators", lambda nd: nd.m_indices)
    over_m = WContext(nd).generators()
    # each context has its own engine, so the values compare by their terms
    assert ([g._replace(value=g.value.terms) for g in gens]
            == [g._replace(value=g.value.terms) for g in over_m])


def test_a_set_that_does_not_generate_m_is_a_solver_error(monkeypatch,
                                                          tmp_path):
    nd = _fresh_datum("gl", 3, 1, "regular")
    S = wchar0.m_generators(nd)
    assert len(S) == 4 and len(nd.m_indices) == 5
    for z in S:
        with pytest.raises(SolverError, match="not m's 5"):
            wchar0.check_generates_m(nd, [s for s in S if s != z])
    # the greedy pick losing its last generator: the solve and the CLI stop
    # with the solver's exit code
    spanning = wchar0._spanning_set
    monkeypatch.setattr(wchar0, "_spanning_set",
                        lambda nd: spanning(nd)[:-1])
    with pytest.raises(SolverError, match="not m's 5"):
        WContext(_fresh_datum("gl", 3, 1, "regular")).generators()
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    assert cli.main(["w", "solve", "--family", "gl", "--m", "3", "--n", "1",
                     "--nilpotent", "regular", "--out", str(tmp_path)]
                    ) == cli.EXIT_SOLVER
