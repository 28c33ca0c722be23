import random
import time
from fractions import Fraction

import numpy as np
import pytest

from checks import check_graded_p_map, check_restrictedness
from oracle import (ad_matrix, check_p_center_acts_zero, dense_bracket,
                    dense_rows, left_matrix, terms_of)
from wsuper import cli, modp
from wsuper.modp import ReductionError
from wsuper.scalars import MILLER_RABIN_BOUND
from wsuper.wchar0 import WContext


@pytest.fixture(scope="module")
def dat_osp3(nd_osp12_reg):
    return modp.reduce_datum(nd_osp12_reg, 3)


@pytest.fixture(scope="module")
def dat_osp5(nd_osp12_reg):
    return modp.reduce_datum(nd_osp12_reg, 5)


@pytest.fixture(scope="module")
def dat_sl3(nd_sl21_e12):
    return modp.reduce_datum(nd_sl21_e12, 3)


@pytest.fixture(scope="module")
def dat_gl3(nd_gl11_zero):
    return modp.reduce_datum(nd_gl11_zero, 3)


def test_p2_rejected(gl11):
    with pytest.raises(ReductionError):
        modp.reduce_mod_p(gl11, 2)


def test_sl_divisibility_condition(sl21):
    # p | m - n = 1 never happens, all odd primes pass
    modp.reduce_mod_p(sl21, 3)
    from wsuper import build_algebra
    s11 = build_algebra("sl", 1, 1)
    with pytest.raises(ReductionError):
        modp.reduce_mod_p(s11, 5)


def test_composite_p_rejected(gl11):
    with pytest.raises(ReductionError):
        modp.reduce_mod_p(gl11, 9)


def test_large_primes_reduce_within_a_second(gl11):
    # the restriction check puts no upper bound on p (the float64 bound is
    # the dense oracle's own), and axiom (b) takes (ad x)^p by squaring, in
    # about 2 log2(p) matrix products rather than p brackets per basis pair
    for p in (11863289, 2 ** 31 - 1, 2 ** 89 - 1):
        modp.check_restriction("gl", (1, 1), p)
    for p in (1_000_003, 2 ** 31 - 1):
        start = time.perf_counter()
        mod = modp.reduce_mod_p(gl11, p)
        assert time.perf_counter() - start < 1
        assert mod.base.field.char == p and len(mod.p_map) == 2


def test_primality_is_decided_fast_up_to_its_proven_bound(gl11):
    # Miller-Rabin to the prime bases 2..41, not trial division; past the
    # bound where that test is proven exact, p is refused by name
    start = time.perf_counter()
    mod = modp.reduce_mod_p(gl11, 2 ** 61 - 1)
    assert time.perf_counter() - start < 1
    assert mod.base.field.char == 2 ** 61 - 1
    with pytest.raises(ReductionError, match=str(MILLER_RABIN_BOUND)):
        modp.reduce_mod_p(gl11, 2 ** 89 - 1)


def test_p_map_of_diagonal(gl11):
    mod = modp.reduce_mod_p(gl11, 3)
    lab = {b.label: b.index for b in gl11.basis}
    # idempotents: E11^3 = E11, E22^3 = E22
    for name in ("E11", "E22"):
        coords = mod.p_map[lab[name]]
        assert [int(c) for c in coords] == [
            1 if i == lab[name] else 0 for i in range(gl11.dim)]
    # axiom (b) for diagonal x against every basis vector is checked at
    # construction; spot-check one pair by hand
    alg = mod.base
    x = [0] * alg.dim
    x[lab["E11"]] = 1
    y = [0] * alg.dim
    y[lab["E12"]] = 1
    lhs = dense_bracket(alg, list(mod.p_map[lab["E11"]]), y)
    img = y
    for _ in range(3):
        img = dense_bracket(alg, x, img)
    assert lhs == img


def test_restrictedness_randomized_small(gl11, sl21):
    rng = random.Random(2024)
    for alg in (gl11, sl21):
        for p in (3, 5):
            mod = modp.reduce_mod_p(alg, p)
            ok, why = check_restrictedness(mod, 25, rng)
            assert ok, why


def test_reduced_q_dimensions(dat_osp3, dat_gl3):
    q = modp.build_reduced_q(dat_osp3)
    # co-basis (x1, x2 | y1, v1): p^2 * 2^2
    assert q.dim == 36
    q0 = modp.build_reduced_q(dat_gl3)
    assert q0.dim == 36  # p^2 2^2 for the full enveloping algebra at e = 0


def test_eta_validation(dat_osp3):
    gf = dat_osp3.field
    bad = list(dat_osp3.eta_chi())
    bad[dat_osp3.m_indices[0]] = gf.add(bad[dat_osp3.m_indices[0]], gf.one)
    with pytest.raises(ReductionError):
        modp.build_reduced_q(dat_osp3, tuple(bad))
    odd_bad = list(dat_osp3.eta_chi())
    odd_bad[dat_osp3.m_count] = 1  # an odd co-basis generator
    with pytest.raises(ReductionError):
        modp.build_reduced_q(dat_osp3, tuple(odd_bad))


def test_eta_shift_same_dimension(dat_osp3):
    labels = []
    for label, eta in dat_osp3.eta_samples():
        q = modp.build_reduced_q(dat_osp3, eta, label)
        assert q.dim == 36
        labels.append(label)
    assert len(labels) == 2 and labels[0] == "chi"


def test_invariant_subspace_osp5(dat_osp5):
    q = modp.build_reduced_q(dat_osp5)
    assert q.invariant_dimension("m") == 20
    assert q.invariant_dimension("mprime") == 10
    basis = q.invariant_subspace("m")
    assert len(basis) == 20
    # every basis vector is annihilated by each ad z
    for z in dat_osp5.m_indices:
        mat = ad_matrix(q, z)
        assert not ((mat @ dense_rows(basis, q.dim).T) % 5).any()


def test_invariant_subspace_zero_nilpotent(dat_gl3):
    q = modp.build_reduced_q(dat_gl3)
    assert q.invariant_dimension("m") == q.dim


def test_reduced_w_osp5(dat_osp5):
    rw = modp.reduced_w(modp.build_reduced_q(dat_osp5))
    assert rw.dim == 20 and rw.pbw_ok and not rw.warnings
    pres = rw.presentation
    gf = dat_osp5.field
    assert pres.relations[(3, 3)].terms == {(0, 0, 0): gf.of(2)}
    assert pres.relations[(1, 1)].is_zero()


def test_reduced_w_matches_char0_reduction(dat_osp5, ctx_osp12):
    # the mod-5 generators and relations are the mod-5 reductions of the
    # rational ones
    gf = dat_osp5.field
    rw = modp.reduced_w(modp.build_reduced_q(dat_osp5))
    # the two engines pack a monomial into fields of their own widths, so
    # the pairs are compared by exponent tuple
    e0 = ctx_osp12.engine
    for wp, w0 in zip(rw.thetas, ctx_osp12.generators()):
        nums, den = w0.value
        reduced = {e0.decode(m): gf.of(Fraction(c, den))
                   for m, c in nums.items()
                   if gf.of(Fraction(c, den)) != 0}
        assert wp.value[1] == 1
        assert reduced == terms_of(rw.context.engine, wp.value)
    pres0 = ctx_osp12.commutator_table()
    for key, poly in rw.presentation.relations.items():
        reduced = {m: gf.of(c) for m, c in pres0.relations[key].terms.items()
                   if gf.of(c) != 0}
        assert reduced == poly.terms


def test_p_guard_warning_at_3(dat_osp3):
    rw = modp.reduced_w(modp.build_reduced_q(dat_osp3))
    assert rw.warnings  # top candidate degree is 4 > 3
    assert rw.pbw_ok


def test_p_guard_warning_reaches_stderr(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    lines = {}
    for p in (3, 5):
        code = cli.main(["modp", "suite", "--family", "osp", "--m", "1",
                         "--n", "2", "--nilpotent", "regular", "--primes",
                         str(p), "--out", str(tmp_path / str(p))])
        assert code == cli.EXIT_OK
        lines[p] = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
    assert lines[3] == ["warning: p = 3, eta = chi: p = 3 is not above the"
                        " top candidate degree 4; exponent caps may truncate"
                        " identities"]
    assert lines[5] == []


def test_morita_identity(dat_osp5, dat_sl3):
    rep = modp.morita_dim_check(modp.build_reduced_q(dat_osp5))
    assert (rep.dim_u, rep.delta, rep.dim_w, rep.ok) == (500, 5, 20, True)
    rep2 = modp.morita_dim_check(modp.build_reduced_q(dat_sl3))
    assert (rep2.dim_u, rep2.delta, rep2.dim_w, rep2.ok) == (1296, 6, 36, True)


def test_morita_zero_nilpotent(dat_gl3):
    rep = modp.morita_dim_check(modp.build_reduced_q(dat_gl3))
    assert rep.delta == 1 and rep.dim_u == rep.dim_w == 36 and rep.ok


def test_refined_invariants_osp3(dat_osp3):
    rep = modp.mprime_invariants_check(modp.build_reduced_q(dat_osp3))
    assert rep.dim_m_invariants == 12 and rep.dim_mprime_invariants == 6
    assert rep.equal and rep.proper and rep.witness_ok


def test_refined_invariants_need_odd_r(dat_sl3):
    with pytest.raises(ValueError):
        modp.mprime_invariants_check(modp.build_reduced_q(dat_sl3))


def test_whittaker_dimensions(dat_osp3, dat_sl3, dat_gl3):
    q = modp.build_reduced_q(dat_osp3)
    wh = q.whittaker_subspace()
    assert len(wh) == q.dim // q.delta() == 12
    qs = modp.build_reduced_q(dat_sl3)
    assert len(qs.whittaker_subspace()) == qs.dim // qs.delta() == 36
    q0 = modp.build_reduced_q(dat_gl3)
    assert len(q0.whittaker_subspace()) == q0.dim  # delta = 1


def test_whittaker_vectors_are_eigenvectors(dat_osp3):
    q = modp.build_reduced_q(dat_osp3)
    wh = dense_rows(q.whittaker_subspace(), q.dim)
    for z in dat_osp3.m_indices:
        mat = left_matrix(q, z)
        shift = int(q.eta[z]) % q.p
        err = ((mat - shift * np.eye(q.dim, dtype=np.int64)) @ wh.T) % q.p
        assert not err.any()


def test_p_center_acts_zero(dat_osp3, dat_gl3):
    for dat in (dat_osp3, dat_gl3):
        q = modp.build_reduced_q(dat)
        ok, label = check_p_center_acts_zero(q)
        assert ok, label


def test_p_center_with_shifted_eta(dat_osp3):
    label, eta = dat_osp3.eta_samples()[1]
    q = modp.build_reduced_q(dat_osp3, eta, label)
    ok, lab = check_p_center_acts_zero(q)
    assert ok, lab


def test_graded_p_map(dat_osp3, dat_sl3):
    for dat in (dat_osp3, dat_sl3):
        ok, why = check_graded_p_map(dat)
        assert ok, why
        # m is closed under the p-th power map: weights p*w stay <= -2
        for i in dat.m_indices:
            if dat.generators[i].parity:
                continue
            for k, c in dat.pmap_adapted.get(i, {}).items():
                assert dat.generators[k].weight <= -2
                assert k in dat.m_indices


def test_eta_uniformity_reduced_w(dat_sl3):
    dims = []
    for label, eta in dat_sl3.eta_samples():
        rw = modp.reduced_w(modp.build_reduced_q(dat_sl3, eta, label))
        assert rw.pbw_ok
        dims.append(rw.dim)
    assert dims[0] == dims[1] == 36


def test_invariant_leading_shapes_mod_p(dat_osp5):
    # every element of the invariant space has leading terms of the allowed
    # shape; check the whole kernel basis plus random combinations
    q = modp.build_reduced_q(dat_osp5)
    ctx = WContext(dat_osp5, engine=q.engine)
    basis = dense_rows(q.invariant_subspace("m"), q.dim)
    rng = random.Random(8)
    rows = [basis[i] for i in range(basis.shape[0])]
    for _ in range(5):
        combo = np.zeros(q.dim, dtype=np.int64)
        for r in rows:
            combo = (combo + rng.randrange(5) * r) % 5
        rows.append(combo)
    for r in rows:
        elt = _pair_of(q, r)
        if not elt[0]:
            continue
        ctx.check_leading_shape(elt)


def _pair_of(q, vec):
    # the pair of the element of Q with coordinates vec
    return {q.basis[i]: int(c) % q.p
            for i, c in enumerate(vec) if int(c) % q.p}, 1


def _product(rw, a_expo, b_expo):
    # the product of two PBW monomials, re-expressed in the PBW basis
    ctx = rw.context
    left = ctx.eval_monomial(tuple(a_expo))
    right = ctx.eval_monomial(tuple(b_expo))
    return ctx.express_in_pbw(ctx.engine.q_mul(left, right))


def test_reduced_w_product_table(dat_osp5):
    # multiplication on the PBW basis closes and respects the unit
    rw = modp.reduced_w(modp.build_reduced_q(dat_osp5))
    unit = (0, 0, 0)
    t3 = (0, 0, 1)
    assert _product(rw, unit, t3).terms == {t3: 1}
    # theta3 * theta3 is half its anticommutator: the middle norm over 2
    gf = dat_osp5.field
    sq = _product(rw, t3, t3)
    assert sq.terms == {unit: gf.div(gf.of(2), gf.of(2))}
    t1 = (1, 0, 0)
    prod = _product(rw, t1, t3)
    assert all(sum(m) >= 1 for m in prod.terms)


def test_reduced_w_express_takes_unreduced_residues(dat_osp5):
    # residues outside [0, p), or a denominator other than 1, are brought
    # to residues over denominator 1 before the descent and its check
    ctx = modp.reduced_w(modp.build_reduced_q(dat_osp5)).context
    t3 = (0, 0, 1)
    nums, den = ctx.eval_monomial(t3)
    assert den == 1
    want = ctx.express_in_pbw((nums, 1))
    assert want.terms == {t3: 1}
    assert ctx.express_in_pbw(({m: c + 5 for m, c in nums.items()}, 1)) == want
    assert ctx.express_in_pbw(({m: 2 * c for m, c in nums.items()}, 2)) == want


def _tau_sign(E, m1, m2):
    src = []
    for tag, m in ((0, m1), (1, m2)):
        for i in range(E.n_gens):
            if E.parities[i] and m[i]:
                src.append((i, tag))
    order = sorted(range(len(src)), key=lambda k: (src[k][0], src[k][1]))
    inv = sum(1 for a in range(len(order)) for b in range(a + 1, len(order))
              if order[a] > order[b])
    return -1 if inv % 2 else 1


def test_leading_coefficient_law_mod_p(dat_osp5):
    # over F_p the combined exponent must also respect the p-cap on even
    # entries; off the admissible set the whole top layer drops by two
    q = modp.build_reduced_q(dat_osp5)
    E = q.engine
    p = q.p
    rng = random.Random(64)
    for _ in range(80):
        def rand_mono():
            return tuple(
                (rng.randint(0, 1) if E.parities[i] else rng.randint(0, p - 1))
                if i < E.cobasis_count else 0 for i in range(E.n_gens))
        m1, m2 = rand_mono(), rand_mono()
        combined = tuple(a + b for a, b in zip(m1, m2))
        prod, _ = E.q_mul(({E.encode(m1): 1}, 1), ({E.encode(m2): 1}, 1))
        admissible = all(
            combined[i] <= (1 if E.parities[i] else p - 1)
            for i in range(E.n_gens))
        top = E.e_degree(E.encode(m1)) + E.e_degree(E.encode(m2))
        if admissible:
            assert (prod.get(E.encode(combined), 0)
                    == _tau_sign(E, m1, m2) % p)
        else:
            assert all(E.e_degree(m) <= top - 2 for m in prod)
