"""Acceptance suite: one test per criterion, exact arithmetic throughout,
with the stated time budgets asserted.  Run with -s to see the summary lines.
"""

import random
import time
from fractions import Fraction

import numpy as np

from checks import check_graded_p_map, check_restrictedness
from oracle import (dense_ad, dense_bracket, dense_invert, dense_nullspace,
                    left_matrix, mat_vec)
from wsuper import linalg, modp
from wsuper.scalars import QQ
from wsuper.nilpotent import analyze_nilpotent, sl2_triple
from wsuper.presets import resolve_nilpotent
from wsuper.wchar0 import WContext


def series_product(factors, max_degree):
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


def _report(n, label):
    print("ACCEPTANCE %d %s: PASS" % (n, label))


def test_acceptance_1_pbw_engine_oracle(nd_gl11_zero):
    """Multiplication through normal ordering agrees with left-regular matrix
    multiplication on all basis pairs of the 36-dimensional reduced algebra."""
    start = time.time()
    p = 3
    dat = modp.reduce_datum(nd_gl11_zero, p)
    q = modp.build_reduced_q(dat)
    assert q.dim == 36
    E = q.engine
    gen_mats = [left_matrix(q, g) for g in range(E.n_gens)]
    # matrix route: compose generator matrices only
    mats = {E.unit_mono: np.eye(q.dim, dtype=np.int64)}
    for mono in q.basis:
        if mono == E.unit_mono:
            continue
        g = next(i for i, e in enumerate(mono) if e)
        prev = list(mono)
        prev[g] -= 1
        mats[mono] = (gen_mats[g] @ mats[tuple(prev)]) % p
    for mu in q.basis:
        lhs_cols = np.zeros((q.dim, q.dim), dtype=np.int64)
        for cidx, nu in enumerate(q.basis):
            prod = E.q_reduce(E.element({mu: 1}) * E.element({nu: 1}))
            for i, c in q.vector_of(prod.terms).items():
                lhs_cols[i, cidx] = c
        rhs = mats[mu] % p  # columns are exactly the images of the basis
        assert np.array_equal(lhs_cols, rhs)
    elapsed = time.time() - start
    assert elapsed < 5.0, "took %.2fs" % elapsed
    _report(1, "pbw engine oracle (36x36 pairs, %.2fs)" % elapsed)


def test_acceptance_2_even_case_sl21(nd_sl21_e12):
    """sl(2|1) at E12: rational generators with the required leading shape,
    closed commutator table with centralizer linear parts, and graded
    dimensions matching the symmetric-algebra series through degree 10."""
    start = time.time()
    ctx = WContext(nd_sl21_e12)
    gens = ctx.generators()
    assert len(gens) == 4
    for w in gens:
        for c in w.value.terms.values():
            assert isinstance(c, Fraction)
        ctx.check_leading_shape(w.value)
    pres = ctx.commutator_table()
    assert len(pres.relations) == 10  # all pairs i <= j
    for (i, j), poly in pres.relations.items():
        lhs = ctx.super_bracket(gens[i - 1].value, gens[j - 1].value)
        assert ctx.evaluate(poly) == lhs
    # linear parts against independently recomputed centralizer brackets
    alg = nd_sl21_e12.alg
    change = [[nd_sl21_e12.generators[j].vector[i]
               for j in range(len(nd_sl21_e12.generators))]
              for i in range(alg.dim)]
    inv = dense_invert(QQ, change)
    degrees = ctx.generator_degrees()
    for (i, j), poly in pres.relations.items():
        gi = ctx.leading_gen_index(i)
        gj = ctx.leading_gen_index(j)
        coords = mat_vec(QQ, inv, dense_bracket(
            alg, list(nd_sl21_e12.generators[gi].vector),
            list(nd_sl21_e12.generators[gj].vector)))
        linear = poly.linear_terms()
        bound = degrees[i - 1] + degrees[j - 1] - 2
        for t in range(4):
            if degrees[t] == bound:
                gt = ctx.leading_gen_index(t + 1)
                assert linear.get(t, Fraction(0)) == coords[gt]
    # centralizer weights are {0, 2, 1, 1}, so the degrees are {2, 4, 3, 3}
    oracle = series_product([("even", 2), ("even", 4), ("odd", 3), ("odd", 3)], 10)
    assert oracle == [1, 0, 1, 2, 2, 2, 3, 4, 4, 4, 5]
    rep = ctx.graded_check(10)
    assert rep.ok and rep.pbw_counts == oracle and rep.symmetric_dims == oracle
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(2, "even case sl(2|1) (%.2fs)" % elapsed)


def test_acceptance_3_odd_case_osp12(nd_osp12_reg):
    """osp(1|2) regular: the extra odd generator is the middle vector, its
    square is the middle norm, and the graded dimensions match the symmetric
    algebra tensored with one exterior line through degree 10."""
    start = time.time()
    nd = nd_osp12_reg
    ctx = WContext(nd)
    gens = ctx.generators()
    theta3 = gens[2]
    assert theta3.value.terms == {
        ctx.engine._gen_mono(nd.v_mid_index): Fraction(1)}
    assert ctx.is_invariant(theta3.value)
    pres = ctx.commutator_table()
    sq = pres.relation(3, 3)
    assert sq.terms == {(0, 0, 0): Fraction(nd.middle_norm)}
    if nd.middle_normalized:
        assert nd.middle_norm == 1
    else:
        # over Q the middle norm of this orbit is 2, not a rational square
        assert nd.middle_norm == 2
    oracle = series_product([("even", 4), ("odd", 3), ("odd", 1)], 10)
    assert oracle == [1, 1, 0, 1, 2, 1, 0, 1, 2, 1, 0]
    rep = ctx.graded_check(10)
    assert rep.ok and rep.pbw_counts == oracle
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(3, "odd case osp(1|2) (%.2fs)" % elapsed)


def test_acceptance_4_modp_dimensions_osp(nd_osp12_reg):
    """dim of the m-invariants of the reduced module is 4p, equal to the
    number of PBW monomials, for p in {5, 7}."""
    times = []
    for p in (5, 7):
        start = time.time()
        dat = modp.reduce_datum(nd_osp12_reg, p)
        q = modp.build_reduced_q(dat)
        assert q.invariant_dimension("m") == 4 * p
        rw = modp.reduced_w(q)
        assert rw.dim == 4 * p and rw.pbw_ok
        elapsed = time.time() - start
        assert elapsed < 10.0, "p=%d took %.2fs" % (p, elapsed)
        times.append(elapsed)
    _report(4, "mod-p dimensions osp(1|2) p=5,7 (%.2fs, %.2fs)" % tuple(times))


def test_acceptance_5_morita_identity(nd_osp12_reg, nd_sl21_e12):
    """dim U_eta(g) = delta^2 dim U_eta(g,e) for both test algebras, three
    primes, and two p-characters each."""
    start = time.time()
    for nd in (nd_osp12_reg, nd_sl21_e12):
        for p in (3, 5, 7):
            dat = modp.reduce_datum(nd, p)
            etas = dat.eta_samples()
            assert len(etas) == 2
            dims = []
            for label, eta in etas:
                rep = modp.morita_dim_check(
                    modp.build_reduced_q(dat, eta, label))
                assert rep.ok, (nd.alg.family, p, label)
                dims.append(rep.dim_w)
            assert dims[0] == dims[1]
    elapsed = time.time() - start
    _report(5, "morita dimension identity (%.1fs)" % elapsed)


def test_acceptance_6_mprime_invariants_osp(nd_osp12_reg):
    """The m'-invariants equal the middle-vector bracket image of the
    m-invariants and sit properly inside them, p in {3, 5}."""
    for p in (3, 5):
        dat = modp.reduce_datum(nd_osp12_reg, p)
        rep = modp.mprime_invariants_check(modp.build_reduced_q(dat))
        assert rep.equal and rep.proper and rep.witness_ok
        assert rep.dim_m_invariants == 4 * p
        assert rep.dim_mprime_invariants == 2 * p
    _report(6, "refined invariant comparison osp(1|2) p=3,5")


def _structural_checks(alg, nd):
    f = alg.field
    d = alg.dim
    e, fv = list(nd.triple.e), list(nd.triple.f)
    m_vecs = [list(nd.generators[i].vector) for i in nd.m_indices]
    mp_vecs = [list(nd.generators[i].vector) for i in nd.mprime_indices]
    # annihilator of m under the normalized form
    rows = []
    for v in m_vecs:
        rows.append([sum(v[i] * nd.form_scale * alg.gram[i][j]
                         for i in range(d))
                     for j in range(d)])
    ann = (dense_nullspace(f, rows, cols=d) if rows else
           [[f.one if i == j else f.zero for i in range(d)] for j in range(d)])
    bracket_img = [dense_bracket(alg, v, e) for v in mp_vecs]
    gf_basis = dense_nullspace(f, dense_ad(alg, fv), cols=d)
    da = linalg.rank(f, ann)
    db = linalg.rank(f, bracket_img) if bracket_img else 0
    dg = linalg.rank(f, gf_basis)
    assert db + dg == da, "annihilator dimensions do not add up"
    assert linalg.rank(f, bracket_img + gf_basis) == da
    for v in bracket_img:
        assert linalg.in_span(f, ann, v)
    for v in gf_basis:
        assert linalg.in_span(f, ann, v)
    # the nonnegative part splits off the centralizer
    ge_basis = dense_nullspace(f, dense_ad(alg, e), cols=d)
    p_vecs = [list(nd.generators[i].vector) for i in nd.p_indices]
    # [f, g(j)] for j >= 2, generated from the adapted vectors of weight >= 2
    img_f = []
    for g in nd.generators:
        if g.weight >= 2:
            src = dense_bracket(alg, fv, list(g.vector))
            if any(not f.is_zero(c) for c in src):
                img_f.append(src)
    d_ge = linalg.rank(f, ge_basis)
    d_img = linalg.rank(f, img_f) if img_f else 0
    assert d_ge + d_img == linalg.rank(f, p_vecs)
    assert linalg.rank(f, ge_basis + img_f) == d_ge + d_img
    # dimension identity per parity
    for par in (0, 1):
        dim_g = sum(1 for p_ in alg.parities if p_ == par)
        dim_ge = nd.l if par == 0 else nd.q
        rhs = sum((2 if wt <= -2 else 1) * n
                  for (wt, par2), n in nd.layer_dims.items()
                  if par2 == par and wt <= -1)
        assert dim_g - dim_ge == rhs


def test_acceptance_7_structural_decompositions(gl11, sl21, osp12, gl22):
    """Direct-sum decompositions of the annihilator of m and of the
    nonnegative part, plus the parity-split dimension identity, across the
    whole test matrix."""
    cases = [
        (gl11, ["zero"]),
        (sl21, ["E12", "zero"]),
        (osp12, ["regular", "zero"]),
        (gl22, ["E12", "E34"]),
    ]
    count = 0
    for alg, names in cases:
        for name in names:
            e = resolve_nilpotent(alg, name)
            nd = analyze_nilpotent(alg, sl2_triple(alg, e))
            _structural_checks(alg, nd)
            count += 1
    _report(7, "structural decompositions on %d (algebra, nilpotent) pairs" % count)


def test_acceptance_8_restrictedness(gl11, sl21, osp12, gl22):
    """100 randomized trials of the three restrictedness axioms per algebra
    per prime, plus the graded p-th power containment on the adapted bases."""
    rng = random.Random(20260808)
    for alg in (gl11, sl21, osp12, gl22):
        for p in (3, 5, 7):
            mod = modp.reduce_mod_p(alg, p)
            ok, why = check_restrictedness(mod, 100, rng)
            assert ok, (alg.family, p, why)
    # graded containment on every even adapted generator
    for alg, name in ((sl21, "E12"), (osp12, "regular")):
        nd = analyze_nilpotent(alg, sl2_triple(alg, resolve_nilpotent(alg, name)))
        for p in (3, 5, 7):
            dat = modp.reduce_datum(nd, p)
            ok, why = check_graded_p_map(dat)
            assert ok, why
    _report(8, "restrictedness axioms, 100 trials x 4 algebras x 3 primes")


def test_acceptance_9_zero_nilpotent_degeneration(nd_gl11_zero):
    """e = 0 gives bare generators and enveloping-algebra PBW counts."""
    ctx = WContext(nd_gl11_zero)
    for w in ctx.generators():
        assert w.value.terms == {ctx.engine._gen_mono(w.leading_gen): Fraction(1)}
    oracle = series_product([("even", 2)] * 2 + [("odd", 2)] * 2, 4)
    assert oracle == [1, 0, 4, 0, 8]
    rep = ctx.graded_check(4)
    assert rep.ok and rep.pbw_counts == oracle
    # mod p the invariants are everything: U(g, 0) = U(g)
    dat = modp.reduce_datum(nd_gl11_zero, 3)
    q = modp.build_reduced_q(dat)
    assert q.invariant_dimension("m") == q.dim == 36
    _report(9, "zero-nilpotent degeneration")
