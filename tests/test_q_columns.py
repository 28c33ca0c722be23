"""The action columns of Q, built by the left action of U_eta on Q's basis
indices, against the per-monomial Field-method route and in any order of
requests; the PBW vectors of the reduced W-superalgebra and the action of
elements of U_eta, by the same left action, against products in U; the
integer arithmetic of the PBW engine against Field methods; and the dim Q
preflight."""

import os
import random
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import (dense_rank_mod_p, dense_rows, elt_q_reduce, field_acc,
                    field_add, field_q_mul, field_q_reduce,
                    pbw_vectors_by_products, per_monomial_columns,
                    unrestricted_chain)
from wsuper import cli, linalg, modp, pbw
from wsuper.pbw import engine_from_datum, exponent_tuples
from wsuper.scalars import lowest
from wsuper.wchar0 import SolverError, WContext

SRC = str(Path(__file__).resolve().parents[1] / "src")

# (datum fixture, p): gl(2|1) regular has odd co-basis generators, so its
# columns pass through the odd-square contraction and the odd signs; osp(2|2)
# has an odd and an even generator in m
CONFIGS = [("nd_sl21_e12", 3), ("nd_sl21_e12", 5), ("nd_osp12_reg", 3),
           ("nd_osp12_reg", 5), ("nd_osp12_reg", 7), ("nd_gl21_reg", 3),
           ("nd_osp22", 3), ("nd_sl21_e12", 7)]


def _acted_on(dat):
    # every generator of m, and the middle odd vector when r is odd
    return list(dat.m_indices) + ([dat.v_mid_index] if dat.r_odd else [])


@pytest.mark.parametrize("nd, p", CONFIGS)
def test_prefix_columns_equal_the_per_monomial_oracle(request, nd, p):
    # the oracle also forms each right product m b_z, z in m, in U and
    # finds it eta(z) m on every column: the fact that lets the ad columns
    # of m be L_z - eta(z) with no right product built
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        for g in _acted_on(dat):
            ad, left, mismatch = per_monomial_columns(q, g)
            assert q.ad_columns(g) == ad
            assert q.left_columns(g) == left
            assert mismatch is None


def _claim_wrong_eta(q):
    # Q claims a p-character on m that its engine does not act by
    z = q.datum.m_indices[0]
    wrong = list(q.eta)
    wrong[z] = q.field.add(wrong[z], 1)
    with pytest.raises(AttributeError):
        q.eta = tuple(wrong)


@pytest.mark.parametrize("nd, p", CONFIGS)
def test_right_mismatch_under_a_wrong_eta_equals_the_oracle(request, nd, p):
    # Q's eta is its engine's and cannot be set, so Q holds no eta that its
    # engine does not act by: the claim fails and changes nothing, and the
    # oracle, which forms each right product m b_z in U at Q's eta, finds
    # it eta(z) m on every column of every z in m
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    q = modp.build_reduced_q(dat)
    assert q.eta is q.engine.eta == dat.eta_chi()
    _claim_wrong_eta(q)
    assert q.eta is q.engine.eta == dat.eta_chi()
    for g in dat.m_indices:
        ad, _, mismatch = per_monomial_columns(q, g)
        assert mismatch is None
        assert q.ad_columns(g) == ad


@pytest.mark.parametrize("nd, p", [("nd_sl21_e12", 3), ("nd_osp12_reg", 5),
                                   ("nd_gl21_reg", 3), ("nd_osp22", 3)])
def test_whittaker_vectors_under_a_wrong_eta_are_a_solver_error(request, nd,
                                                                 p):
    # a wrong eta can no longer reach the Whittaker vectors: the claim
    # fails, and they are the m-kernel at the engine's eta, on which each
    # L_z acts by eta(z) (checked densely against the oracle's columns)
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    q = modp.build_reduced_q(dat)
    _claim_wrong_eta(q)
    wh = q.whittaker_subspace()
    assert wh is q.invariant_subspace("m")
    vecs = dense_rows(wh, q.dim)
    for z in dat.m_indices:
        left = dense_rows(per_monomial_columns(q, z)[1], q.dim).T
        assert np.array_equal(vecs @ left.T % p, vecs * int(q.eta[z]) % p)


@pytest.mark.parametrize("nd, p", CONFIGS)
def test_the_chain_on_free_columns_equals_the_unrestricted_chain(request, nd,
                                                                 p):
    # each link after the first reads the previous kernel's free columns;
    # the oracle takes every image over all of Q.  For odd r, m' adds v_mid
    # as one more link, through the middle image
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        order = q._m_order()
        links = order + ([dat.v_mid_index] if dat.r_odd else [])
        want = unrestricted_chain(modp.build_reduced_q(dat, eta, label),
                                  order)
        assert list(q.invariant_subspace("m")) == want
        rank_only = modp.build_reduced_q(dat, eta, label)
        assert rank_only._m_kernel(order, rank_only=True) == len(want)
        want = unrestricted_chain(modp.build_reduced_q(dat, eta, label),
                                  links)
        assert list(q.invariant_subspace("mprime")) == want
        assert modp.build_reduced_q(dat, eta, label)._m_kernel(links) == want


def _patch_bracket(dat, a, b, terms):
    # [b_a, b_b] = terms in the datum's table, and [b_b, b_a] with it
    sign = -1 if dat.generators[a].parity and dat.generators[b].parity else 1
    dat.brackets[(a, b)] = dict(terms)
    dat.brackets[(b, a)] = {k: -sign * c % dat.p for k, c in terms.items()}


@pytest.mark.parametrize("nd, p", [("nd_sl21_e12", 5), ("nd_gl21_reg", 3),
                                   ("nd_osp22", 3)])
def test_an_order_that_breaks_the_chain_hypothesis_is_a_solver_error(
        request, nd, p):
    # m is abelian in every datum here, so a bracket of m is patched; the
    # left action of m on Q reads no bracket within m, so the patch changes
    # no column.  With [z1, z2] = z2, the order z1, z2 breaks the
    # hypothesis and the reversed order keeps it; with [z1, z2] = z1 for an
    # even z1 with eta(z1) != 0, the bracket lies in the span of z1 but
    # eta does not vanish on it
    nd = request.getfixturevalue(nd)
    plain = modp.build_reduced_q(modp.reduce_datum(nd, p))
    z1, z2 = plain._m_order()
    labels = plain.engine.labels
    for terms in ({z2: 1}, {z1: 1}):
        dat = modp.reduce_datum(nd, p)
        if z1 not in terms or dat.eta_chi()[z1]:
            _patch_bracket(dat, z1, z2, terms)
            message = re.escape("m-kernel chain: [%s, %s] is not in the span"
                                " of %s with eta zero on it"
                                % (labels[z1], labels[z2], labels[z1]))
            for run in (lambda q: q.invariant_subspace("m"),
                        lambda q: q.invariant_dimension("m")):
                q = modp.build_reduced_q(dat)
                with pytest.raises(SolverError, match=message):
                    run(q)
                # refused before any column is built
                assert not q._ad_cols and q._acts is None
    dat = modp.reduce_datum(nd, p)
    _patch_bracket(dat, z1, z2, {z2: 1})
    q = modp.build_reduced_q(dat)
    assert q._m_kernel([z2, z1]) == list(plain.invariant_subspace("m"))


def test_a_middle_vector_that_leaves_q_m_is_a_solver_error(nd_osp12_reg):
    # osp(1|2) regular: m = <w1>; with [v_mid, w1] = v_mid, ad v_mid need
    # not map Q^m into itself, so the middle image is refused
    dat = modp.reduce_datum(nd_osp12_reg, 3)
    v, (w,) = dat.v_mid_index, dat.m_indices
    _patch_bracket(dat, v, w, {v: 1})
    q = modp.build_reduced_q(dat)
    labels = q.engine.labels
    with pytest.raises(SolverError, match=re.escape(
            "[%s, %s] is not in m with eta zero on it" % (labels[v],
                                                          labels[w]))):
        modp.mprime_invariants_check(q)


@pytest.fixture(scope="module")
def small_qs(nd_osp12_reg, nd_sl21_e12, nd_gl21_reg, nd_osp22):
    # (Q, the in-order columns of every generator) at the shifted eta, so
    # that eta reaches the co-basis
    out = []
    for nd, p in ((nd_osp12_reg, 5), (nd_sl21_e12, 3), (nd_gl21_reg, 3),
                  (nd_osp22, 3)):
        dat = modp.reduce_datum(nd, p)
        q = modp.build_reduced_q(dat, dat.eta_samples()[-1][1])
        out.append((q, [q._left_action(g) for g in range(q.engine.n_gens)]))
        q.release_actor()
    return out


@contextmanager
def _default_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def test_columns_requested_in_reverse_equal_the_in_order_ones(small_qs):
    with _default_recursion_limit():
        for q, cols in small_qs:
            for g in _acted_on(q.datum):
                act, _, _ = q._left_actor()
                got = [act(g, j) for j in reversed(range(q.dim))]
                assert got[::-1] == cols[g]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_columns_in_any_order_equal_the_in_order_ones(small_qs, data):
    q, cols = data.draw(st.sampled_from(small_qs))
    pairs = st.tuples(st.integers(0, q.engine.n_gens - 1),
                      st.integers(0, q.dim - 1))
    act, _, _ = q._left_actor()
    with _default_recursion_limit():
        for g, j in data.draw(st.lists(pairs, min_size=1, max_size=60)):
            assert act(g, j) == cols[g][j]


@pytest.mark.parametrize("nd, p", CONFIGS)
def test_pbw_vectors_equal_the_product_oracle(request, nd, p):
    # theta^a 1 by the left action of U_eta on Q against theta^a formed in
    # U, at every eta of the row
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        ctx = WContext(dat, engine=q.engine)
        thetas = ctx.generators()
        expos = list(exponent_tuples(ctx.generator_degrees(),
                                     [th.parity for th in thetas], p - 1,
                                     None, ()))
        assert q.pbw_vectors(thetas, expos) == pbw_vectors_by_products(
            q, ctx, expos)


@pytest.mark.parametrize("nd, p", CONFIGS)
def test_apply_is_the_sum_of_the_left_columns(request, nd, p):
    # the actor's apply(g, v), which writes the monomials b_g only raises and
    # sums L_g[j] for the rest, against sum_j v_j L_g[j] over the in-order
    # columns, for every generator g at every eta of the row; negated, as
    # act's g > s case calls it on the odd-odd swap
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    rng = random.Random(p)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        _, apply, _ = q._left_actor()
        for g in range(q.engine.n_gens):
            cols = q._left_action(g)
            for size in (1, 2, 5, 9):
                v = {rng.randrange(q.dim): rng.randrange(1, p)
                     for _ in range(size)}
                want = {}
                for j, c in v.items():
                    for i, t in cols[j].items():
                        want[i] = (want.get(i, 0) + c * t) % p
                want = {i: c for i, c in want.items() if c}
                seen = dict(v)
                assert apply(g, v) == want
                assert apply(g, v, True) == {i: p - c for i, c in want.items()}
                assert v == seen


# the tier-1 mod-p fixtures: odd r (osp(1|2)), even r with |m| = 1 and 2,
# odd co-basis generators (gl(2|1)), an odd and an even z in m (osp(2|2))
SHARED = [("nd_osp12_reg", 3), ("nd_osp12_reg", 5), ("nd_sl21_e12", 3),
          ("nd_gl21_reg", 3), ("nd_osp22", 3)]


def _thetas(q):
    ctx = WContext(q.datum, engine=q.engine)
    thetas = ctx.generators()
    return thetas, list(exponent_tuples(ctx.generator_degrees(),
                                        [th.parity for th in thetas],
                                        q.p - 1, None, ()))


@pytest.mark.parametrize("nd, p", SHARED)
def test_the_shared_memo_gives_what_a_fresh_actor_gives(request, nd, p):
    # one actor per Q serves the ad columns and the PBW vectors; whatever
    # the memo holds when a request comes, every result equals the one a
    # fresh actor gives for that request alone, and a column set taken by
    # its link and built again is the same
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    acted = _acted_on(dat)
    for label, eta in dat.eta_samples():
        fresh = modp.build_reduced_q(dat, eta, label)
        thetas, expos = _thetas(fresh)
        want_ad, want_left = {}, {}
        for g in acted:
            fresh.release_actor()
            want_left[g] = fresh._left_action(g)
            fresh.release_actor()
            want_ad[g] = fresh._take_ad_columns(g)
        fresh.release_actor()
        want_pbw = fresh.pbw_vectors(thetas, expos)

        # basis order: the columns first, then the PBW vectors
        q = modp.build_reduced_q(dat, eta, label)
        for g in acted:
            assert q._left_action(g) == want_left[g]
            assert q.ad_columns(g) == want_ad[g]
        assert q.pbw_vectors(thetas, expos) == want_pbw
        for g in acted:
            assert q._take_ad_columns(g) == want_ad[g]
            assert g not in q._ad_cols
            assert q.ad_columns(g) == want_ad[g]

        # reverse order: each L_g[j] asked for from the last basis index down
        q = modp.build_reduced_q(dat, eta, label)
        act = q._actor()[0]
        with _default_recursion_limit():
            for g in acted:
                got = [act(g, j) for j in reversed(range(q.dim))]
                assert got[::-1] == want_left[g]
                assert q.ad_columns(g) == want_ad[g]
        assert q.pbw_vectors(thetas, expos) == want_pbw

        # PBW first, the columns from what the PBW vectors left in the memo
        q = modp.build_reduced_q(dat, eta, label)
        assert q.pbw_vectors(thetas, expos) == want_pbw
        for g in acted:
            assert q.ad_columns(g) == want_ad[g]
            assert q._left_action(g) == want_left[g]
        assert q._actor() is q._actor()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_pbw_rank_in_m_kernel_coordinates_is_the_full_rank(
        monkeypatch, nd_osp12_reg, p):
    # odd r: Q holds the canonical m basis K once the row has counted it,
    # and the PBW vectors are ranked once, on K's free columns alone; that
    # rank is their full rank
    dat = modp.reduce_datum(nd_osp12_reg, p)
    seen = []
    original = linalg.rank_mod_p

    def counted(rows, prime):
        seen.append(set().union(*rows))
        return original(rows, prime)

    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        basis = q.invariant_subspace("m")
        vectors = q.pbw_vectors(*_thetas(q))
        full = linalg.rank_mod_p(vectors, p)
        assert full == len(vectors) == len(basis)
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "rank_mod_p", counted)
            assert q.rank_of(vectors) == full
        free = {max(row) for row in basis}
        assert len(seen) == 1 and seen[0] <= free
        assert len(free) == len(basis) < q.dim


@pytest.mark.parametrize("p", [3, 5])
def test_a_vector_outside_the_m_span_takes_the_full_rank(monkeypatch,
                                                         nd_osp12_reg, p):
    # a vector pushed off the m basis's span by a basis vector at a column
    # that is not free keeps its free-column entries, so the restricted
    # rank falls short and the full vectors are ranked: the true rank is
    # reported, against the dense oracle, whether it is the count or not
    dat = modp.reduce_datum(nd_osp12_reg, p)
    q = modp.build_reduced_q(dat)
    basis = q.invariant_subspace("m")
    vectors = q.pbw_vectors(*_thetas(q))
    free = {max(row) for row in basis}
    off = next(j for j in range(q.dim) if j not in free)
    pushed = dict(vectors[0])
    pushed[off] = (pushed.get(off, 0) + 1) % p
    pushed = {j: c for j, c in pushed.items() if c}
    calls = []
    original = linalg.rank_mod_p

    def counted(rows, prime):
        calls.append(len(rows))
        return original(rows, prime)

    monkeypatch.setattr(linalg, "rank_mod_p", counted)
    for vecs in ([pushed] + vectors, vectors + [vectors[-1]]):
        calls.clear()
        want = dense_rank_mod_p(dense_rows(vecs, q.dim), p)
        assert q.rank_of(vecs) == want
        assert len(calls) == 2
    assert q.rank_of([pushed] + vectors) == len(vectors) + 1
    assert q.rank_of(vectors + [vectors[-1]]) == len(vectors)


class _PublicEngine:
    """An engine with every private attribute refused."""

    def __init__(self, engine):
        self.__dict__["_PublicEngine__engine"] = engine

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError("private engine attribute %s" % name)
        return getattr(self.__engine, name)


@pytest.mark.parametrize("nd, p", [("nd_sl21_e12", 5), ("nd_osp12_reg", 3),
                                   ("nd_osp12_reg", 5), ("nd_gl21_reg", 3),
                                   ("nd_osp22", 3)])
def test_the_row_reads_only_public_engine_names(request, nd, p):
    # Q's m-chain, its PBW vectors and, for odd r, the m' comparison read
    # the engine's public names alone; the thetas are solved
    # on the real engine first, and every result equals the unwrapped Q's
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    for label, eta in dat.eta_samples():
        plain = modp.build_reduced_q(dat, eta, label)
        q = modp.build_reduced_q(dat, eta, label)
        ctx = WContext(dat, engine=q.engine)
        thetas = ctx.generators()
        expos = list(exponent_tuples(ctx.generator_degrees(),
                                     [th.parity for th in thetas], p - 1,
                                     None, ()))
        q.engine = _PublicEngine(q.engine)
        assert q.whittaker_subspace() == plain.whittaker_subspace()
        assert q.invariant_dimension("m") == plain.invariant_dimension("m")
        assert q.pbw_vectors(thetas, expos) == plain.pbw_vectors(thetas,
                                                                 expos)
        if dat.r_odd:
            assert (modp.mprime_invariants_check(q)
                    == modp.mprime_invariants_check(plain))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_an_element_acts_on_q_as_its_product_in_u(small_qs, data):
    # u v for a random element u of U_eta, in reduced PBW monomials over
    # every generator, and a random sparse vector v of Q, against the
    # product of u with the lift of v formed in U by the Field-method
    # oracle, reduced to Q, and against the engine's q_mul, the same left
    # action on monomials
    q, _ = data.draw(st.sampled_from(small_qs))
    e = q.engine
    monos = st.tuples(*[st.integers(0, 1 if odd else q.p - 1)
                        for odd in e.parities])
    coeffs = st.integers(1, q.p - 1)
    u = data.draw(st.dictionaries(monos, coeffs, min_size=1, max_size=5))
    v = data.draw(st.dictionaries(st.integers(0, q.dim - 1), coeffs,
                                  max_size=6))
    # each example from an empty memo: the memo is Q's shared one now, so
    # it is emptied through Q, not cleared under the actor's feet
    q.release_actor()
    lift = q._lift_actor()
    with _default_recursion_limit():
        got = lift(u, v)
    lifted = {q.basis[j]: c for j, c in v.items()}
    assert got == q.vector_of(field_q_mul(e, u, lifted))
    assert got == q.vector_of(e.q_mul(e.element(u),
                                      e.element(lifted)).terms)


@pytest.mark.parametrize("nd, p", [("nd_sl21_e12", 3), ("nd_osp12_reg", 5),
                                   ("nd_gl21_reg", 3)])
def test_vector_of_refuses_a_monomial_outside_q(request, nd, p):
    # vector_of reads a monomial by its mixed-radix code: every basis
    # monomial lands on its own index, while an even exponent p, whose digit
    # would alias into the next one, and a letter of m, which has no digit,
    # are a KeyError, as a lookup in a dict of the basis was
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    q = modp.build_reduced_q(dat)
    e = q.engine
    assert (q.vector_of({m: j + 1 for j, m in enumerate(q.basis)})
            == {j: j + 1 for j in range(q.dim)})
    bad = []
    for i in [g for g in range(e.cobasis_count) if not e.parities[g]] + [
            dat.m_indices[0]]:
        mono = [0] * e.n_gens
        mono[i] = 1 if i >= e.cobasis_count else p
        bad.append(tuple(mono))
    for mono in bad:
        with pytest.raises(KeyError):
            q.vector_of({q.basis[1]: 1, mono: 1})


def test_a_basis_out_of_order_is_a_solver_error(monkeypatch, nd_osp12_reg):
    # the columns read Q's basis as the reduced PBW monomials in (e-degree,
    # tuple) order; build_reduced_q refuses any other enumeration by its
    # first monomial out of place, or by its length
    dat = modp.reduce_datum(nd_osp12_reg, 3)
    basis = modp.build_reduced_q(dat).basis
    top = basis[-1]
    over = (3,) + basis[1][1:]
    for wrong, name in ((basis[::-1], basis[-2]),
                        (basis[:1] + [over] + basis[2:], over),
                        (basis[:5] + basis[6:] + [top], top),
                        (basis[:-1], "%d monomials" % (len(basis) - 1))):
        monkeypatch.setattr(pbw.Enveloping, "cobasis_monomials",
                            lambda self, budget, wrong=wrong: list(wrong))
        with pytest.raises(SolverError, match=re.escape(str(name))):
            modp.build_reduced_q(dat)


# ---------------------------------------------------------------------------
# integer arithmetic in the engine's per-term loops
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def engines(nd_osp12_reg, nd_sl21_e12):
    # a rational engine that reduces through chi, and reduced engines at
    # p = 5 and 7 that reduce through eta (chi shifted off m)
    out = [engine_from_datum(nd_osp12_reg, None, None),
           engine_from_datum(nd_sl21_e12, None, None)]
    for nd, p in ((nd_osp12_reg, 5), (nd_sl21_e12, 7)):
        dat = modp.reduce_datum(nd, p)
        out.append(modp.build_reduced_q(dat, dat.eta_samples()[-1][1]).engine)
    return out


@st.composite
def _coefficients(draw, p):
    if p:
        # residues, multiples of p, negatives and unreduced integers
        return draw(st.one_of(st.integers(-3 * p, 3 * p),
                              st.sampled_from([0, p, -p, 2 * p])))
    return Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_operator_arithmetic_equals_the_field_methods(engines, data):
    e = data.draw(st.sampled_from(engines))
    p = e.field.char
    monos = st.tuples(*[st.integers(0, 3)] * e.n_gens)
    coeffs = _coefficients(p)
    a = data.draw(st.dictionaries(monos, coeffs, max_size=6))
    b = data.draw(st.dictionaries(monos, coeffs, max_size=6))
    # terms of b that cancel those of a, up to a multiple of p
    for m in data.draw(st.lists(st.sampled_from(sorted(a)), max_size=3)
                       if a else st.just([])):
        b[m] = -a[m] + (p * data.draw(st.integers(-1, 1)) if p else 0)
    coeff = data.draw(coeffs)
    # _acc on the integer pair of a, with coeff as num/den, lands on the
    # lowest-terms pair of the Field-method sum; mod p it adds b's raw ints
    want = dict(a)
    field_acc(e.field, want, b, coeff)
    got, den = e._scaled(a)
    bnums, bden = (b, 1) if p else e._scaled(b)
    coeff = Fraction(coeff)
    den = e._acc(got, den, bnums, coeff.numerator, coeff.denominator * bden)
    assert lowest(got, den) == e._scaled(want)
    assert elt_q_reduce(e, b).terms == field_q_reduce(e, b)
    merged = field_add(e.field, a, b)
    assert elt_q_reduce(e, merged).terms == field_q_reduce(e, merged)


# ---------------------------------------------------------------------------
# the dim Q preflight
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nd, p", CONFIGS + [("nd_gl11_zero", 3)])
def test_footprint_reads_dim_q_off_the_datum(request, nd, p):
    nd = request.getfixturevalue(nd)
    dim, need = modp.q_footprint(nd, p)
    q = modp.build_reduced_q(modp.reduce_datum(nd, p))
    assert dim == q.dim
    # the sparse route: the traced peak of the ad columns of m and of the
    # m-kernel (its canonical basis when r is odd)
    tracemalloc.start()
    try:
        if nd.r_odd:
            q.invariant_subspace("m")
        q.invariant_dimension("m")
        sparse = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim_w = p ** nd.l * 2 ** nd.q_prime
    assert need >= sparse + 16 * dim_w * dim + dim * modp.MONOMIAL_BYTES


@pytest.mark.parametrize("nd, p", CONFIGS + [("nd_gl11_zero", 3)])
def test_q_basis_keeps_the_product_and_sort_order(request, nd, p):
    # the basis order fixes every column, the prefix order of the left
    # products and the engine memo
    nd = request.getfixturevalue(nd)
    q = modp.build_reduced_q(modp.reduce_datum(nd, p))
    e = q.engine
    tail = (0,) * (e.n_gens - e.cobasis_count)
    ranges = [range(2) if odd else range(p)
              for odd in e.parities[: e.cobasis_count]]
    want = sorted((c + tail for c in product(*ranges)),
                  key=lambda m: (e.e_degree(m), m))
    assert q.basis == want


def _limit_address_space():
    # should the preflight fail, the child gets a MemoryError instead of
    # taking the host's memory
    cap = 2 ** 31
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_preflight_refuses_an_oversized_q_before_any_artifact(tmp_path):
    # gl(1|1), zero nilpotent: m = 0 and dim Q = dim W = p^2 * 2^2.  At
    # p = 10007 the monomial basis alone would take 64 GB; at p = 211 it
    # takes 28 MB, and q_footprint's dim W x dim Q term (507 GB at 16
    # bytes per entry) is what is refused
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    env.pop(cli.ENV_OUT, None)
    for p in (10007, 211):
        out = tmp_path / str(p)
        out.mkdir()
        start = time.monotonic()
        run = subprocess.run(
            [sys.executable, "-m", "wsuper.cli", "modp", "suite", "--family",
             "gl", "--m", "1", "--n", "1", "--nilpotent", "zero", "--primes",
             str(p), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=30,
            preexec_fn=_limit_address_space)
        elapsed = time.monotonic() - start
        assert run.returncode == cli.EXIT_CONFIG, run.stderr
        assert elapsed < 2
        assert list(out.iterdir()) == []
        assert "dim Q = %d" % (p ** 2 * 4) in run.stderr
