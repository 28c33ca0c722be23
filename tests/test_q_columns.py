"""The action columns of Q, built from their prefixes, against the
per-monomial Field-method route; the integer arithmetic of the PBW engine
against Field methods; and the dim Q preflight."""

import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracle import field_acc, field_add, field_q_reduce, per_monomial_columns
from wsuper import cli, modp
from wsuper.pbw import engine_from_datum
from wsuper.wchar0 import SolverError

SRC = str(Path(__file__).resolve().parents[1] / "src")

# (datum fixture, p): gl(2|1) regular has odd co-basis generators, so its
# products pass through the odd-square contraction and the odd signs
CONFIGS = [("nd_sl21_e12", 3), ("nd_sl21_e12", 5), ("nd_osp12_reg", 3),
           ("nd_osp12_reg", 5), ("nd_osp12_reg", 7), ("nd_gl21_reg", 3)]


def _acted_on(dat):
    # every generator of m, and the middle odd vector when r is odd
    return list(dat.m_indices) + ([dat.v_mid_index] if dat.r_odd else [])


@pytest.mark.parametrize("nd, p", CONFIGS)
def test_prefix_columns_equal_the_per_monomial_oracle(request, nd, p):
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        for g in _acted_on(dat):
            ad, left, mismatch = per_monomial_columns(q, g)
            assert q.ad_columns(g) == ad
            assert q.left_columns(g) == left
            assert mismatch is None and g not in q._right_mismatch
        assert q.right_action_mismatch() is None


@pytest.mark.parametrize("nd, p", CONFIGS)
def test_right_mismatch_under_a_wrong_eta_equals_the_oracle(request, nd, p):
    # the fault of test_right_action_mismatch_is_a_whittaker_failure: Q
    # claims a p-character on m that its engine does not act by
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    q = modp.build_reduced_q(dat)
    z = dat.m_indices[0]
    wrong = list(q.eta)
    wrong[z] = dat.field.add(wrong[z], 1)
    q.eta = tuple(wrong)
    oracle = {}
    for g in dat.m_indices:
        ad, _, mismatch = per_monomial_columns(q, g)
        assert q.ad_columns(g) == ad
        if mismatch is not None:
            oracle[g] = mismatch
    assert q._right_mismatch == oracle
    assert q.right_action_mismatch() == (z, oracle[z])


def test_a_missing_prefix_is_a_solver_error(nd_osp12_reg):
    q = modp.build_reduced_q(modp.reduce_datum(nd_osp12_reg, 3))
    q.basis = q.basis[::-1]
    with pytest.raises(SolverError, match=re.escape(str(q.basis[0]))):
        q.left_columns(q.datum.m_indices[0])


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
    assert e._add(a, b) == field_add(e.field, a, b)
    # _acc on the integer pair of a, with coeff as num/den, lands on the
    # lowest-terms pair of the Field-method sum; mod p it adds b's raw ints
    want = dict(a)
    field_acc(e.field, want, b, coeff)
    got, den = e._scaled(a)
    bnums, bden = (b, 1) if p else e._scaled(b)
    coeff = Fraction(coeff)
    den = e._acc(got, den, bnums, coeff.numerator, coeff.denominator * bden)
    assert e._lowest(got, den) == e._scaled(want)
    assert e.q_reduce(b).terms == field_q_reduce(e, b)
    merged = field_add(e.field, a, b)
    assert e.q_reduce(merged).terms == field_q_reduce(e, merged)


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
    # takes 28 MB, and the dim W x dim Q matrix of reduced_w with its
    # float64 copy (507 GB) is what is refused
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
