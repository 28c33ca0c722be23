"""The structure of one `verify all` mod-p row: each object is computed once.

Right multiplication by z in m acts on Q by eta(z), so ad z = L_z - eta(z)
and the Whittaker vectors are the m-invariants.  The row builds Q once and
the sparse ad columns of each generator once.  It takes the m-kernel one
generator at a time, even generators first, so that no elimination sees
more than dim Q rows, and reads the Whittaker dimension from that kernel.
"""

import json
import tracemalloc
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from oracle import (ad_matrix, dense_nullspace_mod_p, dense_rank_mod_p,
                    dense_rows, left_matrix, sparse_stacked_kernel,
                    stacked_ad)
from wsuper import cli, linalg, modp
from wsuper.cli import EXIT_CHECK_FAILURES, EXIT_CONFIG, PipelineConfig


@pytest.fixture(scope="module")
def dat_osp3(nd_osp12_reg):
    return modp.reduce_datum(nd_osp12_reg, 3)


@pytest.fixture(scope="module")
def dat_sl3(nd_sl21_e12):
    return modp.reduce_datum(nd_sl21_e12, 3)


def _count(monkeypatch, owner, name, log):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _suite(out_dir, primes=(3,), shape=(1, 2), nilpotent="regular"):
    # `modp suite` on osp with both sampled etas, osp(1|2) regular by default
    return PipelineConfig(family="osp", m=shape[0], n=shape[1],
                          nilpotent=nilpotent,
                          char0=cli.CHAR0_NONE,
                          primes=primes, eta_sweep=True, out_dir=str(out_dir))


@pytest.mark.parametrize("shape, nilpotent", [
    ((1, 2), "regular"), ((2, 2), "0,1,0,0,0,0,0,0")], ids=["osp12", "osp22"])
def test_row_builds_q_and_each_ad_column_set_once(monkeypatch, tmp_path,
                                                  shape, nilpotent):
    # osp(1|2) regular: odd r, |m| = 1, and the m' link through v_mid;
    # osp(2|2): even r, |m| = 2, so the chain has two links
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    log = {name: [] for name in ("build", "init", "left", "whittaker",
                                 "rank", "rref")}
    _count(monkeypatch, modp, "build_reduced_q", log["build"])
    _count(monkeypatch, modp.ReducedQ, "__init__", log["init"])
    _count(monkeypatch, modp.ReducedQ, "left_columns", log["left"])
    _count(monkeypatch, modp.ReducedQ, "whittaker_subspace", log["whittaker"])
    _count(monkeypatch, linalg, "rank_mod_p", log["rank"])
    _count(monkeypatch, linalg, "rref_mod_p", log["rref"])
    built, eliminated = [], []
    ad_columns = modp.ReducedQ.ad_columns

    def counted_columns(q, g):
        if g not in q._ad_cols:
            built.append((id(q), g))
        return ad_columns(q, g)

    echelon = linalg._echelon

    def counted_echelon(field, rows):
        tally = [0]

        def counted_rows():
            for row in rows:
                tally[0] += 1
                yield row

        try:
            return echelon(field, counted_rows())
        finally:
            eliminated.append(tally[0])

    monkeypatch.setattr(modp.ReducedQ, "ad_columns", counted_columns)
    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    code, failures, _ = cli.run_pipeline(
        _suite(tmp_path, shape=shape, nilpotent=nilpotent))
    assert code == cli.EXIT_OK and not failures
    rows = 2
    qs = [args[0] for args in log["init"]]
    assert len(log["build"]) == len(qs) == rows
    assert not log["left"] and not log["whittaker"]
    # the ad columns of each z in m, and of v_mid for odd r, once per Q
    dat = qs[0].datum
    acted = sorted(dat.m_indices + ([dat.v_mid_index] if dat.r_odd else []))
    assert sorted(built) == sorted((id(q), g) for q in qs for g in acted)
    # every kernel, rank and echelon form of the row has at most dim Q rows
    assert eliminated and max(eliminated) <= qs[0].dim
    # per row, the F_p entry points rank the PBW vectors and, for odd r,
    # the middle image; each gets a list of sparse rows
    assert len(log["rank"]) == (2 if dat.r_odd else 1) * rows
    calls = [args[0] for args in log["rank"] + log["rref"]]
    assert all(type(vecs) is list and all(type(v) is dict for v in vecs)
               for vecs in calls)


@pytest.mark.parametrize("which", ["dat_osp3", "dat_sl3"])
def test_right_action_is_eta_on_m(request, which):
    dat = request.getfixturevalue(which)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        assert q.right_action_mismatch() is None
        eye = np.eye(q.dim, dtype=np.int64)
        for z in dat.m_indices:
            shifted = (left_matrix(q, z) - int(q.eta[z]) * eye) % q.p
            assert np.array_equal(ad_matrix(q, z) % q.p, shifted)


@pytest.mark.parametrize("which", ["dat_osp3", "dat_sl3"])
def test_whittaker_space_is_the_shared_kernel(request, which):
    dat = request.getfixturevalue(which)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        wh = q.whittaker_subspace()
        assert q.invariant_dimension("m") == len(wh)
        # both are the canonical echelon basis of the same kernel
        assert q.invariant_subspace("m") == wh


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mprime_invariants_match_the_stacked_kernel(nd_osp12_reg, p):
    # oracle: the joint kernel of the stacked ad matrices of m' = m + v_mid
    dat = modp.reduce_datum(nd_osp12_reg, p)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        oracle = dense_nullspace_mod_p(stacked_ad(q, "mprime"), p)
        got = dense_rows(q.invariant_subspace("mprime"), q.dim)
        assert np.array_equal(got, oracle)
        assert q.invariant_dimension("mprime") == oracle.shape[0]


@pytest.mark.parametrize("nd, p", [
    ("nd_osp12_reg", 3), ("nd_osp12_reg", 5), ("nd_osp12_reg", 7),
    ("nd_sl21_e12", 3), ("nd_sl21_e12", 5), ("nd_gl21_reg", 3),
    ("nd_osp22", 3)])
def test_sparse_m_kernel_equals_the_dense_oracle(request, nd, p):
    # oracle: the dense m-stack eliminated by the float64 kernel, and the
    # middle image through the dense ad matrix of v_mid; gl(2|1) and
    # osp(2|2) have an odd and an even generator in m
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        stack = stacked_ad(q, "m")
        # the rank-only route, on a Q whose kernel basis has not been read
        assert q.invariant_dimension("m") == q.dim - dense_rank_mod_p(stack, p)
        q = modp.build_reduced_q(dat, eta, label)
        oracle = dense_nullspace_mod_p(stack, p)
        got = dense_rows(q.invariant_subspace("m"), q.dim)
        assert np.array_equal(got, oracle)
        assert q.invariant_dimension("m") == oracle.shape[0]
        if dat.r_odd:
            ad_v = ad_matrix(q, dat.v_mid_index)
            image = dense_rows(q._middle_image(), q.dim)
            assert np.array_equal(image, (oracle @ ad_v.T) % p)


def test_odd_r_chain_equals_the_sparse_stacked_kernel(nd_osp32):
    # osp(3|2): odd r with |m| = 2, dim Q = 7776 at p = 3, too large for
    # the dense oracle; m' adds v_mid as a third link
    q = modp.build_reduced_q(modp.reduce_datum(nd_osp32, 3))
    for sub in ("m", "mprime"):
        want = sparse_stacked_kernel(q, sub)
        assert list(q.invariant_subspace(sub)) == want
        assert q.invariant_dimension(sub) == len(want)
    assert (len(q.invariant_subspace("m")),
            len(q.invariant_subspace("mprime"))) == (1296, 648)
    _check_every_order(q)


def _check_every_order(q):
    dat = q.datum
    # even generators first
    assert [dat.generators[z].parity for z in q._m_order()] == [0, 1]
    basis = q.invariant_subspace("m")
    for order in permutations(dat.m_indices):
        assert q._m_kernel(list(order)) == list(basis)
        assert q._m_kernel(list(order), rank_only=True) == len(basis)


@pytest.mark.parametrize("nd, p", [
    ("nd_sl21_e12", 5), ("nd_gl21_reg", 3), ("nd_osp22", 3)])
def test_every_order_of_m_gives_the_same_kernel(request, nd, p):
    # and on osp(3|2) in the test above
    _check_every_order(modp.build_reduced_q(
        modp.reduce_datum(request.getfixturevalue(nd), p)))


def test_zero_nilpotent_kernel_is_all_of_q(nd_gl11_zero):
    # m = 0: no link, Q^m = Q, and the oracle eliminates no row
    q = modp.build_reduced_q(modp.reduce_datum(nd_gl11_zero, 3))
    unit = [{j: 1} for j in range(q.dim)]
    assert q.invariant_dimension("m") == q.dim == 36
    assert list(q.invariant_subspace("m")) == unit
    assert sparse_stacked_kernel(q, "m") == unit


def test_m_kernel_never_takes_the_dense_stack(nd_sl21_e12):
    # sl(2|1) E12 at p = 5: dim Q = 1000 and |m| = 2, so one dense int64
    # m-stack would take 2000 * 1000 * 8 bytes
    q = modp.build_reduced_q(modp.reduce_datum(nd_sl21_e12, 5))
    for z in q.datum.m_indices:
        q.ad_columns(z)
    tracemalloc.start()
    try:
        assert q.invariant_dimension("m") == 100
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(q.datum.m_indices) * q.dim * q.dim * 8


def test_invariant_subspace_is_cached_and_read_only(dat_osp3):
    q = modp.build_reduced_q(dat_osp3)
    basis = q.invariant_subspace("m")
    assert q.invariant_subspace("m") is basis
    assert q.invariant_dimension("m") == len(basis)
    with pytest.raises(TypeError):
        basis[0] = {}


def test_right_action_mismatch_is_a_whittaker_failure(monkeypatch, tmp_path):
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    build = modp.build_reduced_q

    def off_by_one(dat, eta=None, eta_label="chi"):
        # Q claims a p-character that its engine does not act by
        q = build(dat, eta, eta_label)
        z = dat.m_indices[0]
        wrong = list(q.eta)
        wrong[z] = dat.field.add(wrong[z], 1)
        q.eta = tuple(wrong)
        return q

    monkeypatch.setattr(modp, "build_reduced_q", off_by_one)
    code, failures, _ = cli.run_pipeline(_suite(tmp_path))
    assert code == EXIT_CHECK_FAILURES
    checks = [f for f in failures if f["check"] == "whittaker_dimension"]
    assert len(checks) == 2
    # the unit monomial is the first column; w1 spans m
    assert all(f["detail"] == {"generator": "w1", "column": 0} for f in checks)
    saved = json.loads((tmp_path / "failures.json").read_text())
    assert saved["failures"] == failures


@pytest.mark.parametrize("owner, name, change, check, detail", [
    (modp.ReducedQ, "dim_reduced_enveloping", lambda dim_u: dim_u + 1,
     "morita_dimension", {"dim_u": 109, "delta": 3, "dim_w": 12}),
    (modp, "reduced_w", lambda rw: replace(rw, rank=rw.rank - 1, pbw_ok=False),
     "pbw_basis", {"rank": 11, "monomials": 12, "invariant_dim": 12}),
    (modp, "mprime_invariants_check", lambda r: replace(r, proper=False),
     "mprime_invariants", {"dim_m_invariants": 12, "dim_mprime_invariants": 6,
                           "equal": True, "proper": False,
                           "witness_ok": True}),
    # the count branch: right multiplication acts by eta, but dim W * delta
    # is not dim Q
    (modp, "morita_dim_check", lambda r: replace(r, dim_w=r.dim_w + 1),
     "whittaker_dimension", {"dim_W": 13, "delta": 3, "dim_Q": 36}),
], ids=["morita", "pbw", "mprime", "whittaker-count"])
def test_failure_record_names_the_numbers(monkeypatch, tmp_path, owner, name,
                                          change, check, detail):
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: change(original(*args)))
    code, failures, _ = cli.run_pipeline(_suite(tmp_path))
    assert code == EXIT_CHECK_FAILURES
    assert failures == [{"check": check, "p": 3, "eta": label, "detail": detail}
                        for label in ("chi", "chi+x1*")]
    saved = json.loads((tmp_path / "failures.json").read_text())
    assert saved["failures"] == failures


def test_prime_with_an_oversized_q_exits_2_before_q(monkeypatch, tmp_path,
                                                   capsys):
    # osp(1|2) regular at p = 2^31 - 1: dim Q = p^2 * 2^2 cannot fit, so
    # the run stops before it reduces the datum, builds a Q or writes a file
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    reduced, built = [], []
    _count(monkeypatch, modp, "reduce_datum", reduced)
    _count(monkeypatch, modp, "build_reduced_q", built)
    code = cli.main(["verify", "all", "--family", "osp", "--m", "1", "--n",
                     "2", "--nilpotent", "regular", "--primes", "2147483647",
                     "--out", str(tmp_path)])
    assert code == EXIT_CONFIG and not reduced and not built
    err = capsys.readouterr().err
    assert "dim Q = %d" % (4 * 2147483647 ** 2) in err
    assert "physical memory" in err
    assert list(tmp_path.iterdir()) == []
