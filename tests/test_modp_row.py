"""The structure of one `verify all` mod-p row: each object is computed once.

Right multiplication by z in m acts on Q by eta(z), so ad z = L_z - eta(z)
and the Whittaker vectors are the m-invariants.  The row builds Q once,
eliminates the stacked ad matrix of m once, from its sparse rows, and reads
the Whittaker dimension from that kernel.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracle import stacked_ad
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


def _suite(out_dir, primes=(3,)):
    # `modp suite` on osp(1|2) regular with both sampled etas
    return PipelineConfig(family="osp", m=1, n=2, nilpotent="regular",
                          char0=cli.CHAR0_NONE,
                          primes=primes, eta_sweep=True, out_dir=str(out_dir))


def test_row_builds_q_once_and_eliminates_the_m_stack_once(
        monkeypatch, tmp_path, dat_osp3):
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    log = {name: [] for name in ("build", "m_rows", "left", "whittaker",
                                 "rank", "rref")}
    _count(monkeypatch, modp, "build_reduced_q", log["build"])
    _count(monkeypatch, modp.ReducedQ, "_m_rows", log["m_rows"])
    _count(monkeypatch, modp.ReducedQ, "left_columns", log["left"])
    _count(monkeypatch, modp.ReducedQ, "whittaker_subspace", log["whittaker"])
    _count(monkeypatch, linalg, "rank_mod_p", log["rank"])
    _count(monkeypatch, linalg, "rref_mod_p", log["rref"])
    code, failures, _ = cli.run_pipeline(_suite(tmp_path))
    assert code == cli.EXIT_OK and not failures
    rows = 2
    assert len(log["build"]) == rows
    assert not log["left"] and not log["whittaker"]
    # the m-stack is eliminated once per row, from its sparse rows; the
    # m'-invariants come from inside the m-kernel, so there is no m' stack
    assert len(log["m_rows"]) == rows
    # no dense mod-p call receives the m-stack or anything as large
    dim = 36
    m_stack = (len(dat_osp3.m_indices) * dim, dim)
    dense = [args[0].shape for args in log["rank"] + log["rref"]]
    assert dense and m_stack not in dense
    assert max(r * c for r, c in dense) < m_stack[0] * m_stack[1]


@pytest.mark.parametrize("which", ["dat_osp3", "dat_sl3"])
def test_right_action_is_eta_on_m(request, which):
    dat = request.getfixturevalue(which)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        assert q.right_action_mismatch() is None
        eye = np.eye(q.dim, dtype=np.int64)
        for z in dat.m_indices:
            shifted = (q.left_matrix(z) - int(q.eta[z]) * eye) % q.p
            assert np.array_equal(q.ad_matrix(z) % q.p, shifted)


@pytest.mark.parametrize("which", ["dat_osp3", "dat_sl3"])
def test_whittaker_space_is_the_shared_kernel(request, which):
    dat = request.getfixturevalue(which)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        wh = q.whittaker_subspace()
        assert q.invariant_dimension("m") == wh.shape[0]
        # both are the canonical echelon basis of the same kernel
        assert np.array_equal(q.invariant_subspace("m"), wh)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mprime_invariants_match_the_stacked_kernel(nd_osp12_reg, p):
    # oracle: the joint kernel of the stacked ad matrices of m' = m + v_mid
    dat = modp.reduce_datum(nd_osp12_reg, p)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        oracle = linalg.nullspace_mod_p(stacked_ad(q, "mprime"), p)
        assert np.array_equal(q.invariant_subspace("mprime"), oracle)
        assert q.invariant_dimension("mprime") == oracle.shape[0]


@pytest.mark.parametrize("nd, p", [
    ("nd_osp12_reg", 3), ("nd_osp12_reg", 5), ("nd_osp12_reg", 7),
    ("nd_sl21_e12", 3), ("nd_sl21_e12", 5)])
def test_sparse_m_kernel_equals_the_dense_oracle(request, nd, p):
    # oracle: the dense m-stack eliminated by the numpy kernel, and the
    # middle image through the dense ad matrix of v_mid
    dat = modp.reduce_datum(request.getfixturevalue(nd), p)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        stack = stacked_ad(q, "m")
        # the rank-only route, on a Q whose kernel basis has not been read
        assert q.invariant_dimension("m") == q.dim - linalg.rank_mod_p(stack, p)
        q = modp.build_reduced_q(dat, eta, label)
        oracle = linalg.nullspace_mod_p(stack, p)
        assert np.array_equal(q.invariant_subspace("m"), oracle)
        assert q.invariant_dimension("m") == oracle.shape[0]
        if dat.r_odd:
            ad_v = q.ad_matrix(dat.v_mid_index)
            assert np.array_equal(q._middle_image(), (oracle @ ad_v.T) % p)


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
    assert q.invariant_dimension("m") == basis.shape[0]
    with pytest.raises(ValueError):
        basis[0, 0] = 1


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


def test_prime_past_the_kernel_bound_exits_2_before_q(monkeypatch, tmp_path,
                                                      capsys):
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    built = []
    _count(monkeypatch, modp, "build_reduced_q", built)
    code = cli.main(["verify", "all", "--family", "osp", "--m", "1", "--n",
                     "2", "--nilpotent", "regular", "--primes", "2147483647",
                     "--out", str(tmp_path)])
    assert code == EXIT_CONFIG and not built
    assert "float64 bound" in capsys.readouterr().err
