"""The structure of one `verify all` mod-p row: each object is computed once.

Right multiplication by z in m acts on Q by eta(z), so ad z = L_z - eta(z)
and the Whittaker vectors are the m-invariants.  The row builds Q once,
eliminates the stacked ad matrix of m once and reads the Whittaker dimension
from that kernel.
"""

import json

import numpy as np
import pytest

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
                          char0_enabled=False, relations=False, verify=False,
                          primes=primes, eta_sweep=True, out_dir=str(out_dir))


def test_row_builds_q_once_and_eliminates_the_m_stack_once(
        monkeypatch, tmp_path, dat_osp3):
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    log = {name: [] for name in ("build", "stack", "left", "whittaker",
                                 "rank", "rref")}
    _count(monkeypatch, modp, "build_reduced_q", log["build"])
    _count(monkeypatch, modp.ReducedQ, "stacked_ad", log["stack"])
    _count(monkeypatch, modp.ReducedQ, "left_columns", log["left"])
    _count(monkeypatch, modp.ReducedQ, "whittaker_subspace", log["whittaker"])
    _count(monkeypatch, linalg, "rank_mod_p", log["rank"])
    _count(monkeypatch, linalg, "rref_mod_p", log["rref"])
    code, failures, _ = cli.run_pipeline(_suite(tmp_path))
    assert code == cli.EXIT_OK and not failures
    rows = 2
    assert len(log["build"]) == rows
    assert not log["left"] and not log["whittaker"]
    # the m'-invariants come from inside the m-kernel: no m' stack
    assert [args[1] for args in log["stack"]] == ["m"] * rows
    # the m-stack is eliminated once per row and is the largest matrix
    dim = 36
    m_stack = (len(dat_osp3.m_indices) * dim, dim)
    eliminated = [args[0].shape for args in log["rank"] + log["rref"]]
    assert eliminated.count(m_stack) == rows
    assert max(r * c for r, c in eliminated) == m_stack[0] * m_stack[1]


@pytest.mark.parametrize("which", ["dat_osp3", "dat_sl3"])
def test_right_action_is_eta_on_m(request, which):
    dat = request.getfixturevalue(which)
    for label, eta in dat.eta_samples(2):
        q = modp.build_reduced_q(dat, eta, label)
        assert q.right_action_mismatch() is None
        eye = np.eye(q.dim, dtype=np.int64)
        for z in dat.m_indices:
            shifted = (q.left_matrix(z) - int(q.eta[z]) * eye) % q.p
            assert np.array_equal(q.ad_matrix(z) % q.p, shifted)


@pytest.mark.parametrize("which", ["dat_osp3", "dat_sl3"])
def test_whittaker_space_is_the_shared_kernel(request, which):
    dat = request.getfixturevalue(which)
    for label, eta in dat.eta_samples(2):
        q = modp.build_reduced_q(dat, eta, label)
        wh = q.whittaker_subspace()
        assert q.invariant_dimension("m") == wh.shape[0]
        # both are the canonical echelon basis of the same kernel
        assert np.array_equal(q.invariant_subspace("m"), wh)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mprime_invariants_match_the_stacked_kernel(nd_osp12_reg, p):
    # oracle: the joint kernel of the stacked ad matrices of m' = m + v_mid
    dat = modp.reduce_datum(nd_osp12_reg, p)
    for label, eta in dat.eta_samples(2):
        q = modp.build_reduced_q(dat, eta, label)
        oracle = linalg.nullspace_mod_p(q.stacked_ad("mprime"), p)
        assert np.array_equal(q.invariant_subspace("mprime"), oracle)
        assert q.invariant_dimension("mprime") == oracle.shape[0]


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
