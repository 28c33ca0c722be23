"""The structure of one `verify all` mod-p row: each object is computed once.

Right multiplication by z in m acts on Q by eta(z), so ad z = L_z - eta(z)
and the Whittaker vectors are the m-invariants.  The row builds Q once and
the sparse ad columns of each generator once.  It takes the m-kernel one
generator at a time, even generators first, each link after the first on
the previous kernel's free columns, so that no elimination sees more than
dim Q rows, and reads the Whittaker dimension from that kernel.
"""

import hashlib
import json
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from oracle import (ad_matrix, dense_nullspace_mod_p, dense_rank_mod_p,
                    dense_rows, left_matrix, per_monomial_columns,
                    sparse_stacked_kernel, stacked_ad)
from wsuper import cli, linalg, modp, wchar0
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
    # per row, the F_p entry points rank the PBW vectors alone (the m'
    # check reads the middle image's rank off the m' link); each gets a
    # list of sparse rows
    assert len(log["rank"]) == rows
    calls = [args[0] for args in log["rank"] + log["rref"]]
    assert all(type(vecs) is list and all(type(v) is dict for v in vecs)
               for vecs in calls)


@pytest.mark.parametrize("which", ["dat_osp3", "dat_sl3"])
def test_reduced_w_forms_no_pbw_monomial_by_products(request, monkeypatch,
                                                     which):
    # the PBW vectors come from the left action of U_eta on Q: during
    # reduced_w, the one evaluation memo (`WContext.eval_monomial`) is read
    # only inside the relation table, and it ends holding no more evaluated
    # monomials than after that table alone
    dat = request.getfixturevalue(which)
    evals, in_table = [], [False]
    ctx = wchar0.WContext(dat, engine=modp.build_reduced_q(dat).engine)
    ctx.generators()
    ctx.commutator_table()
    alone = len(ctx._eval_cache)
    evaluate = wchar0.WContext.eval_monomial
    table = wchar0.WContext.commutator_table

    def counted_eval(self, expo):
        evals.append(in_table[0])
        return evaluate(self, expo)

    def flagged_table(self):
        in_table[0] = True
        try:
            return table(self)
        finally:
            in_table[0] = False

    monkeypatch.setattr(wchar0.WContext, "eval_monomial", counted_eval)
    monkeypatch.setattr(wchar0.WContext, "commutator_table", flagged_table)
    rw = modp.reduced_w(modp.build_reduced_q(dat))
    assert rw.pbw_ok
    assert evals and all(evals)
    assert 0 < len(rw.context._eval_cache) <= alone


@pytest.mark.parametrize("which", ["dat_osp3", "dat_sl3"])
def test_right_action_is_eta_on_m(request, which):
    # the oracle forms each right product m b_z in U and finds it eta(z) m,
    # so ad z = L_z - eta(z), the columns Q builds with no right product
    dat = request.getfixturevalue(which)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        assert all(per_monomial_columns(q, z)[2] is None
                   for z in dat.m_indices)
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


@pytest.mark.parametrize("which", ["dat_osp3", "dat_sl3"])
def test_whittaker_subspace_reads_the_m_kernel(request, monkeypatch, which):
    # once the m-kernel is known, the Whittaker vectors cost no elimination
    # and no left action: they are that kernel's tuple
    dat = request.getfixturevalue(which)
    for label, eta in dat.eta_samples():
        q = modp.build_reduced_q(dat, eta, label)
        basis = q.invariant_subspace("m")
        echelons, actions = [], []
        with monkeypatch.context() as patch:
            _count(patch, linalg, "_echelon", echelons)
            _count(patch, modp.ReducedQ, "_left_action", actions)
            assert q.whittaker_subspace() is basis
        assert not echelons and not actions


def test_odd_r_row_builds_each_left_action_once(monkeypatch, tmp_path):
    # osp(1|2) regular `modp suite`, both etas: per Q one left actor
    # serves the ad columns and the PBW vectors, and the left action of
    # each z in m and of v_mid is built once, for its ad columns; the m'
    # witness, a basis monomial, takes none
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    actions, actors = [], []
    _count(monkeypatch, modp.ReducedQ, "_left_action", actions)
    _count(monkeypatch, modp.ReducedQ, "_left_actor", actors)
    code, failures, _ = cli.run_pipeline(_suite(tmp_path))
    assert code == cli.EXIT_OK and not failures
    qs = {id(args[0]): args[0] for args in actors}
    assert len(qs) == 2
    dat = next(iter(qs.values())).datum
    acted = dat.m_indices + [dat.v_mid_index]
    assert sorted((id(q), g) for q, g in actions) == sorted(
        (i, g) for i in qs for g in acted)
    assert len(actors) == len(qs)


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
            # the middle image is read on the m basis's free columns, in its
            # coordinates; lifted by that basis, it is the full image
            full = (oracle @ ad_matrix(q, dat.v_mid_index).T) % p
            basis = q.invariant_subspace("m")
            free = [max(row) for row in basis]
            image = q._middle_image()
            assert np.array_equal(dense_rows(image, len(basis)),
                                  full[:, free])
            lifted = [q._combine(basis, v) for v in image]
            assert np.array_equal(dense_rows(lifted, q.dim), full)


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
    # v_mid as the chain's third link, [v_mid, m] in m: the link runs in
    # the first kernel's coordinates and gives the m' basis
    links = q._m_order() + [q.datum.v_mid_index]
    assert q._m_kernel(links) == list(q.invariant_subspace("mprime"))
    _check_every_order(q)


def _check_every_order(q):
    dat = q.datum
    # even generators first
    assert [dat.generators[z].parity for z in q._m_order()] == [0, 1]
    basis = q.invariant_subspace("m")
    for order in permutations(dat.m_indices):
        assert q._m_kernel(list(order)) == list(basis)
        assert q._m_kernel(list(order), rank_only=True) == len(basis)
        # a generator taken again is one more link that keeps the kernel;
        # the links after the second run in the first kernel's coordinates
        for z in order:
            assert q._m_kernel([z] + list(order)) == list(basis)
            assert q._m_kernel(list(order) + [z]) == list(basis)


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


@pytest.mark.parametrize("p", [3, 5])
def test_mprime_check_ranks_nothing(monkeypatch, nd_osp12_reg, p):
    # rank-nullity on the m' link fixes the middle image's rank, so the
    # check runs no rank_mod_p of its own
    ranks = []
    _count(monkeypatch, linalg, "rank_mod_p", ranks)
    dat = modp.reduce_datum(nd_osp12_reg, p)
    for label, eta in dat.eta_samples():
        rep = modp.mprime_invariants_check(
            modp.build_reduced_q(dat, eta, label))
        assert rep.ok
        assert rep.dim_m_invariants == 2 * rep.dim_mprime_invariants
    assert not ranks


@pytest.mark.parametrize("drop", [0, -1])
def test_mprime_check_fails_on_a_basis_missing_a_row(dat_osp3, drop):
    # an m' basis that lost a row no longer has the image's dimension
    q = modp.build_reduced_q(dat_osp3)
    basis = list(q.invariant_subspace("mprime"))
    del basis[drop]
    q._inv_basis["mprime"] = tuple(basis)
    rep = modp.mprime_invariants_check(q)
    assert rep.dim_mprime_invariants == len(basis)
    assert rep.equal is False and not rep.ok


@pytest.mark.parametrize("which", ["dat_osp3", "dat_sl3"])
def test_ad_columns_leave_no_right_product_in_the_memo(request, which):
    # ad_columns leaves the engine memo as it found it: the columns of m
    # and the right products m b_{v_mid} come from Q's own index actor, and
    # an entry of the engine's left-action memo held before stays as it was
    dat = request.getfixturevalue(which)
    q = modp.build_reduced_q(dat)
    memo = q.engine._gen_cache
    # b_z on a monomial whose first generator lies below z: a case that
    # left_gen keeps
    held = (q.datum.m_indices[0], q.basis[1])
    q.engine.left_gen(*held)
    before = dict(memo)
    # for odd r, v_mid's columns take real right products
    for g in q.datum.m_indices + ([q.datum.v_mid_index] if q.datum.r_odd
                                  else []):
        q.ad_columns(g)
    assert memo == before and held in memo


def test_invariant_subspace_is_cached_and_read_only(dat_osp3):
    q = modp.build_reduced_q(dat_osp3)
    basis = q.invariant_subspace("m")
    assert q.invariant_subspace("m") is basis
    assert q.invariant_dimension("m") == len(basis)
    with pytest.raises(TypeError):
        basis[0] = {}


def test_right_action_mismatch_is_a_whittaker_failure(monkeypatch, tmp_path):
    # no Q can claim a p-character that its engine does not act by: the
    # claim raises and changes nothing, so the row passes, and the
    # whittaker_dimension check is the comparison dim W delta = dim Q
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    build = modp.build_reduced_q
    claimed = []

    def off_by_one(dat, eta=None, eta_label="chi"):
        q = build(dat, eta, eta_label)
        z = dat.m_indices[0]
        wrong = list(q.eta)
        wrong[z] = dat.field.add(wrong[z], 1)
        with pytest.raises(AttributeError):
            q.eta = tuple(wrong)
        claimed.append(q)
        return q

    monkeypatch.setattr(modp, "build_reduced_q", off_by_one)
    code, failures, _ = cli.run_pipeline(_suite(tmp_path))
    assert code == cli.EXIT_OK and not failures
    assert len(claimed) == 2
    assert all(q.eta is q.engine.eta for q in claimed)
    rows = json.loads((tmp_path / "modp_report.json").read_text())["rows"]
    assert all(r["dim_W"] * r["delta"] == r["dim_Q"] for r in rows)


@pytest.mark.parametrize("owner, name, change, check, detail", [
    (modp.ReducedQ, "dim_reduced_enveloping", lambda dim_u: dim_u + 1,
     "morita_dimension", {"dim_u": 109, "delta": 3, "dim_w": 12}),
    (modp, "reduced_w",
     lambda rw: rw._replace(rank=rw.rank - 1, pbw_ok=False),
     "pbw_basis", {"rank": 11, "monomials": 12, "invariant_dim": 12}),
    (modp, "mprime_invariants_check", lambda r: r._replace(proper=False),
     "mprime_invariants", {"dim_m_invariants": 12, "dim_mprime_invariants": 6,
                           "equal": True, "proper": False,
                           "witness_ok": True}),
    # the count branch: right multiplication acts by eta, but dim W * delta
    # is not dim Q
    (modp, "morita_dim_check", lambda r: r._replace(dim_w=r.dim_w + 1),
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


# sha256 of every artifact of `verify all` on three mod-p rows, each prime
# with both sampled etas: sl(2|1) E12 (even r, the largest Q of the three),
# gl(2|1) regular (odd co-basis generators, so the left action passes
# through the odd-square and cap contractions) and osp(2|2) (|m| = 2)
GOLDEN_ROWS = {
    "sl21-E12": (
        ["--family", "sl", "--m", "2", "--n", "1", "--nilpotent", "E12",
         "--primes", "3,5,7"],
        {"algebra.json": "1d8763e15247d1f68d17eba5cc8bff4e0504f64d879daca25fa981bda0cffc5c",
         "modp_report.csv": "dedc39e93fe649555557aaf16a4389f7eb46be7aa3d5550ff0c61f08dff006e6",
         "modp_report.json": "0238639009040e649516006e54474e8bef52ad7b52cded8b95dd22a75cc6b9fa",
         "nilpotent.json": "2ce1b440503b41cab7ff48e43ff3b6e7372de2dfccef98bb7c75c2293348f70f",
         "wpresentation.json": "f7a17ad5fe18bb4a80b050333623e6838c390a7e18f7b6625191590da2a57945"}),
    "gl21-regular": (
        ["--family", "gl", "--m", "2", "--n", "1", "--nilpotent", "regular",
         "--primes", "3"],
        {"algebra.json": "640a17fb451e586bb98be5567990fa9cbd99b4927fbe942393c0f7d7827b14cf",
         "modp_report.csv": "6f64037a1f22a757051d169b77af48ad5464f715df988f9bb3cb31d6f6bb5681",
         "modp_report.json": "37856e44e239a80fbd9aab5673d203f2c339fcc628619b3ff0199455fc30964f",
         "nilpotent.json": "c321a28ea377327057db38f8932c6d60ca5a63dba941ecba45dd4b26daa6c269",
         "wpresentation.json": "de33ff7de3c7ffd07dd13ffc033bb30f701d20fbdb12a7f005a41eed5b505240"}),
    "osp22": (
        ["--family", "osp", "--m", "2", "--n", "2", "--nilpotent",
         "0,1,0,0,0,0,0,0", "--primes", "3,5"],
        {"algebra.json": "73fad24e723b61c7c43b32a74932049c87d93a7447f5c9c71b130d4198f0c372",
         "modp_report.csv": "fdd4be5359e19e73c297b3a73f18500e10b6edae12cfa0bf574f5f7d0355e03f",
         "modp_report.json": "9006d5ee75186c400a8c3c91276843bd8438f405ee5b736b25d43a8272e14679",
         "nilpotent.json": "9a6cd5f074d836349440c769b8114e14483c656d9276984c17b15c2f1599a6ed",
         "wpresentation.json": "69947f0b96516fe306ff808c44947459d26baeadb84b4c064814e0112df8f48a"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ROWS))
def test_modp_row_artifacts_reproduce_golden_digests(name, tmp_path,
                                                     monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    args, digests = GOLDEN_ROWS[name]
    code = cli.main(["verify", "all", *args, "--eta-sweep",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(digests)
    for f, want in digests.items():
        assert hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() == want, f
