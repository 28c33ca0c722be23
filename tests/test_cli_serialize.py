import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import loaders
from loaders import SchemaError
from wsuper import (analyze_nilpotent, build_algebra, cli, modp, pbw,
                    resolve_nilpotent, serialize, sl2_triple)
from wsuper.cli import (CHAR0_GRADED, EXIT_CONFIG, EXIT_INTERNAL, EXIT_MEMORY,
                        EXIT_OK, EXIT_SOLVER, PipelineConfig, main,
                        run_pipeline)
from wsuper.modp import ReductionError
from wsuper.nilpotent import FormNormalizationError, NilpotentError
from wsuper.pbw import AmbientMismatch
from wsuper.presets import PresetError
from wsuper.superalgebra import AlgebraError, DegenerateFormError
from wsuper.wchar0 import (LeadingShapeError, NotInvariantError, SolverError,
                           WContext)


def test_algebra_round_trip(sl21):
    data = serialize.algebra_to_json(sl21)
    back = loaders.algebra_from_json(data)
    assert serialize.algebra_to_json(back) == data
    assert back.structure == sl21.structure
    assert back.gram == sl21.gram


def test_algebra_round_trip_mod_p(sl21):
    from wsuper import modp
    mod = modp.reduce_mod_p(sl21, 3)
    data = serialize.algebra_to_json(mod.base)
    back = loaders.algebra_from_json(data)
    assert serialize.algebra_to_json(back) == data
    assert back.p_map == mod.base.p_map


def test_nilpotent_round_trip(sl21, nd_sl21_e12):
    data = serialize.nilpotent_to_json(nd_sl21_e12)
    back = loaders.nilpotent_from_json(data, sl21)
    assert back == nd_sl21_e12
    assert serialize.nilpotent_to_json(back) == data


def test_nilpotent_reload_detects_tampering(sl21, nd_sl21_e12):
    data = json.loads(json.dumps(serialize.nilpotent_to_json(nd_sl21_e12)))
    data["chi"][0] = "1/2"
    with pytest.raises(SchemaError):
        loaders.nilpotent_from_json(data, sl21)


def test_presentation_round_trip(ctx_osp12):
    pres = ctx_osp12.commutator_table()
    data = serialize.presentation_to_json(pres, ctx_osp12)
    back = loaders.presentation_from_json(data, ctx_osp12)
    assert serialize.presentation_to_json(back, ctx_osp12) == data
    assert back.relations == pres.relations


def test_schema_version_enforced(sl21):
    data = serialize.algebra_to_json(sl21)
    data["schema"] = "wsuper/0"
    with pytest.raises(SchemaError):
        loaders.algebra_from_json(data)


def test_structure_constant_order_is_stable(osp12):
    data = serialize.algebra_to_json(osp12)
    keys = [(i, j) for i, j, _ in data["structure"]]
    assert keys == sorted(keys)


def run_cli(tmp_path, args, env_out=None):
    old = os.environ.pop("WSUPER_OUT", None)
    try:
        if env_out is not None:
            os.environ["WSUPER_OUT"] = str(env_out)
        return main(args)
    finally:
        os.environ.pop("WSUPER_OUT", None)
        if old is not None:
            os.environ["WSUPER_OUT"] = old


def test_cli_full_run_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["verify", "all", "--family", "osp", "--m", "1", "--n", "2",
            "--nilpotent", "regular", "--max-degree", "10",
            "--primes", "3,5"]
    assert run_cli(tmp_path, args + ["--out", str(out1)]) == EXIT_OK
    assert run_cli(tmp_path, args + ["--out", str(out2)]) == EXIT_OK
    for name in ("algebra.json", "nilpotent.json", "wpresentation.json",
                 "modp_report.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert not (out1 / "failures.json").exists()


def test_cli_env_var_overrides_out(tmp_path):
    envdir = tmp_path / "env"
    flagdir = tmp_path / "flag"
    args = ["algebra", "build", "--family", "gl", "--m", "1", "--n", "1",
            "--out", str(flagdir)]
    assert run_cli(tmp_path, args, env_out=envdir) == EXIT_OK
    assert (envdir / "algebra.json").exists()
    assert not flagdir.exists()


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_an_output_path_that_is_a_file_is_a_config_error(tmp_path, capsys,
                                                         via_env):
    # the directory cannot be made, which is the configuration's fault, not
    # an internal one; the file is left as it was
    afile = tmp_path / "afile"
    afile.write_text("kept")
    args = ["algebra", "build", "--family", "gl", "--m", "1", "--n", "1"]
    if via_env:
        code = run_cli(tmp_path, args + ["--out", str(tmp_path / "flag")],
                       env_out=afile)
    else:
        code = run_cli(tmp_path, args + ["--out", str(afile)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("configuration error: output directory %r"
                              % str(afile)), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
    assert afile.read_text() == "kept"


def test_a_prime_given_twice_is_a_config_error(tmp_path, capsys):
    # the row would be computed twice and written twice to the report
    out = tmp_path / "out"
    assert run_cli(tmp_path, [
        "modp", "suite", "--family", "osp", "--m", "1", "--n", "2",
        "--nilpotent", "regular", "--primes", "5,3, 5", "--out",
        str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "configuration error: prime 5 is given twice"
    assert not out.exists()


def test_cli_rejects_p2(tmp_path):
    code = run_cli(tmp_path, [
        "modp", "suite", "--family", "gl", "--m", "1", "--n", "1",
        "--nilpotent", "zero", "--primes", "2,3", "--out", str(tmp_path / "c")])
    assert code == EXIT_CONFIG


def test_cli_rejects_bad_preset(tmp_path):
    code = run_cli(tmp_path, [
        "nilpotent", "analyze", "--family", "gl", "--m", "1", "--n", "1",
        "--nilpotent", "E12", "--out", str(tmp_path / "d")])
    assert code == EXIT_CONFIG  # E12 is odd in gl(1|1)


def test_cli_rejects_low_degree(tmp_path):
    # the top generator degree of sl(2|1) E12 is 4, so the bound must be >= 6
    code = run_cli(tmp_path, [
        "verify", "all", "--family", "sl", "--m", "2", "--n", "1",
        "--nilpotent", "E12", "--max-degree", "3", "--out", str(tmp_path / "e")])
    assert code == EXIT_CONFIG
    assert list((tmp_path / "e").glob("*")) == []


def test_graded_monomial_count_is_read_before_any_solve(monkeypatch):
    # the counts measured on gl(3|1) regular at degrees 10, 18, 26 and 34,
    # from the generator degrees and parities alone; at degree 10 the count
    # is what the graded check evaluates
    alg = build_algebra("gl", 3, 1)
    nd = analyze_nilpotent(alg, sl2_triple(alg, resolve_nilpotent(
        alg, "regular")))
    ctx = WContext(nd)
    solved = []
    with monkeypatch.context() as patch:
        patch.setattr(WContext, "solve_theta",
                      lambda self, k: solved.append(k))
        counts = [ctx.graded_monomial_count(d) for d in (10, 18, 26, 34)]
    assert counts == [72, 420, 1431, 3660] and not solved
    assert sum(ctx.graded_check(10).pbw_counts) == counts[0]


@pytest.mark.parametrize("degree, bound, code", [
    ("34", cli.MAX_GRADED_MONOMIALS, EXIT_CONFIG), ("10", 71, EXIT_CONFIG),
    ("10", 72, EXIT_OK)])
def test_cli_refuses_a_graded_check_past_the_monomial_bound(
        tmp_path, capsys, monkeypatch, degree, bound, code):
    # gl(3|1) regular asks 72 monomials at degree 10 and 3,660 at 34; a
    # refusal exits 2 before any generator is solved, with no artifact
    monkeypatch.setattr(cli, "MAX_GRADED_MONOMIALS", bound)
    solved = []
    solve = WContext.solve_theta

    def counted(self, k):
        solved.append(k)
        return solve(self, k)

    monkeypatch.setattr(WContext, "solve_theta", counted)
    out = tmp_path / "out"
    assert run_cli(tmp_path, [
        "verify", "all", "--family", "gl", "--m", "3", "--n", "1",
        "--nilpotent", "regular", "--max-degree", degree, "--primes", "",
        "--out", str(out)]) == code
    if code == EXIT_CONFIG:
        asked = 3660 if degree == "34" else 72
        assert capsys.readouterr().err.splitlines()[-1] == (
            "configuration error: max Kazhdan degree %s asks the graded check"
            " for %d PBW monomials, more than the %d it admits"
            % (degree, asked, bound))
        assert list(out.glob("*")) == [] and not solved
    else:
        assert solved


def test_graded_check_past_the_default_exponent_bound(tmp_path, monkeypatch):
    # osp(1|2) regular at degree 260 evaluates theta_1^65, whose terms reach
    # exponent 130 of x2, past the 127 that the context's engine over Q
    # holds: the graded check runs on a wider engine, and the check passes
    # with no failure
    built = []
    init = pbw.Enveloping.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(pbw.Enveloping, "__init__", recorded)
    out = tmp_path / "out"
    assert run_cli(tmp_path, [
        "verify", "all", "--family", "osp", "--m", "1", "--n", "2",
        "--nilpotent", "regular", "--max-degree", "260", "--primes", "",
        "--out", str(out)]) == EXIT_OK
    assert not (out / "failures.json").exists()
    narrow, wide = built
    assert (narrow.max_exponent, wide.max_exponent) == (127, 511)
    # the graded check graded every monomial of the evaluated PBW monomials
    assert max(max(wide.decode(m)) for m in wide._grades) == 130


@pytest.mark.parametrize("coords", ["x,y,z,1,1,1,1,1,1",
                                    "1/0,0,0,0,0,0,0,0,0"])
def test_cli_rejects_malformed_coordinates(tmp_path, coords):
    code = run_cli(tmp_path, [
        "verify", "all", "--family", "gl", "--m", "2", "--n", "1",
        "--nilpotent", coords, "--out", str(tmp_path / "h")])
    assert code == EXIT_CONFIG


def _rejects_max_degree(tmp_path, action):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, [
            "w", action, "--family", "osp", "--m", "1", "--n", "2",
            "--nilpotent", "regular", "--max-degree", "3",
            "--out", str(tmp_path / "i")])
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "i").exists()


def test_w_solve_has_no_degree_bound(tmp_path):
    # w solve computes neither relations nor the graded check
    _rejects_max_degree(tmp_path, "solve")


def test_w_relations_has_no_degree_bound(tmp_path):
    # the bound guards the graded check, which only verify all runs
    _rejects_max_degree(tmp_path, "relations")


def test_cli_zero_config(tmp_path):
    out = tmp_path / "f"
    code = run_cli(tmp_path, [
        "verify", "all", "--family", "gl", "--m", "1", "--n", "1",
        "--nilpotent", "zero", "--max-degree", "6", "--primes", "3",
        "--out", str(out)])
    assert code == EXIT_OK
    report = (out / "modp_report.csv").read_text().splitlines()
    assert report[0].startswith("family,m,n,e_label,p,eta_label,dim_Q,delta")
    assert "gl,1,1,zero,3,chi,36,1,36,True,True,True" in report[1]


def test_pipeline_writes_nilpotent_artifacts(tmp_path, sl21):
    cfg = PipelineConfig(family="sl", m=2, n=1, nilpotent="E12",
                         char0=CHAR0_GRADED, max_degree=10,
                         primes=(3,), eta_sweep=True,
                         out_dir=str(tmp_path / "g"))
    code, failures, written = run_pipeline(cfg)
    assert code == EXIT_OK and not failures
    data = json.loads((tmp_path / "g" / "nilpotent.json").read_text())
    nd = loaders.nilpotent_from_json(data, sl21)
    assert (nd.l, nd.q, nd.s, nd.r, nd.t) == (2, 2, 0, 2, 1)
    rows = (tmp_path / "g" / "modp_report.csv").read_text().splitlines()
    assert len(rows) == 3  # header + two eta rows


ROOT = Path(__file__).resolve().parents[1]


def test_bench_workloads_reproduce_reference_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run as bench_run
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    assert sorted(reference) == sorted(bench_run.WORKLOADS)
    for name, workload in sorted(bench_run.WORKLOADS.items()):
        out = tmp_path / name
        assert run_cli(tmp_path, bench_run.verify_argv(workload)
                       + ["--out", str(out)]) == EXIT_OK
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in out.iterdir()}
        assert digests == reference[name]["verify"], name


def test_char0_chain_calls_the_engine_by_its_public_names(tmp_path,
                                                         monkeypatch):
    # gl(3|1) regular `verify all` over Q reaches the engine's pair
    # operations through the class attributes Enveloping.q_mul and
    # Enveloping.ad_act, so that a wrapper set on the class, such as the
    # benchmark tracer's pbw.q_mul and pbw.ad_act spans, sees every call
    calls = dict.fromkeys(["q_mul", "ad_act"], 0)
    for name in calls:
        def counted(self, *args, _name=name,
                    _orig=getattr(pbw.Enveloping, name)):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(pbw.Enveloping, name, counted)
    assert run_cli(tmp_path, [
        "verify", "all", "--family", "gl", "--m", "3", "--n", "1",
        "--nilpotent", "regular", "--max-degree", "10", "--primes", "",
        "--out", str(tmp_path / "out")]) == EXIT_OK
    assert calls["q_mul"] > 0 and calls["ad_act"] > 0, calls


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    assert len(blocks) == 1
    # pad so that a traceback names the README's own line numbers
    code = "\n" * text.count("\n", 0, blocks[0].start(1)) + blocks[0][1]
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    assert ns["q"].dim == 100 and ns["q"].invariant_dimension("m") == 20
    assert ns["rw"].pbw_ok


def test_package_exports_the_readme_surface():
    import ast
    import types

    import wsuper
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S)[1]
    imported = {alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "wsuper"
                for alias in node.names}
    assert imported and imported <= set(wsuper.__all__)
    for name in wsuper.__all__:
        assert not isinstance(getattr(wsuper, name), types.ModuleType), name


def test_module_entry_point_runs_without_runtime_warning(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("WSUPER_OUT", None)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "wsuper.cli",
         "algebra", "build", "--family", "gl", "--m", "1", "--n", "1",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "algebra.json").exists()


# every error class a run can end in, with its exit code and the stderr line
# it prints when the algebra build raises it with the message "boom"
ERRORS = [(cls, EXIT_CONFIG, "configuration error: boom")
          for cls in (cli.ConfigError, AlgebraError, DegenerateFormError,
                      NilpotentError, FormNormalizationError, PresetError,
                      ReductionError)]
ERRORS += [(cls, EXIT_SOLVER, "solver failure: boom")
           for cls in (SolverError, NotInvariantError, LeadingShapeError,
                       AmbientMismatch)]
ERRORS += [(MemoryError, EXIT_MEMORY, "out of memory: algebra build")]
ERRORS += [(RuntimeError, EXIT_INTERNAL,
            "internal error: algebra build: RuntimeError: boom")]


@pytest.mark.parametrize("error, code, line", ERRORS,
                         ids=[cls.__name__ for cls, _, _ in ERRORS])
def test_each_error_ends_in_its_exit_code(tmp_path, monkeypatch, capsys,
                                          error, code, line):
    assert set(cli.CONFIG_ERRORS + cli.SOLVER_ERRORS) <= {
        cls for cls, _, _ in ERRORS}

    def fail(*args):
        raise error("boom")

    monkeypatch.setattr(cli, "build_algebra", fail)
    assert run_cli(tmp_path, [
        "algebra", "build", "--family", "gl", "--m", "1", "--n", "1",
        "--out", str(tmp_path / "x")]) == code
    assert capsys.readouterr().err == line + "\n"


OSP12_REGULAR = ["--family", "osp", "--m", "1", "--n", "2",
                 "--nilpotent", "regular"]


def _raise_memory_error(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("target, command, stage, before", [
    ((cli, "build_algebra"), ["nilpotent", "analyze"], "algebra build", []),
    ((cli, "analyze_nilpotent"), ["nilpotent", "analyze"],
     "nilpotent analysis", []),
    ((modp, "reduce_datum"), ["modp", "suite", "--primes", "3"],
     "mod-p reduction, p = 3", []),
    ((cli.WContext, "generators"), ["w", "solve"], "char-0 solve",
     ["algebra.json", "nilpotent.json"]),
    ((modp, "build_reduced_q"), ["modp", "suite", "--primes", "3,5"],
     "mod-p row, p = 3, eta = chi", ["algebra.json", "nilpotent.json"]),
], ids=["algebra", "nilpotent", "reduction", "char0", "modp-row"])
def test_memory_error_names_its_stage_and_writes_nothing_after(
        tmp_path, monkeypatch, capsys, target, command, stage, before):
    # a MemoryError is not a failed check: it exits 4, not 1, prints one
    # line, and the run writes no artifact once it is raised
    monkeypatch.setattr(*target, _raise_memory_error)
    out = tmp_path / "out"
    assert run_cli(tmp_path, command + OSP12_REGULAR
                   + ["--out", str(out)]) == EXIT_MEMORY
    captured = capsys.readouterr()
    assert captured.err == "out of memory: %s\n" % stage
    assert captured.out == ""
    assert sorted(f.name for f in out.glob("*")) == before


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.mark.parametrize("target, command, stage, before", [
    ((cli, "build_algebra"), ["nilpotent", "analyze"], "algebra build", []),
    ((cli, "analyze_nilpotent"), ["nilpotent", "analyze"],
     "nilpotent analysis", []),
    ((modp, "q_footprint"), ["modp", "suite", "--primes", "3"],
     "mod-p preflight, p = 3", []),
    ((cli.WContext, "commutator_table"), ["w", "relations"], "char-0 solve",
     ["algebra.json", "nilpotent.json"]),
    ((modp, "morita_dim_check"), ["modp", "suite", "--primes", "3,5"],
     "mod-p row, p = 3, eta = chi", ["algebra.json", "nilpotent.json"]),
    ((serialize, "nilpotent_to_json"), ["nilpotent", "analyze"],
     "writing nilpotent.json", ["algebra.json"]),
], ids=["algebra", "nilpotent", "preflight", "char0", "modp-row", "write"])
def test_internal_error_names_its_stage_and_writes_nothing_after(
        tmp_path, monkeypatch, capsys, target, command, stage, before):
    # an exception outside the typed errors is not a failed check either: it
    # exits 5, prints one line naming the stage and no traceback, and the run
    # writes no artifact once it is raised
    monkeypatch.setattr(*target, _raise_runtime_error)
    out = tmp_path / "out"
    assert run_cli(tmp_path, command + OSP12_REGULAR
                   + ["--out", str(out)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.err == "internal error: %s: RuntimeError: boom\n" % stage
    assert captured.out == ""
    assert sorted(f.name for f in out.glob("*")) == before


def test_a_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    # the rename of the first artifact over its name fails, as on a full
    # disk: the run exits 5 naming the write, and the output directory holds
    # neither the artifact nor its temp file
    def no_space(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(serialize.os, "replace", no_space)
    out = tmp_path / "out"
    assert run_cli(tmp_path, ["algebra", "build"] + OSP12_REGULAR[:6]
                   + ["--out", str(out)]) == EXIT_INTERNAL
    assert capsys.readouterr().err == (
        "internal error: writing algebra.json: OSError: [Errno %d] %s\n"
        % (errno.ENOSPC, os.strerror(errno.ENOSPC)))
    assert list(out.iterdir()) == []


SL21_E12 = ["--family", "sl", "--m", "2", "--n", "1", "--nilpotent", "E12"]


def _oversized(p):
    # sl(2|1) E12: dim Q = p^3 * 2^3
    return (r"p = %d: dim Q = %d needs about \d+ bytes, more than the \d+"
            r" bytes of physical memory" % (p, 8 * p ** 3))


@pytest.mark.parametrize("shape, primes, last_line", [
    (SL21_E12, "4", re.escape("prime field needs an odd prime, got 4")),
    (SL21_E12, "2147483647", _oversized(2147483647)),
    (["--family", "sl", "--m", "4", "--n", "1"], "3",
     re.escape("p = 3 rejected for sl(4, 1): p divides m - n = 3")),
], ids=["not-prime", "q-past-memory", "divides-m-n"])
def test_rejected_prime_leaves_no_artifact(tmp_path, capsys, shape, primes,
                                           last_line):
    # the restriction is checked before the algebra is built, the size of Q
    # and then primality before the datum is reduced mod any prime
    out = tmp_path / "out"
    assert run_cli(tmp_path, ["modp", "suite"] + shape + [
        "--primes", primes, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert re.fullmatch("configuration error: " + last_line, err[-1]), err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("primes, last_line", [
    ("2147483647", _oversized(2147483647)),
    ("618970019642690137449562111", _oversized(2 ** 89 - 1)),
    ("4", re.escape("prime field needs an odd prime, got 4")),
    ("9", re.escape("prime field needs an odd prime, got 9")),
], ids=["2^31-1", "2^89-1", "4", "9"])
def test_verify_all_refuses_a_prime_within_5_s(tmp_path, primes, last_line):
    # the size of Q is the one gate on p, and it comes before the O(sqrt p)
    # primality test: trial division of 2^89 - 1 would not end
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop(cli.ENV_OUT, None)
    start = time.monotonic()
    run = subprocess.run(
        [sys.executable, "-m", "wsuper.cli", "verify", "all"] + SL21_E12
        + ["--primes", primes, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=30)
    assert time.monotonic() - start < 5
    assert run.returncode == EXIT_CONFIG, run.stderr
    assert re.fullmatch("configuration error: " + last_line,
                        run.stderr.splitlines()[-1]), run.stderr
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("shape, primes, last_line", [
    (["--family", "gl", "--m", "3", "--n", "1", "--nilpotent", "regular"], "3",
     "p = 3 divides an adapted-basis denominator: denominator of 1/3"
     " vanishes mod 3"),
    (["--family", "osp", "--m", "1", "--n", "4", "--nilpotent",
      "0,0,1,0,0,0,0,0,-1,0,0,0,0,0"], "5,3",
     "p = 5 divides an adapted-basis denominator: denominator of 3/5"
     " vanishes mod 5"),
], ids=["gl31-regular", "osp14-sp4-principal"])
def test_prime_dividing_a_datum_denominator_leaves_no_artifact(
        tmp_path, capsys, monkeypatch, shape, primes, last_line):
    # the datum is reduced mod every prime before any artifact is written,
    # and before the char-0 chain spends its time
    solved = []
    monkeypatch.setattr(cli.WContext, "generators",
                        lambda self: solved.append(self))
    out = tmp_path / "out"
    assert run_cli(tmp_path, ["verify", "all"] + shape + [
        "--primes", primes, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "configuration error: " + last_line
    assert list(out.glob("*")) == [] and not solved


ODD_R = {
    # osp(3|2), e the root vector of sp(2): r = 1
    "osp32": ("osp", 3, 2, "0,0,0,1,0,0,0,0,0,0,0,0"),
    # osp(1|4), e the principal nilpotent of sp(4)
    "osp14": ("osp", 1, 4, "0,0,1,0,0,0,0,0,-1,0,0,0,0,0"),
}


@pytest.mark.parametrize("case", sorted(ODD_R))
def test_odd_r_char0_chain_beyond_osp12(tmp_path, monkeypatch, case):
    # the paper's odd case: m' = m + <v_mid> and the extra odd generator
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    family, m, n, e = ODD_R[case]
    code, failures, _ = run_pipeline(PipelineConfig(
        family=family, m=m, n=n, nilpotent=e, out_dir=str(tmp_path)))
    assert code == EXIT_OK and not failures
    nd = json.loads((tmp_path / "nilpotent.json").read_text())
    pres = json.loads((tmp_path / "wpresentation.json").read_text())
    assert nd["dims"]["r"] % 2 == 1
    assert nd["middle_norm"] is not None
    assert pres["middle_norm"] == nd["middle_norm"]


def test_odd_r_modp_row_beyond_osp12(tmp_path, monkeypatch):
    # osp(3|2) at p = 3, eta = chi: the m'-invariants, Morita, PBW and
    # Whittaker checks of an odd-r row on a 7776-dimensional Q
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    family, m, n, e = ODD_R["osp32"]
    code, failures, _ = run_pipeline(PipelineConfig(
        family=family, m=m, n=n, nilpotent=e, primes=(3,),
        out_dir=str(tmp_path)))
    assert code == EXIT_OK and failures == []
    report = json.loads((tmp_path / "modp_report.json").read_text())
    assert report["rows"] == [{
        "family": "osp", "m": 3, "n": 2, "e_label": e, "p": 3,
        "eta_label": "chi", "dim_Q": 7776, "delta": 6, "dim_W": 1296,
        "morita_ok": True, "prop_small_ok": True, "pbw_ok": True}]


OSP12 = ["--family", "osp", "--m", "1", "--n", "2"]
SETUP = {"algebra.json", "nilpotent.json"}
MODP = {"modp_report.csv", "modp_report.json"}
ARTIFACTS = {
    ("algebra", "build"): ([], SETUP),
    ("nilpotent", "analyze"): (["--nilpotent", "regular"], SETUP),
    ("w", "solve"): (["--nilpotent", "regular"], SETUP | {"wpresentation.json"}),
    ("w", "relations"): (["--nilpotent", "regular"],
                         SETUP | {"wpresentation.json"}),
    ("modp", "suite"): (["--nilpotent", "regular", "--primes", "3"],
                        SETUP | MODP),
    ("verify", "all"): (["--nilpotent", "regular", "--primes", "3"],
                        SETUP | MODP | {"wpresentation.json"}),
}


def test_each_command_writes_its_artifacts(tmp_path):
    assert sorted(ARTIFACTS) == sorted(cli.COMMANDS)
    relations = {}
    for (command, action), (extra, names) in ARTIFACTS.items():
        out = tmp_path / command / action
        assert run_cli(tmp_path, [command, action] + OSP12 + extra
                       + ["--out", str(out)]) == EXIT_OK
        assert {f.name for f in out.iterdir()} == names, (command, action)
        if "wpresentation.json" in names:
            data = json.loads((out / "wpresentation.json").read_text())
            relations[command, action] = data["relations"]
    assert relations[("w", "solve")] == []
    assert relations[("w", "relations")] == relations[("verify", "all")] != []


GL11 = ["--family", "gl", "--m", "1", "--n", "1"]
PARSER_CASES = (
    [[c, a, *GL11, "--out", "o"] for c, a in cli.COMMANDS]
    + [["verify", "all", *GL11, "--nilpotent", "regular", "--max-degree",
        "4", "--primes", "3,5", "--eta-sweep"]]
    + [["-h"], []]
    + [[c, "-h"] for c in dict.fromkeys(c for c, _ in cli.COMMANDS)]
    + [[c, a, "-h"] for c, a in cli.COMMANDS]
    + [["nope"], ["verify", "al", *GL11], ["verify", "all", "--family", "gl",
                                             "--m", "1"],
       ["verify", "all", "--family", "gl", "--m", "x", "--n", "1"],
       ["w", "solve", "--family", "e8", "--m", "1", "--n", "1"],
       ["algebra", "build", *GL11, "--primes", "3"]])


def _main_outcome(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_the_one_command_parser_behaves_as_the_full_one(argv, monkeypatch,
                                                        capsys):
    # each run "writes" its parsed config, so stdout shows what was parsed
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda cfg: (EXIT_OK, [], [repr(cfg)]))
    monkeypatch.setenv("COLUMNS", "80")
    one = _main_outcome(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert one == _main_outcome(argv, capsys)
    built = list(full(argv)._subparsers._group_actions[0].choices)
    every = list(dict.fromkeys(c for c, _ in cli.COMMANDS))
    assert built == ([argv[0]] if tuple(argv[:2]) in cli.COMMANDS else every)
