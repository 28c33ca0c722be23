import hashlib
import json
import os
import re
from pathlib import Path

import pytest

from wsuper import serialize
from wsuper.cli import EXIT_CONFIG, EXIT_OK, PipelineConfig, main, run_pipeline
from wsuper.serialize import SchemaError


def test_algebra_round_trip(sl21):
    data = serialize.algebra_to_json(sl21)
    back = serialize.algebra_from_json(data)
    assert serialize.algebra_to_json(back) == data
    assert back.structure == sl21.structure
    assert back.gram == sl21.gram


def test_algebra_round_trip_mod_p(sl21):
    from wsuper import modp
    mod = modp.reduce_mod_p(sl21, 3)
    data = serialize.algebra_to_json(mod.base)
    back = serialize.algebra_from_json(data)
    assert serialize.algebra_to_json(back) == data
    assert back.p_map == mod.base.p_map


def test_nilpotent_round_trip(sl21, nd_sl21_e12):
    data = serialize.nilpotent_to_json(nd_sl21_e12)
    back = serialize.nilpotent_from_json(data, sl21)
    assert back == nd_sl21_e12
    assert serialize.nilpotent_to_json(back) == data


def test_nilpotent_reload_detects_tampering(sl21, nd_sl21_e12):
    data = json.loads(json.dumps(serialize.nilpotent_to_json(nd_sl21_e12)))
    data["chi"][0] = "1/2"
    with pytest.raises(SchemaError):
        serialize.nilpotent_from_json(data, sl21)


def test_presentation_round_trip(ctx_osp12):
    pres = ctx_osp12.commutator_table()
    data = serialize.presentation_to_json(pres, ctx_osp12)
    back = serialize.presentation_from_json(data, ctx_osp12)
    assert serialize.presentation_to_json(back, ctx_osp12) == data
    assert back.relations == pres.relations


def test_schema_version_enforced(sl21):
    data = serialize.algebra_to_json(sl21)
    data["schema"] = "wsuper/0"
    with pytest.raises(SchemaError):
        serialize.algebra_from_json(data)


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
    code = run_cli(tmp_path, [
        "w", "relations", "--family", "sl", "--m", "2", "--n", "1",
        "--nilpotent", "E12", "--max-degree", "3", "--out", str(tmp_path / "e")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("coords", ["x,y,z,1,1,1,1,1,1",
                                    "1/0,0,0,0,0,0,0,0,0"])
def test_cli_rejects_malformed_coordinates(tmp_path, coords):
    code = run_cli(tmp_path, [
        "verify", "all", "--family", "gl", "--m", "2", "--n", "1",
        "--nilpotent", coords, "--out", str(tmp_path / "h")])
    assert code == EXIT_CONFIG


def test_w_solve_has_no_degree_bound(tmp_path):
    # w solve computes neither relations nor the graded check
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, [
            "w", "solve", "--family", "osp", "--m", "1", "--n", "2",
            "--nilpotent", "regular", "--max-degree", "3",
            "--out", str(tmp_path / "i")])
    assert exc.value.code == EXIT_CONFIG


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
                         char0_enabled=True, relations=True, max_degree=10,
                         primes=(3,), eta_sweep=True,
                         out_dir=str(tmp_path / "g"))
    code, failures, written = run_pipeline(cfg)
    assert code == EXIT_OK and not failures
    data = serialize.load_json(os.path.join(cfg.out_dir, "nilpotent.json"))
    nd = serialize.nilpotent_from_json(data, sl21)
    assert nd.dims_tuple() == (2, 2, 0, 2, 1)
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
