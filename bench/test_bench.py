"""Smoke tests of the benchmark on osp(1|2) regular at p = 3."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import benchtrace  # noqa: E402
import run  # noqa: E402

SMOKE = run.Workload(
    ("--family", "osp", "--m", "1", "--n", "2", "--nilpotent", "regular"),
    ("--max-degree", "10", "--primes", "3"))


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("reference"))
    verify = run.run_cli("verify", run.verify_argv(SMOKE), work, {})
    setup = run.run_cli("setup", run.setup_argv(SMOKE), work, {})
    assert "modp_report.csv" in verify.digests
    return {"verify": verify.digests, "setup": setup.digests}


def _printed(lines):
    return {line.split()[0]: line.split()[1:3] for line in lines[2:]
            if not line.startswith(("unscaled ", "calibrate_s ", "scaled "))}


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(spec, reference, tmp_path, trace,
                                           key):
    metrics, runs, notes = run.measure(SMOKE, reference, 7, 0.1, trace,
                                       str(tmp_path))
    lines, result = run.report("smoke", 7, trace, metrics, runs, notes)
    printed = _printed(lines)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        value, unit = printed[m["name"]]
        assert unit == m["unit"]
        float(value)
    assert printed["error_rate"][0] == "0.0"


def test_traced_artifacts_match_untraced(reference, tmp_path):
    traced = run.run_cli("traced", run.verify_argv(SMOKE), str(tmp_path),
                         reference["verify"], trace=True)
    assert traced.ok and traced.digests == reference["verify"]
    assert traced.trace["cli.modp_row_calls"] == (1, "count")


def test_wrappers_are_gone_afterwards(tmp_path, monkeypatch):
    from wsuper import cli, pbw
    monkeypatch.delenv("WSUPER_OUT", raising=False)
    targets = [(owner, attr) for owner, attr, _, _
               in benchtrace._targets(benchtrace.Tracer())]
    targets.append((pbw.Enveloping, "__init__"))
    before = [vars(owner)[attr] for owner, attr in targets]
    with benchtrace.Tracer() as tracer:
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(targets, before))
        code = cli.main(list(run.verify_argv(SMOKE))
                        + ["--out", str(tmp_path)])
    assert code == 0 and tracer.spans and tracer.memo_entries > 0
    assert all(vars(owner)[attr] is orig
               for (owner, attr), orig in zip(targets, before))


def test_tampered_digest_is_a_failed_run(reference, tmp_path):
    name = sorted(reference["verify"])[0]
    tampered = dict(reference, verify=dict(reference["verify"],
                                           **{name: "0" * 64}))
    metrics, runs, _ = run.measure(SMOKE, tampered, 7, 0.1, 1, str(tmp_path))
    lines, result = run.report("smoke", 7, 1, metrics, runs)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert _printed(lines)["error_rate"][0] == "1.0"


def test_calibrator_times_a_pass_and_is_reaped():
    cpu = min(os.sched_getaffinity(0))
    with run.Calibrator() as calibrator:
        assert calibrator.measure(cpu) > 0
    assert calibrator.proc.returncode == 0
