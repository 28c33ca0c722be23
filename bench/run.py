"""The wsuper benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured run is a fresh ``wsuper.cli.main`` process (bench/child.py),
timed from outside, with an empty output directory whose artifacts must match
the sha256 digests in bench/reference.json.  Load is a closed loop with one
client: one CLI process at a time, BLAS threads capped at the CPUs the
process may use.  wsuper is deterministic and takes no random input, so the
seed only permutes how set-up runs and verify runs are interleaved.

``--trace 0`` reports the end-to-end metrics: the wall time and peak RSS of
the run's `verify all` processes, and as set-up time the wall time of
SETUP_RUNS `nilpotent analyze` processes on the same algebra and nilpotent
(interpreter start, imports, algebra, form, nilpotent datum).  On a shared
host each CPU switches, every few seconds, between speeds some 40% apart, so
raw wall times of the same run spread by tens of percent.  Each of these
processes therefore runs pinned to one CPU (in turn, so with one BLAS
thread; wsuper's mod-p kernels are elementwise numpy and single-threaded),
and a fixed reference workload (bench/calibrate.py) is timed on that CPU
right before and right after it.  ``wall_s`` and ``setup_s`` are medians of
``REF_CALIBRATE_S * wall / mean(calibration before, calibration after)``:
wall times at the CPU speed where the reference workload takes
REF_CALIBRATE_S.  Unscaled medians and minima are printed beside them.
Failed processes (nonzero exit or a digest mismatch) are counted in the
result's ``failed`` and printed as ``error_rate``; a failed calibration
aborts the run.

``--trace 1`` runs one traced process (bench/benchtrace.py) and reports the
per-layer metrics, plus the tracing overhead against untraced runs made in
the same invocation.  Every metric is printed as ``name value unit`` and the
last line of standard output is the JSON result.
"""

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

from benchtrace import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "wsuper")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_RUNS = 7
CHILD_TIMEOUT_S = 150
# About bench/calibrate.py's time on an undisturbed CPU of the host that
# bench/baseline.json was recorded on, so that scaled times read roughly in
# that host's undisturbed seconds.
REF_CALIBRATE_S = 0.25


class Workload(NamedTuple):
    shape: tuple     # family, shape and nilpotent: shared by set-up and verify
    options: tuple   # the rest of `verify all`


# Why each workload is here: see "workloads" in BENCHMARK.json.
WORKLOADS = {
    "modp-sl21-e12": Workload(
        ("--family", "sl", "--m", "2", "--n", "1", "--nilpotent", "E12"),
        ("--max-degree", "10", "--primes", "5")),
    "char0-gl31-reg": Workload(
        ("--family", "gl", "--m", "3", "--n", "1", "--nilpotent", "regular"),
        ("--max-degree", "10", "--primes", "")),
    "oddr-osp12-sweep": Workload(
        ("--family", "osp", "--m", "1", "--n", "2", "--nilpotent", "regular"),
        ("--max-degree", "10", "--primes", "3,5,7,11", "--eta-sweep")),
}

# Layer metrics derived from call arguments and results, not measured.
COMPUTED = ("_cells", "_nnz", "linalg.modp_ops", "linalg.modp_bytes")

# Which end-to-end metric, on which workload, each layer metric should move;
# the first matching prefix wins.
MOVES = [
    ("superalgebra.", "setup_s, mainly on char0-gl31-reg"),
    ("nilpotent.", "setup_s, mainly on char0-gl31-reg"),
    ("wchar0.", "wall_s on char0-gl31-reg"),
    ("linalg.solve_affine", "wall_s on char0-gl31-reg; no change on mod-p"),
    ("pbw.", "wall_s on char0-gl31-reg"),
    ("linalg.rank_mod_p", "wall_s, peak_rss_mb on modp-sl21-e12;"
     " wall_s on oddr-osp12-sweep; no change on char0-gl31-reg"),
    ("linalg.rref_mod_p", "wall_s, peak_rss_mb on modp-sl21-e12;"
     " wall_s on oddr-osp12-sweep; no change on char0-gl31-reg"),
    ("linalg.modp_", "wall_s, peak_rss_mb on modp-sl21-e12;"
     " wall_s on oddr-osp12-sweep; no change on char0-gl31-reg"),
    ("linalg.rank", "wall_s on char0-gl31-reg"),
    ("modp.q_", "wall_s on modp-sl21-e12"),
    ("modp.dim_q_max", "wall_s on modp-sl21-e12"),
    ("modp.build_q", "wall_s on modp-sl21-e12"),
    ("modp.mprime", "wall_s on oddr-osp12-sweep"),
    ("modp.", "wall_s on modp-sl21-e12 and oddr-osp12-sweep"),
    ("cli.modp_row", "wall_s on modp-sl21-e12 and oddr-osp12-sweep"),
    ("serialize.", "nothing: a guard"),
    ("trace.", "nothing: the cost of tracing"),
]


class Run(NamedTuple):
    kind: str
    wall_s: float
    rss_mb: float
    ok: bool
    digests: dict
    trace: object


def moves(metric):
    return next(text for prefix, text in MOVES if metric.startswith(prefix))


def blas_threads():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env.pop("WSUPER_OUT", None)  # it would redirect the artifacts
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def setup_argv(workload):
    return ["nilpotent", "analyze", *workload.shape]


def verify_argv(workload):
    return ["verify", "all", *workload.shape, *workload.options]


def digests(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Calibrator:
    """The reference workload bench/calibrate.py in a process of its own."""

    def __enter__(self):
        env = dict(child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, CALIBRATE], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def measure(self, cpu):
        """Wall seconds of one pass on `cpu`."""
        os.sched_setaffinity(self.proc.pid, {cpu})
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("bench/calibrate.py stopped: exit %s"
                               % self.proc.wait())
        return float(line)

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def run_cli(kind, cli_args, work, expected, trace=False):
    """One CLI process with a fresh output directory, timed from outside."""
    out = tempfile.mkdtemp(prefix="out-", dir=work)
    err_path = out + ".stderr"
    trace_path = out + ".trace.json"
    try:
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, CHILD, trace_path if trace else "-",
                 *cli_args, "--out", out],
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        found = digests(out)
        ok = proc.returncode == 0 and found == expected
        if not ok:
            with open(err_path, "rb") as fh:
                sys.stderr.write("%s run failed: exit %d, artifacts %s\n%s"
                                 % (kind, proc.returncode,
                                    "match" if found == expected else "differ",
                                    fh.read().decode(errors="replace")))
        summary = None
        if trace and proc.returncode == 0:
            with open(trace_path) as fh:
                summary = summarize(json.load(fh))
        return Run(kind, wall, usage.ru_maxrss / 1024.0, ok, found, summary)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        for path in (err_path, trace_path):
            if os.path.exists(path):
                os.remove(path)


def measure(workload, reference, seed, seconds, trace, work):
    """Runs one workload for about `seconds`: (metrics, runs, notes).

    metrics maps a name to (value, unit); notes are extra lines to print."""
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    runs = []

    def verify(traced=False):
        runs.append(run_cli("traced" if traced else "verify",
                            verify_argv(workload), work, reference["verify"],
                            trace=traced))

    def setup():
        runs.append(run_cli("setup", setup_argv(workload), work,
                            reference["setup"]))

    def walls(kind):
        return [r.wall_s for r in runs if r.kind == kind]

    if trace:
        # one traced run and at least one untraced run, in seeded order
        for traced in rng.sample([True, False], 2):
            verify(traced)
        while time.perf_counter() + statistics.median(walls("verify")) \
                <= deadline:
            verify()
        traced_run = next(r for r in runs if r.kind == "traced")
        metrics = dict(traced_run.trace or {})
        metrics["trace.total_s"] = (traced_run.wall_s, "s")
        metrics["trace.overhead_s"] = (
            traced_run.wall_s - statistics.median(walls("verify")), "s")
        return metrics, runs, []

    # calib[i] is the mean calibration time right before and after runs[i],
    # on the one CPU that all three ran on
    cpus = sorted(os.sched_getaffinity(0))
    calib = []

    def pinned(run_one):
        cpu = cpus[len(runs) % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        before = calibrator.measure(cpu)
        run_one()
        calib.append((before + calibrator.measure(cpu)) / 2)

    def ratios(kind):
        return [REF_CALIBRATE_S * r.wall_s / c
                for r, c in zip(runs, calib) if r.kind == kind]

    pending = SETUP_RUNS
    with Calibrator() as calibrator:
        try:
            while True:
                rounds = ["verify"] + (["setup"] if pending else [])
                for kind in rng.sample(rounds, len(rounds)):
                    pinned(verify if kind == "verify" else setup)
                pending -= len(rounds) - 1
                if time.perf_counter() + statistics.median(walls("verify")) \
                        + 2 * statistics.median(calib) > deadline:
                    break
            for _ in range(pending):
                pinned(setup)
        finally:
            os.sched_setaffinity(0, cpus)
    metrics = {
        "wall_s": (statistics.median(ratios("verify")), "s"),
        "peak_rss_mb": (statistics.median(
            r.rss_mb for r in runs if r.kind == "verify"), "MB"),
        "setup_s": (statistics.median(ratios("setup")), "s"),
    }
    unscaled = (("wall_s", walls("verify")), ("setup_s", walls("setup")),
                ("calibrate_s", calib))
    notes = ["unscaled " + ", ".join(
                 "%s median %r min %r" % (name, statistics.median(x), min(x))
                 for name, x in unscaled)
             + "; reference calibrate_s %r" % REF_CALIBRATE_S,
             "calibrate_s samples %s" % json.dumps([round(c, 4)
                                                    for c in calib]),
             "scaled samples %s" % json.dumps(
                 {kind: [round(v, 4) for v in ratios(kind)]
                  for kind in ("setup", "verify")}, sort_keys=True)]
    return metrics, runs, notes


def context(trace):
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    lines, sha = 0, hashlib.sha256()
    for name in files:
        with open(os.path.join(SRC, name), "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        sha.update(name.encode() + b"\0" + data)
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"src_lines": lines, "src_sha256": sha.hexdigest(),
            "commit": commit, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            # untraced runs pin each process to one CPU (see measure)
            "blas_threads": blas_threads() if trace else 1}


def report(name, seed, trace, metrics, runs, notes=()):
    """The printed lines, and the result object for the last line."""
    failed = sum(1 for r in runs if not r.ok)
    samples = {}
    for r in runs:
        samples.setdefault(r.kind, []).append(round(r.wall_s, 4))
    lines = ["context " + json.dumps(context(trace), sort_keys=True),
             "workload %s seed %d trace %d wall_s samples %s"
             % (name, seed, trace, json.dumps(samples, sort_keys=True)),
             *notes]
    for metric, (value, unit) in metrics.items():
        note = ""
        if trace:
            note = "  [moves %s%s]" % (moves(metric), "; computed"
                                       if metric.endswith(COMPUTED) else "")
        lines.append("%s %r %s%s" % (metric, value, unit, note))
    lines.append("error_rate %r 1  (%d of %d runs failed)"
                 % (failed / len(runs), failed, len(runs)))
    result = {"correct": failed == 0, "attempted": len(runs),
              "failed": failed,
              "metrics": {m: {"value": v, "unit": u}
                          for m, (v, u) in metrics.items()}}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its CLI child (run_cli)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isdir(SRC):
        print("bench: no wsuper sources at %s" % SRC, file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)[args.workload]
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        metrics, runs, notes = measure(WORKLOADS[args.workload], reference,
                                       args.seed, args.seconds, args.trace,
                                       work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    lines, result = report(args.workload, args.seed, args.trace, metrics, runs,
                           notes)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
