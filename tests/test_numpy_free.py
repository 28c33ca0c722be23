"""A wsuper process never loads numpy: the package, the char-0 chain and
the mod-p rows of both parities of r run on the standard library alone.
numpy serves only the tests' dense oracles.  Nor does it load
`dataclasses`, or the `inspect` that `dataclasses` imports: together they
were about half of the package's import time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

WATCHED = ("numpy", "dataclasses", "inspect")

# runs the CLI on its arguments (none: only imports it), then prints the
# watched modules that were loaded
PROBE = """
import sys
from wsuper.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(" ".join(m for m in %r if m in sys.modules))
sys.exit(code)
""" % (WATCHED,)

RUNS = {
    "import": [],
    "odd-r": ["verify", "all", "--family", "osp", "--m", "1", "--n", "2",
              "--nilpotent", "regular", "--primes", "3", "--eta-sweep"],
    "even-r": ["verify", "all", "--family", "sl", "--m", "2", "--n", "1",
               "--nilpotent", "E12", "--primes", "3"],
}


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """run name -> the set of watched modules its process loaded; each run
    is one process, shared by the tests below."""
    seen = {}

    def probe(run):
        if run not in seen:
            out = ["--out", str(tmp_path_factory.mktemp(run))]
            argv = RUNS[run] + (out if RUNS[run] else [])
            env = dict(os.environ, PYTHONPATH=SRC)
            env.pop("WSUPER_OUT", None)
            done = subprocess.run([sys.executable, "-c", PROBE] + argv,
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == 0, done.stderr
            seen[run] = set(done.stdout.splitlines()[-1].split())
        return seen[run]

    return probe


@pytest.mark.parametrize("run", sorted(RUNS))
def test_the_process_never_loads_numpy(loaded, run):
    assert "numpy" not in loaded(run)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_the_process_loads_neither_dataclasses_nor_inspect(loaded, run):
    assert not {"dataclasses", "inspect"} & loaded(run)
