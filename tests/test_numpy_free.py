"""A wsuper process never loads numpy: the package, the char-0 chain and
the mod-p rows of both parities of r run on the standard library alone.
numpy serves only the tests' dense oracles."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# runs the CLI on its arguments (none: only imports it), then prints
# whether numpy was loaded
PROBE = """
import sys
from wsuper.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print("numpy" in sys.modules)
sys.exit(code)
"""

RUNS = {
    "import": [],
    "odd-r": ["verify", "all", "--family", "osp", "--m", "1", "--n", "2",
              "--nilpotent", "regular", "--primes", "3", "--eta-sweep"],
    "even-r": ["verify", "all", "--family", "sl", "--m", "2", "--n", "1",
               "--nilpotent", "E12", "--primes", "3"],
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_the_process_never_loads_numpy(tmp_path, run):
    argv = RUNS[run] + (["--out", str(tmp_path)] if RUNS[run] else [])
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("WSUPER_OUT", None)
    done = subprocess.run([sys.executable, "-c", PROBE] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
