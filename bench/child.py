"""One wsuper CLI process for the benchmark.

    python3 bench/child.py TRACE_PATH CLI_ARGS...

Runs ``wsuper.cli.main(CLI_ARGS)`` from the checkout's ``src`` and exits with
its code.  With TRACE_PATH other than ``-`` the run is traced (see
`benchtrace.Tracer`) and the spans are written to TRACE_PATH afterwards.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    from wsuper.cli import main as cli_main
    if trace_path == "-":
        return cli_main(cli_args)
    from benchtrace import Tracer
    with Tracer() as tracer:
        code = cli_main(cli_args)
    tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
