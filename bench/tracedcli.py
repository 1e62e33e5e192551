"""Run one causalflag subcommand under the span tracer.

    python bench/tracedcli.py <subcommand> [flags...]

Behaves like ``python -m causalflag.cli``; when the command ends, its spans
are written to the .npz file named by the BENCH_TRACE_FILE variable.
"""

import os
import sys

import causalflag.cli as cli
from tracer import Tracer


def main() -> int:
    tracer = Tracer().install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["BENCH_TRACE_FILE"])


if __name__ == "__main__":
    sys.exit(main())
