"""Run a ``repro-bench`` service with the worker-side span wrappers installed.

Usage (the benchmark starts it; ``PYTHONPATH`` holds ``src`` and the repo
root)::

    python perfbench/traced_service.py --spans FILE worker --port 0 --workers 1

Everything after ``--spans FILE`` is handed to ``repro.cli.main``
unchanged, so the service prints the same ``listening on`` and ``drained,
exiting`` lines. When the CLI returns (SIGTERM drains it) the spans are
written to FILE as JSON and the wrappers are removed.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: traced_service.py --spans FILE <repro-bench args>", file=sys.stderr)
        return 2
    spans_file, cli_args = argv[1], argv[2:]
    from perfbench.tracing import Tracer, install
    from repro.cli import main as cli_main

    tracer = Tracer()
    patches = install(tracer, "worker")
    try:
        code = cli_main(cli_args)
    finally:
        patches.restore()
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
