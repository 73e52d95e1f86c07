"""Start ``repro.server`` with the benchmark's span wrappers installed.

::

    python3 perfbench/launch_server.py SPANS_FILE -- [repro.server args]

The wrappers record nothing until the process receives ``SIGUSR1``;
``SIGUSR2`` stops recording. When the server exits (``SIGINT``) the
recorded spans are written to ``SPANS_FILE``.
"""

from __future__ import annotations

import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    spans_file, separator, *server_args = argv
    if separator != "--":
        raise SystemExit("usage: launch_server.py SPANS_FILE -- ARGS...")
    sys.path.insert(0, ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from perfbench.trace import Tracer, write_spans
    from repro.server.__main__ import main as serve_main

    tracer = Tracer()
    tracer.op = None  # a span tree per request
    tracer.install()

    def toggle(signum, _frame):
        tracer.active = signum == signal.SIGUSR1

    signal.signal(signal.SIGUSR1, toggle)
    signal.signal(signal.SIGUSR2, toggle)
    try:
        serve_main(server_args)
    finally:
        tracer.active = False
        write_spans(spans_file, tracer.spans)


if __name__ == "__main__":
    main(sys.argv[1:])
