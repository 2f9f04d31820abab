"""Run one ``repro`` CLI command with every layer wrapped in spans.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/tracer.py TRACE_DIR variance --qubits 2 4 ...

Everything after ``TRACE_DIR`` is passed to ``repro.cli.main``
unchanged.  The process records ``cli.import`` (``import repro.cli``),
``trace.install`` (wrapping) and ``cli.main`` (the command) around the
layer spans of :mod:`layers`, and writes its totals to ``TRACE_DIR/<pid>.json`` when
the command returns.  Forked pool workers inherit the wrappers and flush
after every unit; long-lived commands (``serve``, ``worker``) write
their totals whenever they receive ``SIGUSR1``.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path


def main(argv: list) -> int:
    import layers

    trace_dir = Path(argv[0])
    start = time.perf_counter()
    import repro.cli

    layers.REC.total["cli.import"] = layers.REC.self_s["cli.import"] = (
        time.perf_counter() - start
    )
    layers.REC.calls["cli.import"] = 1
    # Wrapping imports modules the command might not: tracing overhead,
    # kept in its own span so the self times still add up.
    layers.REC.span("trace.install", layers.install, (trace_dir,), {})
    signal.signal(signal.SIGUSR1, lambda *_: layers.REC.dump(trace_dir))
    try:
        return layers.REC.span("cli.main", repro.cli.main, (argv[1:],), {})
    finally:
        layers.REC.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
