"""Serial reference results for many specs in one process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/reference.py OUT_DIR SPEC.json [SPEC.json ...]

Runs ``repro run SPEC --executor serial --output OUT_DIR/<name>`` for
each spec through ``repro.cli.main`` — the same code path as the CLI,
without paying interpreter start-up and import once per spec.  The CLI's
tables go to ``/dev/null``.
"""

from __future__ import annotations

import contextlib
import os
import sys
from pathlib import Path


def main(argv: list) -> int:
    from repro.cli import main as repro_main

    out_dir = Path(argv[0])
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for spec in argv[1:]:
            target = out_dir / Path(spec).name
            code = repro_main(
                ["run", spec, "--executor", "serial", "--output", str(target)]
            )
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
