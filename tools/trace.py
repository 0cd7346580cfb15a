#!/usr/bin/env python3
"""Run one phaseshape command under the perfbench tracer; print where its time went.

    python3 tools/trace.py ARGV...

ARGV is what the `phaseshape` command takes, for example

    python3 tools/trace.py classify --synthetic lorenz-rossler --per-class 10

The command runs as `phaseshape.cli.main(ARGV)` against the src/ of this
checkout, with the layers' public functions wrapped by
`perfbench/tracer.instrument`. Its stdout and the files it writes are those
of an untraced run. When it ends, the per-layer metrics of
`tracer.layer_metrics` (defined in perfbench/README.md) go to stderr, rows
that read zero left out. The exit code is the command's.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracer  # noqa: E402
from phaseshape import cli  # noqa: E402


def main(argv: list[str]) -> int:
    tr = tracer.Tracer()
    start = time.perf_counter()
    with tracer.instrument(tr):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    print(
        f"trace: exit {code}, wall {wall:.3f} s, {len(tr.spans)} spans; per-layer metrics:",
        file=sys.stderr,
    )
    for name, value in tracer.layer_metrics(tr.spans).items():
        if value:
            print(f"  {name:<44} {value:>12.6g}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
