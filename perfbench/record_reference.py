#!/usr/bin/env python3
"""Record the reference outputs that run.py checks against.

    python3 perfbench/record_reference.py --seeds 0-23,2024

Runs one traced body of every workload per seed and stores what its
observation holds (digests of exact outputs, chaos vectors in full) in
perfbench/reference.json. Record only from a commit whose outputs are
known good; a seed whose outputs break an invariant is refused.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import checks
import run
import tracer


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seeds, default=[2024])
    p.add_argument("--workload", action="append", default=None)
    args = p.parse_args(argv)

    run._load_program()
    from workloads import WORKLOADS

    data = json.loads(checks.REFERENCE.read_text()) if checks.REFERENCE.is_file() else {}
    run.OUT.mkdir(exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        wl = WORKLOADS[name]
        for seed in args.seeds:
            workdir = tempfile.mkdtemp(prefix="record-", dir=run.OUT)
            try:
                state = wl.setup(seed, workdir)
                tr = tracer.Tracer()
                with tracer.instrument(tr):
                    _, out, captured, error = run.run_body(wl, state)
                f = checks.Findings()
                obs = wl.observe(state, out, captured, f)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if error or f.problems or set(out) != set(wl.ops):
                sys.exit(f"{name} seed {seed}: not recorded: {error or dict(f.problems)}")
            data.setdefault(name, {})[str(seed)] = obs
            print(f"recorded {name} seed {seed}", flush=True)
    checks.REFERENCE.write_text(_dump(data))
    return 0


def _dump(data: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for name in sorted(data):
        lines = [
            f"  {json.dumps(seed)}: {json.dumps(data[name][seed], sort_keys=True)}"
            for seed in sorted(data[name], key=int)
        ]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
