#!/usr/bin/env python3
"""phaseshape benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload synthetic-shape --seed 2024 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A results file with the run context goes to
perfbench/out/, and a traced run also writes the last traced body's spans
there. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 7


def metric_units(trace: int) -> dict[str, str]:
    """The reported metrics and their units, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _load_program():
    """Import phaseshape from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import phaseshape
    except ImportError as e:
        sys.exit(f"perfbench: cannot import phaseshape from {SRC}: {e}")
    if not Path(phaseshape.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: phaseshape imported from {phaseshape.__file__}, not {SRC}")


def run_context(seed: int, workload: str, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": list(os.getloadavg()),
        **_git_state(),
    }


def _git_state() -> dict:
    """HEAD and a dirty flag, or nulls outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
        if sha.returncode != 0:
            return {"git_sha": None, "git_dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


# ------------------------------------------------------------------ running


def run_body(wl, state):
    """One timed body: (wall seconds, outputs by op, captured results, error text or None).

    The capture hooks (tracer.capture) are in place in every body, traced
    or not, so the LOOCV vectors and neighbours are always checked.
    """
    out, captured = {}, {}
    error = None
    with tracer.capture(captured):
        t0 = time.perf_counter()
        try:
            wl.body(state, out)
        except Exception as e:  # a failed op is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
    return wall, out, captured, error


class Tally:
    """Attempted and failed ops, and the problems found, over all bodies."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.accuracies: list[float] = []

    def add(self, state, out, captured, error) -> float:
        """Check one body's outputs; returns the largest deviation from the reference."""
        ops = self.wl.ops
        f = checks.Findings()
        missing = [op for op in ops if op not in out]
        for op in missing:
            f.fail(op, error if op == missing[0] and error else "not run")
        obs = self.wl.observe(state, out, captured, f)
        if self.reference is not None:
            checks.compare(f, obs, self.reference, self.wl.charge)
        bad = [op for op in ops if f.problems.get(op)]
        self.attempted += len(ops)
        self.failed += len(bad)
        self.problems += [f"{op}: {msg}" for op, msgs in f.problems.items() for msg in msgs]
        if "classification_experiment" in ops:
            report = out.get("classification_experiment")
            self.accuracies.append(0.0 if report is None else float(report.metrics["accuracy"]))
        else:
            # no classifier: the share of this body's ops whose outputs passed
            self.accuracies.append(1.0 - len(bad) / len(ops))
        return f.max_abs_dev


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its workload being ready."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload,
         "--seed", str(seed), "--t0", repr(t0)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(wl, state, seed, seconds, tally) -> tuple[dict, dict]:
    # Set-up probes run between bodies, so that they sample the machine at
    # different times of the run; their time does not use up the window.
    setups = [probe_setup(wl.name, seed)]
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        wall, out, captured, error = run_body(wl, state)
        walls.append(wall)
        tally.add(state, out, captured, error)
        if len(setups) < SETUP_PROBES:
            t0 = time.perf_counter()
            setups.append(probe_setup(wl.name, seed))
            deadline += time.perf_counter() - t0
        if time.perf_counter() >= deadline:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(wl.name, seed))
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": wall_s,
        "series_per_s": wl.series / wall_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy": statistics.median(tally.accuracies),
    }
    return metrics, {"wall_s": walls, "setup_s": setups}


def measure_traced(wl, state, seed, seconds, tally) -> tuple[dict, dict]:
    """Alternate untraced and traced bodies; per-layer medians over traced ones."""
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, out, captured, error = run_body(wl, state)
        plain.append(wall)
        tally.add(state, out, captured, error)

        tr = tracer.Tracer()
        with tracer.instrument(tr):
            wall, out, captured, error = run_body(wl, state)
        traced.append(wall)
        dev = tally.add(state, out, captured, error)
        sample = tracer.layer_metrics(tr.spans)
        sample["check.max_abs_dev"] = dev if tally.reference is not None else -1.0
        layers.append(sample)
        if time.perf_counter() >= deadline:
            break
    metrics = {k: statistics.median(s[k] for s in layers) for k in layers[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    spans = [dataclasses.asdict(s) for s in tr.spans]
    return metrics, {"wall_s": plain, "traced_wall_s": traced, "spans": spans}


def run_one(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    context = run_context(args.seed, wl.name, args.seconds, args.trace)
    reference = checks.load_reference(wl.name, args.seed)
    tally = Tally(wl, reference)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        state = wl.setup(args.seed, workdir)
        measure_fn = measure_traced if args.trace else measure
        metrics, samples = measure_fn(wl, state, args.seed, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metric_units(args.trace)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    spans = samples.pop("spans", None)
    if spans is not None:
        trace_path = OUT / f"SPANS_{wl.name}_seed{args.seed}.json"
        trace_path.write_text(json.dumps({"context": context, "spans": spans}) + "\n")
    record = {
        "context": context,
        "reference": "recorded" if reference is not None else "none for this seed",
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "samples": samples,
        "result": result,
    }
    path = OUT / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"{wl.name} seed={args.seed} trace={args.trace} -> {path.relative_to(ROOT)}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':42s} {record['failed_frac']:14.6g} fraction "
          f"({tally.failed} of {tally.attempted} ops)")
    for p in tally.problems[:20]:
        print(f"  problem: {p}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def setup_probe(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.setup_probe]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        wl.setup(args.seed, workdir)
        ready = time.time() - args.t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(ready))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="synthetic-shape, synthetic-chaos, cli-csv or all")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=int, default=25, help="measuring window per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _load_program()
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
