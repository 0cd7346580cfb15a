"""Layer spans recorded from outside the phaseshape package.

`instrument` replaces every public function of the layer modules with a
wrapper that opens a span, in every phaseshape namespace that holds the
function (``experiments`` and ``cli`` import ``chaos_feature_vector`` by
name, so patching ``phaseshape.chaos`` alone would miss their calls). It
puts the original functions back when it exits, so untraced runs measure
unwrapped code. Spans stay in memory until the run ends.

`capture` is the untraced counterpart: it wraps only the functions in
CAPTURE, opens no span, and keeps copies of their inputs and results for
the output checks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("series", "models", "embedding", "shapes", "chaos", "classify", "experiments", "cli")

# Spans under this prefix also record their tracemalloc peak.
ALLOC_PREFIX = "chaos."

# The chaos spans whose allocation peak is reported.
ALLOC_SPANS = (
    "chaos_feature_vector",
    "default_lle_config",
    "lle_rosenstein",
    "divergence_curve",
    "attractor_diameter",
)

_CURRENT = object()


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans per thread; spans may name a parent in another thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._alloc_open: list[Span] = []

    def current(self) -> int | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1].sid if stack else None

    @contextmanager
    def span(self, name: str, parent=_CURRENT):
        stack = self._local.__dict__.setdefault("stack", [])
        sp = Span(
            sid=next(self._ids),
            name=name,
            parent=self.current() if parent is _CURRENT else parent,
            thread=threading.get_ident(),
            start=0.0,
        )
        track = name.startswith(ALLOC_PREFIX)
        if track:
            self._alloc_enter(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if track:
                self._alloc_exit(sp)
            with self._lock:
                self.spans.append(sp)

    # tracemalloc is process-wide: each open span keeps the highest peak
    # seen while it was open, and the peak is reset at every span boundary.
    def _fold_peak(self) -> int:
        cur, peak = tracemalloc.get_traced_memory()
        for s in self._alloc_open:
            s.counters["_peak"] = max(s.counters["_peak"], peak)
        tracemalloc.reset_peak()
        return cur

    def _alloc_enter(self, sp: Span) -> None:
        with self._lock:
            if not self._alloc_open:
                tracemalloc.start()
            cur = self._fold_peak()
            sp.counters["_base"] = sp.counters["_peak"] = cur
            self._alloc_open.append(sp)

    def _alloc_exit(self, sp: Span) -> None:
        with self._lock:
            self._fold_peak()
            self._alloc_open.remove(sp)
            base, peak = sp.counters.pop("_base"), sp.counters.pop("_peak")
            sp.counters["peak_alloc_mb"] = (peak - base) / 2**20
            if not self._alloc_open:
                tracemalloc.stop()


# ------------------------------------------------------------ size counters


def _chaos_counts(b, r):
    # Pairs (i, j) with j - i > theiler among P points: computed, not counted.
    embed = b["embed"]
    p = len(b["series"]) - (embed.m - 1) * embed.tau
    w = r.theiler
    return {"points": p, "admissible_pairs": max(p - w - 1, 0) * max(p - w, 0) // 2}


COUNTERS = {
    "models.rk4_integrate": lambda b, r: {"steps": int(b["n_steps"])},
    "series.load_csv": lambda b, r: {"rows": r.n},
    "embedding.delay_embed": lambda b, r: {"points": len(r.points)},
    "shapes.sample_shape": lambda b, r: {"samples": len(r)},
    "chaos.chaos_feature_vector": _chaos_counts,
}

# Results kept for the output checks, traced or not: LOOCV inputs and its
# predictions.
CAPTURE = {
    "classify.loocv": lambda b, r: [(it.id, it.vector.copy()) for it in b["items"]],
    "classify.nn_classify": lambda b, r: r.neighbor_id,
}


def _wrap(tracer: Tracer, name: str, fn):
    sig = inspect.signature(fn)
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
            if count:
                sp.counters.update(count(sig.bind(*args, **kwargs).arguments, result))
            return result

    return wrapper


def _wrap_capture(captured: dict, name: str, fn):
    sig = inspect.signature(fn)
    grab = CAPTURE[name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        bound = sig.bind(*args, **kwargs).arguments
        captured.setdefault(name, []).append(grab(bound, result))
        return result

    return wrapper


def _wrap_map(tracer: Tracer, fn):
    """experiments._map: one span for the phase, one per task in its worker."""

    @functools.wraps(fn)
    def wrapper(task_fn, tasks, jobs):
        with tracer.span("experiments._map") as sp:
            sp.counters["jobs"] = int(jobs)
            parent = sp.sid

            def traced_task(task):
                with tracer.span("experiments._map.task", parent=parent):
                    return task_fn(task)

            return fn(traced_task, tasks, jobs)

    return wrapper


def _package_modules():
    return [
        m for n, m in list(sys.modules.items()) if n == "phaseshape" or n.startswith("phaseshape.")
    ]


def public_functions(module):
    """Module-level functions defined in the module whose names are public."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layers' public functions (and experiments._map) for the duration."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"phaseshape.{layer}")
        for name, fn in public_functions(module).items():
            wrappers[fn] = _wrap(tracer, f"{layer}.{name}", fn)
    experiments = sys.modules["phaseshape.experiments"]
    if inspect.isfunction(getattr(experiments, "_map", None)):
        wrappers[experiments._map] = _wrap_map(tracer, experiments._map)
    with _patched(wrappers):
        yield tracer


@contextmanager
def capture(captured: dict):
    """Append the CAPTURE results to the list captured[name] for the duration; no spans."""
    wrappers = {}
    for name in CAPTURE:
        layer, attr = name.split(".")
        fn = getattr(importlib.import_module(f"phaseshape.{layer}"), attr)
        wrappers[fn] = _wrap_capture(captured, name, fn)
    with _patched(wrappers):
        yield captured


@contextmanager
def _patched(wrappers: dict):
    """Replace each key function by its wrapper in every phaseshape namespace."""
    patched = []
    try:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))
        yield
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)


# -------------------------------------------------------------- arithmetic


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it covered by its children.

    Children may run in other threads and overlap each other; their union
    is subtracted once, so parallel children do not drive self time negative.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - _covered(s.start, s.end, children[s.sid]) for s in spans}


def _outermost(spans, name):
    """Spans with this name that have no same-name ancestor (no double counting)."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != name:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def total_s(spans, name) -> float:
    return sum(s.duration for s in _outermost(spans, name))


def layer_self_times(spans) -> dict[str, float]:
    st = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.layer] += st[s.sid]
    return out


def pool_busy_frac(spans) -> float:
    """Summed task time over (jobs x wall time) of the _map phases."""
    maps = [s for s in spans if s.name == "experiments._map"]
    capacity = sum(s.counters["jobs"] * s.duration for s in maps)
    busy = sum(s.duration for s in spans if s.name == "experiments._map.task")
    return busy / capacity if capacity > 0 else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced workload body (see README)."""
    def counter(name, key):
        return sum(s.counters.get(key, 0) for s in spans if s.name == name)

    st = self_times(spans)
    m = {
        "models.rk4_integrate_s": total_s(spans, "models.rk4_integrate"),
        "models.rk4_steps": counter("models.rk4_integrate", "steps"),
        "series.load_csv_s": total_s(spans, "series.load_csv"),
        "series.rows": counter("series.load_csv", "rows"),
        "embedding.delay_embed_s": total_s(spans, "embedding.delay_embed"),
        "embedding.estimate_delay_s": total_s(spans, "embedding.estimate_delay"),
        "embedding.points": counter("embedding.delay_embed", "points"),
        "shapes.sample_shape_s": total_s(spans, "shapes.sample_shape"),
        "shapes.build_histogram_s": total_s(spans, "shapes.build_histogram"),
        "shapes.samples": counter("shapes.sample_shape", "samples"),
        "chaos.divergence_curve_s": total_s(spans, "chaos.divergence_curve"),
        "chaos.lle_rosenstein_s": total_s(spans, "chaos.lle_rosenstein"),
        "chaos.attractor_diameter_s": total_s(spans, "chaos.attractor_diameter"),
        "chaos.pair_counts_s": sum(
            st[s.sid] for s in spans if s.name == "chaos.chaos_feature_vector"
        ),
        "chaos.admissible_pairs": counter("chaos.chaos_feature_vector", "admissible_pairs"),
        "classify.loocv_s": total_s(spans, "classify.loocv"),
        "classify.distance_evals": sum(
            1 for s in spans if s.name in ("classify.chi2_distance", "classify.l2_distance")
        ),
        "experiments.synthetic_instances_s": total_s(spans, "experiments.synthetic_instances"),
        "experiments.classification_experiment_s": total_s(
            spans, "experiments.classification_experiment"
        ),
        "experiments.stability_experiment_s": total_s(spans, "experiments.stability_experiment"),
        "experiments.pool_busy_frac": pool_busy_frac(spans),
        "cli.features_s": total_s(spans, "cli.cmd_features"),
        "cli.chaos_s": total_s(spans, "cli.cmd_chaos"),
    }
    for fn in ALLOC_SPANS:
        peaks = [s.counters["peak_alloc_mb"] for s in spans if s.name == f"chaos.{fn}"]
        m[f"chaos.{fn}.peak_alloc_mb"] = max(peaks, default=0.0)
    selfs = layer_self_times(spans)
    total = sum(selfs.values())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
        m[f"{layer}.self_share"] = selfs[layer] / total if total > 0 else 0.0
    return m

