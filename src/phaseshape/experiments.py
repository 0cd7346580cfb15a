"""Reproducible experiments over the bundled model systems.

Two protocols: a length-stability study (how the shape distribution of a
trajectory prefix moves as the prefix grows, within and across systems) and
a leave-one-out classification study on randomly generated instances or a
labeled CSV dataset. Both fan out deterministically: every task's seed is
derived from the root seed and the task's index, so parallel and sequential
runs produce identical reports.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from .chaos import chaos_feature_vector
from .classify import LabeledFeature, _metric_name, distances, loocv
from .embedding import EmbeddingParams, estimate_delay
from .errors import ValidationError
from .models import (
    GenConfig,
    LORENZ_IC_HIGH,
    LORENZ_IC_LOW,
    ROSSLER_IC_HIGH,
    ROSSLER_IC_LOW,
    _lorenz_batch,
    _rossler_batch,
)
from .series import MultiSeries, load_csv, sidecar_dt
from .shapes import ShapeConfig, channel_distributions, feature_vector

__all__ = [
    "ExperimentReport",
    "Instance",
    "DEFAULT_DELAYS",
    "LORENZ_LENGTHS",
    "ROSSLER_LENGTHS",
    "LENGTH_RANGES",
    "SYSTEMS",
    "generate_system",
    "stability_experiment",
    "synthetic_instances",
    "classification_experiment",
    "load_dataset",
]

SYSTEMS = ("lorenz", "rossler")

# Embedding delays used for the bundled systems at their default time steps.
DEFAULT_DELAYS = {"lorenz": 11, "rossler": 8}

# Length ladders for the stability study, and the ranges instance lengths
# are drawn from in the synthetic classification protocol.
LORENZ_LENGTHS = (1000, 2000, 3000, 4000, 5000)
ROSSLER_LENGTHS = (400, 800, 1200, 1600, 2000)
LENGTH_RANGES = {"lorenz": (1000, 5000), "rossler": (400, 2000)}

# Each maps a list of GenConfigs to their trajectories, integrated as one batch.
_GENERATORS = {"lorenz": _lorenz_batch, "rossler": _rossler_batch}
_IC_BOXES = {
    "lorenz": (LORENZ_IC_LOW, LORENZ_IC_HIGH),
    "rossler": (ROSSLER_IC_LOW, ROSSLER_IC_HIGH),
}


def _jsonable(obj):
    """Recursively rewrite an object into plain JSON types."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, Path):
        return str(obj)
    return obj


@dataclass(frozen=True)
class ExperimentReport:
    """A finished experiment: resolved config, scalar metrics, artifacts.

    The config block carries every resolved parameter and seed needed to
    replay the run bitwise. Artifacts hold bulkier outputs (histograms,
    distance matrices, confusion counts) in JSON-ready form.
    """

    name: str
    config: dict
    metrics: dict
    artifacts: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "config": _jsonable(self.config),
            "metrics": _jsonable(self.metrics),
            "artifacts": _jsonable(self.artifacts),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Stable-key-order JSON rendering of the report."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _check_jobs(jobs) -> None:
    if not (isinstance(jobs, (int, np.integer)) and jobs >= 1):
        raise ValidationError(f"jobs must be an integer >= 1, got {jobs!r}")


def _map(fn, tasks, jobs: int):
    """Order-preserving map, threaded when jobs > 1."""
    tasks = list(tasks)
    _check_jobs(jobs)
    if jobs == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
        return list(pool.map(fn, tasks))


def _derived_seed(root_seed: int, *key) -> int:
    """Deterministic per-task seed from a root seed and a task key."""
    return int(np.random.SeedSequence([int(root_seed), *key]).generate_state(1)[0])


def generate_system(system: str, config: GenConfig) -> MultiSeries:
    """Dispatch to the named bundled generator ("lorenz" or "rossler")."""
    if system not in _GENERATORS:
        raise ValidationError(f"system must be one of {SYSTEMS}, got {system!r}")
    return _GENERATORS[system]([config])[0]


@dataclass(frozen=True)
class Instance:
    """One labeled trajectory with a stable id."""

    id: str
    series: MultiSeries

    @property
    def label(self) -> str:
        if self.series.label is None:
            raise ValidationError(f"instance {self.id!r} has no label")
        return self.series.label


def stability_experiment(
    kind: str = "D2",
    lorenz_lengths=LORENZ_LENGTHS,
    rossler_lengths=ROSSLER_LENGTHS,
    m: int = 3,
    bins: int = 50,
    n_samples: int = 10000,
    seed: int = 0,
    metric: str = "chi2",
    gen_seed: int | None = None,
    jobs: int = 1,
) -> ExperimentReport:
    """How shape distributions move with trajectory length.

    One trajectory per system is generated at that system's largest
    requested length (default initial condition unless gen_seed is given);
    every requested length is a prefix of it. Each prefix is summarized by
    the concatenated per-channel shape distribution, and all instances are
    compared pairwise. The headline metrics are the largest within-system
    and smallest cross-system distance: a stable descriptor keeps the
    former below the latter.
    """
    _metric_name(metric)
    lor = sorted(int(n) for n in lorenz_lengths)
    ros = sorted(int(n) for n in rossler_lengths)
    plan = [("lorenz", lor), ("rossler", ros)]
    tasks = []
    for system, lens in plan:
        for n in lens:
            tasks.append((len(tasks), system, n))
    if not tasks:
        raise ValidationError("no lengths requested")

    trajectories = {}
    for system, lens in plan:
        if lens:
            if lens[0] < 2:
                raise ValidationError(f"{system} lengths must be >= 2, got {lens[0]}")
            trajectories[system] = generate_system(system, GenConfig(n=lens[-1], seed=gen_seed))

    def one(task):
        idx, system, n = task
        series = trajectories[system].prefix(n)
        params = EmbeddingParams(m=m, tau=DEFAULT_DELAYS[system])
        cfg = ShapeConfig(
            kind=kind, n_samples=n_samples, bins=bins, seed=_derived_seed(seed, idx)
        )
        return channel_distributions(series, [params] * len(series), cfg)

    results = _map(one, tasks, jobs)
    vectors = [np.concatenate([d.mass for d in dists]) for dists in results]
    dmat = np.array([distances(v, vectors, metric) for v in vectors])

    # Each unordered pair once, from the upper triangle
    rows, cols = np.triu_indices(len(tasks), 1)
    systems = np.array([system for _, system, _ in tasks])
    same = systems[rows] == systems[cols]
    pairs = dmat[rows, cols]
    within, cross = pairs[same], pairs[~same]
    max_within = float(within.max()) if within.size else None
    min_cross = float(cross.min()) if cross.size else None
    separated = None
    if max_within is not None and min_cross is not None:
        separated = bool(min_cross > max_within)

    return ExperimentReport(
        name="stability",
        config={
            "kind": kind,
            "lorenz_lengths": lor,
            "rossler_lengths": ros,
            "m": m,
            "delays": {s: DEFAULT_DELAYS[s] for s, lens in plan if lens},
            "bins": bins,
            "n_samples": n_samples,
            "seed": seed,
            "gen_seed": gen_seed,
            "metric": metric,
        },
        metrics={
            "max_within": max_within,
            "min_cross": min_cross,
            "separated": separated,
        },
        artifacts={
            "instances": [
                {"system": s, "length": n, "channels": [d.to_dict() for d in results[i]]}
                for i, s, n in tasks
            ],
            "distance_matrix": dmat,
            "order": [f"{s}-{n}" for _, s, n in tasks],
        },
    )


def synthetic_instances(
    per_class: int = 20, root_seed: int = 2024, jobs: int = 1
) -> list[Instance]:
    """Randomized labeled trajectories of the two bundled systems.

    Instance (system, k) draws from its own generator seeded by
    [root_seed, class index, k]: first the initial condition uniformly
    from the system's ic box, then the kept length uniformly from the
    system's length range. Independent of execution order. Each class's
    trajectories integrate as one batch, whose rows equal the one-at-a-time
    trajectories bit for bit, so ``jobs`` is only checked.
    """
    if not (isinstance(per_class, (int, np.integer)) and per_class >= 1):
        raise ValidationError(f"per_class must be an integer >= 1, got {per_class!r}")
    _check_jobs(jobs)

    instances = []
    for class_idx, system in enumerate(SYSTEMS):
        low, high = _IC_BOXES[system]
        lo, hi = LENGTH_RANGES[system]
        configs = []
        for k in range(int(per_class)):
            rng = np.random.default_rng(np.random.SeedSequence([int(root_seed), class_idx, k]))
            ic = rng.uniform(low, high)
            n = int(rng.integers(lo, hi + 1))
            configs.append(GenConfig(n=n, ic=tuple(float(v) for v in ic)))
        batch = _GENERATORS[system](configs)
        instances += [Instance(id=f"{system}-{k:03d}", series=s) for k, s in enumerate(batch)]
    return instances


def _resolve_delay(series: MultiSeries, delays) -> int:
    """Per-instance embedding delay: explicit int, per-label table, the
    system default for the bundled labels, or estimated from channel 0."""
    if isinstance(delays, (int, np.integer)):
        return int(delays)
    if isinstance(delays, dict):
        if series.label in delays:
            return int(delays[series.label])
        raise ValidationError(f"no delay given for label {series.label!r}")
    if delays is not None:
        raise ValidationError(f"delays must be an int, a dict, or None, got {delays!r}")
    if series.label in DEFAULT_DELAYS:
        return DEFAULT_DELAYS[series.label]
    return estimate_delay(series.channels[0]).tau


def classification_experiment(
    instances: list[Instance] | None = None,
    per_class: int = 20,
    root_seed: int = 2024,
    features: str = "shape",
    kind: str = "D2",
    metric: str | None = None,
    m: int = 3,
    bins: int = 50,
    n_samples: int = 10000,
    delays=None,
    jobs: int = 1,
) -> ExperimentReport:
    """Leave-one-out 1-NN over labeled trajectories.

    With no explicit instances, the synthetic two-system protocol is run
    at the given per_class/root_seed. Features are either concatenated
    per-channel shape distributions ("shape", compared with chi2 by
    default) or the 10-number chaos vector from the first channel
    ("chaos", compared with l2 since its entries can be negative).
    """
    if features not in ("shape", "chaos"):
        raise ValidationError(f"features must be 'shape' or 'chaos', got {features!r}")
    if metric is None:
        metric = "chi2" if features == "shape" else "l2"
    _metric_name(metric)
    if instances is None:
        instances = synthetic_instances(per_class, root_seed, jobs=jobs)
        source = {"synthetic": True, "per_class": int(per_class)}
    else:
        instances = list(instances)
        source = {"synthetic": False, "count": len(instances)}
    if len(instances) < 2:
        raise ValidationError(f"need at least 2 instances, got {len(instances)}")
    if len({inst.id for inst in instances}) != len(instances):
        raise ValidationError("instance ids must be unique")

    def one(task):
        q, inst = task
        tau = _resolve_delay(inst.series, delays)
        params = EmbeddingParams(m=m, tau=tau)
        if features == "shape":
            cfg = ShapeConfig(
                kind=kind, n_samples=n_samples, bins=bins,
                seed=_derived_seed(root_seed, 2, q),
            )
            vec = feature_vector(inst.series, params, cfg)
        else:
            vec = chaos_feature_vector(inst.series.channels[0], params).vector
        return LabeledFeature(id=inst.id, label=inst.label, vector=vec), tau

    results = _map(one, list(enumerate(instances)), jobs)
    feats = [r[0] for r in results]
    confusion = loocv(feats, metric=metric)

    return ExperimentReport(
        name="classification",
        config={
            "source": source,
            "root_seed": int(root_seed),
            "features": features,
            "kind": kind if features == "shape" else None,
            "metric": metric,
            "m": m,
            "bins": bins,
            "n_samples": n_samples,
            "delays": delays,
        },
        metrics={
            "accuracy": confusion.accuracy,
            "total": confusion.total,
            "labels": list(confusion.labels),
        },
        artifacts={
            "confusion": confusion.to_dict(),
            "instances": [
                {"id": f.id, "label": f.label, "n": inst.series.n, "tau": tau}
                for (f, tau), inst in zip(results, instances)
            ],
        },
    )


def load_dataset(path) -> list[Instance]:
    """Read a labeled dataset laid out as <label>/<instance>.csv.

    Every immediate subdirectory is a label; every CSV inside it is one
    instance. A sidecar <instance>.meta.json may carry the sample period
    as {"dt": ...}. Labels and files are taken in sorted order so ids and
    results are stable across filesystems.
    """
    root = Path(path)
    if not root.is_dir():
        raise ValidationError(f"dataset directory not found: {root}")
    labels = sorted(p.name for p in root.iterdir() if p.is_dir())
    if not labels:
        raise ValidationError(f"no label subdirectories under {root}")
    instances = []
    for lab in labels:
        for f in sorted((root / lab).glob("*.csv")):
            series = load_csv(f, dt=sidecar_dt(f)).with_label(lab)
            instances.append(Instance(id=f"{lab}/{f.stem}", series=series))
    if not instances:
        raise ValidationError(f"no CSV instances under {root}")
    present = {inst.label for inst in instances}
    if len(present) < 2:
        raise ValidationError(
            f"degenerate dataset: need at least 2 labels with instances, found {sorted(present)}"
        )
    return instances
