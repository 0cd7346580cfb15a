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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .chaos import chaos_feature_vector
from .classify import LabeledFeature, _metric_name, distances, loocv
from .embedding import EmbeddingParams, estimate_delay
from .errors import ValidationError, channel_errors, check_int, check_sequence
from .models import BUNDLED, GenConfig, generate_system
from .series import MultiSeries, load_csv, sidecar_dt
from .shapes import ShapeConfig, channel_distributions, feature_vector

__all__ = [
    "ExperimentReport",
    "Instance",
    "LENGTH_RANGES",
    "SYSTEMS",
    "generate_system",
    "stability_experiment",
    "synthetic_instances",
    "classification_experiment",
    "load_dataset",
]

# In BUNDLED order; a system's index here is its synthetic seed key.
SYSTEMS = tuple(BUNDLED)
# Derived from BUNDLED, for callers that index by system name.
LENGTH_RANGES = {s: cls.length_range for s, cls in BUNDLED.items()}


def _numpy_default(obj):
    """``json.dumps`` hook: numpy arrays and scalars as lists and scalars."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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
        return json.loads(self.to_json(indent=None))

    def to_json(self, indent: int | None = 2) -> str:
        """Stable-key-order JSON rendering of the report."""
        return json.dumps(vars(self), indent=indent, sort_keys=True, default=_numpy_default)


def _map(fn, tasks, jobs: int):
    """Order-preserving map, threaded when jobs > 1."""
    tasks = list(tasks)
    jobs = check_int("jobs", jobs, 1)
    if jobs == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def _derived_seed(root_seed: int, *key) -> int:
    """Deterministic per-task seed from a root seed and a task key."""
    return int(np.random.SeedSequence([root_seed, *key]).generate_state(1)[0])


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
    lorenz_lengths=BUNDLED["lorenz"].stability_lengths,
    rossler_lengths=BUNDLED["rossler"].stability_lengths,
    m: int = 3,
    bins: int = 50,
    n_samples: int = 10000,
    seed: int = 0,
    metric: str = "chi2",
    gen_seed: int | None = None,
    jobs: int = 1,
) -> ExperimentReport:
    """How shape distributions move with trajectory length.

    ``<system>_lengths`` (default: the system's ``stability_lengths``) are
    distinct integers >= 2 in a list, tuple or ndarray; these two keywords
    are the one per-system name left outside ``models``. One trajectory per
    system is generated at its largest requested length (default initial
    condition unless gen_seed is given); each length is a prefix of it,
    embedded at the system's ``default_tau`` and summarized by the
    concatenated per-channel shape distribution. All instances are compared
    pairwise. The headline metrics are the largest within-system and
    smallest cross-system distance: a stable descriptor keeps the former
    below the latter.
    """
    metric = _metric_name(metric)
    m = check_int("m", m, 1)
    base = ShapeConfig(kind=kind, n_samples=n_samples, bins=bins)
    seed = check_int("seed", seed, 0)
    requested = {"lorenz": lorenz_lengths, "rossler": rossler_lengths}
    plan = {}
    for system in BUNDLED:
        lens = check_sequence(f"{system}_lengths", requested[system], "integers >= 2")
        plan[system] = sorted(check_int(f"{system} lengths", n, 2) for n in lens)
    tasks = []
    for system, lens in plan.items():
        if len(set(lens)) < len(lens):
            raise ValidationError(f"{system} lengths must be distinct, got {lens}")
        for n in lens:
            tasks.append((len(tasks), system, n))
    if not tasks:
        raise ValidationError("no lengths requested")

    trajectories = {s: generate_system(s, GenConfig(n=lens[-1], seed=gen_seed))
                    for s, lens in plan.items() if lens}

    def one(task):
        idx, system, n = task
        cfg = replace(base, seed=_derived_seed(seed, idx))
        series = trajectories[system].prefix(n)
        return channel_distributions(series, m, BUNDLED[system].default_tau, cfg)

    results = _map(one, tasks, jobs)
    delays = {system: results[i][0][0].tau for i, system, _ in tasks}
    vectors = [np.concatenate([d.mass for _, d in dists]) for dists in results]
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
            **{f"{s}_lengths": lens for s, lens in plan.items()},
            "m": m,
            "delays": delays,
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
                {"system": s, "length": n, "channels": [d.to_dict() for _, d in results[i]]}
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
    system's length range. Independent of execution order. Each instance
    integrates alone with ``generate_system``, only to its own length, on
    Python floats; ``jobs`` is only checked.
    """
    per_class = check_int("per_class", per_class, 1)
    root_seed = check_int("root_seed", root_seed, 0)
    check_int("jobs", jobs, 1)

    instances = []
    for class_idx, system in enumerate(SYSTEMS):
        low, high = BUNDLED[system].ic_box
        lo, hi = BUNDLED[system].length_range
        for k in range(per_class):
            rng = np.random.default_rng(np.random.SeedSequence([root_seed, class_idx, k]))
            ic = rng.uniform(low, high)
            n = int(rng.integers(lo, hi + 1))
            series = generate_system(system, GenConfig(n=n, ic=tuple(ic)))
            instances.append(Instance(id=f"{system}-{k:03d}", series=series))
    return instances


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
    ``delays`` is one delay for every instance. None gives each instance
    its bundled label's ``default_tau``, else the ``estimate_delay`` of its
    channel 0. Shape features need every instance to have the same number
    of channels.
    """
    if features not in ("shape", "chaos"):
        raise ValidationError(f"features must be 'shape' or 'chaos', got {features!r}")
    if metric is None:
        metric = "chi2" if features == "shape" else "l2"
    metric = _metric_name(metric)
    if delays is not None:
        delays = check_int("tau", delays, 1)
    m = check_int("m", m, 1)
    base = ShapeConfig(kind=kind, n_samples=n_samples, bins=bins)
    root_seed = check_int("root_seed", root_seed, 0)
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
    if features == "shape":
        first = instances[0]
        for inst in instances:
            if len(inst.series) != len(first.series):
                raise ValidationError(
                    f"instance {inst.id!r} has {len(inst.series)} channels,"
                    f" {first.id!r} has {len(first.series)}"
                )

    def one(task):
        q, inst = task
        ch0, named = inst.series.channels[0], f"instance {inst.id!r}"
        # The one place a label picks a delay, and channel 0's embeds every
        # channel (ROADMAP item 4 gives each channel a label-blind one). A
        # given delay was checked up front.
        if delays is not None:
            tau = delays
        elif inst.series.label in BUNDLED:
            tau = BUNDLED[inst.series.label].default_tau
        else:
            with channel_errors(named), channel_errors("channel 0"):
                tau = estimate_delay(ch0).tau
        params = EmbeddingParams(m=m, tau=tau)
        with channel_errors(named):
            if features == "shape":
                cfg = replace(base, seed=_derived_seed(root_seed, 2, q))
                vec = feature_vector(inst.series, params, cfg)
            else:
                with channel_errors("channel 0"):
                    vec = chaos_feature_vector(ch0, params).vector
        return LabeledFeature(id=inst.id, label=inst.label, vector=vec), params.tau

    results = _map(one, list(enumerate(instances)), jobs)
    feats = [r[0] for r in results]
    confusion = loocv(feats, metric=metric)

    return ExperimentReport(
        name="classification",
        config={
            "source": source,
            "root_seed": root_seed,
            "features": features,
            "kind": kind if features == "shape" else None,
            "metric": metric,
            "m": m,
            "bins": base.bins,
            "n_samples": base.n_samples,
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
