"""Nearest-neighbor classification of feature vectors.

Histogram features compare with a symmetric chi-square distance; general
real-valued features (for example the chaos baseline, whose entries can be
negative) use plain Euclidean distance. Evaluation is leave-one-out 1-NN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "LabeledFeature",
    "NNResult",
    "ConfusionMatrix",
    "distances",
    "l2_distance",
    "chi2_distance",
    "METRICS",
    "nn_classify",
    "loocv",
]

# Regularizer in the chi-square denominator; keeps empty-bin pairs finite.
CHI2_EPS = 1e-12

METRICS = ("chi2", "l2")


def _metric_name(metric) -> str:
    """The METRICS entry that ``metric`` names, case-insensitively."""
    name = str(metric).lower()
    if name not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    return name


def distances(vector, vectors, metric: str) -> np.ndarray:
    """Chi2 or l2 (case-insensitive) distances from one vector to K others.

    Each of the K entries equals the two-vector formula bit for bit: rows of
    a C-contiguous stack are summed alike, and l2 is the root of a dot
    product, as in ``np.linalg.norm``.
    """
    name = _metric_name(metric)
    v = np.asarray(vector, dtype=float)
    if v.ndim != 1:
        raise ValidationError(f"{name} expects a 1-D vector, got shape {v.shape}")
    rows = [np.asarray(r, dtype=float) for r in vectors]
    for r in rows:
        if r.shape != v.shape:
            raise ValidationError(f"{name} expects 1-D vectors of length {v.size}, got {r.shape}")
    others = np.array(rows).reshape(len(rows), v.size)
    if not (np.isfinite(v).all() and np.isfinite(others).all()):
        raise ValidationError(f"{name} got non-finite entries")
    if name == "l2":
        diff = v - others
        return np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    if (v < 0).any() or (others < 0).any():
        raise ValidationError("chi2 distance requires nonnegative entries")
    return 0.5 * np.sum((v - others) ** 2 / (v + others + CHI2_EPS), axis=1)


def l2_distance(a, b) -> float:
    """Euclidean distance between two equal-length vectors."""
    return float(distances(a, [b], "l2")[0])


def chi2_distance(a, b) -> float:
    """Symmetric chi-square distance 0.5 * sum (a-b)^2 / (a+b+1e-12).

    Intended for nonnegative histogram masses; negative entries are
    rejected because the denominator could vanish or flip sign.
    """
    return float(distances(a, [b], "chi2")[0])


@dataclass(frozen=True, eq=False)
class LabeledFeature:
    """One classified instance: an id, its true label, and its feature."""

    id: str
    label: str
    vector: np.ndarray

    def __post_init__(self):
        if not self.id:
            raise ValidationError("feature id must be nonempty")
        if not self.label:
            raise ValidationError("feature label must be nonempty")
        v = np.array(self.vector, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError(f"feature vector must be nonempty 1-D, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValidationError(f"feature {self.id!r} has non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)


@dataclass(frozen=True)
class NNResult:
    """Outcome of a single nearest-neighbor query."""

    label: str
    neighbor_id: str
    distance: float


def nn_classify(vector, items: Sequence[LabeledFeature], metric: str = "chi2") -> NNResult:
    """Label a vector by its nearest item under the chosen metric.

    Exact distance ties resolve to the lexicographically smallest item id,
    which makes the outcome independent of item order.
    """
    d = distances(vector, [item.vector for item in items], metric)
    if len(items) == 0:
        raise ValidationError("need at least one reference item")
    best = min(np.flatnonzero(d == d.min()), key=lambda k: items[k].id)
    item = items[best]
    return NNResult(label=item.label, neighbor_id=item.id, distance=float(d[best]))


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Counts[i, j] = items of true label i predicted as label j.

    Labels are sorted; rows index the truth, columns the prediction.
    """

    labels: tuple
    counts: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        counts = np.array(self.counts, dtype=int)
        if len(labels) < 1 or len(set(labels)) != len(labels):
            raise ValidationError("labels must be nonempty and unique")
        if list(labels) != sorted(labels):
            raise ValidationError("labels must be sorted")
        if counts.shape != (len(labels), len(labels)):
            raise ValidationError(
                f"counts must be {len(labels)}x{len(labels)}, got {counts.shape}"
            )
        if (counts < 0).any():
            raise ValidationError("counts must be nonnegative")
        counts.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            raise ValidationError("empty confusion matrix has no accuracy")
        return float(np.trace(self.counts) / self.total)

    def to_text(self) -> str:
        """Aligned table, truth in rows and prediction in columns."""
        width = max(len("true\\pred"), *(len(l) for l in self.labels))
        width = max(width, len(str(int(self.counts.max()))))
        head = " ".join(["true\\pred".rjust(width)] + [l.rjust(width) for l in self.labels])
        rows = [
            " ".join([lab.rjust(width)] + [str(int(c)).rjust(width) for c in row])
            for lab, row in zip(self.labels, self.counts)
        ]
        tail = f"accuracy {self.accuracy:.4f} ({self.total} instances)"
        return "\n".join([head] + rows + [tail])

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "counts": self.counts.tolist(),
            "total": self.total,
            "accuracy": self.accuracy,
        }


def loocv(items: Sequence[LabeledFeature], metric: str = "chi2") -> ConfusionMatrix:
    """Leave-one-out 1-NN over a labeled set.

    Each item is classified against all others; needs at least two items
    and at least two distinct labels to be meaningful.
    """
    items = list(items)
    if len(items) < 2:
        raise ValidationError(f"leave-one-out needs at least 2 items, got {len(items)}")
    labels = sorted({it.label for it in items})
    if len(labels) < 2:
        raise ValidationError("degenerate dataset: only one label present")
    if len({it.id for it in items}) != len(items):
        raise ValidationError("item ids must be unique")
    pos = {lab: k for k, lab in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=int)
    for k, item in enumerate(items):
        rest = items[:k] + items[k + 1 :]
        pred = nn_classify(item.vector, rest, metric=metric)
        counts[pos[item.label], pos[pred.label]] += 1
    return ConfusionMatrix(labels=tuple(labels), counts=counts)
