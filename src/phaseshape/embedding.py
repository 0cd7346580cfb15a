"""Delay-embedding reconstruction and embedding-parameter estimation.

The embedding delay is estimated from the autocorrelation function (first
non-positive lag, with a documented fallback ladder) and the embedding
dimension from the false-nearest-neighbor fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError
from .series import TimeSeries

__all__ = [
    "EmbeddingParams",
    "PhaseSpace",
    "DelayEstimate",
    "DimensionEstimate",
    "autocorrelation",
    "estimate_delay",
    "fnn_fractions",
    "estimate_dimension",
    "delay_embed",
]


@dataclass(frozen=True)
class EmbeddingParams:
    """Embedding dimension ``m`` and delay ``tau`` (in samples)."""

    m: int = 3
    tau: int = 1

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValidationError(f"m must be an integer >= 1, got {self.m!r}")
        if not (isinstance(self.tau, (int, np.integer)) and self.tau >= 1):
            raise ValidationError(f"tau must be an integer >= 1, got {self.tau!r}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "tau", int(self.tau))


@dataclass(frozen=True, eq=False)
class PhaseSpace:
    """An ordered cloud of m-dimensional delay vectors.

    Point k is [x(k), x(k+tau), ..., x(k+(m-1)tau)] of the source series;
    its time index is k. The point count equals N - (m-1)*tau.

    Attributes
    ----------
    points : ndarray of shape (P, m)
    params : EmbeddingParams
    """

    points: np.ndarray
    params: EmbeddingParams

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValidationError(f"points must be a non-empty 2-D array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValidationError("points contain non-finite values")
        if pts.shape[1] != self.params.m:
            raise ValidationError(f"points have dimension {pts.shape[1]}, expected m={self.params.m}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def source_len(self) -> int:
        """Length N of the originating series, P + (m-1)*tau."""
        return len(self) + (self.params.m - 1) * self.params.tau

    @property
    def time_index(self) -> np.ndarray:
        """Start index of each delay vector (0-based), shape (P,)."""
        return np.arange(len(self))

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_points(cls, points) -> "PhaseSpace":
        """Wrap a raw (P, m) point cloud, e.g. synthetic test geometry.

        The cloud is treated as an embedding with tau=1 of a notional
        source of length P + m - 1, so all container invariants hold.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValidationError(f"points must be a non-empty 2-D array, got shape {pts.shape}")
        return cls(points=pts, params=EmbeddingParams(m=pts.shape[1], tau=1))


def autocorrelation(series: TimeSeries, max_lag: int | None = None) -> np.ndarray:
    """Biased, mean-removed, normalized autocorrelation at lags 0..max_lag.

    Parameters
    ----------
    series : TimeSeries
        Must have nonzero variance.
    max_lag : int, optional
        Largest lag. Defaults to N // 4. Must satisfy 1 <= max_lag < N.

    Returns
    -------
    ndarray of length max_lag + 1
        r[0] is exactly 1. The estimator divides by N (biased form), which
        keeps the tail smooth at large lags.
    """
    x = series.samples
    n = x.size
    if max_lag is None:
        max_lag = n // 4
    if not 1 <= max_lag < n:
        raise ValidationError(f"max_lag must be in [1, N), got {max_lag} for N={n}")
    x0 = x - x.mean()
    # FFT-based autocovariance; pad to a power of two >= 2N to avoid wrap-around
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    f = np.fft.rfft(x0, nfft)
    c = np.fft.irfft(f * np.conj(f), nfft)[: max_lag + 1]
    if c[0] <= 0:
        raise ValidationError("zero-variance series (constant input)")
    r = c / c[0]
    r[0] = 1.0
    return r


@dataclass(frozen=True)
class DelayEstimate:
    """Estimated embedding delay and the rule that produced it.

    ``method`` is "zero-crossing" when the autocorrelation reached a
    non-positive value, "local-minimum" when the first local minimum was
    used instead, and "max-lag" when neither occurred within range.
    """

    tau: int
    method: str


def estimate_delay(series: TimeSeries, max_lag: int | None = None) -> DelayEstimate:
    """Estimate the embedding delay from the autocorrelation function.

    The delay is the smallest lag L >= 1 with r(L) <= 0. If no such lag
    exists within ``max_lag``, the first local minimum of r is used; if
    there is none, ``max_lag`` itself. The applied rule is reported in the
    result so downstream configs can surface it.
    """
    r = autocorrelation(series, max_lag)
    top = len(r) - 1
    nonpos = np.flatnonzero(r[1:] <= 0.0)
    if nonpos.size:
        return DelayEstimate(int(nonpos[0]) + 1, "zero-crossing")
    for lag in range(1, top):
        if r[lag] < r[lag - 1] and r[lag] <= r[lag + 1]:
            return DelayEstimate(lag, "local-minimum")
    return DelayEstimate(top, "max-lag")


def _embed_matrix(x: np.ndarray, m: int, tau: int) -> np.ndarray:
    p = x.size - (m - 1) * tau
    return np.column_stack([x[i * tau : i * tau + p] for i in range(m)])


def fnn_fractions(
    series: TimeSeries,
    tau: int,
    m_max: int,
    r_tol: float = 15.0,
    a_tol: float = 2.0,
) -> np.ndarray:
    """False-nearest-neighbor fractions for dimensions m = 1..m_max.

    For each m, every delay vector's nearest neighbor (over the vectors that
    can be extended by one more coordinate) is tested for falseness when the
    (m+1)-th coordinate is appended: a neighbor is false when the extra
    separation exceeds ``r_tol`` times the m-dimensional distance, or when
    the extended distance exceeds ``a_tol`` times the series' standard
    deviation.

    Returns
    -------
    ndarray of length m_max
        Fraction of false neighbors per dimension, each in [0, 1].
    """
    if not (isinstance(tau, (int, np.integer)) and tau >= 1):
        raise ValidationError(f"tau must be an integer >= 1, got {tau!r}")
    if not (isinstance(m_max, (int, np.integer)) and m_max >= 1):
        raise ValidationError(f"m_max must be an integer >= 1, got {m_max!r}")
    if not (r_tol > 0 and a_tol > 0):
        raise ValidationError(f"r_tol and a_tol must be positive, got {r_tol}, {a_tol}")
    x = series.samples
    n = x.size
    if n - m_max * tau < 2:
        raise ValidationError(
            f"series of length {n} too short for m_max={m_max} with tau={tau}"
        )
    r_a = x.std()
    if r_a == 0:
        raise ValidationError("zero-variance series")
    # Relative distance floor: exactly repeated delay vectors give a zero
    # nearest-neighbor distance and an undefined growth ratio otherwise.
    floor = 1e-10 * r_a
    fracs = np.empty(m_max)
    for m in range(1, m_max + 1):
        p = n - m * tau  # only vectors that still have an (m+1)-th coordinate
        pts = _embed_matrix(x, m, tau)[:p]
        tree = cKDTree(pts)
        dist, nb = tree.query(pts, k=2)
        d = np.maximum(dist[:, 1], floor)
        j = nb[:, 1]
        extra = np.abs(x[np.arange(p) + m * tau] - x[j + m * tau])
        false_ratio = extra / d > r_tol
        false_size = np.sqrt(d**2 + extra**2) / r_a > a_tol
        fracs[m - 1] = float(np.mean(false_ratio | false_size))
    return fracs


@dataclass(frozen=True)
class DimensionEstimate:
    """Estimated embedding dimension; ``converged`` is False when no
    dimension reached the threshold and the argmin was returned instead."""

    m: int
    converged: bool


def estimate_dimension(fractions, threshold: float = 0.01) -> DimensionEstimate:
    """Smallest m whose false-neighbor fraction is at or below ``threshold``.

    Falls back to the dimension with the minimum fraction, flagged as not
    converged, when no entry reaches the threshold.
    """
    f = np.asarray(fractions, dtype=float)
    if f.size == 0:
        raise ValidationError("fractions must be nonempty")
    if not 0 < threshold < 1:
        raise ValidationError(f"threshold must be in (0, 1), got {threshold}")
    under = np.flatnonzero(f <= threshold)
    if under.size:
        return DimensionEstimate(int(under[0]) + 1, True)
    return DimensionEstimate(int(np.argmin(f)) + 1, False)


def delay_embed(series: TimeSeries, params: EmbeddingParams) -> PhaseSpace:
    """Build the delay-embedding phase space of a scalar series.

    Point k is [x(k), x(k+tau), ..., x(k+(m-1)tau)]; there are
    N - (m-1)*tau points.
    """
    x = series.samples
    m, tau = params.m, params.tau
    if x.size - (m - 1) * tau < 1:
        raise ValidationError(
            f"series of length {x.size} too short for m={m}, tau={tau}"
        )
    pts = _embed_matrix(x, m, tau)
    return PhaseSpace(points=pts, params=params)
