"""Delay-embedding reconstruction and embedding-delay estimation.

The embedding delay is estimated from the autocorrelation function (first
non-positive lag, with a documented fallback ladder); the embedding
dimension is a fixed parameter. ``per_channel`` is the one loop over a
series' channels: it resolves each channel's delay and computes its feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, channel_errors, check_int, check_reals
from .models import BUNDLED
from .series import MultiSeries, TimeSeries

__all__ = [
    "EmbeddingParams",
    "PhaseSpace",
    "DelayEstimate",
    "autocorrelation",
    "estimate_delay",
    "delay_embed",
    "per_channel",
]


@dataclass(frozen=True)
class EmbeddingParams:
    """Embedding dimension ``m`` and delay ``tau`` (in samples)."""

    m: int = 3
    tau: int = 1

    def __post_init__(self):
        object.__setattr__(self, "m", check_int("m", self.m, 1))
        object.__setattr__(self, "tau", check_int("tau", self.tau, 1))


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
        pts = check_reals("points", self.points, "reals")
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


def autocorrelation(series: TimeSeries) -> np.ndarray:
    """Biased, mean-removed, normalized autocorrelation at lags 0..N // 4.

    Parameters
    ----------
    series : TimeSeries
        At least 4 samples, with nonzero variance.

    Returns
    -------
    ndarray of length N // 4 + 1
        r[0] is exactly 1. The estimator divides by N (biased form), which
        keeps the tail smooth at large lags.
    """
    x = series.samples
    n = x.size
    if n < 4:
        raise ValidationError(f"series too short to estimate a delay: {n} samples, need at least 4")
    x0 = x - x.mean()
    # FFT-based autocovariance; pad to a power of two >= 2N to avoid wrap-around
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    f = np.fft.rfft(x0, nfft)
    c = np.fft.irfft(f * np.conj(f), nfft)[: n // 4 + 1]
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
    used instead, and "max-lag" when neither occurred within range. A delay
    given as an int (the CLI's ``--tau``) is "flag", and a bundled system's
    ``default_tau`` "default"; the one rule that picks among them is
    ``embedding._resolve_delay``.
    """

    tau: int
    method: str


def estimate_delay(series: TimeSeries) -> DelayEstimate:
    """Estimate the embedding delay from the autocorrelation function.

    The delay is the smallest lag L >= 1 with r(L) <= 0. If no such lag
    exists within the N // 4 window of ``autocorrelation``, the first local
    minimum of r is used; if there is none, N // 4 itself. The applied rule
    is reported in the result so downstream configs can surface it.
    """
    r = autocorrelation(series)
    top = len(r) - 1
    nonpos = np.flatnonzero(r[1:] <= 0.0)
    if nonpos.size:
        return DelayEstimate(int(nonpos[0]) + 1, "zero-crossing")
    for lag in range(1, top):
        if r[lag] < r[lag - 1] and r[lag] <= r[lag + 1]:
            return DelayEstimate(lag, "local-minimum")
    return DelayEstimate(top, "max-lag")


def delay_embed(series: TimeSeries, params: EmbeddingParams) -> PhaseSpace:
    """Build the delay-embedding phase space of a scalar series.

    Point k is [x(k), x(k+tau), ..., x(k+(m-1)tau)]; there are
    N - (m-1)*tau points.
    """
    x = series.samples
    m, tau = params.m, params.tau
    p = x.size - (m - 1) * tau
    if p < 1:
        raise ValidationError(
            f"series of length {x.size} too short for m={m}, tau={tau}"
        )
    pts = np.column_stack([x[i * tau : i * tau + p] for i in range(m)])
    return PhaseSpace(points=pts, params=params)


def _resolve_delay(channel: TimeSeries, label, tau) -> DelayEstimate:
    """The package's one delay rule: an int is the delay ("flag"); None
    gives a bundled label's ``default_tau`` ("default"), else the channel's
    own estimate. The caller checks a given int (``per_channel`` and
    ``classification_experiment`` up front)."""
    if tau is not None:
        return DelayEstimate(tau, "flag")
    if label in BUNDLED:
        return DelayEstimate(BUNDLED[label].default_tau, "default")
    return estimate_delay(channel)


def per_channel(series: MultiSeries, m, tau, featurize) -> list:
    """``(DelayEstimate, featurize(channel, EmbeddingParams(m, delay)))`` for
    each channel, the delay by ``_resolve_delay``: ``tau`` when given, else
    a bundled label's ``default_tau``, else the channel's estimate.

    ``m`` and a given ``tau`` are checked before any channel is read; an
    error from a channel's delay or feature is prefixed ``channel k: ``.
    """
    m = check_int("m", m, 1)
    if tau is not None:
        tau = check_int("tau", tau, 1)
    out = []
    for ci, ch in enumerate(series.channels):
        with channel_errors(f"channel {ci}"):
            delay = _resolve_delay(ch, series.label, tau)
            out.append((delay, featurize(ch, EmbeddingParams(m, delay.tau))))
    return out
