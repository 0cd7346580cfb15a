"""Shape distributions of a reconstructed phase space.

Five shape functions are sampled over random points of the attractor and
binned into a fixed-size histogram that serves as the dynamical feature:

- D1: distance from the attractor centroid to one random point
- D2: distance between two random points
- D3: square root of the area of the triangle of three random points
- DT1: D2 restricted to pairs at most ``delta`` samples apart in time
- DT2: D2 weighted by exp(-gamma * |time separation|)

Every distance is one formula, the one ``chaos`` uses: the squared
coordinate differences added in coordinate order, then the root; D3's Gram
terms add their coordinate products in that order. Up to m = 7 this is
numpy's row sum, so the samples equal ``np.linalg.norm(a - b, axis=1)``;
from m = 8 numpy sums a row pairwise, and some samples differ from that in
the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .embedding import DelayEstimate, EmbeddingParams, PhaseSpace, delay_embed, per_channel
from .errors import ValidationError, check_int, check_real, check_reals
from .series import MultiSeries

__all__ = [
    "ShapeConfig",
    "ShapeDistribution",
    "resolve_config",
    "sample_shape",
    "build_histogram",
    "shape_distribution",
    "channel_distributions",
    "feature_vector",
    "KINDS",
    "NORMALIZATIONS",
]

KINDS = ("D1", "D2", "D3", "DT1", "DT2")
NORMALIZATIONS = ("mean-normalized", "raw-range")

# Upper edge of the mean-normalized histogram; samples are clamped here.
MEAN_NORM_TOP = 4.0

# Fewest points each kind draws its distinct tuples from.
MIN_POINTS = {"D1": 1, "D2": 2, "D3": 3, "DT1": 2, "DT2": 2}


@dataclass(frozen=True)
class ShapeConfig:
    """Sampling and binning settings for a shape distribution.

    Parameters
    ----------
    kind : {"D1", "D2", "D3", "DT1", "DT2"}
    n_samples : int
        Random shape samples to draw. Default 10000.
    bins : int
        Histogram bin count B. Default 50.
    delta : int, optional
        DT1 time window in samples. None resolves to twice the embedding
        window, 2 * tau * (m - 1), at sampling time.
    gamma : float, optional
        DT2 decay per sample. None resolves to 1 / (tau * (m - 1)), so the
        weight falls to 1/e across one embedding window.
    seed : int
        RNG seed, >= 0; identical configs reproduce identical samples.
    normalization : {"mean-normalized", "raw-range"}
        Binning policy. The default divides samples by their mean and bins
        over [0, 4] with clamping, which makes the histogram invariant to
        uniform amplitude scaling. "raw-range" bins over [0, max sample].
    """

    kind: str = "D2"
    n_samples: int = 10000
    bins: int = 50
    delta: int | None = None
    gamma: float | None = None
    seed: int = 0
    normalization: str = "mean-normalized"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "n_samples", check_int("n_samples", self.n_samples, 1))
        object.__setattr__(self, "bins", check_int("bins", self.bins, 1))
        if self.delta is not None:
            object.__setattr__(self, "delta", check_int("delta", self.delta, 1))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", check_real("gamma", self.gamma, 0))
        if self.normalization not in NORMALIZATIONS:
            raise ValidationError(
                f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}"
            )
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))


@dataclass(frozen=True, eq=False)
class ShapeDistribution:
    """A normalized histogram of shape-function samples over B equal bins
    on [0, ``top``].

    ``mass`` holds the B bin masses, which sum to 1; ``top`` is the upper
    edge, a finite real > 0, and ``bin_edges`` the B+1 edges derived from
    it; ``config`` is the ``ShapeConfig`` the samples were drawn and binned
    with. ``degenerate`` marks samples whose scale (mean or max) or bin
    width is zero or subnormal: the full mass then sits in bin 0.
    """

    mass: np.ndarray
    top: float
    sample_count: int
    config: ShapeConfig
    degenerate: bool = False

    def __post_init__(self):
        mass = check_reals("mass", self.mass, "reals")
        if mass.ndim != 1 or mass.size == 0:
            raise ValidationError(f"mass must be a nonempty 1-D array, got shape {mass.shape}")
        if (mass < 0).any():
            raise ValidationError("negative bin mass")
        if not abs(mass.sum() - 1.0) <= 1e-9:
            raise ValidationError(f"bin mass sums to {float(mass.sum())!r}, expected 1")
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "top", check_real("top", self.top, 0, strict=True))
        object.__setattr__(self, "sample_count", check_int("sample_count", self.sample_count, 1))

    @property
    def bin_edges(self) -> np.ndarray:
        """The B+1 edges ``np.histogram`` bins over [0, top]: its linspace,
        whose ``bins * (top / bins)`` can overflow at the largest double."""
        with np.errstate(over="ignore"):
            return np.linspace(0.0, self.top, self.bins + 1)

    @property
    def bins(self) -> int:
        return self.mass.size

    def to_dict(self) -> dict:
        """JSON-ready view: kind, bins, edges, mass, sample count, config."""
        c = self.config
        return {
            "kind": c.kind,
            "bins": int(self.bins),
            "edges": self.bin_edges.tolist(),
            "mass": self.mass.tolist(),
            "sample_count": int(self.sample_count),
            "seed": c.seed,
            "normalization": c.normalization,
            "delta": c.delta,
            "gamma": c.gamma,
            "degenerate": bool(self.degenerate),
        }


def resolve_config(ps: PhaseSpace, config: ShapeConfig) -> ShapeConfig:
    """Fill the window-derived DT1/DT2 defaults from the embedding params.

    The embedding window is tau * (m - 1) samples (at least 1): ``delta``
    defaults to twice the window and ``gamma`` to its reciprocal.
    """
    window = max(1, ps.params.tau * (ps.params.m - 1))
    delta = config.delta if config.delta is not None else 2 * window
    gamma = config.gamma if config.gamma is not None else 1.0 / window
    return replace(config, delta=delta, gamma=float(gamma))


@np.errstate(over="ignore", invalid="ignore")
def sample_shape(ps: PhaseSpace, config: ShapeConfig) -> np.ndarray:
    """Draw ``config.n_samples`` values of the configured shape function.

    Random indices are drawn uniformly and are distinct within each tuple;
    DT1 pairs are drawn uniformly from the set of index pairs whose time
    separation is at most ``delta``. Deterministic given the seed. Points
    far enough from the origin to overflow give non-finite samples, which
    build_histogram rejects, without a numpy warning.
    """
    cfg = resolve_config(ps, config)
    pts = ps.points
    p = len(pts)
    n = cfg.n_samples
    need = MIN_POINTS[cfg.kind]
    if p < need:
        raise ValidationError(f"{cfg.kind} needs at least {need} points, got {p}")
    rng = np.random.default_rng(cfg.seed)
    x = pts.T  # coordinate-major: x.take(i, axis=1) gathers the (m, n) planes

    if cfg.kind == "D1":
        i = rng.integers(0, p, n)
        d = x.take(i, axis=1) - pts.mean(axis=0)[:, None]
        return np.sqrt(_coordinate_dot(d, d))

    if cfg.kind == "DT1":
        # Weight each admissible time offset by its pair count, then place
        # the pair uniformly; this is exactly uniform over admissible pairs.
        # delta >= 1 and p >= 2, so at least offset 1 is admissible.
        offsets = np.arange(1, min(cfg.delta, p - 1) + 1)
        weights = (p - offsets).astype(float)
        ds = rng.choice(offsets, size=n, p=weights / weights.sum())
        i = (rng.random(n) * (p - ds)).astype(np.int64)
        d = x.take(i, axis=1) - x.take(i + ds, axis=1)
        return np.sqrt(_coordinate_dot(d, d))

    i = rng.integers(0, p, n)
    j = rng.integers(0, p - 1, n)
    j = j + (j >= i)  # distinct pair, uniform over ordered pairs
    if cfg.kind == "D3":
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        k = rng.integers(0, p - 2, n)
        k = k + (k >= lo)
        k = k + (k >= hi)  # distinct triple
        xi = x.take(i, axis=1)
        v1 = x.take(j, axis=1) - xi
        v2 = x.take(k, axis=1) - xi
        # Squared triangle area via the Gram determinant, valid in any dimension
        gram = _coordinate_dot(v1, v1) * _coordinate_dot(v2, v2) - _coordinate_dot(v1, v2) ** 2
        area = 0.5 * np.sqrt(np.maximum(gram, 0.0))
        return np.sqrt(area)
    d = x.take(i, axis=1) - x.take(j, axis=1)
    d = np.sqrt(_coordinate_dot(d, d))
    return d if cfg.kind == "D2" else np.exp(-cfg.gamma * np.abs(i - j)) * d


def _coordinate_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-column dot products of coordinate-major u and v, each of shape
    (m, n): the products of coordinate planes added in coordinate order.
    Every sample's squared distance is this sum of its difference with
    itself, the formula chaos._squared_sums computes."""
    s = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        s += a * b
    return s


def build_histogram(samples, config: ShapeConfig) -> ShapeDistribution:
    """Bin non-negative samples into the configured normalized histogram.

    Under the mean-normalized policy the samples are divided by their mean
    and counted over B equal bins on [0, 4], clamping larger values into the
    last bin. Under raw-range the bins span [0, max sample]. Samples whose
    scale (mean or max) or bin width is zero or subnormal cannot be binned;
    they are binned as zeros over [0, 4] or [0, 1], full mass in bin 0, with
    the ``degenerate`` flag set.
    """
    s = check_reals("samples", samples, "reals")
    if s.ndim != 1 or s.size == 0:
        raise ValidationError(f"samples must be a nonempty 1-D array, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValidationError("non-finite sample value")
    if (s < 0).any():
        raise ValidationError("negative sample value")
    mean_norm = config.normalization == "mean-normalized"
    with np.errstate(over="ignore"):
        scale = s.mean() if mean_norm else s.max()
    if np.isinf(scale):
        # The sum overflowed. It is below size * max double, so scaled by
        # 2**-size.bit_length() it is finite, and a power of two leaves
        # s / mean as it is (a sample it makes subnormal lies far below the
        # first bin edge).
        s = np.ldexp(s, -s.size.bit_length())
        scale = s.mean()
    top = MEAN_NORM_TOP if mean_norm else scale
    # A zero or subnormal scale or bin width leaves too few bits to bin by
    degenerate = bool(min(scale, top / config.bins) < np.finfo(float).tiny)
    # s is this call's own copy (check_reals), so it is binned in place
    if degenerate:
        s[:], top = 0.0, (top if mean_norm else 1.0)
    elif mean_norm:
        np.minimum(np.divide(s, scale, out=s), top, out=s)
    # np.histogram builds bin_edges, whose linspace can overflow inside
    with np.errstate(over="ignore"):
        counts, _ = np.histogram(s, bins=config.bins, range=(0.0, top))
    return ShapeDistribution(counts / counts.sum(), top, int(s.size), config, degenerate)


def shape_distribution(ps: PhaseSpace, config: ShapeConfig) -> ShapeDistribution:
    """Sample the configured shape function and bin it. Deterministic given
    the seed; the returned config echo carries the resolved delta/gamma."""
    cfg = resolve_config(ps, config)
    return build_histogram(sample_shape(ps, cfg), cfg)


def channel_distributions(
    series: MultiSeries, m: int, tau: int | None, config: ShapeConfig
) -> list[tuple[DelayEstimate, ShapeDistribution]]:
    """Each channel's delay and shape distribution, embedded at dimension
    ``m`` and delay ``tau`` (None: the delay rule), via ``per_channel``."""
    return per_channel(
        series, m, tau, lambda ch, embed: shape_distribution(delay_embed(ch, embed), config)
    )


def feature_vector(series: MultiSeries, embed: EmbeddingParams, config: ShapeConfig) -> np.ndarray:
    """Concatenated ``channel_distributions`` masses, every channel embedded
    alike: a vector of length channels * bins."""
    dists = channel_distributions(series, embed.m, embed.tau, config)
    return np.concatenate([d.mass for _, d in dists])
