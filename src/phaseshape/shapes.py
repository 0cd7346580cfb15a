"""Shape distributions of a reconstructed phase space.

Five shape functions are sampled over random points of the attractor and
binned into a fixed-size histogram that serves as the dynamical feature:

- D1: distance from the attractor centroid to one random point
- D2: distance between two random points
- D3: square root of the area of the triangle of three random points
- DT1: D2 restricted to pairs at most ``delta`` samples apart in time
- DT2: D2 weighted by exp(-gamma * |time separation|)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .embedding import DelayEstimate, EmbeddingParams, PhaseSpace, delay_embed, per_channel
from .errors import ValidationError, check_int, check_real
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
    """A normalized B-bin histogram of shape-function samples.

    ``mass`` sums to 1 and ``bin_edges`` are B+1 uniformly spaced values.
    ``degenerate`` marks the all-zero-sample fallback, where the full mass
    is placed in bin 0.
    """

    mass: np.ndarray
    bin_edges: np.ndarray
    kind: str
    sample_count: int
    config: dict
    degenerate: bool = False

    def __post_init__(self):
        mass = np.array(self.mass, dtype=float)
        edges = np.array(self.bin_edges, dtype=float)
        if mass.ndim != 1 or edges.ndim != 1 or edges.size != mass.size + 1:
            raise ValidationError(
                f"need B masses and B+1 edges, got {mass.shape} and {edges.shape}"
            )
        if (mass < 0).any():
            raise ValidationError("negative bin mass")
        if abs(mass.sum() - 1.0) > 1e-9:
            raise ValidationError(f"bin mass sums to {mass.sum()!r}, expected 1")
        widths = np.diff(edges)
        if (widths <= 0).any():
            raise ValidationError("bin edges must be strictly increasing")
        if np.ptp(widths) > 1e-9 * widths[0]:
            raise ValidationError("bins must have uniform width")
        mass.setflags(write=False)
        edges.setflags(write=False)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "bin_edges", edges)

    @property
    def bins(self) -> int:
        return self.mass.size

    def to_dict(self) -> dict:
        """JSON-ready view: kind, bins, edges, mass, sample count, config."""
        return {
            "kind": self.kind,
            "bins": int(self.bins),
            "edges": self.bin_edges.tolist(),
            "mass": self.mass.tolist(),
            "sample_count": int(self.sample_count),
            "seed": self.config.get("seed"),
            "normalization": self.config.get("normalization"),
            "delta": self.config.get("delta"),
            "gamma": self.config.get("gamma"),
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


def sample_shape(ps: PhaseSpace, config: ShapeConfig) -> np.ndarray:
    """Draw ``config.n_samples`` values of the configured shape function.

    Random indices are drawn uniformly and are distinct within each tuple;
    DT1 pairs are drawn uniformly from the set of index pairs whose time
    separation is at most ``delta``. Deterministic given the seed.
    """
    cfg = resolve_config(ps, config)
    pts = ps.points
    p = len(pts)
    n = cfg.n_samples
    rng = np.random.default_rng(cfg.seed)

    if cfg.kind == "D1":
        centroid = pts.mean(axis=0)
        i = rng.integers(0, p, n)
        return np.linalg.norm(pts[i] - centroid, axis=1)

    if cfg.kind in ("D2", "DT2"):
        if p < 2:
            raise ValidationError(f"{cfg.kind} needs at least 2 points, got {p}")
        i = rng.integers(0, p, n)
        j = rng.integers(0, p - 1, n)
        j = j + (j >= i)  # distinct pair, uniform over ordered pairs
        d = np.linalg.norm(pts[i] - pts[j], axis=1)
        if cfg.kind == "D2":
            return d
        tsep = np.abs(i - j)
        return np.exp(-cfg.gamma * tsep) * d

    if cfg.kind == "D3":
        if p < 3:
            raise ValidationError(f"D3 needs at least 3 points, got {p}")
        i = rng.integers(0, p, n)
        j = rng.integers(0, p - 1, n)
        j = j + (j >= i)
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        k = rng.integers(0, p - 2, n)
        k = k + (k >= lo)
        k = k + (k >= hi)  # distinct triple
        v1 = pts[j] - pts[i]
        v2 = pts[k] - pts[i]
        # Squared triangle area via the Gram determinant, valid in any dimension
        gram = (v1 * v1).sum(axis=1) * (v2 * v2).sum(axis=1) - ((v1 * v2).sum(axis=1)) ** 2
        area = 0.5 * np.sqrt(np.maximum(gram, 0.0))
        return np.sqrt(area)

    # DT1: weight each admissible time offset by its pair count, then place
    # the pair uniformly; this is exactly uniform over admissible pairs.
    if p < 2:
        raise ValidationError(f"DT1 needs at least 2 points, got {p}")
    dmax = min(cfg.delta, p - 1)
    if dmax < 1:
        raise ValidationError(f"DT1 window delta={cfg.delta} admits no pair")
    offsets = np.arange(1, dmax + 1)
    weights = (p - offsets).astype(float)
    ds = rng.choice(offsets, size=n, p=weights / weights.sum())
    i = (rng.random(n) * (p - ds)).astype(np.int64)
    return np.linalg.norm(pts[i] - pts[i + ds], axis=1)


def build_histogram(samples, config: ShapeConfig) -> ShapeDistribution:
    """Bin non-negative samples into the configured normalized histogram.

    Under the mean-normalized policy the samples are divided by their mean
    and counted over B equal bins on [0, 4], clamping larger values into the
    last bin. Under raw-range the bins span [0, max sample]. All-zero
    samples cannot be mean-normalized; they produce full mass in bin 0 with
    the ``degenerate`` flag set.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValidationError(f"samples must be a nonempty 1-D array, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValidationError("non-finite sample value")
    if (s < 0).any():
        raise ValidationError("negative sample value")
    b = config.bins
    degenerate = False
    if config.normalization == "mean-normalized":
        mu = s.mean()
        if mu == 0.0:
            edges = np.linspace(0.0, MEAN_NORM_TOP, b + 1)
            mass = np.zeros(b)
            mass[0] = 1.0
            degenerate = True
        else:
            v = np.minimum(s / mu, MEAN_NORM_TOP)
            counts, edges = np.histogram(v, bins=b, range=(0.0, MEAN_NORM_TOP))
            mass = counts / counts.sum()
    else:
        top = s.max()
        if top == 0.0:
            edges = np.linspace(0.0, 1.0, b + 1)
            mass = np.zeros(b)
            mass[0] = 1.0
            degenerate = True
        else:
            counts, edges = np.histogram(s, bins=b, range=(0.0, top))
            mass = counts / counts.sum()
    return ShapeDistribution(
        mass=mass,
        bin_edges=edges,
        kind=config.kind,
        sample_count=int(s.size),
        config=asdict(config),
        degenerate=degenerate,
    )


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
