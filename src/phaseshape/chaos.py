"""Classical chaos statistics of a reconstructed attractor.

Largest Lyapunov exponent by the divergence-of-nearest-neighbors method,
the correlation integral and correlation dimension, and a fixed 10-number
feature vector [lambda1, corr_dim, C(r1..r8)] used as the comparison
baseline for shape-distribution features.

Every distance these statistics compare comes from one formula,
``_squared_sums``, on coordinate-major (m, ...) arrays: the squared
coordinate differences summed in coordinate order. ``_pair_distances``
takes its root. A KD-tree finds the nearest-neighbor candidates; a tree
distance that lies within TREE_MARGIN of a decision is settled with
``_pair_distances`` instead, so the neighbors equal those of the dense
pairwise blocks bit for bit. The attractor diameter and the pair counts of
C(r) are each one dense pass over ``_distance_blocks``, which covers the
upper triangle of the squared-sum matrix in blocks of a given byte budget,
one block alive at a time, so the working memory does not grow with the
number of points. The dense passes take no roots: the diameter is the root
of the largest sum, and C(r) compares each sum s with _squared_radius(r),
the largest double whose root is at most r. Both equal the results of the
rooted distances bit for bit, because the root is correctly rounded and
nondecreasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingParams, PhaseSpace, delay_embed
from .errors import NumericalError, ValidationError, check_int, check_real, check_reals
from .series import TimeSeries

__all__ = [
    "LLEConfig",
    "LLEResult",
    "default_lle_config",
    "divergence_curve",
    "lle_rosenstein",
    "attractor_diameter",
    "correlation_integral",
    "correlation_dimension",
    "ChaosFeatureVector",
    "chaos_feature_vector",
    "N_RADII",
    "LOW_R2_THRESHOLD",
]

# Rows per nearest-neighbor tree query block.
CHUNK = 1000

# Bytes of one dense block of the diameter pass: its (m, rows, columns)
# coordinate differences. The diameter of a 5000-point, m = 3 cloud took
# 0.07 s with 0.5-2 MiB blocks, 0.10 s with 16 MiB and 0.27 s with 128 MiB,
# but perfbench's test_chaos_counters_and_alloc_peak needs the diameter span
# to allocate at least P * P * m * 8 bytes for its P = 778, m = 3 cloud, so
# the whole cloud in one block: at least 14 MiB.
BLOCK_BYTES = 16 * 2**20

# Bytes of one dense block of the C(r) pass. The pass scans each block once
# per radius, so a block should stay in a core's L2 cache (4 MiB on the
# 2-core Xeon measured). C(r) over six Lorenz P = 4978, m = 3 clouds took,
# median of 5 interleaved rounds: 0.46 s with 0.5 MiB blocks, 0.42 s with
# 1 MiB, 0.41 s with 1.5 MiB, 0.45 s with 2 MiB, 0.53 s with 4 MiB and
# 0.78 s with 16 MiB (0.84 s for 16 MiB blocks of rooted distances). Under
# tracemalloc, which the per-layer trace turns on, 2 MiB took 0.63 s and
# 1 MiB 0.77 s, so 2 MiB.
COUNT_BLOCK_BYTES = 2 * 2**20

# Neighbors a nearest-neighbor row first asks the tree for; k doubles until
# the row is settled, so the result does not depend on it.
K_START = 8

# Relative margin within which a tree distance is not trusted to pick a
# nearest neighbor: those candidates are re-measured with the block
# arithmetic. Tree and block distances differ by a few ulps, far below it.
TREE_MARGIN = 1e-9

# Distances are floored here before the log to survive exact duplicates.
DIST_FLOOR = 1e-12

# Fits with R^2 below this are flagged as unreliable, not rejected.
LOW_R2_THRESHOLD = 0.95

# Correlation-integral radii per feature vector, geometric from 5% to 100%
# of the attractor diameter.
N_RADII = 8
RADII_SPAN = (0.05, 1.0)


@dataclass(frozen=True)
class LLEConfig:
    """Divergence-tracking settings.

    theiler excludes temporal neighbors |i - j| <= theiler from the nearest
    neighbor search; k_max is the number of steps the pair separation is
    followed.
    """

    theiler: int
    k_max: int

    def __post_init__(self):
        object.__setattr__(self, "theiler", check_int("theiler", self.theiler, 0))
        object.__setattr__(self, "k_max", check_int("k_max", self.k_max, 3))


@np.errstate(over="ignore", invalid="ignore")
def _mean_period(x) -> float | None:
    """Mean period in samples: reciprocal of the power-weighted mean
    frequency of the spectrum (DC removed). None for a flat/empty spectrum,
    NaN without a numpy warning when the samples overflow the spectrum."""
    x0 = np.asarray(x, dtype=float)
    x0 = x0 - x0.mean()
    p = np.abs(np.fft.rfft(x0)) ** 2
    freqs = np.fft.rfftfreq(len(x0))
    p[0] = 0.0
    tot = p.sum()
    if tot <= 0.0:
        return None
    fbar = (freqs * p).sum() / tot
    if fbar <= 0.0:
        return None
    return 1.0 / fbar


def default_lle_config(ps: PhaseSpace) -> LLEConfig:
    """Derive theiler/k_max from the mean period of the first coordinate.

    theiler = round(mean period), k_max = round(3 mean periods), clamped so
    the divergence curve precondition P > theiler + k_max + 1 holds. A
    degenerate spectrum falls back to multiples of the embedding delay; one
    that overflows is a ValidationError.
    """
    p = len(ps.points)
    mp = _mean_period(ps.points[:, 0])
    if mp is None:
        theiler = 4 * ps.params.tau
        k_max = 12 * ps.params.tau
    elif not np.isfinite(mp):
        raise ValidationError("samples too large for the mean period: the spectrum overflows")
    else:
        theiler = max(1, int(round(mp)))
        k_max = int(round(3.0 * mp))
    if p <= theiler + k_max + 1:
        k_max = p - theiler - 2
    if k_max < 3:
        raise ValidationError(
            f"series too short for divergence tracking: {p} points, theiler {theiler}"
        )
    return LLEConfig(theiler=theiler, k_max=k_max)


def _squared_sums(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between coordinate-major a and b, each of
    shape (m, ...) and broadcast over the trailing axes: the coordinate
    differences squared and summed in coordinate order. Every distance the
    statistics compare is this sum or its root. The differences go to out,
    of their broadcast shape, when it is given; the result is a view of
    it."""
    d = np.subtract(a, b, out=out)
    d *= d
    s = d[0]
    for c in d[1:]:
        s += c
    return s


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between coordinate-major a and b: the root of
    _squared_sums."""
    s = _squared_sums(a, b)
    return np.sqrt(s, out=s)


def _squared_radius(r: float) -> float:
    """The largest double t with np.sqrt(t) <= r, for a finite r >= 0, so
    that a squared sum s is at most t exactly when its root is at most r.
    r * r (the largest double when it overflows) lies within a few units
    in the last place of t; the walk from it steps down while its root
    exceeds r, then up while the next double's root does not."""
    r, big = float(r), np.finfo(float).max
    t = np.float64(min(r * r, big))
    while np.sqrt(t) > r:
        t = np.nextafter(t, 0.0)
    while t < big and np.sqrt(up := np.nextafter(t, np.inf)) <= r:
        t = up
    return float(t)


def _distance_blocks(pts: np.ndarray, budget: int):
    """Yield (s, block): the squared sums from rows s:s + rows to the points
    s:P, as one (rows, P - s) array, with as many rows (at least one) as
    keep the block's (m, rows, P - s) differences within budget bytes; rows
    grow as the columns narrow. The blocks cover the upper triangle,
    diagonal included, which holds every pair once. This is the dense pass
    behind the diameter and the pair counts of C(r).
    Every block is computed in one buffer, so a consumer must be done with
    a block before it asks for the next; it may overwrite the block it
    holds."""
    x = np.ascontiguousarray(pts.T)
    m, p = x.shape
    # A block holds at most budget bytes unless it is one row, and never
    # more than the m * P * P values of a one-block cloud. One reused buffer
    # keeps the memory the same from run to run: fresh blocks of varying
    # size left the allocator's heap one block larger in some runs.
    buf = np.empty(max(min(budget // 8, m * p * p), m * p))
    s = 0
    while s < p:
        rows = min(max(1, budget // (8 * m * (p - s))), p - s)
        out = buf[: m * rows * (p - s)].reshape(m, rows, p - s)
        yield s, _squared_sums(x[:, s : s + rows, None], x[:, None, s:], out)
        s += rows


def _nearest_neighbors(pts: np.ndarray, theiler: int) -> np.ndarray:
    """Index of each point's nearest neighbor outside the theiler window,
    ties to the smallest index.

    The tree is queried in blocks of CHUNK rows. A row's k tree neighbors
    start at K_START and k doubles, up to P, until the k-th tree distance
    lies beyond TREE_MARGIN of the nearest admissible one. The admissible
    candidates within that margin are re-measured with _pair_distances,
    which picks the neighbor.
    """
    from scipy.spatial import cKDTree

    p = len(pts)
    # The middle point is the last with a neighbor beyond the window.
    if p <= 2 * theiler + 1:
        raise ValidationError(
            f"theiler window {theiler} leaves some point with no admissible neighbor"
        )
    tree = cKDTree(pts)
    x = np.ascontiguousarray(pts.T)
    nn = np.empty(p, dtype=int)
    for s in range(0, p, CHUNK):
        # k stays at most P: beyond it the tree pads its results with index P
        rows, k = np.arange(s, min(s + CHUNK, p)), min(K_START, p)
        while len(rows):
            dist, idx = tree.query(pts[rows], k=k)
            ok = np.abs(idx - rows[:, None]) > theiler
            cutoff = np.where(ok, dist, np.inf).min(axis=1, keepdims=True) * (1 + TREE_MARGIN)
            at = np.nonzero(ok & (dist <= cutoff))
            d = np.full(dist.shape, np.inf)
            d[at] = _pair_distances(x.take(rows[at[0]], axis=1), x.take(idx[at], axis=1))
            best = np.where(d == d.min(axis=1, keepdims=True), idx, p).min(axis=1)
            done = (dist[:, -1] > cutoff[:, 0]) | (k == p)
            nn[rows[done]] = best[done]
            rows, k = rows[~done], min(2 * k, p)
    return nn


def divergence_curve(ps: PhaseSpace, config: LLEConfig) -> np.ndarray:
    """Mean log separation of initially-nearest pairs after k steps.

    curve[k] = mean over pairs (i, nn(i)) still inside the series of
    ln max(||x[i+k] - x[nn(i)+k]||, 1e-12), for k = 0 .. k_max-1.
    """
    pts = ps.points
    p = len(pts)
    if p <= config.theiler + config.k_max + 1:
        raise ValidationError(
            f"need more than theiler + k_max + 1 = {config.theiler + config.k_max + 1} "
            f"points, got {p}"
        )
    nn = _nearest_neighbors(pts, config.theiler)
    # Pair i is alive at step k while both its points are: last < P - k.
    last = np.maximum(np.arange(p), nn)
    x = np.ascontiguousarray(pts.T)
    curve = []
    for k in range(config.k_max):
        i = np.flatnonzero(last < p - k)
        if len(i) == 0:
            break
        d = _pair_distances(x.take(i + k, axis=1), x.take(nn[i] + k, axis=1))
        curve.append(np.log(np.maximum(d, DIST_FLOOR)).mean())
    return np.array(curve)


@dataclass(frozen=True, eq=False)
class LLEResult:
    """Largest Lyapunov estimate with its fit diagnostics.

    lambda1 is the least-squares slope of the divergence curve over
    fit_range (inclusive), divided by dt. low_r2 flags fits whose R^2 falls
    below LOW_R2_THRESHOLD; the estimate is still reported.
    """

    lambda1: float
    r2: float
    fit_range: tuple[int, int]
    curve: np.ndarray
    theiler: int
    k_max: int

    @property
    def low_r2(self) -> bool:
        return self.r2 < LOW_R2_THRESHOLD


def _auto_fit_end(curve: np.ndarray) -> int:
    """First index where the curve reaches 70% of its rise, floored at 2."""
    y0 = curve[0]
    ysat = curve.max()
    reach = np.nonzero(curve >= y0 + 0.7 * (ysat - y0))[0]
    k_lin = int(reach[0]) if len(reach) else len(curve) - 1
    return max(k_lin, 2)


def lle_rosenstein(
    ps: PhaseSpace, config: LLEConfig | None = None, dt: float = 1.0
) -> LLEResult:
    """Largest Lyapunov exponent from nearest-neighbor divergence.

    The config defaults to ``default_lle_config`` of the cloud. The linear
    fit runs from step 0 to the first step where the curve has covered 70%
    of its rise (at least 2). Raises NumericalError if the curve is
    constant over that segment.
    """
    dt = check_real("dt", dt, 0, strict=True)
    if config is None:
        config = default_lle_config(ps)
    curve = divergence_curve(ps, config)
    if len(curve) < 3:
        raise NumericalError(f"divergence curve has only {len(curve)} usable steps")
    hi = _auto_fit_end(curve)
    seg = curve[: hi + 1]
    ks = np.arange(hi + 1)
    # Steps whose pairs all lie at one distance (a periodic channel has its
    # neighbors at 0) give means that differ only in how each rounds: up to
    # 8 units in the last place over 1-3000 pairs, far below a real rise.
    if np.ptp(seg) <= 64 * np.spacing(np.abs(seg).max()):
        raise NumericalError("divergence curve is constant over the fit range")
    slope, intercept = np.polyfit(ks, seg, 1)
    pred = slope * ks + intercept
    r2 = 1.0 - np.sum((seg - pred) ** 2) / np.sum((seg - seg.mean()) ** 2)
    curve = np.array(curve)
    curve.setflags(write=False)
    return LLEResult(
        lambda1=float(slope / dt),
        r2=float(r2),
        fit_range=(0, int(hi)),
        curve=curve,
        theiler=config.theiler,
        k_max=config.k_max,
    )


def attractor_diameter(ps: PhaseSpace) -> float:
    """Largest pairwise distance between reconstructed points."""
    top = 0.0
    for _, d in _distance_blocks(ps.points, BLOCK_BYTES):
        top = max(top, float(d.max()))
    return float(np.sqrt(top))


def _admissible_pairs(p: int, theiler) -> int:
    """Number of pairs (i, j) with j - i > theiler among p points; the one
    theiler check of every C(r) entry point."""
    theiler = check_int("theiler", theiler, 0)
    total = max(p - theiler - 1, 0) * (p - theiler) // 2
    if total < 2:
        raise ValidationError(
            f"theiler window {theiler} leaves {total} admissible pairs; need at least 2"
        )
    return total


def _pair_fractions(pts: np.ndarray, radii, theiler, diameter: float = np.inf) -> np.ndarray:
    """Fraction of pairs with j - i > theiler and distance <= r, per radius.

    A radius at least the diameter (the largest _pair_distances value, when
    the caller has it) holds every pair. The radii below it are counted in
    one dense pass over _distance_blocks of COUNT_BLOCK_BYTES: in each block
    the squared sums of the pairs j - i <= theiler, which include the
    diagonal and the pairs below it, are set to inf, and the rest are
    compared with each radius's _squared_radius.
    """
    total = _admissible_pairs(len(pts), theiler)
    radii = np.atleast_1d(check_reals("radii", radii, "nonnegative reals"))
    if radii.ndim != 1 or radii.size == 0 or not (radii >= 0).all():
        raise ValidationError(f"radii must be nonnegative reals, got {radii!r}")
    counts = np.full(len(radii), total)
    todo = np.nonzero(radii < diameter)[0]
    if len(todo) == 0:
        return counts / total
    t = [_squared_radius(r) for r in radii[todo]]
    counts[todo] = 0
    for _, d in _distance_blocks(pts, COUNT_BLOCK_BYTES):
        # Row k, column c of a block from row s is the pair (s + k, s + c),
        # admissible when c - k > theiler: the others lie in the first w columns.
        rows = d.shape[0]
        w = min(rows + theiler, d.shape[1])
        d[:, :w][np.arange(w) <= np.arange(rows)[:, None] + theiler] = np.inf
        for k, tk in zip(todo, t):
            counts[k] += np.count_nonzero(d <= tk)
    return counts / total


def _default_integrals(ps: PhaseSpace, theiler) -> tuple[np.ndarray, np.ndarray]:
    """N_RADII geometric radii spanning RADII_SPAN of the attractor diameter,
    and C(r) at them. theiler is checked before the O(P^2) diameter pass."""
    _admissible_pairs(len(ps), theiler)
    dia = attractor_diameter(ps)
    if dia <= 0:
        raise ValidationError("all points coincide; correlation dimension undefined")
    radii = np.geomspace(RADII_SPAN[0] * dia, RADII_SPAN[1] * dia, N_RADII)
    return radii, _pair_fractions(ps.points, radii, theiler, dia)


def correlation_integral(ps: PhaseSpace, r, theiler: int = 0):
    """C(r): fraction of time-separated point pairs within distance r.

    Pairs (i, j) with j - i > theiler count once; the comparison is
    inclusive, so r at least the attractor diameter gives exactly 1.
    Accepts a single radius (returns a float) or a sequence of radii
    (returns an array of the same length).
    """
    c = _pair_fractions(ps.points, r, theiler)
    return float(c[0]) if np.ndim(r) == 0 else c


def _dimension_from(radii: np.ndarray, c: np.ndarray) -> float:
    """Log-log slope of C(r) over radii with nontrivial fractions."""
    ok = (c > 0.0) & (c < 1.0)
    if ok.sum() < 3:
        raise NumericalError(
            f"only {int(ok.sum())} radii with 0 < C(r) < 1; need at least 3 for a slope"
        )
    return float(np.polyfit(np.log(radii[ok]), np.log(c[ok]), 1)[0])


def correlation_dimension(
    ps: PhaseSpace, radii=None, theiler: int = 0
) -> float:
    """Correlation dimension: slope of log C(r) against log r.

    Radii default to a geometric ladder from 5% to 100% of the attractor
    diameter. Radii where C(r) is 0 or 1 carry no slope information and are
    dropped; fewer than 3 useful radii raise NumericalError.
    """
    if radii is None:
        return _dimension_from(*_default_integrals(ps, theiler))
    radii = check_reals("radii", radii, "nonnegative reals")
    if radii.ndim != 1 or len(radii) < 3 or (radii <= 0).any():
        raise ValidationError("need at least 3 positive radii")
    return _dimension_from(radii, _pair_fractions(ps.points, radii, theiler))


@dataclass(frozen=True, eq=False)
class ChaosFeatureVector:
    """The 10-number baseline feature: [lambda1, corr_dim, C(r1..r8)].

    radii are the 8 correlation-integral radii (geometric, 5% to 100% of
    the attractor diameter); integrals is C at those radii, nondecreasing
    in [0, 1]. Fit diagnostics ride along for reporting.
    """

    lambda1: float
    corr_dim: float
    integrals: np.ndarray
    radii: np.ndarray
    theiler: int
    fit_range: tuple[int, int]
    r2: float

    def __post_init__(self):
        integrals = check_reals("integrals", self.integrals, "reals")
        radii = check_reals("radii", self.radii, "reals")
        if integrals.shape != (N_RADII,) or radii.shape != (N_RADII,):
            raise ValidationError(
                f"expected {N_RADII} radii and integrals, got {radii.shape} and {integrals.shape}"
            )
        if (integrals < 0).any() or (integrals > 1).any():
            raise ValidationError("correlation integrals must lie in [0, 1]")
        if (np.diff(integrals) < 0).any():
            raise ValidationError("correlation integrals must be nondecreasing in r")
        integrals.setflags(write=False)
        radii.setflags(write=False)
        object.__setattr__(self, "integrals", integrals)
        object.__setattr__(self, "radii", radii)
        for f in ("lambda1", "corr_dim", "r2"):
            object.__setattr__(self, f, check_real(f, getattr(self, f)))
        object.__setattr__(self, "theiler", check_int("theiler", self.theiler, 0))

    @property
    def low_r2(self) -> bool:
        return self.r2 < LOW_R2_THRESHOLD

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([[self.lambda1, self.corr_dim], self.integrals])

    def to_dict(self) -> dict:
        return {
            "lambda1": float(self.lambda1),
            "corr_dim": float(self.corr_dim),
            "integrals": self.integrals.tolist(),
            "radii": self.radii.tolist(),
            "theiler": int(self.theiler),
            "fit_range": list(self.fit_range),
            "r2": float(self.r2),
            "low_r2": bool(self.low_r2),
        }


def chaos_feature_vector(series: TimeSeries, embed: EmbeddingParams) -> ChaosFeatureVector:
    """Build the 10-number chaos feature from one channel.

    The channel is delay-embedded, lambda1 is estimated by
    ``lle_rosenstein`` under its default config, and C(r) is evaluated at
    the 8 standard radii with the same theiler exclusion; corr_dim is the
    log-log slope over those radii.
    """
    if series.samples.min() == series.samples.max():
        raise ValidationError("constant series has no attractor geometry")
    ps = delay_embed(series, embed)
    res = lle_rosenstein(ps, dt=series.dt)
    radii, integrals = _default_integrals(ps, res.theiler)
    return ChaosFeatureVector(
        lambda1=res.lambda1,
        corr_dim=_dimension_from(radii, integrals),
        integrals=integrals,
        radii=radii,
        theiler=res.theiler,
        fit_range=res.fit_range,
        r2=res.r2,
    )
