import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from phaseshape import (
    ChaosFeatureVector,
    EmbeddingParams,
    LLEConfig,
    NumericalError,
    PhaseSpace,
    TimeSeries,
    ValidationError,
    attractor_diameter,
    chaos,
    chaos_feature_vector,
    correlation_dimension,
    correlation_integral,
    default_lle_config,
    delay_embed,
    divergence_curve,
    lle_rosenstein,
)

from oracles import cloud, pair_square


def _lorenz_ps(series):
    return delay_embed(series.channels[0], EmbeddingParams(3, 11))


class TestLLEConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            LLEConfig(theiler=-1, k_max=10)
        with pytest.raises(ValidationError):
            LLEConfig(theiler=0, k_max=2)

    @pytest.mark.parametrize("field", ["theiler", "k_max"])
    def test_boolean_counts_rejected(self, field):
        kwargs = {"theiler": 1, "k_max": 10, field: True}
        with pytest.raises(ValidationError, match=field):
            LLEConfig(**kwargs)


class TestDefaultConfig:
    def test_mean_period_drives_windows(self, lorenz_default):
        cfg = default_lle_config(_lorenz_ps(lorenz_default))
        assert cfg.theiler == 101
        assert cfg.k_max == 302

    def test_clamped_on_short_series(self, lorenz_default):
        ps = delay_embed(lorenz_default.prefix(400).channels[0], EmbeddingParams(3, 11))
        cfg = default_lle_config(ps)
        assert len(ps) > cfg.theiler + cfg.k_max + 1

    def test_too_short_rejected(self):
        # One slow cycle: the theiler window swallows the whole series
        x = TimeSeries(np.sin(np.linspace(0.0, 2 * np.pi, 20)))
        ps = delay_embed(x, EmbeddingParams(2, 1))
        with pytest.raises(ValidationError, match="too short"):
            default_lle_config(ps)

    def test_flat_spectrum_falls_back_to_delay_multiples(self):
        # Constant first coordinate has no spectral content; the windows
        # fall back to multiples of tau.
        pts = np.column_stack([np.ones(200), np.arange(200.0)])
        ps = cloud(pts)
        cfg = default_lle_config(ps)
        assert cfg.theiler == 4
        assert cfg.k_max == 12


class TestDivergenceCurve:
    def test_precondition(self):
        ps = cloud(np.random.default_rng(0).normal(size=(10, 2)))
        with pytest.raises(ValidationError, match="theiler \\+ k_max"):
            divergence_curve(ps, LLEConfig(theiler=3, k_max=6))

    def test_no_admissible_neighbor(self):
        ps = cloud(np.random.default_rng(0).normal(size=(9, 2)))
        with pytest.raises(ValidationError, match="no admissible neighbor"):
            divergence_curve(ps, LLEConfig(theiler=4, k_max=3))

    def test_finite_and_full_length(self, rossler_default):
        ps = delay_embed(rossler_default.prefix(600).channels[0], EmbeddingParams(3, 8))
        cfg = default_lle_config(ps)
        curve = divergence_curve(ps, cfg)
        assert len(curve) == cfg.k_max
        assert np.isfinite(curve).all()
        # Coarse ramp with tail copies of a few anchors: every close pair
        # involves a late index, so tracking dies before k_max.
        x = np.concatenate([np.arange(16.0), [3.001, 9.001, 12.001, 6.001]])
        assert len(divergence_curve(cloud(x[:, None]), LLEConfig(theiler=6, k_max=8))) == 7


class TestLLE:
    def test_lorenz_anchor(self, lorenz_default):
        res = lle_rosenstein(_lorenz_ps(lorenz_default), dt=0.01)
        assert res.lambda1 == pytest.approx(1.6023, abs=5e-4)
        assert res.r2 == pytest.approx(0.9815, abs=5e-4)
        assert not res.low_r2
        assert res.fit_range == (0, 161)

    def test_rossler_anchor(self, rossler_default):
        ps = delay_embed(rossler_default.channels[0], EmbeddingParams(3, 8))
        res = lle_rosenstein(ps, dt=0.12)
        assert res.lambda1 == pytest.approx(0.0671, abs=5e-4)
        assert not res.low_r2

    def test_rossler_short_flags_low_r2(self, rossler_default):
        ps = delay_embed(rossler_default.prefix(400).channels[0], EmbeddingParams(3, 8))
        res = lle_rosenstein(ps, dt=0.12)
        assert res.lambda1 == pytest.approx(0.0291, abs=5e-4)
        assert res.low_r2
        assert res.r2 < 0.95

    def test_white_noise_fits_poorly(self, noise_series):
        ps = delay_embed(noise_series, EmbeddingParams(3, 1))
        res = lle_rosenstein(ps, LLEConfig(theiler=4, k_max=12))
        assert res.low_r2
        assert res.r2 == pytest.approx(0.9337, abs=5e-4)

    def test_amplitude_scale_invariance(self, lorenz_default):
        x = lorenz_default.channels[0]
        cfg = LLEConfig(theiler=101, k_max=302)
        a = lle_rosenstein(delay_embed(x, EmbeddingParams(3, 11)), cfg, dt=0.01)
        scaled = TimeSeries(x.samples * 4.0, dt=0.01)
        b = lle_rosenstein(delay_embed(scaled, EmbeddingParams(3, 11)), cfg, dt=0.01)
        assert abs(a.lambda1 - b.lambda1) <= 1e-9 * abs(a.lambda1)

    def test_dt_scales_lambda(self, rossler_default):
        ps = delay_embed(rossler_default.channels[0], EmbeddingParams(3, 8))
        a = lle_rosenstein(ps, dt=0.12)
        b = lle_rosenstein(ps, dt=0.06)
        assert b.lambda1 == pytest.approx(2.0 * a.lambda1)

    def test_constant_curve_rejected(self):
        # Ramp plus period-4 wobble: each point's nearest admissible
        # neighbor sits exactly 1.0 away at every step, so the log curve is
        # identically zero and carries no slope.
        i = np.arange(15)
        x = i / 4.0 + np.array([0.0, 0.0625, 0.125, 0.0625])[i % 4]
        ps = cloud(x[:, None])
        curve = divergence_curve(ps, LLEConfig(theiler=3, k_max=10))
        assert (curve == 0.0).all()
        with pytest.raises(NumericalError, match="constant over the fit range"):
            lle_rosenstein(ps, LLEConfig(theiler=3, k_max=10))

    @pytest.mark.parametrize("tau", [1, 2])
    def test_periodic_curve_rejected(self, tau):
        # Every point has an exact copy one period away, so every step's
        # pairs sit at distance 0 and each curve entry is the mean of equal
        # log(DIST_FLOOR) values: the entries differ only in their rounding.
        x = np.tile(np.arange(5.0), 100)
        ps = delay_embed(TimeSeries(x), EmbeddingParams(3, tau))
        curve = divergence_curve(ps, default_lle_config(ps))
        assert 0 < np.ptp(curve) <= 8 * np.spacing(np.abs(curve).max())
        with pytest.raises(NumericalError, match="constant over the fit range"):
            lle_rosenstein(ps)

    def test_bad_dt(self, rossler_default):
        ps = delay_embed(rossler_default.prefix(500).channels[0], EmbeddingParams(3, 8))
        with pytest.raises(ValidationError, match="dt"):
            lle_rosenstein(ps, dt=0.0)


class TestCorrelationIntegral:
    def _triangle(self):
        return cloud(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        )

    def test_saturates_at_diameter(self):
        tri = self._triangle()
        assert correlation_integral(tri, 1.5) == 1.0

    def test_zero_below_smallest_distance(self):
        assert correlation_integral(self._triangle(), 0.5) == 0.0

    def test_boundary_counts_inclusively(self):
        assert correlation_integral(self._triangle(), 1.0) == 1.0

    def test_radius_list(self):
        c = correlation_integral(self._triangle(), [0.5, 1.0, 1.5])
        assert np.array_equal(c, [0.0, 1.0, 1.0])

    def test_theiler_excludes_close_pairs(self):
        quad = cloud(np.array([[0.0], [1.0], [2.0], [3.0]]))
        # theiler=1 keeps pairs (0,2), (0,3), (1,3): distances 2, 3, 2
        assert correlation_integral(quad, 1.9, theiler=1) == 0.0
        assert correlation_integral(quad, 2.0, theiler=1) == pytest.approx(2.0 / 3.0)
        assert correlation_integral(quad, 3.0, theiler=1) == 1.0

    def test_too_few_pairs(self):
        tri = self._triangle()
        with pytest.raises(ValidationError, match="at least 2"):
            correlation_integral(tri, 1.0, theiler=1)

    def test_monotone_in_r(self, lorenz_default):
        ps = delay_embed(lorenz_default.prefix(1500).channels[0], EmbeddingParams(3, 11))
        dia = attractor_diameter(ps)
        c = correlation_integral(ps, np.geomspace(0.01 * dia, dia, 12), theiler=10)
        assert (np.diff(c) >= 0).all()
        assert (c >= 0).all() and (c <= 1).all()
        assert c[-1] == 1.0

    def test_bad_radius(self):
        with pytest.raises(ValidationError):
            correlation_integral(self._triangle(), -1.0)

    @pytest.mark.parametrize(
        "fn, radii",
        [
            (correlation_integral, "a"),
            (correlation_integral, [1, "x"]),
            (correlation_dimension, "abc"),
            (correlation_dimension, [0.1, 0.2, "x"]),
        ],
    )
    def test_non_numeric_radii_rejected(self, fn, radii):
        with pytest.raises(ValidationError, match="radii must be nonnegative reals"):
            fn(self._triangle(), radii)


class TestCorrelationDimension:
    def test_line_near_one(self):
        t = np.random.default_rng(21).uniform(0.0, 1.0, 1500)
        ps = cloud(np.column_stack([t, 2 * t, -t]))
        ext = float(np.linalg.norm(np.ptp(ps.points, axis=0)))
        d = correlation_dimension(ps, radii=np.geomspace(0.01 * ext, 0.2 * ext, 8))
        assert d == pytest.approx(0.9712, abs=1e-3)
        assert 0.85 < d < 1.15

    def test_plane_near_two(self):
        pts = np.random.default_rng(22).uniform(0.0, 1.0, (1500, 2))
        ps = cloud(pts)
        ext = float(np.linalg.norm(np.ptp(pts, axis=0)))
        d = correlation_dimension(ps, radii=np.geomspace(0.01 * ext, 0.2 * ext, 8))
        assert d == pytest.approx(1.9353, abs=1e-3)
        assert 1.8 < d < 2.2

    def test_lorenz_scaling_region(self, lorenz_default):
        ps = _lorenz_ps(lorenz_default)
        dia = attractor_diameter(ps)
        sub = cloud(ps.points[::2])
        d = correlation_dimension(sub, radii=np.geomspace(0.01 * dia, 0.1 * dia, 8), theiler=49)
        assert d == pytest.approx(1.9727, abs=1e-3)
        assert 1.80 < d < 2.30

    def test_insufficient_usable_radii(self):
        tri = cloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]))
        with pytest.raises(NumericalError, match="at least 3"):
            correlation_dimension(tri, radii=[2.0, 3.0, 4.0])

    def test_radii_validation(self):
        ps = cloud(np.random.default_rng(3).normal(size=(50, 2)))
        with pytest.raises(ValidationError):
            correlation_dimension(ps, radii=[1.0, 2.0])
        with pytest.raises(ValidationError):
            correlation_dimension(ps, radii=[0.0, 1.0, 2.0])

    def test_coincident_cloud_rejected(self):
        ps = cloud(np.zeros((20, 2)))
        with pytest.raises(ValidationError, match="coincide"):
            correlation_dimension(ps)

    @pytest.mark.parametrize("theiler", [-5, 2.7, True])
    @pytest.mark.parametrize("radii", [None, [0.5, 1.0, 2.0]])
    def test_bad_theiler_rejected(self, theiler, radii):
        ps = cloud(np.random.default_rng(0).normal(size=(300, 2)))
        with pytest.raises(ValidationError, match="theiler must be an integer"):
            correlation_dimension(ps, radii=radii, theiler=theiler)

    @pytest.mark.parametrize("theiler", [-5, 2.7, 299])
    def test_theiler_checked_before_diameter(self, monkeypatch, theiler):
        def no_pass(ps):
            raise AssertionError("diameter pass ran before the theiler check")

        monkeypatch.setattr(chaos, "attractor_diameter", no_pass)
        ps = cloud(np.random.default_rng(0).normal(size=(300, 2)))
        with pytest.raises(ValidationError, match="theiler"):
            correlation_dimension(ps, theiler=theiler)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAttractorDiameter:
    def test_known_cloud(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        assert attractor_diameter(cloud(pts)) == 5.0

    def test_memory_bounded_by_block_budget(self):
        # 3000 rows of 3 coordinates: 1000-row blocks would take 72 MB here.
        ps = cloud(np.random.default_rng(5).normal(size=(3000, 3)))
        assert _traced_peak(attractor_diameter, ps) <= 2 * chaos.BLOCK_BYTES

    def test_pair_fractions_memory_bounded_by_block_budget(self):
        # C(r) below the diameter is one dense pass over the smaller blocks.
        ps = cloud(np.random.default_rng(5).normal(size=(3000, 3)))
        radii, _ = chaos._default_integrals(ps, 10)
        dia = chaos.attractor_diameter(ps)
        peak = _traced_peak(chaos._pair_fractions, ps, radii, 10, dia)
        assert peak <= 2 * chaos.COUNT_BLOCK_BYTES

    def test_pair_fractions_memory_bounded_when_embedded(self):
        # The same bound when the pass shares one copy of the series.
        x = np.random.default_rng(5).normal(size=3022)
        ps = delay_embed(TimeSeries(x), EmbeddingParams(3, 11))
        assert len(ps) == 3000 and chaos._layout(ps)[1] == 11
        radii, _ = chaos._default_integrals(ps, 10)
        dia = chaos.attractor_diameter(ps)
        peak = _traced_peak(chaos._pair_fractions, ps, radii, 10, dia)
        assert peak <= 2 * chaos.COUNT_BLOCK_BYTES

    @pytest.mark.parametrize("embedded", [False, True])
    def test_neighbor_pass_memory_bounded(self, embedded):
        # The pass that also tracks the nearest neighbors, with and without
        # radii, keeps the bound: in the first blocks every column improves.
        rng = np.random.default_rng(5)
        if embedded:
            ps = delay_embed(TimeSeries(rng.normal(size=3022)), EmbeddingParams(3, 11))
        else:
            ps = cloud(rng.normal(size=(3000, 3)))
        radii, _ = chaos._default_integrals(ps, 10)
        dia = chaos.attractor_diameter(ps)
        nn = np.empty(len(ps), dtype=int)
        peak = _traced_peak(chaos._pair_fractions, ps, radii, 10, dia, nn)
        assert peak <= 2 * chaos.COUNT_BLOCK_BYTES
        assert _traced_peak(chaos._nearest_neighbors, ps, 10) <= 2 * chaos.COUNT_BLOCK_BYTES


class TestChaosFeatureVector:
    def test_lorenz_vector(self, lorenz_default):
        v = chaos_feature_vector(lorenz_default.channels[0], EmbeddingParams(3, 11))
        vec = v.vector
        assert vec.shape == (10,)
        assert vec[0] == v.lambda1
        assert vec[1] == v.corr_dim
        assert 1.2 <= v.lambda1 <= 1.8
        assert (np.diff(v.integrals) >= 0).all()
        assert v.integrals[-1] == 1.0

    def test_radii_span_attractor(self, lorenz_default):
        v = chaos_feature_vector(lorenz_default.channels[0], EmbeddingParams(3, 11))
        ps = _lorenz_ps(lorenz_default)
        dia = attractor_diameter(ps)
        assert v.radii[0] == pytest.approx(0.05 * dia)
        assert v.radii[-1] == pytest.approx(dia)

    def test_constant_series_rejected(self):
        with pytest.raises(ValidationError, match="constant"):
            chaos_feature_vector(TimeSeries(np.full(500, 3.0)), EmbeddingParams(3, 1))

    def test_window_wider_than_half_the_cloud(self):
        # 62 rows of a period-40 sine: the mean period gives theiler 42,
        # wider than half the 60-point cloud, so some point has no neighbor.
        x = np.sin(2 * np.pi * np.arange(62) / 40) + 0.01 * np.random.default_rng(0).normal(size=62)
        with pytest.raises(ValidationError, match="^theiler window 42 leaves some point"):
            chaos_feature_vector(TimeSeries(x), EmbeddingParams(3, 1))

    @pytest.mark.parametrize(
        "n, tau, error, match",
        [
            (300, 1, NumericalError, "^divergence curve is constant over the fit range$"),
            (40, 5, ValidationError, "^theiler window 20 leaves some point with no admissible"),
        ],
    )
    def test_underflowing_cloud_fails_lambda1_first(self, n, tau, error, match):
        # Squared differences of samples near 1e-170 underflow to 0: the
        # diameter is 0 and every pair ties at 0. The vector still raises
        # lambda1's error, the neighbors' or the flat curve's, before C(r)'s.
        x = 1e-170 * np.random.default_rng(0).normal(size=n)
        with pytest.raises(error, match=match):
            chaos_feature_vector(TimeSeries(x), EmbeddingParams(3, tau))
        with pytest.raises(ValidationError, match="^all points coincide"):
            correlation_dimension(delay_embed(TimeSeries(x), EmbeddingParams(3, tau)))

    def test_seed_robustness(self, lorenz_seeded):
        a = chaos_feature_vector(lorenz_seeded[2].channels[0], EmbeddingParams(3, 11)).vector
        b = chaos_feature_vector(lorenz_seeded[3].channels[0], EmbeddingParams(3, 11)).vector
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
        assert rel.max() <= 0.10

    FIELDS = dict(
        lambda1=0.1, corr_dim=1.0, integrals=np.linspace(0.1, 1.0, 8),
        radii=np.geomspace(0.05, 1.0, 8), theiler=1, fit_range=(0, 2),
    )

    def test_low_r2_follows_r2(self):
        for r2, low in ((0.5, True), (0.95, False)):
            v = ChaosFeatureVector(**self.FIELDS, r2=r2)
            assert v.low_r2 is low
            assert v.to_dict()["low_r2"] is low
        # the flag is not a setting: it cannot disagree with r2
        with pytest.raises(TypeError):
            ChaosFeatureVector(**self.FIELDS, r2=0.5, low_r2=False)
        with pytest.raises(TypeError):
            LLEConfig(theiler=0, k_max=10, fit_range=(0, 5))

    RANGE = r"^correlation integrals must lie in \[0, 1\]$"
    RADII = r"^radii must be finite, > 0 and strictly increasing$"

    @pytest.mark.parametrize("changes, message", [
        ({"integrals": [math.nan] * 8}, RANGE),
        ({"integrals": np.linspace(-0.1, 1.0, 8)}, RANGE),
        ({"integrals": np.linspace(0.1, 1.1, 8)}, RANGE),
        ({"integrals": np.linspace(1.0, 0.1, 8)}, r"^correlation integrals must be nondecreasing"),
        ({"radii": [math.inf] * 8}, RADII),
        ({"radii": [math.nan] * 8}, RADII),
        ({"radii": [-1.0] * 8}, RADII),
        ({"radii": np.geomspace(0.0001, 1.0, 8) - 0.001}, RADII),
        ({"radii": [*np.geomspace(0.05, 1.0, 7), math.inf]}, RADII),
        ({"radii": np.geomspace(1.0, 0.05, 8)}, RADII),
        ({"radii": [1.0] * 8}, RADII),
        ({"fit_range": ("a",)}, r"^fit_range must be a sequence of 2 integers, got \('a',\)$"),
        ({"fit_range": 2}, r"^fit_range must be a sequence of 2 integers, got 2$"),
        ({"fit_range": (5, 2)}, r"^fit_range\[1\] must be an integer >= 6, got 2$"),
        ({"fit_range": (2, 2)}, r"^fit_range\[1\] must be an integer >= 3, got 2$"),
    ], ids=[
        "integrals-nan", "integrals-below", "integrals-above", "integrals-decreasing",
        "radii-inf", "radii-nan", "radii-negative", "radii-first-negative", "radii-last-inf",
        "radii-decreasing", "radii-equal", "fit-range-short", "fit-range-int",
        "fit-range-reversed", "fit-range-empty",
    ])
    def test_refuses_what_the_pipeline_cannot_produce(self, changes, message):
        with pytest.raises(ValidationError, match=message):
            ChaosFeatureVector(**{**self.FIELDS, "r2": 0.9, **changes})

    def test_to_dict(self, rossler_default):
        short = rossler_default.prefix(600)
        v = chaos_feature_vector(short.channels[0], EmbeddingParams(3, 8))
        d = v.to_dict()
        for key in ("lambda1", "corr_dim", "integrals", "radii", "theiler", "fit_range", "r2", "low_r2"):
            assert key in d
        assert len(d["integrals"]) == 8
        assert len(d["radii"]) == 8


@st.composite
def _clouds(draw, min_m=1):
    """Small clouds, rounded so that distances tie, with some duplicate points.
    Dimensions reach 10: from m = 8 numpy's own sums are pairwise, not in
    coordinate order."""
    p = draw(st.integers(min_value=2, max_value=30))
    m = draw(st.integers(min_value=min_m, max_value=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pts = np.round(rng.normal(size=(p, m)), draw(st.integers(min_value=0, max_value=2)))
    n_dup = draw(st.integers(min_value=0, max_value=p // 2))
    pts[rng.integers(0, p, size=n_dup)] = pts[rng.integers(0, p, size=n_dup)]
    return pts


@st.composite
def _tied_clouds(draw):
    """Clouds on the corners of a unit cube: every point has many exact
    duplicates, so nearest neighbors tie across blocks and both sides of
    each point."""
    p = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return rng.integers(0, 2, size=(p, m)).astype(float)


@st.composite
def _embedded(draw):
    """Delay embeddings of short series, rounded in some draws so that
    distances tie and points repeat. m reaches 9 and tau 6; with P up to 30
    points, tau is at least P in some draws."""
    m = draw(st.integers(min_value=1, max_value=9))
    tau = draw(st.integers(min_value=1, max_value=6))
    p = draw(st.integers(min_value=2, max_value=30))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = rng.normal(size=p + (m - 1) * tau)
    decimals = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=1)))
    if decimals is not None:
        x = np.round(x, decimals)
    return delay_embed(TimeSeries(x), EmbeddingParams(m, tau))


def _pair_distance(a, b) -> float:
    return math.sqrt(pair_square(a, b))


def _oracle_neighbors(pts, theiler) -> list:
    expect = []
    for i in range(len(pts)):
        best, best_d = None, math.inf
        for j in range(len(pts)):
            d = _pair_distance(pts[i], pts[j])
            if abs(i - j) > theiler and d < best_d:  # strict: smallest index wins ties
                best, best_d = j, d
        expect.append(best)
    return expect


def _oracle_distances(pts, theiler) -> list:
    p = len(pts)
    return [_pair_distance(pts[i], pts[j]) for i in range(p) for j in range(i + theiler + 1, p)]


def _check_neighbors(ps, theiler):
    expect = _oracle_neighbors(ps.points, theiler)
    for _ in _budgets(ps.points):
        if None in expect:
            with pytest.raises(ValidationError, match="no admissible neighbor"):
                chaos._nearest_neighbors(ps, theiler)
        else:
            assert chaos._nearest_neighbors(ps, theiler).tolist() == expect


def _oracle_curve(pts, nn, k_max) -> list:
    """divergence_curve by a per-k loop over single pairs in ascending i."""
    p, x = len(pts), pts.T
    curve = []
    for k in range(k_max):
        d = [
            chaos._pair_distances(x[:, i + k, None], x[:, nn[i] + k, None])[0]
            for i in range(p)
            if i + k < p and nn[i] + k < p
        ]
        if not d:
            break
        curve.append(np.log(np.maximum(np.array(d), chaos.DIST_FLOOR)).mean())
    return curve


def _budgets(pts):
    """Run the loop body at a budget whose C(r) blocks hold one diagonal
    each, at one whose blocks hold three diagonals or more, and at one that
    holds the whole triangle in one block. A C(r) block row and its
    differences take at most 8 * (m + 1) * P bytes, in either layout. The
    diameter's BLOCK_BYTES is set alike: one row, three rows or more, and
    the whole cloud per block."""
    p, m = pts.shape
    for budget in (8, 3 * 8 * (m + 1) * p, 8 * (m + 1) * p * p):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chaos, "BLOCK_BYTES", budget)
            mp.setattr(chaos, "COUNT_BLOCK_BYTES", budget)
            yield


def _check_fractions(ps, radii, theiler, diameter=np.inf):
    dists = _oracle_distances(ps.points, theiler)
    if len(dists) < 2:
        with pytest.raises(ValidationError, match="admissible pairs"):
            chaos._pair_fractions(ps, radii, theiler, diameter)
        return
    expect = [sum(d <= r for d in dists) / len(dists) for r in radii]
    for _ in _budgets(ps.points):
        assert chaos._pair_fractions(ps, radii, theiler, diameter).tolist() == expect


_MAX_DOUBLE = np.finfo(float).max


def _ulps_from(x: float, k: int) -> float:
    """The double k steps from x >= 0, held within [0, the largest double]."""
    bits = int(np.float64(x).view(np.int64)) + k
    return float(np.int64(min(max(bits, 0), int(_MAX_DOUBLE.view(np.int64)))).view(np.float64))


class TestSquaredRadius:
    """_squared_radius against its definition: s <= t exactly when
    np.sqrt(s) <= r, for sums s within a few units in the last place of r*r."""

    @given(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=np.finfo(float).tiny),  # subnormals
            st.floats(min_value=0.0, allow_infinity=False),
            st.floats(min_value=1.34e154, allow_infinity=False),  # r * r overflows
            st.just(float(_MAX_DOUBLE)),
        ),
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=13),
    )
    @settings(max_examples=500)
    def test_oracle(self, r, steps):
        t = chaos._squared_radius(r)
        start = min(r * r, float(_MAX_DOUBLE))
        # the walk is monotone, so it took as many steps as t lies ulps away
        assert abs(int(np.float64(t).view(np.int64)) - int(np.float64(start).view(np.int64))) <= 4
        for k in steps:
            s = np.float64(_ulps_from(start, k))
            assert (s <= t) == (np.sqrt(s) <= r)


class TestDistanceBlocksOracle:
    """The dense chaos kernels against literal per-pair loops, with blocks
    of 512 bytes, so that these small clouds span several blocks and some
    blocks are single rows. The C(r) and nearest-neighbor checks also run
    at larger budgets (see _budgets)."""

    @pytest.fixture(autouse=True, scope="class")
    def _small_blocks(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chaos, "BLOCK_BYTES", 512)
            mp.setattr(chaos, "COUNT_BLOCK_BYTES", 512)
            yield

    @given(st.one_of(_clouds(), _tied_clouds()), st.integers(min_value=0, max_value=5))
    @settings(deadline=None, max_examples=100)
    def test_nearest_neighbors(self, pts, theiler):
        _check_neighbors(cloud(pts), theiler)

    @given(st.one_of(_clouds(), _tied_clouds()), st.data())
    @settings(deadline=None, max_examples=100)
    def test_nearest_neighbors_wide_window(self, pts, data):
        # A window wide against P leaves few admissible points per row, and
        # the middle points their only candidates at the last diagonals.
        theiler = data.draw(st.integers(min_value=0, max_value=(len(pts) - 1) // 2))
        _check_neighbors(cloud(pts), theiler)

    @given(_embedded(), st.integers(min_value=0, max_value=5))
    @settings(deadline=None, max_examples=100)
    def test_nearest_neighbors_embedded(self, ps, theiler):
        # Delay embeddings take the shared-series layout whenever tau < P.
        _check_neighbors(ps, theiler)

    def test_nearest_neighbors_alternating_points(self):
        # Two alternating points: each point has 20 candidates at distance
        # 0, on both sides of it and in many blocks; the smallest index wins.
        _check_neighbors(cloud(np.tile([[0.0], [1.0]], (20, 1))), 2)

    def test_nearest_neighbors_overflow(self):
        # Every distance from points 1 and 17 overflows to inf, so each keeps
        # its first candidate, the smallest index beyond the window: 4 and 0.
        # The per-pair loops never pick an infinite distance; the other
        # points match them.
        pts = np.random.default_rng(1).normal(size=(30, 2))
        pts[[1, 17]] *= 1e200
        with np.errstate(over="ignore"):
            expect = _oracle_neighbors(pts, 2)
            assert expect[1] is None and expect[17] is None
            expect[1], expect[17] = 4, 0
            for _ in _budgets(pts):
                assert chaos._nearest_neighbors(cloud(pts), 2).tolist() == expect

    def test_nearest_neighbors_root_ties(self):
        # Squares 2**52 and 2**52 + 1 have one root, 2**26. Point 0 has
        # them at points 3 and 2 above it, point 7 at points 5 and 4 below
        # it: each takes the smaller index, the larger square.
        a, c = 2.0**26, 1e9
        pts = np.array(
            [[0, 0], [-c, 0], [a, 1], [a, 0], [c + a, c + 1], [c + a, c], [-c, -c], [c, c]]
        )
        assert np.sqrt(2.0**52) == np.sqrt(2.0**52 + 1)
        assert _oracle_neighbors(pts, 1)[0] == 2 and _oracle_neighbors(pts, 1)[7] == 4
        _check_neighbors(cloud(pts), 1)

    @given(_clouds())
    @settings(deadline=None, max_examples=100)
    def test_distance_blocks_cover_upper_triangle(self, pts):
        (p, m), seen = pts.shape, set()
        for s, d in chaos._distance_blocks(pts, chaos.BLOCK_BYTES):
            # rows from s against columns s:P, no column before row s; the
            # block's m coordinate planes fit the budget unless it is one row
            assert d.shape[1] == p - s
            assert 8 * m * d.size <= chaos.BLOCK_BYTES or d.shape[0] == 1
            for r, c in np.ndindex(d.shape):
                assert d[r, c] == pair_square(pts[s + r], pts[s + c])
                seen.add((s + r, s + c))
        assert {(i, j) for i in range(p) for j in range(i + 1, p)} <= seen

    @given(_clouds())
    @settings(deadline=None, max_examples=100)
    def test_attractor_diameter(self, pts):
        expect = max(_pair_distance(a, b) for a in pts for b in pts)
        assert attractor_diameter(cloud(pts)) == expect

    @given(_clouds(min_m=8))
    @settings(deadline=None, max_examples=50)
    def test_pair_fractions_one_at_diameter(self, pts):
        # The radii ladder ends at the diameter, where C(r) must be exactly 1
        # whether the caller passes the diameter or the dense pass counts it.
        assume(len(pts) >= 3)
        ps = cloud(pts)
        dia = attractor_diameter(ps)
        for _ in _budgets(pts):
            assert chaos._pair_fractions(ps, [dia], 0, dia).tolist() == [1.0]
            assert chaos._pair_fractions(ps, [dia], 0).tolist() == [1.0]

    @given(
        st.one_of(_clouds(), _tied_clouds()),
        st.integers(min_value=0, max_value=5),
        st.randoms(use_true_random=False),
    )
    @settings(deadline=None, max_examples=100)
    def test_pair_fractions(self, pts, theiler, rnd):
        # radii on pair distances themselves probe the inclusive boundary;
        # they come shuffled, some of them twice
        radii = [0.0, 0.25, 1.0, *_oracle_distances(pts, theiler)[:5]]
        radii += rnd.sample(radii, 3)
        rnd.shuffle(radii)
        _check_fractions(cloud(pts), np.array(radii), theiler)

    @pytest.mark.parametrize("theiler", [6, 8, 9, 10])
    def test_pair_fractions_wide_window(self, theiler):
        # Windows the draws above do not reach on a 12-point cloud: 6 is
        # wider than a 3-row block, so the band runs past the block's rows;
        # P - 4 leaves six admissible pairs, P - 3 leaves three (lags P - 2
        # and P - 1), and P - 2 leaves one, which is rejected.
        pts = np.round(np.random.default_rng(11).normal(size=(12, 2)), 1)
        radii = [0.0, 0.25, 1.0, *_oracle_distances(pts, theiler)]
        _check_fractions(cloud(pts), np.array(radii), theiler)

    def test_pair_fractions_one_dense_pass(self, monkeypatch):
        # One dense pass per call when a radius lies below the diameter,
        # none when every radius is at least the diameter.
        ps = cloud(np.random.default_rng(3).normal(size=(60, 3)))
        dia = attractor_diameter(ps)
        dense = chaos._diagonal_sums
        calls = []
        monkeypatch.setattr(
            chaos,
            "_diagonal_sums",
            lambda ps, first, budget: calls.append(1) or dense(ps, first, budget),
        )
        for radii, diameter, passes in (
            ([0.0, 0.5 * dia, dia, 2.0 * dia], dia, 1),
            ([0.1, 0.2, 0.3], np.inf, 1),
            ([dia, 2.0 * dia, dia], dia, 0),
        ):
            calls.clear()
            chaos._pair_fractions(ps, radii, 2, diameter)
            assert len(calls) == passes

    @given(_embedded(), st.integers(min_value=0, max_value=5), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=100)
    def test_pair_fractions_embedded(self, ps, theiler, rnd):
        # Delay embeddings take the shared-series layout whenever tau < P.
        radii = [0.0, 0.25, 1.0, *_oracle_distances(ps.points, theiler)[:5]]
        radii += rnd.sample(radii, 3)
        rnd.shuffle(radii)
        _check_fractions(ps, np.array(radii), theiler)

    @given(_embedded(), st.data())
    @settings(deadline=None, max_examples=100)
    def test_diagonal_sums(self, ps, data):
        # Every pair j - i >= first once, as the per-pair loop sums it, and
        # inf past the end of each diagonal; at any budget.
        pts = ps.points
        p, m = pts.shape
        first = data.draw(st.integers(min_value=0, max_value=p + 1))
        budget = data.draw(st.sampled_from([8, 3 * 8 * (m + 1) * p, 8 * (m + 1) * p * p]))
        seen = []
        for d, s in chaos._diagonal_sums(ps, first, budget):
            assert s.shape[1] == p - d
            assert 16 * s.size <= budget or s.shape[0] == 1
            for b, i in np.ndindex(s.shape):
                j = i + d + b
                if j < p:
                    assert s[b, i] == pair_square(pts[i], pts[j])
                    seen.append((i, j))
                else:
                    assert s[b, i] == np.inf
        assert sorted(seen) == [(i, j) for i in range(p) for j in range(i + first, p)]

    @given(_embedded())
    @settings(deadline=None, max_examples=100)
    def test_layout(self, ps):
        # A delay embedding shares its series when tau < P; the same points
        # under another delay, or a cloud that is no embedding, are laid out
        # one coordinate after another, with the same counts.
        pts = ps.points
        p, m = pts.shape
        tau = ps.params.tau
        src, stride = chaos._layout(ps)
        assert stride == (tau if tau < p else p)
        assert len(src) == (m - 1) * stride + 2 * p and (src[-p:] == np.inf).all()
        for i, c in np.ndindex(pts.shape):
            assert src[c * stride + i] == pts[i, c]
        if m > 1:
            raw = cloud(np.random.default_rng(p).normal(size=(p, m)))
            assert chaos._layout(raw)[1] == p
        assume(p >= 3)
        radii = [0.0, 0.25, 1.0, *_oracle_distances(pts, 0)[:5]]
        expect = chaos._pair_fractions(ps, radii, 0).tolist()
        for other in range(1, 8):
            moved = PhaseSpace(pts, EmbeddingParams(m, other))
            assert chaos._pair_fractions(moved, radii, 0).tolist() == expect

    @given(st.one_of(_clouds(), _tied_clouds()), st.integers(min_value=0, max_value=5))
    @settings(deadline=None, max_examples=100)
    def test_pair_fractions_given_diameter(self, pts, theiler):
        dia = max(_pair_distance(a, b) for a in pts for b in pts)
        radii = np.array([0.0, 0.5 * dia, np.nextafter(dia, 0.0), dia, 2.0 * dia])
        _check_fractions(cloud(pts), radii, theiler, dia)

    @given(
        st.one_of(_clouds(), _tied_clouds()),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=3, max_value=12),
    )
    @settings(deadline=None, max_examples=100)
    def test_divergence_curve(self, pts, theiler, k_max):
        nn = _oracle_neighbors(pts, theiler)
        assume(None not in nn and len(pts) > theiler + k_max + 1)
        ps = cloud(pts)
        got = divergence_curve(ps, LLEConfig(theiler=theiler, k_max=k_max)).tolist()
        assert got == _oracle_curve(pts, nn, k_max)

    def test_divergence_curve_lorenz(self, lorenz_default):
        ps = delay_embed(lorenz_default.prefix(522).channels[0], EmbeddingParams(3, 11))
        cfg = default_lle_config(ps)
        nn = chaos._nearest_neighbors(ps, cfg.theiler)
        assert divergence_curve(ps, cfg).tolist() == _oracle_curve(ps.points, nn, cfg.k_max)

    def test_lorenz_cloud(self, lorenz_default):
        # A continuous cloud: the nearest neighbors and C(r) at the default
        # radii match the per-pair loops at every budget.
        ps = delay_embed(lorenz_default.prefix(522).channels[0], EmbeddingParams(3, 11))
        theiler = default_lle_config(ps).theiler
        radii, _ = chaos._default_integrals(ps, theiler)
        dia = chaos.attractor_diameter(ps)
        _check_neighbors(ps, theiler)
        _check_fractions(ps, radii, theiler, dia)

    def test_chaos_feature_vector_one_pass(self, lorenz_default, monkeypatch):
        # The vector walks the diagonals once for both C(r) and the nearest
        # neighbors, and equals the separate calls; divergence_curve and
        # lle_rosenstein walk them once each, with no radii.
        x = lorenz_default.prefix(522).channels[0]
        ps = delay_embed(x, EmbeddingParams(3, 11))
        dense = chaos._diagonal_sums
        calls = []
        monkeypatch.setattr(
            chaos,
            "_diagonal_sums",
            lambda ps, first, budget: calls.append(first) or dense(ps, first, budget),
        )
        v = chaos_feature_vector(x, EmbeddingParams(3, 11))
        assert calls == [v.theiler + 1]
        cfg = default_lle_config(ps)
        calls.clear()
        res = lle_rosenstein(ps, dt=x.dt)
        radii, integrals = chaos._default_integrals(ps, cfg.theiler)
        assert calls == [cfg.theiler + 1] * 2
        assert (res.lambda1, res.r2, res.fit_range) == (v.lambda1, v.r2, v.fit_range)
        assert integrals.tolist() == v.integrals.tolist()
        calls.clear()
        divergence_curve(ps, cfg)
        assert calls == [cfg.theiler + 1]
