import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import cKDTree

from phaseshape import (
    EmbeddingParams,
    LLEConfig,
    NumericalError,
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

from oracles import cloud


def _lorenz_ps(series):
    return delay_embed(series.channels[0], EmbeddingParams(3, 11))


class TestLLEConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            LLEConfig(theiler=-1, k_max=10)
        with pytest.raises(ValidationError):
            LLEConfig(theiler=0, k_max=2)
        with pytest.raises(ValidationError):
            LLEConfig(theiler=0, k_max=10, fit_range=(5, 5))
        with pytest.raises(ValidationError):
            LLEConfig(theiler=0, k_max=10, fit_range=(-1, 4))
        with pytest.raises(ValidationError):
            LLEConfig(theiler=0, k_max=10, fit_range=(0, 10))

    def test_fit_range_accepted(self):
        c = LLEConfig(theiler=2, k_max=10, fit_range=(0, 9))
        assert c.fit_range == (0, 9)
        assert LLEConfig(theiler=2, k_max=10, fit_range=np.array([1, 4])).fit_range == (1, 4)

    @pytest.mark.parametrize(
        "fit_range", [(1.7, 5.9), (1.0, 5.0), (0, 4, 8), (math.nan, 5), (0, math.nan), 5, (True, 5)]
    )
    def test_malformed_fit_range_rejected(self, fit_range):
        with pytest.raises(ValidationError, match="fit_range"):
            LLEConfig(theiler=0, k_max=10, fit_range=fit_range)

    @pytest.mark.parametrize(
        "fit_range, entry", [((0, 4.5), r"fit_range\[1\]"), (("0", 4), r"fit_range\[0\]")]
    )
    def test_bad_entry_named(self, fit_range, entry):
        with pytest.raises(ValidationError, match=entry + " must be an integer >= 0"):
            LLEConfig(theiler=0, k_max=10, fit_range=fit_range)

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

    def test_explicit_fit_range_changes_slope(self, rossler_default):
        ps = delay_embed(rossler_default.channels[0], EmbeddingParams(3, 8))
        auto = lle_rosenstein(ps, dt=0.12)
        cfg = LLEConfig(auto.theiler, auto.k_max, fit_range=(0, 5))
        manual = lle_rosenstein(ps, cfg, dt=0.12)
        assert manual.fit_range == (0, 5)
        assert manual.lambda1 != auto.lambda1

    def test_fit_range_beyond_truncated_curve(self):
        # Coarse ramp with tail copies of a few anchors: every close pair
        # involves a late index, so tracking dies before k_max.
        x = np.concatenate([np.arange(16.0), [3.001, 9.001, 12.001, 6.001]])
        ps = cloud(x[:, None])
        assert len(divergence_curve(ps, LLEConfig(theiler=6, k_max=8))) == 7
        with pytest.raises(ValidationError, match="exceeds curve length"):
            lle_rosenstein(ps, LLEConfig(theiler=6, k_max=8, fit_range=(0, 7)))

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
        radii, dia = chaos._default_radii(ps)
        peak = _traced_peak(chaos._pair_fractions, ps.points, radii, 10, dia)
        assert peak <= 2 * chaos.COUNT_BLOCK_BYTES


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

    def test_seed_robustness(self, lorenz_seeded):
        a = chaos_feature_vector(lorenz_seeded[2].channels[0], EmbeddingParams(3, 11)).vector
        b = chaos_feature_vector(lorenz_seeded[3].channels[0], EmbeddingParams(3, 11)).vector
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
        assert rel.max() <= 0.10

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
    duplicates, so nearest-neighbor rows must look past K_START."""
    p = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return rng.integers(0, 2, size=(p, m)).astype(float)


def _pair_square(a, b) -> float:
    # The squared differences summed coordinate by coordinate, as the block
    # kernel's row sums are; np.linalg.norm(a - b) on one pair is a BLAS dot
    # that differs from both in the last bit on some pairs when m >= 2.
    return sum(c * c for c in a - b)


def _pair_distance(a, b) -> float:
    return math.sqrt(_pair_square(a, b))


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


def _check_neighbors(pts, theiler):
    expect = _oracle_neighbors(pts, theiler)
    if None in expect:
        with pytest.raises(ValidationError, match="no admissible neighbor"):
            chaos._nearest_neighbors(pts, theiler)
    else:
        assert chaos._nearest_neighbors(pts, theiler).tolist() == expect


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
    """Run the loop body at the current COUNT_BLOCK_BYTES, at a budget whose
    blocks hold three rows or more, and at one that holds the whole cloud in
    one block, so that C(r) counts the squares of multi-row blocks. The
    diameter's BLOCK_BYTES is set alike."""
    p, m = pts.shape
    for budget in (chaos.COUNT_BLOCK_BYTES, 3 * 8 * m * p, 8 * m * p * p):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chaos, "BLOCK_BYTES", budget)
            mp.setattr(chaos, "COUNT_BLOCK_BYTES", budget)
            yield


def _check_fractions(pts, radii, theiler, diameter=np.inf):
    dists = _oracle_distances(pts, theiler)
    if len(dists) < 2:
        with pytest.raises(ValidationError, match="admissible pairs"):
            chaos._pair_fractions(pts, radii, theiler, diameter)
        return
    expect = [sum(d <= r for d in dists) / len(dists) for r in radii]
    for _ in _budgets(pts):
        assert chaos._pair_fractions(pts, radii, theiler, diameter).tolist() == expect


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
    """The chaos kernels, tree and dense, against literal per-pair loops,
    with tree queries of 7 rows and dense blocks of 512 bytes, so that these
    small clouds span several blocks and some dense blocks are single rows.
    The C(r) checks also run at larger budgets (see _budgets)."""

    @pytest.fixture(autouse=True, scope="class")
    def _small_blocks(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chaos, "CHUNK", 7)
            mp.setattr(chaos, "BLOCK_BYTES", 512)
            mp.setattr(chaos, "COUNT_BLOCK_BYTES", 512)
            yield

    @given(st.one_of(_clouds(), _tied_clouds()), st.integers(min_value=0, max_value=5))
    @settings(deadline=None, max_examples=100)
    def test_nearest_neighbors(self, pts, theiler):
        _check_neighbors(pts, theiler)

    @given(st.one_of(_clouds(), _tied_clouds()), st.data())
    @settings(deadline=None, max_examples=100)
    def test_nearest_neighbors_wide_window(self, pts, data):
        # A window wide against P leaves few admissible points per row, so
        # rows double k several times and some query all P points.
        theiler = data.draw(st.integers(min_value=0, max_value=(len(pts) - 1) // 2))
        _check_neighbors(pts, theiler)

    def test_nearest_neighbors_grow_k(self, monkeypatch):
        # Two alternating points: each row has 20 neighbors at distance 0,
        # far more than the K_START it queries first.
        ks = []

        class Recording(cKDTree):
            def query(self, x, k):
                ks.append(k)
                return super().query(x, k=k)

        monkeypatch.setattr("scipy.spatial.cKDTree", Recording)
        pts = np.tile([[0.0], [1.0]], (20, 1))
        _check_neighbors(pts, 2)
        assert ks[0] == chaos.K_START and max(ks) > 20

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
                assert d[r, c] == _pair_square(pts[s + r], pts[s + c])
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
        dia = attractor_diameter(cloud(pts))
        for _ in _budgets(pts):
            assert chaos._pair_fractions(pts, [dia], 0, dia).tolist() == [1.0]
            assert chaos._pair_fractions(pts, [dia], 0).tolist() == [1.0]

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
        _check_fractions(pts, np.array(radii), theiler)

    @pytest.mark.parametrize("theiler", [6, 8, 9, 10])
    def test_pair_fractions_wide_window(self, theiler):
        # Windows the draws above do not reach on a 12-point cloud: 6 is
        # wider than a 3-row block, so the band runs past the block's rows;
        # P - 4 leaves six admissible pairs, P - 3 leaves three (lags P - 2
        # and P - 1), and P - 2 leaves one, which is rejected.
        pts = np.round(np.random.default_rng(11).normal(size=(12, 2)), 1)
        radii = [0.0, 0.25, 1.0, *_oracle_distances(pts, theiler)]
        _check_fractions(pts, np.array(radii), theiler)

    def test_pair_fractions_one_dense_pass(self, monkeypatch):
        # One dense pass per call when a radius lies below the diameter,
        # none when every radius is at least the diameter.
        pts = np.random.default_rng(3).normal(size=(60, 3))
        dia = attractor_diameter(cloud(pts))
        dense = chaos._distance_blocks
        calls = []
        monkeypatch.setattr(
            chaos, "_distance_blocks", lambda pts, budget: calls.append(1) or dense(pts, budget)
        )
        for radii, diameter, passes in (
            ([0.0, 0.5 * dia, dia, 2.0 * dia], dia, 1),
            ([0.1, 0.2, 0.3], np.inf, 1),
            ([dia, 2.0 * dia, dia], dia, 0),
        ):
            calls.clear()
            chaos._pair_fractions(pts, radii, 2, diameter)
            assert len(calls) == passes

    @given(st.one_of(_clouds(), _tied_clouds()), st.integers(min_value=0, max_value=5))
    @settings(deadline=None, max_examples=100)
    def test_pair_fractions_given_diameter(self, pts, theiler):
        dia = max(_pair_distance(a, b) for a in pts for b in pts)
        radii = np.array([0.0, 0.5 * dia, np.nextafter(dia, 0.0), dia, 2.0 * dia])
        _check_fractions(pts, radii, theiler, dia)

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
        nn = chaos._nearest_neighbors(ps.points, cfg.theiler)
        assert divergence_curve(ps, cfg).tolist() == _oracle_curve(ps.points, nn, cfg.k_max)

    def test_lorenz_cloud_settled_by_tree(self, lorenz_default, monkeypatch):
        # The nearest neighbors of a continuous cloud come from the tree
        # alone, with no dense pass; C(r) at the default radii matches the
        # per-pair loops.
        ps = delay_embed(lorenz_default.prefix(522).channels[0], EmbeddingParams(3, 11))
        theiler = default_lle_config(ps).theiler
        radii, dia = chaos._default_radii(ps)
        dense = chaos._distance_blocks
        calls = []
        monkeypatch.setattr(
            chaos, "_distance_blocks", lambda pts, budget: calls.append(1) or dense(pts, budget)
        )
        _check_neighbors(ps.points, theiler)
        assert calls == []
        _check_fractions(ps.points, radii, theiler, dia)
