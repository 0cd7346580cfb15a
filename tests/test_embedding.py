import numpy as np
import pytest

from phaseshape import (
    EmbeddingParams,
    PhaseSpace,
    TimeSeries,
    ValidationError,
    autocorrelation,
    delay_embed,
    estimate_delay,
    estimate_dimension,
    fnn_fractions,
)


def _acf_direct(x, max_lag):
    """Brute-force biased autocorrelation for cross-checking the FFT path."""
    x0 = x - x.mean()
    c = np.array([(x0[: len(x0) - k] * x0[k:]).sum() / len(x0) for k in range(max_lag + 1)])
    return c / c[0]


class TestEmbeddingParams:
    def test_defaults(self):
        p = EmbeddingParams()
        assert (p.m, p.tau) == (3, 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            EmbeddingParams(m=0)
        with pytest.raises(ValidationError):
            EmbeddingParams(tau=0)
        with pytest.raises(ValidationError):
            EmbeddingParams(m=2.5)


class TestDelayEmbed:
    def test_small_example(self):
        ps = delay_embed(TimeSeries(np.arange(8.0)), EmbeddingParams(m=3, tau=2))
        assert len(ps) == 4
        assert ps.dimension == 3
        assert (ps.points[0] == [0, 2, 4]).all()
        assert (ps.points[3] == [3, 5, 7]).all()
        assert (ps.time_index == [0, 1, 2, 3]).all()

    def test_point_count_invariant(self):
        x = TimeSeries(np.random.default_rng(0).normal(size=100))
        for m in (1, 2, 3, 5):
            for tau in (1, 3, 7):
                ps = delay_embed(x, EmbeddingParams(m=m, tau=tau))
                assert len(ps) == 100 - (m - 1) * tau
                assert ps.source_len == 100

    def test_m1_is_column_vector(self):
        x = TimeSeries([1.0, 2.0, 3.0])
        ps = delay_embed(x, EmbeddingParams(m=1, tau=4))
        assert ps.points.shape == (3, 1)
        assert (ps.points[:, 0] == x.samples).all()

    def test_too_short(self):
        with pytest.raises(ValidationError, match="too short"):
            delay_embed(TimeSeries([1.0, 2.0, 3.0]), EmbeddingParams(m=3, tau=2))

    def test_points_read_only(self):
        ps = delay_embed(TimeSeries(np.arange(10.0)), EmbeddingParams(2, 1))
        with pytest.raises(ValueError):
            ps.points[0, 0] = 5.0


class TestPhaseSpace:
    def test_from_points(self):
        pts = np.random.default_rng(1).normal(size=(20, 3))
        ps = PhaseSpace.from_points(pts)
        assert len(ps) == 20
        assert ps.dimension == 3
        assert (ps.time_index == np.arange(20)).all()
        assert ps.source_len == 22

    def test_dimension_checked(self):
        with pytest.raises(ValidationError, match="dimension 2, expected m=3"):
            PhaseSpace(np.zeros((5, 2)), EmbeddingParams(3, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            PhaseSpace(np.zeros((0, 3)), EmbeddingParams(3, 2))
        with pytest.raises(ValidationError, match="non-empty"):
            PhaseSpace.from_points(np.zeros((0, 2)))

    def test_non_finite_rejected(self):
        pts = np.zeros((4, 2))
        pts[2, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            PhaseSpace.from_points(pts)


class TestAutocorrelation:
    def test_lag_zero_is_exactly_one(self):
        r = autocorrelation(TimeSeries(np.random.default_rng(2).normal(size=64)))
        assert r[0] == 1.0

    def test_matches_direct_estimator(self):
        x = np.random.default_rng(3).normal(size=257)
        r = autocorrelation(TimeSeries(x), max_lag=60)
        assert np.allclose(r, _acf_direct(x, 60), atol=1e-10)

    def test_default_max_lag_quarter(self):
        r = autocorrelation(TimeSeries(np.random.default_rng(4).normal(size=100)))
        assert len(r) == 100 // 4 + 1

    def test_constant_series_rejected(self):
        with pytest.raises(ValidationError, match="zero-variance"):
            autocorrelation(TimeSeries(np.full(50, 7.0)))

    def test_max_lag_bounds(self):
        ts = TimeSeries(np.random.default_rng(5).normal(size=20))
        with pytest.raises(ValidationError):
            autocorrelation(ts, max_lag=0)
        with pytest.raises(ValidationError):
            autocorrelation(ts, max_lag=20)

    def test_white_noise_tail_is_small(self):
        # Biased estimator over 10000 samples: lags 1..50 stay near zero
        x = np.random.default_rng(123).normal(size=10000)
        r = autocorrelation(TimeSeries(x), max_lag=50)
        assert np.abs(r[1:]).max() < 0.03


class TestEstimateDelay:
    @pytest.mark.parametrize("period", [8, 12, 16, 20, 40])
    def test_cosine_quarter_period(self, period):
        x = TimeSeries(np.cos(2 * np.pi * np.arange(200) / period))
        est = estimate_delay(x)
        assert est.tau == period // 4
        assert est.method == "zero-crossing"

    def test_local_minimum_fallback(self):
        # Strong slow positive component keeps r above zero; a weak fast
        # oscillation carves a local minimum near its half period.
        k = np.arange(400)
        x = TimeSeries(10.0 * np.cos(2 * np.pi * k / 1600.0) + np.cos(2 * np.pi * k / 10.0))
        r = autocorrelation(x)
        assert (r > 0).all()
        est = estimate_delay(x)
        assert est.method == "local-minimum"
        assert est.tau == 5
        assert r[est.tau] < r[est.tau - 1] and r[est.tau] <= r[est.tau + 1]

    def test_max_lag_fallback_on_monotone_acf(self):
        x = TimeSeries(np.arange(100.0))
        est = estimate_delay(x, max_lag=10)
        assert est.tau == 10
        assert est.method == "max-lag"

    def test_smallest_qualifying_lag_wins(self):
        # Quickly alternating series: r(1) is already negative
        x = TimeSeries(np.array([1.0, -1.0] * 50))
        est = estimate_delay(x)
        assert est.tau == 1
        assert est.method == "zero-crossing"


class TestFnn:
    def test_sine_fractions(self):
        sine = TimeSeries(np.sin(2 * np.pi * np.arange(2000) / 20))
        f = fnn_fractions(sine, tau=5, m_max=5)
        assert abs(f[0] - 0.2762) < 1e-3
        assert (f[1:] == 0.0).all()

    def test_lorenz_converges_at_three(self, lorenz_default):
        f = fnn_fractions(lorenz_default.channels[0], tau=11, m_max=5)
        assert f[2] < 0.01
        est = estimate_dimension(f)
        assert est.m == 3
        assert est.converged

    def test_noise_stays_high(self, noise_series):
        f = fnn_fractions(noise_series, tau=1, m_max=3)
        assert f[2] > 0.10
        est = estimate_dimension(f)
        assert not est.converged
        assert est.m == int(np.argmin(f)) + 1

    def test_constant_series_rejected(self):
        with pytest.raises(ValidationError, match="zero-variance"):
            fnn_fractions(TimeSeries(np.ones(100)), tau=1, m_max=2)

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError, match="too short"):
            fnn_fractions(TimeSeries(np.random.default_rng(0).normal(size=10)), tau=3, m_max=3)

    def test_duplicate_points_survive(self):
        # Exact repeats give zero nearest-neighbor distances; the relative
        # floor keeps the ratio test finite.
        x = TimeSeries(np.tile([0.0, 1.0, 2.0, 1.0], 50))
        f = fnn_fractions(x, tau=1, m_max=3)
        assert np.isfinite(f).all()


class TestEstimateDimension:
    def test_first_below_threshold(self):
        est = estimate_dimension([0.9, 0.005, 0.001])
        assert est.m == 2
        assert est.converged

    def test_validation(self):
        with pytest.raises(ValidationError):
            estimate_dimension([])
        with pytest.raises(ValidationError):
            estimate_dimension([0.5], threshold=0.0)
