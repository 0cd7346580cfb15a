import numpy as np
import pytest

from phaseshape import (
    EmbeddingParams,
    MultiSeries,
    NumericalError,
    PhaseSpace,
    TimeSeries,
    ValidationError,
    autocorrelation,
    delay_embed,
    embedding,
    estimate_delay,
)
from phaseshape.embedding import DelayEstimate, _resolve_delay, per_channel
from phaseshape.models import BUNDLED

from oracles import cloud


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
        assert ps.points.shape == (4, 3)
        assert (ps.points[0] == [0, 2, 4]).all()
        assert (ps.points[3] == [3, 5, 7]).all()
        assert (ps.points[:, 0] == [0, 1, 2, 3]).all()  # point k starts at time k

    def test_point_count_invariant(self):
        x = TimeSeries(np.random.default_rng(0).normal(size=100))
        for m in (1, 2, 3, 5):
            for tau in (1, 3, 7):
                ps = delay_embed(x, EmbeddingParams(m=m, tau=tau))
                assert len(ps) == 100 - (m - 1) * tau
                assert ps.points.shape == (len(ps), m)

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
        ps = cloud(pts)
        assert len(ps) == 20
        assert ps.points.shape == (20, 3)
        assert ps.params == EmbeddingParams(3, 1)
        assert (ps.points == pts).all()

    def test_dimension_checked(self):
        with pytest.raises(ValidationError, match="dimension 2, expected m=3"):
            PhaseSpace(np.zeros((5, 2)), EmbeddingParams(3, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            PhaseSpace(np.zeros((0, 3)), EmbeddingParams(3, 2))
        with pytest.raises(ValidationError, match="non-empty"):
            PhaseSpace(np.zeros((0, 2)), EmbeddingParams(2, 1))

    def test_non_finite_rejected(self):
        pts = np.zeros((4, 2))
        pts[2, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            PhaseSpace(pts, EmbeddingParams(2, 1))


class TestAutocorrelation:
    def test_lag_zero_is_exactly_one(self):
        r = autocorrelation(TimeSeries(np.random.default_rng(2).normal(size=64)))
        assert r[0] == 1.0

    def test_matches_direct_estimator(self):
        x = np.random.default_rng(3).normal(size=257)
        r = autocorrelation(TimeSeries(x))
        assert np.allclose(r, _acf_direct(x, 64), atol=1e-10)

    def test_default_max_lag_quarter(self):
        r = autocorrelation(TimeSeries(np.random.default_rng(4).normal(size=100)))
        assert len(r) == 100 // 4 + 1

    def test_constant_series_rejected(self):
        with pytest.raises(ValidationError, match="zero-variance"):
            autocorrelation(TimeSeries(np.full(50, 7.0)))

    def test_white_noise_tail_is_small(self):
        # Biased estimator over 10000 samples: lags 1..50 stay near zero
        x = np.random.default_rng(123).normal(size=10000)
        r = autocorrelation(TimeSeries(x))
        assert np.abs(r[1:51]).max() < 0.03


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
        # N // 4 = 10 is the top of the window
        x = TimeSeries(np.arange(40.0))
        est = estimate_delay(x)
        assert est.tau == 10
        assert est.method == "max-lag"

    def test_smallest_qualifying_lag_wins(self):
        # Quickly alternating series: r(1) is already negative
        x = TimeSeries(np.array([1.0, -1.0] * 50))
        est = estimate_delay(x)
        assert est.tau == 1
        assert est.method == "zero-crossing"

    def test_short_series_needs_four_samples(self):
        # The N // 4 window is empty below 4 samples
        for n in (2, 3):
            x = TimeSeries(np.arange(float(n)))
            with pytest.raises(ValidationError, match="too short to estimate a delay"):
                estimate_delay(x)
        assert estimate_delay(TimeSeries([1.0, -1.0, 1.0, -1.0])).tau == 1


def _sine(period, n=600):
    return TimeSeries(np.sin(2 * np.pi * np.arange(n) / period))


class TestResolveDelay:
    """The one delay rule behind --tau, the experiments and ``per_channel``."""

    def test_given_delay(self):
        ch = _sine(40)
        assert _resolve_delay(ch, "slow", 5) == DelayEstimate(5, "flag")
        assert _resolve_delay(ch, None, np.int64(5)) == DelayEstimate(5, "flag")

    def test_bundled_default_else_estimate(self):
        ch = _sine(40)
        for system, cls in BUNDLED.items():
            assert _resolve_delay(ch, system, None) == DelayEstimate(cls.default_tau, "default")
        for label in ("slow", None):
            assert _resolve_delay(ch, label, None) == estimate_delay(ch)


def _embed_len(ch, embed):
    return len(delay_embed(ch, embed))


class TestPerChannel:
    def test_each_channel_its_own_delay(self):
        series = MultiSeries((_sine(40), _sine(12)))
        results = per_channel(series, 2, None, _embed_len)
        assert results == [(estimate_delay(ch), 600 - estimate_delay(ch).tau)
                           for ch in series.channels]
        assert results[0][0].tau != results[1][0].tau

    def test_given_and_default_delays(self):
        series = MultiSeries((_sine(40), _sine(12)), label="lorenz")
        tau = BUNDLED["lorenz"].default_tau
        assert per_channel(series, 3, None, _embed_len) == [
            (DelayEstimate(tau, "default"), 600 - 2 * tau)] * 2
        assert per_channel(series, 3, np.int64(4), _embed_len) == [
            (DelayEstimate(4, "flag"), 592)] * 2

    def test_delay_error_names_the_channel(self):
        series = MultiSeries((_sine(40), TimeSeries(np.full(600, 2.0)), _sine(12)))
        with pytest.raises(ValidationError, match="^channel 1: zero-variance series"):
            per_channel(series, 3, None, _embed_len)

    def test_feature_error_names_the_channel(self):
        series = MultiSeries((_sine(40), _sine(30), TimeSeries(_sine(12).samples, name="z")))

        def fails_on_z(ch, embed):
            if ch.name == "z":
                raise NumericalError("fit failed")
            return embed.tau

        with pytest.raises(NumericalError, match="^channel 2: fit failed$"):
            per_channel(series, 3, None, fails_on_z)

    @pytest.mark.parametrize("m, tau, message", [
        (0, None, "m must be an integer >= 1, got 0"),
        (2.5, 3, "m must be an integer >= 1, got 2.5"),
        (3, 0, "tau must be an integer >= 1, got 0"),
        (3, 1.5, "tau must be an integer >= 1, got 1.5"),
    ])
    def test_settings_checked_before_any_channel(self, monkeypatch, m, tau, message):
        def no_read(*args, **kwargs):
            raise AssertionError("a channel was read before the settings were checked")

        monkeypatch.setattr(embedding, "estimate_delay", no_read)
        series = MultiSeries((_sine(40), _sine(12)))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            per_channel(series, m, tau, no_read)
