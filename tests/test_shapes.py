import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaseshape import (
    EmbeddingParams,
    GenConfig,
    MultiSeries,
    ShapeConfig,
    ShapeDistribution,
    TimeSeries,
    ValidationError,
    build_histogram,
    channel_distributions,
    delay_embed,
    estimate_delay,
    feature_vector,
    lorenz_generate,
    resolve_config,
    sample_shape,
    shape_distribution,
)

from oracles import cloud, coordinate_dot, exhaustive_d2, pair_square


_MAX = float(np.finfo(float).max)


def _square_ps():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return cloud(pts)


class TestShapeConfig:
    def test_defaults(self):
        c = ShapeConfig()
        assert c.kind == "D2"
        assert c.n_samples == 10000
        assert c.bins == 50
        assert c.delta is None and c.gamma is None
        assert c.seed == 0
        assert c.normalization == "mean-normalized"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "D9"},
            {"kind": "d2"},
            {"bins": 0},
            {"bins": -3},
            {"n_samples": 0},
            {"delta": 0},
            {"gamma": -0.5},
            {"normalization": "l2"},
            {"seed": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            ShapeConfig(**kwargs)

    @pytest.mark.parametrize("gamma", ["x", True, np.True_, -0.5, np.nan, np.inf])
    def test_gamma_must_be_a_real(self, gamma):
        with pytest.raises(ValidationError, match=r"^gamma must be a finite real >= 0, got "):
            ShapeConfig(kind="DT2", gamma=gamma)

    def test_resolve_defaults_from_window(self):
        x = TimeSeries(np.random.default_rng(0).normal(size=300))
        ps = delay_embed(x, EmbeddingParams(m=3, tau=11))
        c = resolve_config(ps, ShapeConfig(kind="DT1"))
        assert c.delta == 44
        assert c.gamma == pytest.approx(1.0 / 22.0)

    def test_resolve_window_floor_at_one(self):
        x = TimeSeries(np.random.default_rng(0).normal(size=50))
        ps = delay_embed(x, EmbeddingParams(m=1, tau=1))
        c = resolve_config(ps, ShapeConfig(kind="DT2"))
        assert c.delta == 2
        assert c.gamma == 1.0

    def test_resolve_keeps_explicit_values(self):
        ps = _square_ps()
        c = resolve_config(ps, ShapeConfig(kind="DT2", delta=7, gamma=0.25))
        assert c.delta == 7
        assert c.gamma == 0.25


class TestShapeDistribution:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            ShapeDistribution(np.array([0.5, 0.4]), 4.0, 10, ShapeConfig())

    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError):
            ShapeDistribution(np.array([1.5, -0.5]), 4.0, 10, ShapeConfig())

    @pytest.mark.parametrize("mass, top, sample_count, message", [
        (["a", "b"], 4.0, 10, "mass must be reals, got"),
        (["0.5", "0.5"], 4.0, 10, "mass must be reals, got"),
        ([0.5 + 0j, 0.5], 4.0, 10, "mass must be reals, got"),
        ([], 4.0, 10, r"mass must be a nonempty 1-D array, got shape \(0,\)"),
        ([[0.5, 0.5]], 4.0, 10, r"mass must be a nonempty 1-D array, got shape \(1, 2\)"),
        ([np.nan, 1.0], 4.0, 10, "bin mass sums to nan, expected 1"),
        ([0.5, 0.5], "4", 10, "top must be a finite real > 0, got '4'"),
        ([0.5, 0.5], 0.0, 10, "top must be a finite real > 0, got 0.0"),
        ([0.5, 0.5], -1.0, 10, "top must be a finite real > 0, got -1.0"),
        ([0.5, 0.5], np.inf, 10, "top must be a finite real > 0, got inf"),
        ([0.5, 0.5], np.nan, 10, "top must be a finite real > 0, got nan"),
        ([0.5, 0.5], 4.0, 0, "sample_count must be an integer >= 1, got 0"),
        ([0.5, 0.5], 4.0, 2.5, "sample_count must be an integer >= 1, got 2.5"),
        ([0.5, 0.5], 4.0, True, "sample_count must be an integer >= 1, got True"),
    ], ids=["strings", "numeric-strings", "complex", "empty", "2-D", "nan-mass", "string-top",
            "zero-top", "negative-top", "inf-top", "nan-top", "zero-count", "float-count",
            "bool-count"])
    def test_invalid_fields_rejected(self, mass, top, sample_count, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            ShapeDistribution(mass, top, sample_count, ShapeConfig())

    def test_edges_derived_from_top(self):
        d = ShapeDistribution(np.array([0.25, 0.75]), np.float64(3), np.int64(8), ShapeConfig())
        assert type(d.top) is float and type(d.sample_count) is int
        assert d.bin_edges.tolist() == [0.0, 1.5, 3.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_histogram_edges_at_the_largest_double_accepted(self):
        # 7 * (top / 7) rounds above the largest double inside linspace
        top = np.finfo(float).max
        d = build_histogram([top / 3, top], ShapeConfig(bins=7, normalization="raw-range"))
        assert d.bin_edges[-1] == top and d.mass[-1] == 0.5

    def test_many_bins_accept_histogram_edges(self):
        # 5e6 bins: the edges np.histogram builds over [0, 8.25] differ in
        # width by a unit in the last place of 8.25, over 1e-9 of a width
        d = build_histogram([1.0, 8.25], ShapeConfig(bins=5_000_000, normalization="raw-range"))
        assert d.bins == 5_000_000 and d.mass[-1] == 0.5

    def test_to_dict_keys(self):
        ps = _square_ps()
        d = shape_distribution(ps, ShapeConfig(n_samples=100)).to_dict()
        for key in (
            "kind",
            "bins",
            "edges",
            "mass",
            "sample_count",
            "seed",
            "normalization",
            "delta",
            "gamma",
            "degenerate",
        ):
            assert key in d
        assert d["kind"] == "D2"
        assert len(d["mass"]) == 50
        assert len(d["edges"]) == 51


class TestSampling:
    def test_sample_count(self):
        ps = _square_ps()
        for kind in ("D1", "D2", "D3", "DT1", "DT2"):
            c = resolve_config(ps, ShapeConfig(kind=kind, n_samples=500))
            s = sample_shape(ps, c)
            assert s.shape == (500,)
            assert (s >= 0).all()

    def test_seed_determinism(self):
        ps = _square_ps()
        c = resolve_config(ps, ShapeConfig(n_samples=256, seed=9))
        assert (sample_shape(ps, c) == sample_shape(ps, c)).all()

    def test_seed_changes_stream(self):
        ps = _square_ps()
        a = sample_shape(ps, resolve_config(ps, ShapeConfig(n_samples=256, seed=1)))
        b = sample_shape(ps, resolve_config(ps, ShapeConfig(n_samples=256, seed=2)))
        assert not (a == b).all()

    def test_d2_draws_distinct_pairs(self):
        # Two points only: every sampled distance is the single pair distance
        ps = cloud(np.array([[0.0, 0.0], [3.0, 4.0]]))
        c = resolve_config(ps, ShapeConfig(n_samples=1000))
        s = sample_shape(ps, c)
        assert (s == 5.0).all()

    def test_d1_centroid_distances(self):
        # Unit-square corners: every corner sits sqrt(0.5) from the centroid
        ps = _square_ps()
        c = resolve_config(ps, ShapeConfig(kind="D1", n_samples=400))
        s = sample_shape(ps, c)
        assert np.allclose(s, np.sqrt(0.5))

    def test_d3_matches_cross_product_area(self):
        # Three points give one distinct triangle; its root area must agree
        # with the cross-product formula.
        pts = np.random.default_rng(7).normal(size=(3, 3))
        ps = cloud(pts)
        c = resolve_config(ps, ShapeConfig(kind="D3", n_samples=200))
        s = sample_shape(ps, c)
        v1, v2 = pts[1] - pts[0], pts[2] - pts[0]
        area = 0.5 * np.linalg.norm(np.cross(v1, v2))
        assert np.allclose(s, np.sqrt(area), atol=1e-12)

    def test_d3_many_triangles_nonnegative(self):
        pts = np.random.default_rng(8).normal(size=(40, 3))
        ps = cloud(pts)
        s = sample_shape(ps, resolve_config(ps, ShapeConfig(kind="D3", n_samples=2000)))
        assert (s >= 0).all() and np.isfinite(s).all()

    def test_dt1_respects_time_window(self):
        # Distance-coded positions: |x_i - x_j| identifies the index offset,
        # so sampled distances reveal which pairs were drawn.
        pos = 4.0 ** np.arange(8)
        ps = cloud(pos[:, None])
        delta = 3
        c = ShapeConfig(kind="DT1", n_samples=4000, delta=delta, seed=3)
        c = resolve_config(ps, c)
        s = sample_shape(ps, c)
        allowed = set()
        for i in range(8):
            for j in range(8):
                if i != j and abs(i - j) <= delta:
                    allowed.add(abs(pos[i] - pos[j]))
        assert set(np.unique(s)) <= allowed

    def test_dt1_uniform_over_admissible_pairs(self):
        pos = 4.0 ** np.arange(6)
        ps = cloud(pos[:, None])
        delta = 2
        c = resolve_config(ps, ShapeConfig(kind="DT1", n_samples=90000, delta=delta, seed=0))
        s = sample_shape(ps, c)
        pair_d = sorted(
            abs(pos[i] - pos[j]) for i in range(6) for j in range(i + 1, 6) if j - i <= delta
        )
        values, counts = np.unique(s, return_counts=True)
        assert len(values) == len(pair_d)
        freqs = counts / counts.sum()
        # 9 admissible unordered pairs, each should carry ~1/9 of the draws
        assert np.abs(freqs - 1.0 / len(pair_d)).max() < 0.01

    def test_dt1_wide_window_matches_d2_support(self):
        pos = 4.0 ** np.arange(6)
        ps = cloud(pos[:, None])
        c = resolve_config(ps, ShapeConfig(kind="DT1", n_samples=5000, delta=5, seed=1))
        s = set(np.unique(sample_shape(ps, c)))
        all_pairs = {abs(pos[i] - pos[j]) for i in range(6) for j in range(i + 1, 6)}
        assert s == all_pairs

    def test_dt2_gamma_zero_equals_d2(self):
        pts = np.random.default_rng(11).normal(size=(60, 3))
        ps = cloud(pts)
        d2 = sample_shape(ps, resolve_config(ps, ShapeConfig(kind="D2", n_samples=3000, seed=4)))
        dt2 = sample_shape(
            ps, resolve_config(ps, ShapeConfig(kind="DT2", n_samples=3000, gamma=0.0, seed=4))
        )
        assert (d2 == dt2).all()

    def test_dt2_damping_bounds_d2(self):
        pts = np.random.default_rng(12).normal(size=(60, 3))
        ps = cloud(pts)
        d2 = sample_shape(ps, resolve_config(ps, ShapeConfig(kind="D2", n_samples=3000, seed=4)))
        dt2 = sample_shape(
            ps, resolve_config(ps, ShapeConfig(kind="DT2", n_samples=3000, gamma=0.5, seed=4))
        )
        assert (dt2 <= d2 + 1e-15).all()

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("kind", ["D1", "D2", "D3", "DT1", "DT2"])
    def test_samples_match_loop_oracle(self, kind, m):
        # Every sample is, bit for bit, the loop formula on one admissible
        # tuple of a 10-point cloud. Coordinates of mixed magnitude make the
        # order of the coordinate sum show in the last bits.
        rng = np.random.default_rng(m)
        pts = rng.normal(size=(10, m)) * 10.0 ** rng.uniform(-4, 4, size=(10, m))
        ps = cloud(pts)
        c = resolve_config(ps, ShapeConfig(kind=kind, n_samples=3000, delta=2, gamma=0.3))
        if kind == "D1":
            centroid = pts.mean(axis=0)
            expect = {math.sqrt(pair_square(a, centroid)) for a in pts}
        elif kind == "D3":
            expect = set()
            for i, j, k in itertools.permutations(range(10), 3):
                v1, v2 = pts[j] - pts[i], pts[k] - pts[i]
                gram = coordinate_dot(v1, v1) * coordinate_dot(v2, v2) - coordinate_dot(v1, v2) ** 2
                expect.add(math.sqrt(0.5 * math.sqrt(max(gram, 0.0))))
        else:
            expect = set()
            for i, j in itertools.permutations(range(10), 2):
                d = math.sqrt(pair_square(pts[i], pts[j]))
                if kind == "DT2":
                    d = np.exp(-c.gamma * abs(i - j)) * d
                if kind != "DT1" or 0 < j - i <= c.delta:
                    expect.add(float(d))
        assert set(sample_shape(ps, c).tolist()) <= expect

    @pytest.mark.parametrize(
        "kind, p, need",
        [("D2", 1, 2), ("D3", 1, 3), ("DT1", 1, 2), ("DT2", 1, 2), ("D3", 2, 3)],
        ids=["D2-1", "D3-1", "DT1-1", "DT2-1", "D3-2"],
    )
    def test_too_few_points(self, kind, p, need):
        ps = cloud(np.arange(2.0 * p).reshape(p, 2))
        with pytest.raises(ValidationError, match=f"^{kind} needs at least {need} points, got {p}$"):
            sample_shape(ps, resolve_config(ps, ShapeConfig(kind=kind, n_samples=10)))

    def test_d1_single_point(self):
        # D1 needs no distinct tuple: one point is its own centroid
        one = cloud(np.array([[1.0, 2.0]]))
        assert (sample_shape(one, resolve_config(one, ShapeConfig(kind="D1", n_samples=10))) == 0).all()


class TestHistogram:
    def test_mean_normalized_all_equal_hits_bin_12(self):
        c = ShapeConfig(bins=50)
        dist = build_histogram(np.full(100, 2.5), c)
        assert dist.mass[12] == 1.0
        assert dist.mass.sum() == pytest.approx(1.0)
        assert not dist.degenerate

    def test_mean_normalized_scale_invariant(self):
        rng = np.random.default_rng(13)
        s = rng.uniform(0.5, 2.0, 5000)
        c = ShapeConfig(bins=50)
        a = build_histogram(s, c)
        b = build_histogram(4.0 * s, c)
        assert (a.mass == b.mass).all()

    def test_mean_normalized_clamps_tail(self):
        # One huge outlier lands in the last bin instead of stretching the range
        s = np.array([1.0] * 99 + [1000.0])
        dist = build_histogram(s, ShapeConfig(bins=50))
        assert dist.mass[-1] == pytest.approx(0.01)
        assert dist.bin_edges[-1] == pytest.approx(4.0)

    def test_mean_normalized_overflowing_sum(self):
        # The sum of these samples overflows; the masses are those of the
        # same set scaled into range, with no overflow warning
        s = np.array([1.5e308, 1.5e308, 1e308])
        c = ShapeConfig(bins=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = build_histogram(s, c)
        assert not dist.degenerate
        assert dist.mass.tolist() == build_histogram(np.ldexp(s, -60), c).mass.tolist()
        assert dist.mass.tolist() == [1 / 3, 2 / 3, 0.0, 0.0]

    def test_all_zero_samples_degenerate(self):
        dist = build_histogram(np.zeros(50), ShapeConfig(bins=50))
        assert dist.degenerate
        assert dist.mass[0] == 1.0
        assert dist.mass.sum() == pytest.approx(1.0)

    def test_raw_range_policy(self):
        s = np.random.default_rng(11).uniform(0.0, 1.0, 10000)
        dist = build_histogram(s, ShapeConfig(bins=50, normalization="raw-range"))
        assert dist.bin_edges[0] == 0.0
        assert dist.bin_edges[-1] == pytest.approx(s.max())
        # Uniform draws spread evenly: every bin near 1/50
        assert np.abs(dist.mass - 0.02).max() < 0.005

    def test_raw_range_all_zero(self):
        dist = build_histogram(np.zeros(10), ShapeConfig(bins=20, normalization="raw-range"))
        assert dist.degenerate
        assert dist.mass[0] == 1.0

    @pytest.mark.parametrize("normalization", ["mean-normalized", "raw-range"])
    def test_subnormal_scale_degenerate(self, normalization):
        # The mean (5e-324 / 4) rounds to 0 and the max is subnormal: neither
        # can scale the bins, so both policies give the degenerate result
        top = 4.0 if normalization == "mean-normalized" else 1.0
        dist = build_histogram([5e-324, 0, 0, 0], ShapeConfig(bins=7, normalization=normalization))
        assert dist.degenerate
        assert dist.mass.tolist() == [1.0] + [0.0] * 6
        assert dist.bin_edges.tolist() == np.linspace(0.0, top, 8).tolist()

    @given(
        # The second list kind keeps every sample near or below the
        # subnormal range, where a max or mean can underflow
        st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=1)
        | st.lists(st.floats(min_value=0.0, max_value=1e-307), min_size=1),
        st.integers(min_value=1, max_value=10_000),
        st.sampled_from(["mean-normalized", "raw-range"]),
    )
    @settings(deadline=None, max_examples=200)
    def test_any_finite_samples_bin(self, samples, bins, normalization):
        dist = build_histogram(samples, ShapeConfig(bins=bins, normalization=normalization))
        assert isinstance(dist, ShapeDistribution)
        assert dist.bins == bins and dist.sample_count == len(samples)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(
        # Raw-range tops reach the largest double, where linspace overflows
        # inside; the second list kind gives the degenerate tops
        st.lists(st.floats(min_value=0.0, allow_infinity=False)
                 | st.sampled_from([_MAX, _MAX / 3]), min_size=1)
        | st.lists(st.floats(min_value=0.0, max_value=1e-307), min_size=1),
        st.integers(min_value=1, max_value=10_000) | st.just(1_000_000),
        st.sampled_from(["mean-normalized", "raw-range"]),
    )
    @settings(deadline=None, max_examples=200)
    def test_edges_are_numpy_histogram_edges(self, samples, bins, normalization):
        # bin_edges is derived from top; it must be the very edges
        # np.histogram bins over, or the reported edges would move
        dist = build_histogram(samples, ShapeConfig(bins=bins, normalization=normalization))
        with np.errstate(over="ignore"):
            _, edges = np.histogram(np.zeros(0), bins=bins, range=(0.0, dist.top))
        assert dist.bin_edges.tobytes() == edges.tobytes()

    def test_empty_samples_rejected(self):
        with pytest.raises(ValidationError):
            build_histogram(np.array([]), ShapeConfig())

    def test_bin_count_respected(self):
        for b in (5, 50, 128):
            dist = build_histogram(np.random.default_rng(1).uniform(1, 2, 500), ShapeConfig(bins=b))
            assert len(dist.mass) == b
            assert len(dist.bin_edges) == b + 1


class TestShapeDistributionEndToEnd:
    def test_mass_sums_to_one_every_kind(self, lorenz_default):
        ps = delay_embed(lorenz_default.prefix(1200).channels[0], EmbeddingParams(3, 11))
        for kind in ("D1", "D2", "D3", "DT1", "DT2"):
            dist = shape_distribution(ps, ShapeConfig(kind=kind, n_samples=2000))
            assert abs(dist.mass.sum() - 1.0) < 1e-9
            assert dist.config.kind == kind

    def test_coincident_points_degenerate(self):
        ps = cloud(np.zeros((30, 2)))
        dist = shape_distribution(ps, ShapeConfig(n_samples=500))
        assert dist.degenerate
        assert dist.mass[0] == 1.0

    def test_collinear_d3_degenerate(self):
        # Integer coordinates make the Gram determinant exactly zero
        t = np.arange(30.0)
        ps = cloud(np.column_stack([t, 2 * t]))
        dist = shape_distribution(ps, ShapeConfig(kind="D3", n_samples=500))
        assert dist.degenerate
        assert dist.mass[0] == 1.0


class TestExhaustiveD2:
    def test_two_points(self):
        ps = cloud(np.array([[0.0, 0.0], [3.0, 4.0]]))
        dist = exhaustive_d2(ps, ShapeConfig(bins=50))
        assert dist.mass[12] == 1.0
        assert dist.sample_count == 1

    def test_kind_forced_to_d2(self):
        ps = _square_ps()
        dist = exhaustive_d2(ps, ShapeConfig(kind="D3"))
        assert dist.config.kind == "D2"

    def test_sampled_tracks_exhaustive(self, lorenz_default):
        ps = delay_embed(lorenz_default.prefix(800).channels[0], EmbeddingParams(3, 11))
        exact = exhaustive_d2(ps, ShapeConfig(bins=50))
        approx = shape_distribution(ps, ShapeConfig(bins=50, n_samples=20000, seed=0))
        tv = 0.5 * np.abs(exact.mass - approx.mass).sum()
        assert tv < 0.05


class TestFeatureVector:
    def test_concatenates_channels(self, lorenz_default):
        short = lorenz_default.prefix(800)
        v = feature_vector(short, EmbeddingParams(3, 11), ShapeConfig(n_samples=1000, bins=50))
        assert v.shape == (3 * 50,)
        for ci in range(3):
            assert v[ci * 50 : (ci + 1) * 50].sum() == pytest.approx(1.0)

    def test_channel_errors_are_named(self):
        bad = lorenz_generate(GenConfig(n=40, seed=0))
        with pytest.raises(ValidationError, match="channel 0"):
            feature_vector(bad, EmbeddingParams(3, 30), ShapeConfig(n_samples=100))

    def test_channel_distributions_match_single_channel_path(self, lorenz_default):
        # Unlabeled, so tau=None estimates each channel's own delay
        short = lorenz_default.prefix(700).with_label(None)
        cfg = ShapeConfig(kind="DT1", n_samples=900, bins=20, seed=3)
        results = channel_distributions(short, 3, None, cfg)
        assert len(results) == 3
        for ch, (dl, dist) in zip(short.channels, results):
            assert dl == estimate_delay(ch)
            ref = shape_distribution(delay_embed(ch, EmbeddingParams(3, dl.tau)), cfg)
            assert dist.mass.tolist() == ref.mass.tolist()
            assert dist.to_dict() == ref.to_dict()

    def test_channel_distributions_name_the_channel(self):
        # A ramp's autocorrelation never turns: its estimate is the N // 4 window
        k = np.arange(100)
        wave = np.sin(2 * np.pi * k / 8)
        series = MultiSeries((TimeSeries(wave), TimeSeries(-wave), TimeSeries(k * 1.0)))
        with pytest.raises(ValidationError, match="^channel 2: .*too short for m=5, tau=25$"):
            channel_distributions(series, 5, None, ShapeConfig(n_samples=100))

    def test_deterministic(self, rossler_default):
        short = rossler_default.prefix(500)
        cfg = ShapeConfig(kind="DT2", n_samples=800, seed=5)
        a = feature_vector(short, EmbeddingParams(3, 8), cfg)
        b = feature_vector(short, EmbeddingParams(3, 8), cfg)
        assert (a == b).all()
