import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaseshape import (
    ConfusionMatrix,
    LabeledFeature,
    ValidationError,
    distances,
    loocv,
    nn_classify,
)


def _l2(a, b):
    """One pair through ``distances``."""
    return float(distances(a, [b], "l2")[0])


def _chi2(a, b):
    """One pair through ``distances``."""
    return float(distances(a, [b], "chi2")[0])


vectors = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=8
)


class TestL2:
    def test_pythagorean(self):
        assert _l2([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert _l2(v, v) == 0.0

    def test_handles_negative_entries(self):
        assert _l2([-1.0], [1.0]) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            _l2([1.0, 2.0], [1.0])

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            _l2([np.nan], [1.0])

    @given(vectors)
    @settings(deadline=None, max_examples=50)
    def test_self_distance_zero(self, v):
        assert _l2(v, v) == 0.0

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(deadline=None, max_examples=50)
    def test_symmetry_and_triangle(self, dim, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=(3, dim))
        assert _l2(a, b) == _l2(b, a)
        assert _l2(a, c) <= _l2(a, b) + _l2(b, c) + 1e-12


class TestChi2:
    def test_disjoint_unit_masses(self):
        assert _chi2([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_identity(self):
        v = np.array([0.25, 0.75])
        assert _chi2(v, v) == 0.0

    def test_symmetry(self):
        a = np.array([0.1, 0.9])
        b = np.array([0.4, 0.6])
        assert _chi2(a, b) == _chi2(b, a)

    def test_hand_computed(self):
        # 0.5 * [(0.3-0.1)^2/0.4 + (0.7-0.9)^2/1.6]
        a, b = [0.3, 0.7], [0.1, 0.9]
        expected = 0.5 * (0.04 / (0.4 + 1e-12) + 0.04 / (1.6 + 1e-12))
        assert _chi2(a, b) == pytest.approx(expected, rel=1e-12)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            _chi2([-0.1, 1.1], [0.5, 0.5])

    def test_zero_bins_are_safe(self):
        assert _chi2([0.0, 1.0], [0.0, 1.0]) == 0.0

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(deadline=None, max_examples=50)
    def test_nonnegative_and_symmetric(self, dim, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.0, 1.0, size=(2, dim))
        d = _chi2(a, b)
        assert d >= 0.0
        assert d == _chi2(b, a)


def _chi2_pair(a, b):
    return float(0.5 * np.sum((a - b) ** 2 / (a + b + 1e-12)))


def _l2_pair(a, b):
    return float(np.linalg.norm(a - b))


@st.composite
def _vector_sets(draw):
    """K vectors of length D, with some rows exact copies of others."""
    k = draw(st.integers(min_value=1, max_value=8))
    d = draw(st.integers(min_value=1, max_value=40))
    signed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    vs = rng.normal(size=(k, d)) if signed else rng.uniform(0.0, 1.0, size=(k, d)) ** 3
    vs *= 10.0 ** draw(st.integers(min_value=-3, max_value=3))
    for i in range(k):
        src = draw(st.integers(min_value=0, max_value=k))
        if src < i:
            vs[i] = vs[src]
    return vs, signed


class TestDistances:
    @given(_vector_sets())
    @settings(deadline=None, max_examples=150)
    def test_equals_per_pair_formula(self, case):
        vs, signed = case
        for v in vs:
            got = distances(v, vs, "l2")
            assert got.tolist() == [_l2_pair(v, w) for w in vs]
            if not signed:
                got = distances(v, list(vs), "chi2")
                assert got.tolist() == [_chi2_pair(v, w) for w in vs]

    @given(_vector_sets())
    @settings(deadline=None, max_examples=100)
    def test_nn_classify_matches_oracle(self, case):
        vs, signed = case
        # Ids in reverse row order, so the smallest id is the last tied row
        items = [
            LabeledFeature(f"id-{len(vs) - k:02d}", f"l{k % 2}", v) for k, v in enumerate(vs)
        ]
        for metric, pair in (("l2", _l2_pair), ("chi2", _chi2_pair)):
            if metric == "chi2" and signed:
                continue
            for v in vs:
                best = min((pair(v, it.vector), it.id, it.label) for it in items)
                res = nn_classify(v, items, metric=metric)
                assert (res.distance, res.neighbor_id, res.label) == best

    def test_duplicates_tie_to_smallest_id(self):
        v = np.array([0.2, 0.3, 0.5])
        items = [LabeledFeature(i, "x", v) for i in ("c", "a", "b")]
        assert distances(v, [it.vector for it in items], "chi2").tolist() == [0.0] * 3
        assert nn_classify(v, items).neighbor_id == "a"

    def test_empty_set(self):
        assert distances([1.0, 2.0], [], "l2").shape == (0,)

    def test_query_must_be_1d(self):
        with pytest.raises(ValidationError, match="1-D"):
            distances([[1.0, 2.0]], [[1.0, 2.0]], "l2")

    def test_rows_must_be_1d(self):
        with pytest.raises(ValidationError, match="1-D"):
            distances([1.0, 2.0], [[[1.0, 2.0]]], "l2")

    def test_non_finite_row(self):
        with pytest.raises(ValidationError, match="non-finite"):
            distances([1.0, 2.0], [[1.0, np.inf]], "l2")


class TestLabeledFeature:
    def test_fields(self):
        f = LabeledFeature("a-01", "a", [1.0, 2.0])
        assert f.id == "a-01"
        assert f.label == "a"
        assert f.vector.shape == (2,)

    def test_validation(self):
        with pytest.raises(ValidationError):
            LabeledFeature("", "a", [1.0])
        with pytest.raises(ValidationError):
            LabeledFeature("x", "", [1.0])
        with pytest.raises(ValidationError):
            LabeledFeature("x", "a", [np.inf])
        with pytest.raises(ValidationError):
            LabeledFeature("x", "a", [[1.0, 2.0]])


class TestNNClassify:
    def _items(self):
        return [
            LabeledFeature("a-0", "a", [0.0, 1.0]),
            LabeledFeature("b-0", "b", [1.0, 0.0]),
            LabeledFeature("a-1", "a", [0.1, 0.9]),
        ]

    def test_picks_nearest(self):
        res = nn_classify([0.05, 0.95], self._items(), metric="l2")
        assert res.label == "a"
        assert res.neighbor_id in ("a-0", "a-1")

    def test_metric_case_insensitive(self):
        res = nn_classify([0.05, 0.95], self._items(), metric="L2")
        assert res.label == "a"

    def test_unknown_metric(self):
        with pytest.raises(ValidationError, match="metric"):
            nn_classify([0.5, 0.5], self._items(), metric="cosine")

    def test_tie_breaks_on_smallest_id(self):
        items = [
            LabeledFeature("z-judge", "z", [1.0, 0.0]),
            LabeledFeature("a-judge", "a", [1.0, 0.0]),
        ]
        res = nn_classify([1.0, 0.0], items, metric="l2")
        assert res.neighbor_id == "a-judge"
        assert res.label == "a"
        assert res.distance == 0.0

    def test_order_independent(self):
        items = self._items()
        a = nn_classify([0.5, 0.5], items, metric="chi2")
        b = nn_classify([0.5, 0.5], items[::-1], metric="chi2")
        assert (a.label, a.neighbor_id, a.distance) == (b.label, b.neighbor_id, b.distance)

    def test_empty_items(self):
        with pytest.raises(ValidationError):
            nn_classify([0.5, 0.5], [], metric="l2")

    def test_mismatched_item_length(self):
        items = [LabeledFeature("a-0", "a", [0.5, 0.5]), LabeledFeature("b-0", "b", [1.0])]
        for metric in ("chi2", "l2"):
            with pytest.raises(ValidationError, match="length 2"):
                nn_classify([0.5, 0.5], items, metric=metric)

    def test_negative_entries_under_chi2(self):
        items = [LabeledFeature("a-0", "a", [0.5, 0.5]), LabeledFeature("b-0", "b", [-0.5, 1.5])]
        with pytest.raises(ValidationError, match="nonnegative"):
            nn_classify([0.5, 0.5], items, metric="chi2")
        with pytest.raises(ValidationError, match="nonnegative"):
            nn_classify([-0.5, 1.5], items[:1], metric="chi2")
        assert nn_classify([-0.5, 1.5], items, metric="l2").neighbor_id == "b-0"


class TestConfusionMatrix:
    def test_accuracy(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[3, 1], [0, 4]]))
        assert cm.total == 8
        assert cm.accuracy == pytest.approx(7.0 / 8.0)

    def test_labels_must_be_sorted(self):
        with pytest.raises(ValidationError):
            ConfusionMatrix(("b", "a"), np.array([[1, 0], [0, 1]]))

    def test_counts_shape_checked(self):
        with pytest.raises(ValidationError):
            ConfusionMatrix(("a", "b"), np.array([[1, 0, 0], [0, 1, 0]]))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            ConfusionMatrix(("a", "b"), np.array([[1, -1], [0, 1]]))

    def test_to_text(self):
        cm = ConfusionMatrix(("lorenz", "rossler"), np.array([[19, 1], [0, 20]]))
        text = cm.to_text()
        assert "lorenz" in text and "rossler" in text
        assert "accuracy 0.9750" in text

    def test_to_text_layout(self):
        cm = ConfusionMatrix(("lorenz", "rossler"), np.array([[19, 1], [0, 20]]))
        assert cm.to_text().splitlines() == [
            "true\\pred    lorenz   rossler",
            "   lorenz        19         1",
            "  rossler         0        20",
            "accuracy 0.9750 (40 instances)",
        ]

    def test_to_dict(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[2, 0], [1, 3]]))
        d = cm.to_dict()
        assert d["labels"] == ["a", "b"]
        assert d["counts"] == [[2, 0], [1, 3]]
        assert d["accuracy"] == pytest.approx(5.0 / 6.0)


class TestLoocv:
    def _clustered(self):
        rng = np.random.default_rng(0)
        items = []
        for k in range(5):
            items.append(LabeledFeature(f"a-{k}", "a", [0.0, 1.0] + rng.normal(0, 0.01, 2)))
            items.append(LabeledFeature(f"b-{k}", "b", [1.0, 0.0] + rng.normal(0, 0.01, 2)))
        return items

    def test_tight_clusters_classify_cleanly(self):
        cm = loocv(self._clustered(), metric="l2")
        assert cm.labels == ("a", "b")
        assert cm.accuracy == 1.0
        assert cm.counts[0, 0] == 5 and cm.counts[1, 1] == 5

    def test_rows_are_true_labels(self):
        # One "a" sits inside the b cluster, so row a loses one count
        items = self._clustered()
        items.append(LabeledFeature("a-stray", "a", np.array([1.0, 0.0])))
        cm = loocv(items, metric="l2")
        assert cm.counts[0, 1] == 1
        assert cm.counts.sum() == 11

    def test_needs_two_items(self):
        with pytest.raises(ValidationError):
            loocv([LabeledFeature("a-0", "a", [1.0])])

    def test_single_label_degenerate(self):
        items = [
            LabeledFeature("a-0", "a", [1.0, 0.0]),
            LabeledFeature("a-1", "a", [0.9, 0.1]),
        ]
        with pytest.raises(ValidationError, match="degenerate"):
            loocv(items)

    def test_duplicate_ids_rejected(self):
        items = [
            LabeledFeature("x", "a", [1.0, 0.0]),
            LabeledFeature("x", "b", [0.0, 1.0]),
        ]
        with pytest.raises(ValidationError, match="unique"):
            loocv(items)

    def test_chi2_on_histogram_features(self):
        rng = np.random.default_rng(1)
        items = []
        for k in range(4):
            a = np.array([0.6, 0.3, 0.1]) + rng.uniform(0, 0.02, 3)
            b = np.array([0.1, 0.3, 0.6]) + rng.uniform(0, 0.02, 3)
            items.append(LabeledFeature(f"a-{k}", "a", a / a.sum()))
            items.append(LabeledFeature(f"b-{k}", "b", b / b.sum()))
        cm = loocv(items, metric="chi2")
        assert cm.accuracy == 1.0
