"""Tests for the benchmark's own code: span arithmetic, unwrapping, checks."""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402


def _span(sid, name, start, end, parent=None, thread=0):
    return Span(sid=sid, name=name, parent=parent, thread=thread, start=start, end=end)


class TestSelfTime:
    def test_nested(self):
        spans = [
            _span(0, "experiments.a", 0.0, 10.0),
            _span(1, "shapes.b", 2.0, 5.0, parent=0),
            _span(2, "embedding.c", 3.0, 4.0, parent=1),
            _span(3, "shapes.d", 6.0, 7.0, parent=0),
        ]
        st = tracer.self_times(spans)
        assert st == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
        layers = tracer.layer_self_times(spans)
        assert layers["experiments"] == pytest.approx(6.0)
        assert layers["shapes"] == pytest.approx(3.0)
        assert sum(layers.values()) == pytest.approx(10.0)

    def test_parallel_children_in_other_threads(self):
        # Two worker tasks overlap; their union [1, 9] is subtracted once.
        spans = [
            _span(0, "experiments._map", 0.0, 10.0),
            _span(1, "experiments._map.task", 1.0, 6.0, parent=0, thread=1),
            _span(2, "experiments._map.task", 2.0, 9.0, parent=0, thread=2),
            _span(3, "chaos.x", 2.0, 8.0, parent=2, thread=2),
        ]
        spans[0].counters["jobs"] = 2
        st = tracer.self_times(spans)
        assert st[0] == pytest.approx(2.0)
        assert st[2] == pytest.approx(1.0)
        assert tracer.pool_busy_frac(spans) == pytest.approx(12.0 / 20.0)

    def test_child_outliving_parent_is_clipped(self):
        spans = [_span(0, "a.a", 0.0, 4.0), _span(1, "a.b", 3.0, 9.0, parent=0)]
        assert tracer.self_times(spans)[0] == pytest.approx(3.0)

    def test_same_name_nesting_counted_once(self):
        spans = [_span(0, "chaos.f", 0.0, 5.0), _span(1, "chaos.f", 1.0, 2.0, parent=0)]
        assert tracer.total_s(spans, "chaos.f") == pytest.approx(5.0)

    def test_tracer_links_worker_spans_to_explicit_parent(self):
        tr = tracer.Tracer()
        with tr.span("experiments._map") as root:
            def work():
                with tr.span("experiments._map.task", parent=root.sid):
                    with tr.span("models.inner"):
                        pass

            threads = [threading.Thread(target=work) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        by_name = {}
        for s in tr.spans:
            by_name.setdefault(s.name, []).append(s)
        tasks = by_name["experiments._map.task"]
        assert [t.parent for t in tasks] == [root.sid, root.sid]
        assert {s.parent for s in by_name["models.inner"]} == {t.sid for t in tasks}
        assert len({t.thread for t in tasks} | {root.thread}) >= 2


def _phaseshape_functions():
    """Every function object bound in a phaseshape module namespace."""
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "phaseshape" or name.startswith("phaseshape.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_wrappers_gone_after_traced_run():
    from phaseshape import cli, experiments  # noqa: F401

    before = _phaseshape_functions()
    tr = tracer.Tracer()
    with tracer.instrument(tr):
        original = before[("phaseshape.experiments", "stability_experiment")]
        assert experiments.stability_experiment is not original
        experiments.stability_experiment(
            lorenz_lengths=[300], rossler_lengths=[200], n_samples=500, jobs=2
        )
    after = _phaseshape_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tr.spans}
    assert {"experiments.stability_experiment", "models.rk4_integrate",
            "shapes.sample_shape", "experiments._map.task"} <= names
    steps = sum(s.counters["steps"] for s in tr.spans if s.name == "models.rk4_integrate")
    assert steps == (300 + 1000 - 1) + (200 + 1000 - 1)


def test_chaos_counters_and_alloc_peak():
    from phaseshape import EmbeddingParams, GenConfig, chaos, lorenz_generate

    x = lorenz_generate(GenConfig(n=800, seed=1)).channels[0]
    tr = tracer.Tracer()
    with tracer.instrument(tr):
        cv = chaos.chaos_feature_vector(x, EmbeddingParams(m=3, tau=11))
    m = tracer.layer_metrics(tr.spans)
    p, w = 800 - 22, cv.theiler
    assert m["chaos.admissible_pairs"] == (p - w - 1) * (p - w) // 2
    assert m["embedding.points"] == p
    # the dense chunk intermediates are at least P * P * m * 8 bytes
    assert m["chaos.attractor_diameter.peak_alloc_mb"] >= p * p * 3 * 8 / 2**20
    whole = m["chaos.chaos_feature_vector.peak_alloc_mb"]
    assert whole >= m["chaos.attractor_diameter.peak_alloc_mb"]
    assert 0 < m["chaos.pair_counts_s"] < m["chaos.self_s"]


class TestChecks:
    REF = [1.65, 1.59, 0.013, 0.029, 0.061, 0.121, 0.239, 0.463, 0.75, 1.0]

    def _compare(self, vec, ref=None):
        f = checks.Findings()
        checks.check_chaos_vector(f, "chaos", vec)
        checks.compare(f, {"chaos_vectors": {"x": list(vec)}},
                       {"chaos_vectors": {"x": ref or self.REF}}, {"chaos_vectors": "chaos"})
        return f

    def test_identical_vector_passes(self):
        f = self._compare(self.REF)
        assert not f.problems and f.max_abs_dev == 0.0

    def test_boundary_pair_moves_pass(self):
        vec = list(self.REF)
        vec[9] -= 8.4e-8  # the KD-tree C(r) prototype's deviation
        f = self._compare(vec)
        assert not f.problems
        assert f.max_abs_dev == pytest.approx(8.4e-8)

    @pytest.mark.parametrize("index, delta", [(0, 1.6e-4), (1, 1e-4), (4, 5e-6)])
    def test_corrupted_vector_flagged(self, index, delta):
        vec = list(self.REF)
        vec[index] += delta
        f = self._compare(vec)
        assert f.problems["chaos"]
        assert f.max_abs_dev == pytest.approx(delta)

    def test_integrals_out_of_order_flagged(self):
        vec = list(self.REF)
        vec[3], vec[4] = vec[4], vec[3]
        f = checks.Findings()
        checks.check_chaos_vector(f, "chaos", vec)
        assert f.problems["chaos"]

    def test_shape_vector_one_ulp_flagged(self):
        rng = np.random.default_rng(0)
        mass = rng.random(50)
        mass /= mass.sum()
        bumped = mass.copy()
        bumped[7] = np.nextafter(bumped[7], 1.0)
        f = checks.Findings()
        checks.compare(f, {"shape_vectors": {"a": checks.digest(bumped)}},
                       {"shape_vectors": {"a": checks.digest(mass)}}, {"shape_vectors": "cls"})
        assert f.problems["cls"]

    def test_reference_item_not_observed_flagged(self):
        f = checks.Findings()
        ref = {"neighbors": ["a", "b"], "chaos_vectors": {"x": self.REF, "y": self.REF}}
        ops = {"neighbors": "cls", "chaos_vectors": "chaos"}
        checks.compare(f, {"chaos_vectors": {"x": self.REF}}, ref, ops)
        assert any("neighbors not observed" in p for p in f.problems["cls"])
        assert any("y not observed" in p for p in f.problems["chaos"])

    def test_masses_must_sum_to_one(self):
        f = checks.Findings()
        checks.check_masses(f, "op", np.full(50, 1 / 50))
        assert not f.problems
        checks.check_masses(f, "op", np.full(50, 1 / 49))
        assert f.problems["op"]


def test_benchmark_json_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    spans = [_span(0, "experiments._map", 0.0, 1.0)]
    spans[0].counters["jobs"] = 1
    names = set(tracer.layer_metrics(spans)) | {"check.max_abs_dev", "trace.overhead_frac"}
    assert set(run.metric_units(1)) == names


class TestUntracedChecks:
    """Untraced bodies still check LOOCV vectors and neighbours against a reference."""

    LENGTHS = {"lorenz": (500, 600, 700), "rossler": (500, 600, 700)}

    @pytest.fixture
    def tiny(self):
        from phaseshape import experiments
        import workloads

        def body(state, out):
            inst = workloads._instances(state["seed"], self.LENGTHS)
            out["classification_experiment"] = experiments.classification_experiment(
                inst, features="shape", n_samples=2000
            )

        wl = workloads.Workload(
            name="tiny", series=6, ops=("classification_experiment",), setup=None,
            body=body, observe=workloads._shape_observe,
            charge=workloads.SYNTHETIC_SHAPE.charge,
        )
        state = {"seed": 3}
        _, out, captured, error = run.run_body(wl, state)
        assert error is None
        f = checks.Findings()
        reference = wl.observe(state, out, captured, f)
        assert not f.problems
        assert {"shape_vectors", "neighbors", "confusion"} <= reference.keys()
        return wl, state, reference

    def _tally(self, wl, state, reference):
        before = _phaseshape_functions()
        tally = run.Tally(wl, reference)
        _, out, captured, error = run.run_body(wl, state)
        assert error is None
        tally.add(state, out, captured, error)
        after = _phaseshape_functions()
        assert all(after[k] is before[k] for k in before)  # capture hooks removed
        return tally, out

    def test_clean_body_passes(self, tiny):
        tally, _ = self._tally(*tiny)
        assert tally.failed == 0 and tally.attempted == 1

    def test_swapped_neighbor_fails(self, tiny, monkeypatch):
        from phaseshape import classify

        nn = classify.nn_classify

        def same_label_other_neighbor(vector, items, metric="chi2"):
            res = nn(vector, items, metric)
            other = min(it.id for it in items
                        if it.label == res.label and it.id != res.neighbor_id)
            return classify.NNResult(res.label, other, res.distance)

        monkeypatch.setattr(classify, "nn_classify", same_label_other_neighbor)
        tally, out = self._tally(*tiny)
        assert out["classification_experiment"].metrics["accuracy"] == 1.0
        assert tally.failed == 1
        assert any("neighbors differs" in p for p in tally.problems)

    def test_corrupted_vector_fails(self, tiny, monkeypatch):
        from phaseshape import experiments

        fv = experiments.feature_vector

        def reversed_bins(*args, **kwargs):
            v = fv(*args, **kwargs).copy()
            v[:50] = v[:50][::-1]  # still a distribution, so only the reference sees it
            return v

        monkeypatch.setattr(experiments, "feature_vector", reversed_bins)
        tally, _ = self._tally(*tiny)
        assert tally.failed == 1
        assert any("shape_vectors differs" in p for p in tally.problems)
