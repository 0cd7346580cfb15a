import json

import numpy as np
import pytest

from phaseshape import (
    DEFAULT_DELAYS,
    GenConfig,
    Instance,
    MultiSeries,
    TimeSeries,
    ValidationError,
    classification_experiment,
    generate_system,
    load_dataset,
    lorenz_generate,
    rossler_generate,
    stability_experiment,
    synthetic_instances,
    write_csv,
    write_meta,
)
from phaseshape import experiments


def _sine_instance(iid, label, period, phase=0.0):
    x = np.sin(2 * np.pi * np.arange(600) / period + phase)
    ms = MultiSeries((TimeSeries(x, name="x"),), label=label)
    return Instance(iid, ms)


@pytest.fixture(scope="module")
def small_report():
    return stability_experiment(
        lorenz_lengths=[600, 1000], rossler_lengths=[400, 600], n_samples=2000
    )


@pytest.fixture(scope="module")
def shape_report():
    return classification_experiment(per_class=3, n_samples=1000)


class TestGenerateSystem:
    def test_dispatch(self):
        lor = generate_system("lorenz", GenConfig(n=50, seed=0))
        assert lor.label == "lorenz"
        ros = generate_system("rossler", GenConfig(n=50, seed=0))
        assert ros.label == "rossler"

    def test_unknown_system(self):
        with pytest.raises(ValidationError, match="system"):
            generate_system("henon", GenConfig(n=50))


class TestInstance:
    def test_label_from_series(self):
        inst = Instance("lorenz-000", lorenz_generate(GenConfig(n=10)))
        assert inst.label == "lorenz"

    def test_missing_label_rejected(self):
        ms = MultiSeries((TimeSeries(np.arange(10.0)),))
        with pytest.raises(ValidationError, match="no label"):
            Instance("x", ms).label


class TestStability:
    def test_systems_separate(self, small_report):
        m = small_report.metrics
        assert m["separated"] is True
        assert m["min_cross"] > m["max_within"]

    def test_artifact_shapes(self, small_report):
        art = small_report.artifacts
        assert art["order"] == ["lorenz-600", "lorenz-1000", "rossler-400", "rossler-600"]
        dmat = art["distance_matrix"]
        assert dmat.shape == (4, 4)
        assert (dmat == dmat.T).all()
        assert (np.diag(dmat) == 0).all()
        assert len(art["instances"]) == 4
        for inst in art["instances"]:
            assert len(inst["channels"]) == 3
            for ch in inst["channels"]:
                assert sum(ch["mass"]) == pytest.approx(1.0)

    def test_config_echo(self, small_report):
        cfg = small_report.config
        assert cfg["lorenz_lengths"] == [600, 1000]
        assert cfg["delays"] == {"lorenz": 11, "rossler": 8}
        assert cfg["metric"] == "chi2"

    def test_repeat_run_identical(self, small_report):
        again = stability_experiment(
            lorenz_lengths=[600, 1000], rossler_lengths=[400, 600], n_samples=2000
        )
        assert again.to_json() == small_report.to_json()

    def test_parallel_matches_sequential(self, small_report):
        par = stability_experiment(
            lorenz_lengths=[600, 1000], rossler_lengths=[400, 600], n_samples=2000, jobs=4
        )
        assert par.to_json() == small_report.to_json()

    def test_single_instance(self):
        rep = stability_experiment(lorenz_lengths=[1000], rossler_lengths=[], n_samples=500)
        assert rep.metrics == {"max_within": None, "min_cross": None, "separated": None}
        assert rep.artifacts["distance_matrix"].shape == (1, 1)
        assert rep.artifacts["order"] == ["lorenz-1000"]

    def test_no_lengths(self):
        with pytest.raises(ValidationError, match="no lengths"):
            stability_experiment(lorenz_lengths=[], rossler_lengths=[])

    def test_bad_metric(self):
        with pytest.raises(ValidationError, match="metric"):
            stability_experiment(lorenz_lengths=[500], rossler_lengths=[], metric="cosine")

    def test_bad_metric_rejected_before_generation(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("trajectory generated before the metric was checked")

        monkeypatch.setattr(experiments, "generate_system", no_work)
        with pytest.raises(ValidationError, match="metric"):
            stability_experiment(lorenz_lengths=[500], rossler_lengths=[], metric="cosine")

    def test_metric_case_insensitive(self):
        a = stability_experiment(lorenz_lengths=[500], rossler_lengths=[300], n_samples=300)
        b = stability_experiment(
            lorenz_lengths=[500], rossler_lengths=[300], n_samples=300, metric="CHI2"
        )
        assert (a.artifacts["distance_matrix"] == b.artifacts["distance_matrix"]).all()

    def test_gen_seed_moves_trajectories(self):
        a = stability_experiment(lorenz_lengths=[500], rossler_lengths=[], n_samples=500, gen_seed=1)
        b = stability_experiment(lorenz_lengths=[500], rossler_lengths=[], n_samples=500, gen_seed=2)
        assert a.to_json() != b.to_json()

    def test_report_json_round_trips(self, small_report):
        payload = json.loads(small_report.to_json())
        assert payload["name"] == "stability"
        assert set(payload) == {"name", "config", "metrics", "artifacts"}


class TestSyntheticInstances:
    def test_counts_and_ids(self):
        insts = synthetic_instances(per_class=2)
        assert [i.id for i in insts] == [
            "lorenz-000", "lorenz-001", "rossler-000", "rossler-001"
        ]
        assert [i.label for i in insts] == ["lorenz", "lorenz", "rossler", "rossler"]

    def test_lengths_inside_ranges(self):
        for inst in synthetic_instances(per_class=3):
            lo, hi = (1000, 5000) if inst.label == "lorenz" else (400, 2000)
            assert lo <= inst.series.n <= hi

    def test_draw_protocol_is_pinned(self):
        # Instance (class 0, k=1): ic from the lorenz box, then the length
        inst = synthetic_instances(per_class=2)[1]
        rng = np.random.default_rng(np.random.SeedSequence([2024, 0, 1]))
        ic = rng.uniform(-10.0, 10.0, 3)
        n = int(rng.integers(1000, 5001))
        expected = lorenz_generate(GenConfig(n=n, ic=tuple(ic)))
        assert inst.series.n == n
        for got, want in zip(inst.series.channels, expected.channels):
            assert (got.samples == want.samples).all()

    @pytest.mark.parametrize("root_seed", [2024, 7])
    def test_batch_equals_one_at_a_time(self, root_seed):
        for inst in synthetic_instances(per_class=3, root_seed=root_seed):
            system, k = inst.id.split("-")
            rng = np.random.default_rng(
                np.random.SeedSequence([root_seed, experiments.SYSTEMS.index(system), int(k)])
            )
            ic = rng.uniform(*experiments._IC_BOXES[system])
            lo, hi = experiments.LENGTH_RANGES[system]
            n = int(rng.integers(lo, hi + 1))
            want = generate_system(system, GenConfig(n=n, ic=tuple(ic)))
            assert inst.series.n == n and inst.label == system
            for got, exp in zip(inst.series.channels, want.channels):
                assert (got.samples == exp.samples).all()

    @pytest.mark.parametrize("jobs", [0, -1, 1.5])
    def test_jobs_validation(self, jobs):
        with pytest.raises(ValidationError, match="jobs"):
            synthetic_instances(per_class=1, jobs=jobs)

    def test_parallel_matches_sequential(self):
        seq = synthetic_instances(per_class=2)
        par = synthetic_instances(per_class=2, jobs=4)
        for a, b in zip(seq, par):
            assert a.id == b.id
            for ca, cb in zip(a.series.channels, b.series.channels):
                assert (ca.samples == cb.samples).all()

    def test_root_seed_changes_draws(self):
        a = synthetic_instances(per_class=1)[0]
        b = synthetic_instances(per_class=1, root_seed=7)[0]
        assert a.series.n != b.series.n or not (
            a.series.channels[0].samples[:10] == b.series.channels[0].samples[:10]
        ).all()

    def test_per_class_validation(self):
        with pytest.raises(ValidationError):
            synthetic_instances(per_class=0)


class TestClassification:
    def test_synthetic_shape_features(self, shape_report):
        m = shape_report.metrics
        assert m["accuracy"] == 1.0
        assert m["total"] == 6
        assert m["labels"] == ["lorenz", "rossler"]

    def test_config_echo(self, shape_report):
        cfg = shape_report.config
        assert cfg["source"] == {"synthetic": True, "per_class": 3}
        assert cfg["features"] == "shape"
        assert cfg["metric"] == "chi2"
        assert cfg["kind"] == "D2"

    def test_instance_artifacts(self, shape_report):
        insts = shape_report.artifacts["instances"]
        assert len(insts) == 6
        assert insts[0]["id"] == "lorenz-000"
        assert insts[0]["tau"] == 11
        assert insts[3]["tau"] == 8
        assert all(i["n"] >= 400 for i in insts)

    def test_confusion_artifact(self, shape_report):
        conf = shape_report.artifacts["confusion"]
        assert conf["labels"] == ["lorenz", "rossler"]
        assert np.trace(np.array(conf["counts"])) == 6

    def test_parallel_matches_sequential(self, shape_report):
        par = classification_experiment(per_class=3, n_samples=1000, jobs=4)
        assert par.to_json() == shape_report.to_json()

    def test_chaos_features_on_short_instances(self):
        insts = []
        for k in range(3):
            insts.append(Instance(f"lorenz-{k}", lorenz_generate(GenConfig(n=900, seed=k))))
            insts.append(Instance(f"rossler-{k}", rossler_generate(GenConfig(n=500, seed=k))))
        rep = classification_experiment(instances=insts, features="chaos")
        assert rep.config["metric"] == "l2"
        assert rep.config["kind"] is None
        assert rep.metrics["accuracy"] == 1.0

    def test_unknown_labels_fall_back_to_estimated_delay(self):
        insts = [
            _sine_instance("slow-0", "slow", 40),
            _sine_instance("slow-1", "slow", 40, phase=1.0),
            _sine_instance("fast-0", "fast", 12),
            _sine_instance("fast-1", "fast", 12, phase=0.5),
        ]
        rep = classification_experiment(instances=insts, n_samples=500, m=2)
        taus = {i["id"]: i["tau"] for i in rep.artifacts["instances"]}
        assert taus["fast-0"] < taus["slow-0"]
        assert rep.metrics["accuracy"] == 1.0

    def test_explicit_delay_overrides(self):
        insts = [
            _sine_instance("slow-0", "slow", 40),
            _sine_instance("fast-0", "fast", 12),
        ]
        rep = classification_experiment(instances=insts, n_samples=200, m=2, delays=5)
        assert all(i["tau"] == 5 for i in rep.artifacts["instances"])

    def test_delay_table(self):
        insts = [
            _sine_instance("slow-0", "slow", 40),
            _sine_instance("fast-0", "fast", 12),
        ]
        rep = classification_experiment(
            instances=insts, n_samples=200, m=2, delays={"slow": 9, "fast": 3}
        )
        taus = {i["id"]: i["tau"] for i in rep.artifacts["instances"]}
        assert taus == {"slow-0": 9, "fast-0": 3}

    def test_delay_table_missing_label(self):
        insts = [
            _sine_instance("slow-0", "slow", 40),
            _sine_instance("fast-0", "fast", 12),
        ]
        with pytest.raises(ValidationError, match="no delay given"):
            classification_experiment(instances=insts, n_samples=200, m=2, delays={"slow": 9})

    def test_bad_delays_type(self):
        insts = [
            _sine_instance("slow-0", "slow", 40),
            _sine_instance("fast-0", "fast", 12),
        ]
        with pytest.raises(ValidationError, match="delays"):
            classification_experiment(instances=insts, n_samples=200, m=2, delays=2.5)

    def test_bad_features(self):
        with pytest.raises(ValidationError, match="features"):
            classification_experiment(per_class=1, features="spectral")

    @pytest.mark.parametrize("features", ["shape", "chaos"])
    def test_bad_metric_rejected_before_featurizing(self, monkeypatch, features):
        def no_work(*args, **kwargs):
            raise AssertionError("instance featurized before the metric was checked")

        monkeypatch.setattr(experiments, "feature_vector", no_work)
        monkeypatch.setattr(experiments, "chaos_feature_vector", no_work)
        monkeypatch.setattr(experiments, "generate_system", no_work)
        insts = [_sine_instance("slow-0", "slow", 40), _sine_instance("fast-0", "fast", 12)]
        with pytest.raises(ValidationError, match="metric"):
            classification_experiment(instances=insts, features=features, metric="cosine")
        with pytest.raises(ValidationError, match="metric"):
            classification_experiment(per_class=1, features=features, metric="cosine")

    def test_too_few_instances(self):
        insts = [_sine_instance("slow-0", "slow", 40)]
        with pytest.raises(ValidationError, match="at least 2"):
            classification_experiment(instances=insts)

    def test_duplicate_instance_ids(self):
        insts = [
            _sine_instance("x", "slow", 40),
            _sine_instance("x", "fast", 12),
        ]
        with pytest.raises(ValidationError, match="unique"):
            classification_experiment(instances=insts)


class TestLoadDataset:
    def _write(self, path, label, name, n=64, dt=None, period=16.0):
        d = path / label
        d.mkdir(exist_ok=True)
        x = np.sin(2 * np.pi * np.arange(n) / period)
        ms = MultiSeries((TimeSeries(x, name="x"),))
        write_csv(ms, d / f"{name}.csv")
        if dt is not None:
            write_meta(d / f"{name}.csv", {"dt": dt})

    def test_layout_round_trip(self, tmp_path):
        self._write(tmp_path, "a", "one")
        self._write(tmp_path, "a", "two", dt=0.5)
        self._write(tmp_path, "b", "three", period=8.0)
        insts = load_dataset(tmp_path)
        assert [i.id for i in insts] == ["a/one", "a/two", "b/three"]
        assert [i.label for i in insts] == ["a", "a", "b"]
        assert insts[0].series.dt == 1.0
        assert insts[1].series.dt == 0.5

    def test_feeds_classification(self, tmp_path):
        for k in range(2):
            self._write(tmp_path, "slow", f"s{k}", n=600, period=40.0)
            self._write(tmp_path, "fast", f"f{k}", n=600, period=12.0)
        rep = classification_experiment(instances=load_dataset(tmp_path), n_samples=400, m=2)
        assert rep.metrics["total"] == 4
        assert rep.metrics["labels"] == ["fast", "slow"]

    @pytest.mark.parametrize("payload", ['{"dt": "abc"}', '{"dt": null}', "[1, 2]"])
    def test_malformed_sidecar(self, tmp_path, payload):
        self._write(tmp_path, "a", "one")
        self._write(tmp_path, "b", "two")
        (tmp_path / "b" / "two.meta.json").write_text(payload)
        with pytest.raises(ValidationError, match="dt|JSON object"):
            load_dataset(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_dataset(tmp_path / "absent")

    def test_no_label_dirs(self, tmp_path):
        (tmp_path / "stray.csv").write_text("1.0\n2.0\n")
        with pytest.raises(ValidationError, match="no label"):
            load_dataset(tmp_path)

    def test_no_csv_instances(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        with pytest.raises(ValidationError, match="no CSV"):
            load_dataset(tmp_path)

    def test_single_label_degenerate(self, tmp_path):
        self._write(tmp_path, "a", "one")
        self._write(tmp_path, "a", "two")
        with pytest.raises(ValidationError, match="degenerate"):
            load_dataset(tmp_path)
