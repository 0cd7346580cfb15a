import json

import numpy as np
import pytest

from phaseshape import MultiSeries, TimeSeries, load_csv, read_meta, write_csv
from phaseshape.cli import main


@pytest.fixture()
def lorenz_csv(tmp_path):
    path = tmp_path / "lorenz.csv"
    assert main(["gen-model", "lorenz", "--n", "600", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def rossler_csv(tmp_path):
    path = tmp_path / "rossler.csv"
    assert main(["gen-model", "rossler", "--n", "400", "--out", str(path)]) == 0
    return path


def _sine_csv(path, n=400, period=20.0):
    x = np.sin(2 * np.pi * np.arange(n) / period)
    write_csv(MultiSeries((TimeSeries(x, name="x"),)), path)
    return path


class TestGenModel:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["gen-model", "lorenz", "--n", "300", "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        series = load_csv(out)
        assert series.n == 300
        assert len(series) == 3
        meta = read_meta(out)
        assert meta["system"] == "lorenz"
        assert meta["dt"] == 0.01
        assert meta["n"] == 300
        assert meta["params"]["rho"] == 45.92

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-model", "rossler", "--n", "50"]) == 0
        assert (tmp_path / "rossler.csv").exists()

    def test_seed_reproducible(self, tmp_path):
        a, b, c = (tmp_path / f"{k}.csv" for k in "abc")
        assert main(["gen-model", "lorenz", "--n", "100", "--seed", "3", "--out", str(a)]) == 0
        assert main(["gen-model", "lorenz", "--n", "100", "--seed", "3", "--out", str(b)]) == 0
        assert main(["gen-model", "lorenz", "--n", "100", "--seed", "4", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_explicit_ic(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["gen-model", "rossler", "--n", "50", "--ic", "1,2,0.5",
                     "--out", str(out)]) == 0
        assert read_meta(out)["ic"] == [1.0, 2.0, 0.5]

    def test_unknown_system_is_usage_error(self, tmp_path):
        assert main(["gen-model", "henon", "--n", "50"]) == 1

    def test_malformed_ic_is_usage_error(self):
        assert main(["gen-model", "lorenz", "--ic", "1,2"]) == 1

    def test_cross_system_params_rejected(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["gen-model", "rossler", "--n", "50", "--sigma", "10",
                     "--out", str(out)]) == 2
        assert main(["gen-model", "lorenz", "--n", "50", "--a", "0.2",
                     "--out", str(out)]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_step_is_numerical_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["gen-model", "lorenz", "--n", "50", "--dt", "1.0",
                     "--out", str(out)]) == 3
        assert "numerical error" in capsys.readouterr().err


class TestFeatures:
    def test_payload_structure(self, lorenz_csv, capsys):
        assert main(["features", str(lorenz_csv), "--tau", "11", "--samples", "500"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "D2"
        assert payload["dt"] == 0.01
        assert len(payload["channels"]) == 3
        assert len(payload["vector"]) == 150
        for ch in payload["channels"]:
            assert ch["tau"] == 11
            assert ch["tau_method"] == "flag"
            mass = ch["distribution"]["mass"]
            assert sum(mass) == pytest.approx(1.0)

    def test_auto_tau_is_recorded(self, tmp_path, capsys):
        path = _sine_csv(tmp_path / "sine.csv")
        assert main(["features", str(path), "--samples", "300"]) == 0
        ch = json.loads(capsys.readouterr().out)["channels"][0]
        assert ch["tau"] == 6
        assert ch["tau_method"] == "zero-crossing"

    def test_dt2_with_zero_gamma_matches_d2(self, rossler_csv, capsys):
        assert main(["features", str(rossler_csv), "--tau", "8",
                     "--samples", "400", "--kind", "D2"]) == 0
        d2 = json.loads(capsys.readouterr().out)["vector"]
        assert main(["features", str(rossler_csv), "--tau", "8",
                     "--samples", "400", "--kind", "DT2", "--gamma", "0"]) == 0
        dt2 = json.loads(capsys.readouterr().out)["vector"]
        assert d2 == dt2

    def test_missing_input(self, tmp_path, capsys):
        assert main(["features", str(tmp_path / "absent.csv")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        ['{"dt": "abc"}', '{"dt": null}', "[1, 2]", '{"dt": 0}', '{"dt": -1}', '{"dt": true}'],
    )
    def test_malformed_sidecar(self, tmp_path, capsys, payload):
        path = _sine_csv(tmp_path / "sine.csv")
        (tmp_path / "sine.meta.json").write_text(payload)
        assert main(["features", str(path), "--tau", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "sine.meta.json" in err

    def test_repeat_runs_identical(self, rossler_csv, capsys):
        assert main(["features", str(rossler_csv), "--tau", "8", "--samples", "300"]) == 0
        first = capsys.readouterr().out
        assert main(["features", str(rossler_csv), "--tau", "8", "--samples", "300"]) == 0
        assert capsys.readouterr().out == first

    def test_env_seed_used_and_echoed(self, rossler_csv, capsys, monkeypatch):
        monkeypatch.setenv("PHASESHAPE_SEED", "77")
        assert main(["features", str(rossler_csv), "--tau", "8", "--samples", "300"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 77

    def test_seed_flag_beats_env(self, rossler_csv, capsys, monkeypatch):
        monkeypatch.setenv("PHASESHAPE_SEED", "77")
        assert main(["features", str(rossler_csv), "--tau", "8",
                     "--samples", "300", "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    def test_bad_env_seed(self, rossler_csv, capsys, monkeypatch):
        monkeypatch.setenv("PHASESHAPE_SEED", "not-a-number")
        assert main(["features", str(rossler_csv), "--tau", "8"]) == 2

    def test_out_file(self, rossler_csv, tmp_path, capsys):
        out = tmp_path / "feat.json"
        assert main(["features", str(rossler_csv), "--tau", "8",
                     "--samples", "300", "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert len(json.loads(out.read_text())["vector"]) == 150

    def test_bins_flag(self, rossler_csv, capsys):
        assert main(["features", str(rossler_csv), "--tau", "8",
                     "--samples", "300", "--bins", "20"]) == 0
        assert len(json.loads(capsys.readouterr().out)["vector"]) == 60

    def test_bad_kind_is_usage_error(self, rossler_csv):
        assert main(["features", str(rossler_csv), "--kind", "D7"]) == 1


class TestChaos:
    def test_payload_structure(self, tmp_path, capsys):
        path = tmp_path / "ros.csv"
        assert main(["gen-model", "rossler", "--n", "600", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["chaos", str(path), "--tau", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dt"] == 0.12
        assert len(payload["channels"]) == 3
        assert len(payload["vector"]) == 30
        ch = payload["channels"][0]
        assert len(ch["integrals"]) == 8
        assert len(ch["radii"]) == 8
        assert "lambda1" in ch and "corr_dim" in ch

    def test_low_r2_warning(self, rossler_csv, capsys):
        assert main(["chaos", str(rossler_csv), "--tau", "8"]) == 0
        err = capsys.readouterr().err
        assert "below 0.95" in err

    def test_constant_input(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        write_csv(MultiSeries((TimeSeries(np.full(300, 2.0), name="x"),)), path)
        assert main(["chaos", str(path)]) == 2
        assert "channel 0" in capsys.readouterr().err

    def test_failing_channel_named(self, tmp_path, capsys):
        path = tmp_path / "mixed.csv"
        x = np.sin(np.arange(400) / 7.0)
        chans = (TimeSeries(x, name="x"), TimeSeries(np.full(400, 2.0), name="flat"))
        write_csv(MultiSeries(chans), path)
        assert main(["chaos", str(path), "--tau", "5"]) == 2
        assert "error: channel 1: constant series" in capsys.readouterr().err


class TestStability:
    def test_artifacts_written(self, tmp_path, capsys):
        out_dir = tmp_path / "stab"
        rc = main(["stability", "--lorenz-lengths", "500,700", "--rossler-lengths", "400",
                   "--samples", "500", "--out-dir", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stability: max_within=" in out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["name"] == "stability"
        assert report["metrics"]["separated"] is True
        lines = (out_dir / "distances.csv").read_text().splitlines()
        assert lines[0] == "id,lorenz-500,lorenz-700,rossler-400"
        assert len(lines) == 4
        for name in ("lorenz-500", "lorenz-700", "rossler-400"):
            assert (out_dir / f"hist_{name}.csv").exists()

    def test_single_length_prints_na(self, capsys):
        rc = main(["stability", "--lorenz-lengths", "500", "--rossler-lengths", "",
                   "--samples", "300"])
        assert rc == 0
        assert "max_within=n/a" in capsys.readouterr().out

    def test_no_lengths(self, capsys):
        assert main(["stability", "--lorenz-lengths", "", "--rossler-lengths", ""]) == 2

    def test_bad_lengths_list(self):
        assert main(["stability", "--lorenz-lengths", "5x0"]) == 1


class TestClassify:
    def test_synthetic_prints_confusion(self, capsys):
        rc = main(["classify", "--synthetic", "lorenz-rossler", "--per-class", "2",
                   "--samples", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "true\\pred" in out
        assert "lorenz" in out and "rossler" in out
        assert "accuracy 1.0000 (4 instances)" in out

    def test_out_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["classify", "--synthetic", "lorenz-rossler", "--per-class", "2",
                   "--samples", "500", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["name"] == "classification"
        assert report["metrics"]["accuracy"] == 1.0
        assert report["config"]["root_seed"] == 2024

    def test_env_seed_sets_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PHASESHAPE_SEED", "9")
        out = tmp_path / "report.json"
        rc = main(["classify", "--synthetic", "lorenz-rossler", "--per-class", "1",
                   "--samples", "300", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["config"]["root_seed"] == 9

    def test_dataset_source(self, tmp_path, capsys):
        for label, period in (("fast", 12.0), ("slow", 40.0)):
            d = tmp_path / "data" / label
            d.mkdir(parents=True)
            for k in range(2):
                _sine_csv(d / f"{k}.csv", n=600, period=period + k)
        rc = main(["classify", "--dataset", str(tmp_path / "data"),
                   "--samples", "400", "--m", "2"])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out

    def test_single_label_dataset(self, tmp_path, capsys):
        d = tmp_path / "data" / "only"
        d.mkdir(parents=True)
        _sine_csv(d / "a.csv")
        _sine_csv(d / "b.csv")
        assert main(["classify", "--dataset", str(tmp_path / "data")]) == 2
        assert "degenerate" in capsys.readouterr().err

    def test_source_flag_required(self):
        assert main(["classify"]) == 1

    def test_sources_mutually_exclusive(self, tmp_path):
        assert main(["classify", "--dataset", str(tmp_path),
                     "--synthetic", "lorenz-rossler"]) == 1

    def test_bad_synthetic_name(self):
        assert main(["classify", "--synthetic", "henon-ikeda"]) == 1


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-model" in capsys.readouterr().out
