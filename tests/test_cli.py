import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from phaseshape import (
    GenConfig,
    LorenzParams,
    MultiSeries,
    RosslerParams,
    TimeSeries,
    load_csv,
    lorenz_generate,
    read_meta,
    rossler_generate,
    write_csv,
)
from phaseshape import cli
from phaseshape.cli import main
from phaseshape.models import BUNDLED


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


@pytest.fixture()
def big_csv(tmp_path):
    # values near the largest double: their differences, squares and sums
    # overflow
    x = np.random.default_rng(0).uniform(-1.0, 1.0, 400) * np.finfo(float).max
    path = tmp_path / "big.csv"
    write_csv(MultiSeries((TimeSeries(x, name="x"),)), path)
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

    def test_seeded_sidecar_ic_replays(self, tmp_path):
        # The sidecar records the state the seed drew, not the --ic default
        seeded, replay = tmp_path / "seeded.csv", tmp_path / "replay.csv"
        assert main(["gen-model", "rossler", "--n", "50", "--seed", "7",
                     "--out", str(seeded)]) == 0
        ic = read_meta(seeded)["ic"]
        assert ic == np.random.default_rng(7).uniform(*BUNDLED["rossler"].ic_box).tolist()
        assert main(["gen-model", "rossler", "--n", "50", "--ic", ",".join(map(repr, ic)),
                     "--out", str(replay)]) == 0
        assert replay.read_bytes() == seeded.read_bytes()

    def test_explicit_ic(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["gen-model", "rossler", "--n", "50", "--ic", "1,2,0.5",
                     "--out", str(out)]) == 0
        assert read_meta(out)["ic"] == [1.0, 2.0, 0.5]

    def test_unknown_system_is_usage_error(self, tmp_path):
        assert main(["gen-model", "henon", "--n", "50"]) == 1

    def test_malformed_ic_is_usage_error(self):
        assert main(["gen-model", "lorenz", "--ic", "1,2"]) == 1

    @pytest.mark.parametrize("system, flags, params, generate", [
        ("lorenz", ["--sigma", "10", "--rho", "28", "--beta", "2.5"],
         LorenzParams(sigma=10, rho=28, beta=2.5), lorenz_generate),
        ("lorenz", ["--rho", "28"], LorenzParams(rho=28), lorenz_generate),
        ("rossler", ["--a", "0.2", "--b", "0.3", "--c", "6"],
         RosslerParams(a=0.2, b=0.3, c=6), rossler_generate),
    ])
    def test_params_flags(self, tmp_path, system, flags, params, generate):
        out, want = tmp_path / "o.csv", tmp_path / "want.csv"
        assert main(["gen-model", system, "--n", "300", *flags, "--out", str(out)]) == 0
        write_csv(generate(GenConfig(n=300), params), want)
        assert out.read_bytes() == want.read_bytes()
        assert read_meta(out)["params"] == asdict(params)

    def test_cross_system_params_rejected(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["gen-model", "rossler", "--n", "50", "--sigma", "10",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --sigma/--rho/--beta apply to lorenz, not rossler\n"
        )
        assert main(["gen-model", "lorenz", "--n", "50", "--a", "0.2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --a/--b/--c apply to rossler, not lorenz\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--dt", "0"], "dt must be a finite real > 0, got 0.0"),
        (["--sigma", "nan"], "sigma must be a finite real, got nan"),
        (["--ic", "1,nan,1"], "ic[1] must be a finite real, got nan"),
    ], ids=["dt", "sigma", "ic"])
    def test_bad_real_exits_two_with_one_line(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o.csv"
        assert main(["gen-model", "lorenz", "--n", "50", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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
        "argv", [["features", "."], ["chaos", "/"], ["chaos", ".", "--tau", "5"]]
    )
    def test_path_with_no_file_name(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: no such file: {argv[1]}\n"

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

    @pytest.mark.parametrize("gamma", ["740", "744"])
    def test_raw_range_underflow_is_degenerate(self, tmp_path, capsys, gamma):
        # exp(-gamma * tsep) underflows every DT2 sample below the normal
        # range: no bin width can be built from the max, so each channel is
        # the degenerate histogram instead of an error
        path = tmp_path / "l.csv"
        assert main(["gen-model", "lorenz", "--n", "2000", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["features", str(path), "--kind", "DT2", "--gamma", gamma,
                     "--normalization", "raw-range", "--tau", "11"]) == 0
        for ch in json.loads(capsys.readouterr().out)["channels"]:
            dist = ch["distribution"]
            assert dist["degenerate"] is True
            assert dist["mass"][0] == 1.0
            assert dist["edges"][-1] == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["D1", "D2", "D3", "DT1", "DT2"])
    def test_overflowing_samples_are_one_error_line(self, big_csv, capsys, kind):
        # the non-finite samples are the one message, with no numpy warning
        # before it
        assert main(["features", str(big_csv), "--tau", "3", "--kind", kind]) == 2
        assert capsys.readouterr().err == "error: channel 0: non-finite sample value\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_autocovariance_is_one_error_line(self, big_csv, capsys):
        # under --tau auto the delay estimate refuses the autocovariance the
        # samples overflow, with no numpy warning before it
        assert main(["features", str(big_csv), "--tau", "auto"]) == 2
        assert capsys.readouterr().err == (
            "error: channel 0: samples too large to estimate a delay:"
            " the autocovariance overflows\n"
        )

    def test_bad_kind_is_usage_error(self, rossler_csv):
        assert main(["features", str(rossler_csv), "--kind", "D7"]) == 1


class TestChaos:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_mean_period_is_one_error_line(self, big_csv, capsys):
        # under a given delay the mean period's spectrum overflows, and the
        # windows are refused instead of rounded from NaN, with no numpy
        # warning before it
        assert main(["chaos", str(big_csv), "--tau", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: channel 0: samples too large for the mean period:"
            " the spectrum overflows\n"
        )

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

    def test_low_r2_warning_unnamed_channel(self, tmp_path, capsys):
        # A headerless CSV has no channel names; the warning shows none.
        path = tmp_path / "noise.csv"
        write_csv(MultiSeries((TimeSeries(np.random.default_rng(0).normal(size=1500)),)), path)
        assert main(["chaos", str(path)]) == 0
        err = capsys.readouterr().err
        assert "warning: channel 0: divergence fit R^2 0.3998 is below 0.95" in err
        assert "None" not in err

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

    @pytest.mark.parametrize("tau", ["auto", "1"])
    def test_periodic_input(self, tmp_path, capsys, tau):
        # 0..4 repeated: every nearest neighbor is an exact copy, so the
        # divergence curve carries no slope, only rounding.
        path = tmp_path / "periodic.csv"
        write_csv(MultiSeries((TimeSeries(np.tile(np.arange(5.0), 100)),)), path)
        assert main(["chaos", str(path), "--tau", tau]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "numerical error: channel 0: divergence curve is constant over the fit range\n"
        )


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

    @pytest.mark.parametrize("blocked", ["report.json", "distances.csv", "hist_lorenz-500.csv"])
    def test_unwritable_artifact_named(self, tmp_path, capsys, blocked):
        out_dir = tmp_path / "stab"
        (out_dir / blocked).mkdir(parents=True)
        rc = main(["stability", "--lorenz-lengths", "500", "--rossler-lengths", "",
                   "--samples", "300", "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out_dir / blocked}: ")
        assert err.count("\n") == 1

    def test_single_length_prints_na(self, capsys):
        rc = main(["stability", "--lorenz-lengths", "500", "--rossler-lengths", "",
                   "--samples", "300"])
        assert rc == 0
        assert "max_within=n/a" in capsys.readouterr().out

    def test_no_lengths(self, capsys):
        assert main(["stability", "--lorenz-lengths", "", "--rossler-lengths", ""]) == 2

    def test_duplicate_lengths(self, tmp_path, capsys):
        out_dir = tmp_path / "stab"
        assert main(["stability", "--lorenz-lengths", "1000,1000", "--rossler-lengths", "400",
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            "error: lorenz lengths must be distinct, got [1000, 1000]\n"
        )
        assert not out_dir.exists()

    def test_bad_lengths_list(self):
        assert main(["stability", "--lorenz-lengths", "5x0"]) == 1

    def test_one_lengths_flag_per_bundled_system(self, monkeypatch):
        monkeypatch.setattr(LorenzParams, "stability_lengths", (700, 900))
        sub = cli.build_parser()._subparsers._group_actions[0].choices["stability"]
        flags = [o for a in sub._actions for o in a.option_strings if o.endswith("-lengths")]
        assert flags == [f"--{s}-lengths" for s in BUNDLED]
        args = sub.parse_args([])
        for s, cls in BUNDLED.items():
            assert getattr(args, f"{s}_lengths") == list(cls.stability_lengths)
        assert args.lorenz_lengths == [700, 900]


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

    @pytest.mark.parametrize("features", ["shape", "chaos"])
    def test_failing_instance_named(self, tmp_path, capsys, features):
        # An irrational period: an exactly periodic channel has no
        # divergence for the chaos features to fit.
        for label, n in (("a", 300), ("b", 12)):
            d = tmp_path / "bad" / label
            d.mkdir(parents=True)
            _sine_csv(d / "i1.csv", n=n, period=20 * np.sqrt(2))
        rc = main(["classify", "--dataset", str(tmp_path / "bad"), "--tau", "11",
                   "--features", features])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: instance 'b/i1': channel 0: series of length 12 too short for m=3, tau=11\n"
        )

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


class TestNegativeSeed:
    @pytest.mark.parametrize("argv, env, field", [
        (["features", "{csv}", "--tau", "8", "--seed", "-1"], None, "seed"),
        (["features", "{csv}", "--tau", "8"], "-1", "seed"),
        (["gen-model", "lorenz", "--n", "50", "--seed", "-1", "--out", "{out}"], None, "seed"),
        (["stability", "--lorenz-lengths", "300", "--seed", "-1"], None, "seed"),
        (["stability", "--lorenz-lengths", "300", "--gen-seed", "-1"], None, "seed"),
        (["classify", "--synthetic", "lorenz-rossler", "--seed", "-1"], None, "root_seed"),
    ])
    def test_exit_two_with_one_line(self, rossler_csv, tmp_path, capsys, monkeypatch,
                                    argv, env, field):
        if env is not None:
            monkeypatch.setenv("PHASESHAPE_SEED", env)
        argv = [a.format(csv=rossler_csv, out=tmp_path / "g.csv") for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {field} must be an integer >= 0, got -1\n"


class TestEmptyPath:
    # An empty path is a usage error, not a missing flag: nothing runs and
    # nothing is written or printed to stdout.
    @pytest.mark.parametrize("argv", [
        ["gen-model", "lorenz", "--n", "50", "--out", ""],
        ["features", "{csv}", "--tau", "8", "--out", ""],
        ["chaos", "{csv}", "--tau", "8", "--out", ""],
        ["stability", "--lorenz-lengths", "300", "--rossler-lengths", "300",
         "--samples", "200", "--out-dir", ""],
        ["classify", "--synthetic", "lorenz-rossler", "--per-class", "2", "--out", ""],
        ["classify", "--dataset", "", "--per-class", "2"],
        ["features", "", "--tau", "8"],
        ["chaos", "", "--tau", "8"],
    ], ids=["gen-model-out", "features-out", "chaos-out", "stability-out-dir",
            "classify-out", "classify-dataset", "features-input", "chaos-input"])
    def test_usage_error(self, rossler_csv, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main([a.format(csv=rossler_csv) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "expected a path, got ''" in err
        assert sorted(tmp_path.iterdir()) == before


def test_out_of_memory_exits_two(rossler_csv, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 114. MiB for an array")

    monkeypatch.setattr(cli, "chaos_feature_vector", exhausted)
    assert main(["chaos", str(rossler_csv), "--tau", "8"]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 114. MiB for an array\n"


# Runs in a fresh interpreter, where nothing has imported scipy yet.
_NO_SCIPY = """
import sys
import phaseshape, phaseshape.cli as cli
for argv in (
    ["gen-model", "lorenz", "--n", "600", "--out", "l.csv"],
    ["features", "l.csv", "--tau", "11", "--samples", "300"],
    ["chaos", "l.csv", "--tau", "11"],
    ["stability", "--lorenz-lengths", "500", "--rossler-lengths", "400", "--samples", "300"],
    ["classify", "--synthetic", "lorenz-rossler", "--per-class", "2", "--samples", "300"],
    ["classify", "--synthetic", "lorenz-rossler", "--per-class", "2", "--features", "chaos"],
):
    assert cli.main(argv) == 0, argv
    loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    assert not loaded, (argv, loaded)
print(phaseshape.__file__)
"""


def test_no_command_imports_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(src) + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert Path(proc.stdout.splitlines()[-1]).is_relative_to(src)


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-model" in capsys.readouterr().out
