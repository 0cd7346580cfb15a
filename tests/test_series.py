import json
import re

import numpy as np
import pytest

from phaseshape import (
    MultiSeries,
    TimeSeries,
    ValidationError,
    load_csv,
    read_meta,
    write_csv,
    write_meta,
)
from phaseshape.series import meta_path, sidecar_dt


class TestTimeSeries:
    def test_basic_fields(self):
        ts = TimeSeries([1.0, 2.0, 3.0], dt=0.5, name="x")
        assert ts.n == 3
        assert len(ts) == 3
        assert ts.dt == 0.5
        assert ts.name == "x"
        assert ts.samples.dtype == float

    def test_samples_are_read_only(self):
        ts = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.samples[0] = 9.0

    def test_input_array_is_copied(self):
        src = np.array([1.0, 2.0, 3.0])
        ts = TimeSeries(src)
        src[0] = 99.0
        assert ts.samples[0] == 1.0

    def test_too_short(self):
        with pytest.raises(ValidationError):
            TimeSeries([1.0])

    def test_non_finite_named_index(self):
        with pytest.raises(ValidationError, match="index 2"):
            TimeSeries([0.0, 1.0, np.nan, 3.0])
        with pytest.raises(ValidationError, match="index 1"):
            TimeSeries([0.0, np.inf])

    def test_bad_dt(self):
        for dt in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                TimeSeries([1.0, 2.0], dt=dt)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.zeros((3, 2)))


class TestMultiSeries:
    def test_fields_and_helpers(self):
        ms = MultiSeries(
            (TimeSeries([1.0, 2.0, 3.0], dt=0.1, name="x"),
             TimeSeries([4.0, 5.0, 6.0], dt=0.1, name="y")),
            label="demo",
        )
        assert ms.n == 3
        assert ms.dt == 0.1
        assert len(ms) == 2
        assert ms.label == "demo"
        arr = np.column_stack([ch.samples for ch in ms.channels])
        assert arr.shape == (3, 2)
        assert arr[0, 1] == 4.0

    def test_prefix(self):
        ms = MultiSeries((TimeSeries(np.arange(10.0)),))
        pre = ms.prefix(4)
        assert pre.n == 4
        assert (pre.channels[0].samples == np.arange(4.0)).all()
        with pytest.raises(ValidationError):
            ms.prefix(1)
        with pytest.raises(ValidationError, match=r"prefix length must be in \[2, 10\], got 11"):
            ms.prefix(11)
        for n in (3.5, np.float64(4.0)):
            with pytest.raises(ValidationError, match="prefix length must be an integer >= 2"):
                ms.prefix(n)

    def test_with_label(self):
        ms = MultiSeries((TimeSeries([1.0, 2.0]),))
        assert ms.with_label("a").label == "a"
        assert ms.with_label("a").with_label(None).label is None

    def test_mismatched_lengths(self):
        with pytest.raises(ValidationError, match="length"):
            MultiSeries((TimeSeries([1.0, 2.0]), TimeSeries([1.0, 2.0, 3.0])))

    def test_mismatched_dt(self):
        with pytest.raises(ValidationError, match="dt"):
            MultiSeries((TimeSeries([1.0, 2.0], dt=1.0), TimeSeries([1.0, 2.0], dt=0.5)))

    def test_empty(self):
        with pytest.raises(ValidationError):
            MultiSeries(())


class TestCsvRoundTrip:
    def test_named_channels_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        ms = MultiSeries(
            tuple(TimeSeries(rng.normal(size=50) * 10.0 ** rng.integers(-8, 8), name=nm)
                  for nm in ("x", "y", "z")),
        )
        path = tmp_path / "t.csv"
        write_csv(ms, path)
        back = load_csv(path, dt=1.0)
        assert [ch.name for ch in back.channels] == ["x", "y", "z"]
        for a, b in zip(ms.channels, back.channels):
            assert (a.samples == b.samples).all()

    def test_plain_header_is_unquoted(self, tmp_path):
        ms = MultiSeries(tuple(TimeSeries([1.0, 2.0], name=nm) for nm in ("x", "y", "z")))
        path = tmp_path / "t.csv"
        write_csv(ms, path)
        assert path.read_text() == "x,y,z\n1,1,1\n2,2,2\n"

    def test_names_needing_quotes_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('"a,b",c\n1,2\n3,4\n')
        names = [ch.name for ch in load_csv(path).channels]
        assert names == ["a,b", "c"]
        names[1] = 'say "c"'
        ms = MultiSeries(tuple(TimeSeries([1.0, 2.0], name=nm) for nm in names))
        write_csv(ms, path)
        assert path.read_text().splitlines()[0] == '"a,b","say ""c"""'
        assert [ch.name for ch in load_csv(path).channels] == names

    def test_all_numeric_names_refused(self, tmp_path):
        # load_csv would read a header of "1","2" as a data row
        ms = MultiSeries(tuple(TimeSeries([1.0, 2.0, 3.0], name=nm) for nm in ("1", "2")))
        path = tmp_path / "t.csv"
        with pytest.raises(ValidationError, match="parse as numbers"):
            write_csv(ms, path)
        assert not path.exists()
        # one non-numeric name makes the row a header again
        ms = MultiSeries(tuple(TimeSeries([1.0, 2.0, 3.0], name=nm) for nm in ("1", "y")))
        write_csv(ms, path)
        back = load_csv(path)
        assert back.n == 3
        assert [ch.name for ch in back.channels] == ["1", "y"]

    @pytest.mark.parametrize("name", [" x", "y ", "\tz"])
    def test_padded_names_refused(self, tmp_path, name):
        # load_csv strips header cells, so a padded name would not round-trip
        ms = MultiSeries((TimeSeries([1.0, 2.0], name="a"), TimeSeries([3.0, 4.0], name=name)))
        path = tmp_path / "t.csv"
        message = f"channel name {name!r} would read back stripped"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            write_csv(ms, path)
        assert not path.exists()

    def test_inner_spaces_round_trip(self, tmp_path):
        names = ["x axis", "y  axis"]
        ms = MultiSeries(tuple(TimeSeries([1.0, 2.0], name=nm) for nm in names))
        path = tmp_path / "t.csv"
        write_csv(ms, path)
        assert [ch.name for ch in load_csv(path).channels] == names

    def test_header_written_only_when_all_named(self, tmp_path):
        ms = MultiSeries((TimeSeries([1.0, 2.0], name="x"), TimeSeries([3.0, 4.0])))
        path = tmp_path / "t.csv"
        write_csv(ms, path)
        text = path.read_text()
        assert text.splitlines()[0] == "1,3"

    def test_lf_line_endings(self, tmp_path):
        ms = MultiSeries((TimeSeries([1.0, 2.0], name="x"),))
        path = tmp_path / "t.csv"
        write_csv(ms, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_dt_attached_on_load(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1\n2\n3\n")
        ms = load_csv(path, dt=0.25)
        assert ms.dt == 0.25

    def test_write_to_missing_dir(self, tmp_path):
        ms = MultiSeries((TimeSeries([1.0, 2.0]),))
        with pytest.raises(ValidationError, match="cannot write"):
            write_csv(ms, tmp_path / "nope" / "t.csv")


class TestLoadCsv:
    def test_header_sniffed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        ms = load_csv(path)
        assert [ch.name for ch in ms.channels] == ["a", "b"]
        assert ms.n == 2

    def test_headerless_sniffed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,4\n")
        ms = load_csv(path)
        assert all(ch.name is None for ch in ms.channels)
        assert ms.n == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no such file"):
            load_csv(tmp_path / "missing.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValidationError, match="no data rows"):
            load_csv(path)

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n4,5\n")
        with pytest.raises(ValidationError, match="row 3"):
            load_csv(path)

    def test_non_numeric_names_row_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValidationError, match="row 2, column 2"):
            load_csv(path)

    def test_nan_rejected_with_position(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,2\n3,nan\n")
        with pytest.raises(ValidationError, match="row 3, column 2"):
            load_csv(path)

    def test_inf_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1\ninf\n2\n")
        with pytest.raises(ValidationError, match="non-finite"):
            load_csv(path)


class TestMetaSidecar:
    def test_round_trip(self, tmp_path):
        csv = tmp_path / "run.csv"
        assert meta_path(csv).name == "run.meta.json"
        write_meta(csv, {"dt": 0.01, "system": "lorenz"})
        meta = read_meta(csv)
        assert meta == {"dt": 0.01, "system": "lorenz"}

    @pytest.mark.parametrize("path", [".", "/", ""])
    def test_path_with_no_file_name(self, path):
        with pytest.raises(ValidationError, match="no such file"):
            meta_path(path)
        with pytest.raises(ValidationError, match="no such file"):
            sidecar_dt(path)

    def test_missing_sidecar_is_none(self, tmp_path):
        assert read_meta(tmp_path / "no.csv") is None

    @pytest.mark.parametrize("payload", ["[1, 2]", "3.5", '"dt"', "null"])
    def test_non_object_sidecar(self, tmp_path, payload):
        csv = tmp_path / "run.csv"
        meta_path(csv).write_text(payload)
        with pytest.raises(ValidationError, match="JSON object"):
            read_meta(csv)

    def test_sidecar_dt(self, tmp_path):
        csv = tmp_path / "run.csv"
        assert sidecar_dt(csv) == 1.0
        write_meta(csv, {"system": "lorenz"})
        assert sidecar_dt(csv) == 1.0
        write_meta(csv, {"dt": 0.5})
        assert sidecar_dt(csv) == 0.5

    @pytest.mark.parametrize(
        "dt", ["abc", None, 0, -1, True, float("inf"), pytest.param(10**400, id="1e400")]
    )
    def test_bad_sidecar_dt_names_sidecar(self, tmp_path, dt):
        csv = tmp_path / "run.csv"
        meta_path(csv).write_text(json.dumps({"dt": dt}))
        with pytest.raises(ValidationError, match="run.meta.json dt must be a finite real > 0"):
            sidecar_dt(csv)

    def test_corrupt_sidecar(self, tmp_path):
        csv = tmp_path / "run.csv"
        meta_path(csv).write_text("{nope")
        with pytest.raises(ValidationError, match="sidecar"):
            read_meta(csv)
