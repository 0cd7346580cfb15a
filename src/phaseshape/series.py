"""Time-series containers and CSV ingestion/emission.

All values are immutable after construction, so they are safe to share
across threads. CSV is the sole file format: one column per channel,
optional single header row, LF line endings, full round-trip precision.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = [
    "TimeSeries",
    "MultiSeries",
    "load_csv",
    "write_csv",
    "read_meta",
    "sidecar_dt",
    "write_meta",
    "meta_path",
]


def _positive_dt(value, what: str = "dt") -> float:
    """``value`` as a positive finite float; booleans are not sample periods."""
    try:
        dt = float(value)
    except (TypeError, ValueError, OverflowError):
        dt = math.nan
    if isinstance(value, (bool, np.bool_)) or not (math.isfinite(dt) and dt > 0):
        raise ValidationError(f"{what} must be a positive finite real, got {value!r}")
    return dt


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A uniformly sampled scalar sequence.

    Parameters
    ----------
    samples : array_like of float
        The observations. At least two, all finite.
    dt : float, optional
        Sample period (time units per sample). Must be positive. Default 1.0.
    name : str, optional
        Channel identifier, e.g. a column name.
    """

    samples: np.ndarray
    dt: float = 1.0
    name: str | None = None

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 1:
            raise ValidationError(f"samples must be one-dimensional, got shape {arr.shape}")
        if arr.size < 2:
            raise ValidationError(f"need at least 2 samples, got {arr.size}")
        if not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValidationError(f"non-finite sample at index {bad}")
        object.__setattr__(self, "dt", _positive_dt(self.dt))
        if self.name is not None and not isinstance(self.name, str):
            raise ValidationError(f"name must be a string, got {type(self.name).__name__}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        """Number of samples."""
        return self.samples.size

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True, eq=False)
class MultiSeries:
    """An ordered collection of equal-length, equal-rate channels.

    Parameters
    ----------
    channels : sequence of TimeSeries
        At least one channel; all channels must share length and dt.
    label : str, optional
        Class label for labeled datasets.
    """

    channels: tuple[TimeSeries, ...]
    label: str | None = None

    def __post_init__(self):
        chans = tuple(self.channels)
        if not chans:
            raise ValidationError("need at least one channel")
        for i, ch in enumerate(chans):
            if not isinstance(ch, TimeSeries):
                raise ValidationError(f"channel {i} is not a TimeSeries")
        n0, dt0 = chans[0].n, chans[0].dt
        for i, ch in enumerate(chans[1:], start=1):
            if ch.n != n0:
                raise ValidationError(f"channel {i} has length {ch.n}, expected {n0}")
            if ch.dt != dt0:
                raise ValidationError(f"channel {i} has dt {ch.dt}, expected {dt0}")
        if self.label is not None and not isinstance(self.label, str):
            raise ValidationError(f"label must be a string, got {type(self.label).__name__}")
        object.__setattr__(self, "channels", chans)

    @property
    def n(self) -> int:
        """Samples per channel."""
        return self.channels[0].n

    @property
    def dt(self) -> float:
        """Shared sample period."""
        return self.channels[0].dt

    def __len__(self) -> int:
        return len(self.channels)

    def prefix(self, n: int) -> "MultiSeries":
        """Return the first ``n`` samples of every channel."""
        if not 2 <= n <= self.n:
            raise ValidationError(f"prefix length must be in [2, {self.n}], got {n}")
        chans = tuple(TimeSeries(ch.samples[:n], dt=ch.dt, name=ch.name) for ch in self.channels)
        return MultiSeries(chans, label=self.label)

    def with_label(self, label: str | None) -> "MultiSeries":
        """Return the same channels carrying a different label."""
        return MultiSeries(self.channels, label=label)

    def to_array(self) -> np.ndarray:
        """Stack channels into an (n, channels) array, one column per channel."""
        return np.column_stack([ch.samples for ch in self.channels])


def _parses_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(path, has_header: bool | None = None, dt: float = 1.0) -> MultiSeries:
    """Load a MultiSeries from a CSV file, one column per channel.

    Parameters
    ----------
    path : str or Path
        File to read.
    has_header : bool, optional
        Whether the first row is a header of channel names. When None the
        header is detected: a first row with any non-numeric cell is treated
        as a header.
    dt : float, optional
        Sample period to attach to every channel (CSV itself carries none).

    Returns
    -------
    MultiSeries
        Column j of the file becomes channel j.

    Raises
    ------
    ValidationError
        Missing file, ragged rows, or a non-numeric / non-finite cell; the
        message names the offending row and column (1-based, counting the
        header row if present).
    """
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"no such file: {p}")
    with p.open(newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValidationError(f"{p}: empty file")
    if has_header is None:
        has_header = not all(_parses_numeric(c) for c in rows[0])
    names = None
    start = 0
    if has_header:
        names = [c.strip() for c in rows[0]]
        start = 1
    data_rows = rows[start:]
    if not data_rows:
        raise ValidationError(f"{p}: no data rows")
    ncol = len(rows[0])
    out = np.empty((len(data_rows), ncol))
    for r, row in enumerate(data_rows):
        rowno = start + r + 1  # 1-based position in the file
        if len(row) != ncol:
            raise ValidationError(f"{p}: row {rowno} has {len(row)} cells, expected {ncol}")
        for c, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{p}: row {rowno}, column {c + 1}: could not parse {cell!r} as a number"
                ) from None
            if not math.isfinite(v):
                raise ValidationError(f"{p}: row {rowno}, column {c + 1}: non-finite value {cell!r}")
            out[r, c] = v
    channels = tuple(
        TimeSeries(out[:, c], dt=dt, name=names[c] if names else None) for c in range(ncol)
    )
    return MultiSeries(channels)


def write_csv(series: MultiSeries, path) -> None:
    """Write a MultiSeries as CSV, one column per channel.

    Values are emitted with 17 significant digits so that a load after a
    write reproduces every float bitwise. A header row of channel names is
    written only when every channel is named.
    """
    if not isinstance(series, MultiSeries):
        raise ValidationError(f"expected a MultiSeries, got {type(series).__name__}")
    p = Path(path)
    cols = [ch.samples for ch in series.channels]
    named = all(ch.name is not None for ch in series.channels)
    try:
        with p.open("w", newline="\n") as fh:
            if named:
                fh.write(",".join(ch.name for ch in series.channels) + "\n")
            for r in range(series.n):
                fh.write(",".join(f"{col[r]:.17g}" for col in cols) + "\n")
    except OSError as e:
        raise ValidationError(f"cannot write {p}: {e}") from e


def meta_path(csv_path) -> Path:
    """Sidecar metadata path for a CSV file: ``<stem>.meta.json``."""
    p = Path(csv_path)
    return p.with_name(p.stem + ".meta.json")


def write_meta(csv_path, meta: dict) -> Path:
    """Write a JSON sidecar next to ``csv_path`` and return its path."""
    mp = meta_path(csv_path)
    try:
        mp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    except OSError as e:
        raise ValidationError(f"cannot write {mp}: {e}") from e
    return mp


def read_meta(csv_path) -> dict | None:
    """Read the JSON object in the sidecar of ``csv_path`` if one exists, else None."""
    mp = meta_path(csv_path)
    if not mp.is_file():
        return None
    try:
        meta = json.loads(mp.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ValidationError(f"cannot read sidecar {mp}: {e}") from e
    if not isinstance(meta, dict):
        raise ValidationError(f"sidecar {mp} must hold a JSON object, got {type(meta).__name__}")
    return meta


def sidecar_dt(csv_path) -> float:
    """The sidecar's "dt" entry, else 1.0; a bad value names the sidecar."""
    dt = (read_meta(csv_path) or {}).get("dt", 1.0)
    return _positive_dt(dt, f"sidecar {meta_path(csv_path)} dt")
