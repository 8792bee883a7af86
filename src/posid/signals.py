"""Time-domain containers and discrete convolution utilities.

A :class:`TimeSeriesData` couples output samples taken at integer times
with the full input history.  Inputs are declared on a contiguous window
``[t_start, ...]`` with ``t_start <= 0`` and are implicitly zero before
``t_start``, so every convolution against them is a finite, exact sum.
"""
from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class TimeSeriesData:
    """Sampled outputs of one experiment plus the driving input.

    Parameters
    ----------
    sample_times : ndarray of int
        Strictly increasing times at which the output was measured.
    outputs : ndarray of float
        Output samples, aligned with ``sample_times``.
    inputs : ndarray of float
        Input values on the contiguous window starting at ``t_start``.
        The input is zero for ``t < t_start``.  The window must cover at
        least ``[t_start, sample_times[-1]]``; it may extend further (for
        prediction beyond the last measurement).
    t_start : int
        First time with possibly nonzero input; an integer, not a
        ``bool``, with ``t_start <= 0`` and ``t_start <= sample_times[0]``.
    """

    sample_times: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    t_start: int = 0

    def __post_init__(self) -> None:
        times = np.asarray(self.sample_times, dtype=np.int64)
        outs = np.asarray(self.outputs, dtype=float)
        ins = np.asarray(self.inputs, dtype=float)
        if times.ndim != 1 or outs.ndim != 1 or ins.ndim != 1:
            raise DataError("sample_times, outputs and inputs must be 1-d")
        if times.size == 0:
            raise DataError("need at least one output sample")
        if times.size != outs.size:
            raise DataError(
                f"{times.size} sample times but {outs.size} outputs")
        if np.any(np.diff(times) <= 0):
            raise DataError("sample times must be strictly increasing")
        if (isinstance(self.t_start, bool)
                or not isinstance(self.t_start, numbers.Integral)):
            raise DataError(
                f"t_start must be an integer, got {self.t_start!r}")
        if self.t_start > 0:
            raise DataError(
                f"input support must start at or before 0, got {self.t_start}")
        if times[0] < self.t_start:
            raise DataError("first sample time precedes the input support")
        needed = int(times[-1]) - self.t_start + 1
        if ins.size < needed:
            raise DataError(
                f"inputs cover {ins.size} steps but the last sample time "
                f"needs {needed}")
        if not (np.all(np.isfinite(outs)) and np.all(np.isfinite(ins))):
            raise DataError("outputs and inputs must be finite")
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "outputs", outs)
        object.__setattr__(self, "inputs", ins)

    @classmethod
    def at_rest(cls, inputs, outputs) -> "TimeSeriesData":
        """Dense experiment started at rest: samples at 0, 1, ..., n-1."""
        outputs = np.asarray(outputs, dtype=float)
        return cls(np.arange(outputs.size), outputs, inputs, t_start=0)

    @property
    def n_samples(self) -> int:
        return int(self.sample_times.size)

    @property
    def t_last(self) -> int:
        return int(self.sample_times[-1])

    def restrict(self, indices) -> "TimeSeriesData":
        """Keep only the output samples at the given positions.

        The input history is unchanged, so restricted data remain valid
        for identification and the discarded times for validation.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise DataError("restriction must keep at least one sample")
        return TimeSeriesData(self.sample_times[idx], self.outputs[idx],
                              self.inputs, self.t_start)


@dataclass(frozen=True)
class ImpulseResponse:
    """Impulse response truncated to a finite horizon.

    ``values[s]`` is the response at lag ``s``; the horizon is the number
    of stored lags.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise DataError("impulse response must be a nonempty vector")
        object.__setattr__(self, "values", vals)

    @property
    def horizon(self) -> int:
        return int(self.values.size)


def convolve(g: ImpulseResponse, data: TimeSeriesData, times):
    """Outputs of ``g`` driven by the data's input at the given times.

    Computes ``sum_s g[s] * u[t - s]`` for every ``t`` in ``times`` as one
    :func:`numpy.convolve`; the sums are finite because the input
    vanishes before ``t_start``.  Returns an array shaped like ``times``
    (a scalar for a scalar time).  Raises :class:`DataError` when a time
    precedes ``t_start`` or lies past the input window.
    """
    times = np.asarray(times, dtype=np.int64)
    idx = times - data.t_start
    if np.any(idx < 0):
        raise DataError(f"time {int(times.min())} precedes the input "
                        f"support start {data.t_start}")
    if np.any(idx >= data.inputs.size):
        raise DataError(f"input not available at time {int(times.max())}")
    return np.convolve(data.inputs, g.values)[idx]


def read_timeseries_csv(path) -> TimeSeriesData:
    """Load an experiment from a ``t,u,y`` CSV file.

    One row per integer time step, times contiguous and ascending.  The
    ``y`` field may be empty on input-only rows (pre-history before the
    first measurement).  A ``nan`` or ``inf`` in ``u`` or ``y`` raises
    :class:`DataError` naming the file and line.
    """
    times: list[int] = []
    inputs: list[float] = []
    out_times: list[int] = []
    outputs: list[float] = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open data file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["t", "u", "y"]:
            raise DataError(f"{path}: expected header 't,u,y', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise DataError(f"{path}:{lineno}: expected t,u[,y] fields")
            try:
                t = int(row[0])
                u = float(row[1])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad t or u field") from exc
            _check_finite(u, path, lineno, "input u", row[1])
            if times and t != times[-1] + 1:
                raise DataError(
                    f"{path}:{lineno}: time {t} breaks the contiguous grid")
            times.append(t)
            inputs.append(u)
            if len(row) >= 3 and row[2].strip() != "":
                try:
                    y = float(row[2])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad y field") from exc
                _check_finite(y, path, lineno, "output y", row[2])
                outputs.append(y)
                out_times.append(t)
    if not times:
        raise DataError(f"{path}: no data rows")
    if not out_times:
        raise DataError(f"{path}: no output samples")
    return TimeSeriesData(np.asarray(out_times), np.asarray(outputs),
                          np.asarray(inputs), t_start=times[0])


def _check_finite(value: float, path, lineno: int, field: str,
                  cell: str) -> None:
    """Raise :class:`DataError` naming ``path:lineno`` for a nan or inf."""
    if not math.isfinite(value):
        raise DataError(
            f"{path}:{lineno}: {field} {cell.strip()!r} is not finite")


def write_impulse_csv(path, g: ImpulseResponse) -> None:
    """Write an impulse response as an ``s,g`` CSV file."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["s", "g"])
        for s, value in enumerate(g.values):
            writer.writerow([s, repr(float(value))])


def read_impulse_csv(path) -> ImpulseResponse:
    """Load an impulse response written by :func:`write_impulse_csv`."""
    values: list[float] = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open impulse file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["s", "g"]:
            raise DataError(f"{path}: expected header 's,g', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                s = int(row[0])
                value = float(row[1])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}:{lineno}: bad impulse row") from exc
            if s != len(values):
                raise DataError(f"{path}:{lineno}: lag {s} out of order")
            _check_finite(value, path, lineno, "impulse value", row[1])
            values.append(value)
    if not values:
        raise DataError(f"{path}: no impulse samples")
    return ImpulseResponse(np.asarray(values))
