"""Measurement series, error samples, and CSV ingestion.

The toolkit works on small calibration-style datasets: a series of
(condition, observed, optional reference) rows, where the condition is
the measurement condition that drives the error (temperature for an
oscillator, distance for a rangefinder).  Three fixtures ship with the
package under ``errorkit/data/``:

* ``table1.csv``   quartz oscillator frequency over a temperature sweep
* ``table2.csv``   geodimeter readings against a calibration baseline
* ``table3.csv``   simulated differential distance campaign

Series CSV layout is ``condition,observed[,reference]``, under those
header names, with a ``# units:`` comment line before the header; that
line alone gives the units.  Differential campaigns use the
four-column layout ``s_ab,s_ac,s2,s1`` (nominal legs, then the two
readings).  All values use a decimal point; locale-specific comma
decimals are not supported.

Series, error samples and differential readings are stored as
read-only float64 columns, one per field; a missing reference is NaN.
The loaders read all the columns of a file with one of two readers and
check each whole column at once; empty, whitespace-only and comment
lines are skipped.  numpy's C reader parses a clean file, one with no
quote and no ``#`` among its data lines, in one pass: a data block of
``_PATH_FEED_CHARS`` (48 000) characters or more it reads from the
file itself, by path, so that no Python string is built per line; a
smaller one, for which opening the file again costs more than it
saves, from its list of lines.  Every other file, and every file the C
reader refuses or in whose optional reference column it reads a NaN (a
blank, left-out or ``nan`` cell), is read cell by cell with Python's
``float()``, every column of it; that reader alone locates errors.
The first bad row, in file order, is reported as a
:class:`MalformedRowError` naming its 1-based row and its column.  A
leading UTF-8 byte-order mark is ignored; any other byte that is not
UTF-8 is reported with its line.  A series is only its columns, and
:meth:`MeasurementSeries.from_columns` is its one checked constructor.
Error samples (:class:`ErrorSamples`), differential readings
(:class:`DifferentialRows`) and the nominal leg pairs of a
differential campaign (:class:`LegPairs`) are columns too, each checked
once, when it is built, and read as their ``columns``.  Like a
series, they are neither indexed nor compared by value.  Only for the
benchmark, samples and readings iterate as the named tuples
:class:`ErrorSample` and :class:`DifferentialRow`, and ``series.observed``
names the observed column.  Every CSV errorkit writes, the command
line's ``--emit-series`` files included, goes through
:func:`write_table`: a ``# units:`` line, the header, and a body
written in blocks of lines from one format per column (``%g`` or
``%.Nf``), a NaN cell empty.  The exact numpy cell formatter of
:mod:`errorkit._cellformat`, loaded on the first write, formats a block
byte for byte as ``%`` would; a block with a cell outside its window
is formatted by one ``%`` over its cells.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._jsonfile import bundled_path, gc_paused, not_utf8, shorten

__all__ = [
    "DatasetError",
    "MalformedRowError",
    "EmptyInputError",
    "MeasurementSeries",
    "DifferentialRow",
    "DifferentialRows",
    "LegPairs",
    "ErrorSample",
    "ErrorSamples",
    "load_series",
    "load_differential",
    "load_differential_pairs",
    "write_series_csv",
    "write_differential_csv",
    "to_error_samples",
    "bundled_path",
]

# The bound of the reference sanity check: a reference that differs from
# the observed value by this fraction or more is rejected as a probable
# column mix-up.
SANITY_BOUND = 0.01

# Canonical cell formats per unit tag, chosen so that writing a loaded
# fixture reproduces it byte for byte.
_UNIT_FORMATS = {
    "degC": "%g",
    "MHz": "%.6f",
    "m": "%.4f",
    "mm": "%.4f",
    "ppm": "%g",
}
# write_table formats and writes the body _BLOCK_LINES lines at a time:
# at 3584 a 10**4-row file is three blocks, and each writer's traced
# peak stays below that of the % writer with 2048-line blocks.
_BLOCK_LINES = 3584


class DatasetError(ValueError):
    """Base class for ingestion and conversion failures."""


class MalformedRowError(DatasetError):
    """A row failed to parse or to pass its checks; carries the offending
    1-based row and the column."""

    def __init__(self, row_index: int, column: str, detail: str):
        self.row_index = row_index
        self.column = column
        self.detail = detail
        super().__init__(f"row {row_index}, column {column!r}: {detail}")


class EmptyInputError(DatasetError):
    """The input file contained no data rows."""


# The column sets of the columnar types, one column per field of a row.
SeriesColumns = namedtuple("SeriesColumns", ["condition", "observed", "reference"])
SampleColumns = namedtuple("SampleColumns", ["condition", "error"])
LegColumns = namedtuple("LegColumns", ["s1", "s2"])
PairColumns = namedtuple("PairColumns", ["s_ab", "s_ac"])

# The items that iterating samples or readings yields, which only the
# benchmark reads.  They check nothing: their columnar type has.
# One (condition, error) point ready for fitting: the error is in ppm for
# mean-referenced relative errors, in mm for explicit-reference ones.
ErrorSample = namedtuple("ErrorSample", ["condition", "error"])
# A reading pair from one differential setup; s1 is the longer leg.
DifferentialRow = namedtuple("DifferentialRow", ["s1", "s2"])


def _frozen_column(values) -> np.ndarray:
    """A read-only one-dimensional float64 copy of ``values``."""
    column = np.array(values, dtype=np.float64)
    if column.ndim != 1:
        raise ValueError(f"a column must be one-dimensional, got shape {column.shape}")
    column.setflags(write=False)
    return column


def _first_false(ok: np.ndarray) -> int | None:
    """Index of the first False entry of a boolean array, or None."""
    return None if ok.all() else int(np.argmin(ok))


def _cycle_phase(s: np.ndarray, wavelength: float) -> np.ndarray:
    """The phase ``2*pi*s/wavelength`` of a cycle at each distance ``s``.

    Raises ValueError naming the first ``s`` whose phase leaves the
    double range.
    """
    with np.errstate(over="ignore"):
        theta = 2.0 * math.pi * s / wavelength
        finite = np.isfinite(theta)
        if finite.all():
            return theta
        # 2*pi*s can overflow where the phase does not.
        theta = np.where(finite, theta, 2.0 * math.pi * (s / wavelength))
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(
            f"wavelength {wavelength!r} puts the phase 2*pi*s/wavelength beyond "
            f"the double range at s = {float(s.flat[bad[0]])!r}"
        )
    return theta


def _sinusoid(amplitude: float, wavelength: float, phase: float, s) -> np.ndarray:
    """The cycle ``amplitude * sin(2*pi*s/wavelength + phase)`` at each
    distance ``s``, a number or an array; ValueError as :func:`_cycle_phase`."""
    return amplitude * np.sin(_cycle_phase(np.asarray(s, dtype=float), wavelength) + phase)


def _polynomial(coeffs, t) -> np.ndarray:
    """The polynomial ``sum(coeffs[k] * t**k)`` at each ``t``, a number or
    an array, by Horner's rule."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros_like(t)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


@dataclass(frozen=True, eq=False, init=False)
class MeasurementSeries:
    """An ordered, immutable series of readings sharing unit tags.

    The series is three read-only float64 columns, ``columns.condition``,
    ``columns.observed`` and ``columns.reference`` (NaN where a reading
    has no reference).  :meth:`from_columns` builds and checks one.
    ``observed`` is ``columns.observed`` itself, not a copy; only the
    benchmark reads it.
    """

    columns: SeriesColumns
    condition_unit: str
    value_unit: str
    label: str = ""

    @classmethod
    def from_columns(
        cls,
        conditions,
        observed,
        reference=None,
        *,
        condition_unit: str,
        value_unit: str,
        label: str = "",
    ) -> MeasurementSeries:
        """Build a series from columns, checking every row.

        ``reference`` is optional; NaN entries mean "no reference".  A
        row's condition and observed value must be finite.  A reference
        ``SANITY_BOUND`` (1%) or more away from the observed value is
        rejected, because real instrument errors are orders of magnitude
        smaller than the reading itself.

        Raises:
            MalformedRowError: the first bad row, with its 1-based index,
                the slot name (``condition``, ``observed`` or
                ``reference``) and what is wrong with it.
            ValueError: the columns differ in length or are not 1-D.
        """
        if reference is None:
            reference = np.full(len(conditions), math.nan)
        columns = SeriesColumns(*map(_frozen_column, (conditions, observed, reference)))
        if len({len(c) for c in columns}) != 1:
            raise ValueError("condition, observed and reference differ in length")
        cond, obs, ref = columns
        with np.errstate(invalid="ignore", over="ignore"):
            ok = np.isfinite(cond) & np.isfinite(obs)
            ok &= np.isnan(ref) | ~(np.abs(obs - ref) >= SANITY_BOUND * np.abs(obs))
        bad = _first_false(ok)
        if bad is not None:
            o, r = float(obs[bad]), float(ref[bad])
            for slot, value in (("condition", float(cond[bad])), ("observed", o)):
                if not math.isfinite(value):
                    raise MalformedRowError(
                        bad + 1, slot, f"{slot} must be finite, got {value!r}")
            raise MalformedRowError(
                bad + 1, "reference",
                "reference %r is implausibly far from observed %r" % (r, o))
        series = cls.__new__(cls)
        for name, value in zip(("columns", "condition_unit", "value_unit", "label"),
                               (columns, condition_unit, value_unit, label)):
            object.__setattr__(series, name, value)
        return series

    def __len__(self) -> int:
        return len(self.columns.condition)

    @property
    def observed(self) -> np.ndarray:
        return self.columns.observed


class _Records:
    """Records stored as read-only float64 columns.

    ``columns`` is a named tuple with one column per field of the record
    type.  A subclass checks its rows once, in its constructor.  Its
    length is its row count; samples and readings, not leg pairs, iterate
    as one ``_record`` item per row, for the benchmark.
    """

    _record: type
    _columns: type

    def __init__(self, *columns):
        self.columns = self._columns(*map(_frozen_column, columns))
        if len({len(c) for c in self.columns}) > 1:
            raise ValueError(f"columns {self.columns._fields} differ in length")

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return map(self._record, *(c.tolist() for c in self.columns))


class ErrorSamples(_Records):
    """(condition, error) samples as columns; items are :class:`ErrorSample`.

    Raises:
        ValueError: some condition or error is not finite; the message
            names the first such 1-based row and, in column order, the
            first such value in it.
    """

    _record = ErrorSample
    _columns = SampleColumns

    def __init__(self, conditions, errors):
        super().__init__(conditions, errors)
        condition, error = self.columns
        bad = _first_false(np.isfinite(condition) & np.isfinite(error))
        if bad is not None:
            column = "error" if math.isfinite(condition[bad]) else "condition"
            value = float(getattr(self.columns, column)[bad])
            raise ValueError(f"row {bad + 1}: {column} must be finite, got {value!r}")


def _check_ordered_legs(columns, long: str, short: str) -> None:
    """Raise for the first row whose legs are not both finite with the
    ``long`` leg longer than the ``short`` one.

    The :class:`MalformedRowError` names the 1-based row and the first
    leg, in column order, that is not finite, or else the ``long`` leg.
    """
    a, b = getattr(columns, long), getattr(columns, short)
    bad = _first_false(np.isfinite(a) & np.isfinite(b) & (a > b))
    if bad is None:
        return
    for column, values in zip(columns._fields, columns):
        value = float(values[bad])
        if not math.isfinite(value):
            raise MalformedRowError(bad + 1, column, f"must be finite, got {value!r}")
    raise MalformedRowError(
        bad + 1, long,
        f"require {long} > {short}, got {long}={float(a[bad])} {short}={float(b[bad])}")


class DifferentialRows(_Records):
    """Differential reading pairs as s1/s2 columns; items are
    :class:`DifferentialRow`.

    Raises:
        MalformedRowError: the first row whose legs are not both finite
            with ``s1 > s2``, with its 1-based index and the leg's column
            (``s1`` when the legs are out of order).
    """

    _record = DifferentialRow
    _columns = LegColumns

    def __init__(self, s1, s2):
        super().__init__(s1, s2)
        _check_ordered_legs(self.columns, "s1", "s2")


class LegPairs(_Records):
    """Nominal (s_ab, s_ac) leg pairs as columns, read as ``columns`` only.

    Raises:
        MalformedRowError: the first row whose legs are not both finite
            with ``s_ac > s_ab``, with its 1-based index and the leg's
            column (``s_ac`` when the legs are out of order).
    """

    __iter__ = None
    _columns = PairColumns

    def __init__(self, s_ab, s_ac):
        super().__init__(s_ab, s_ac)
        _check_ordered_legs(self.columns, "s_ac", "s_ab")


def _parse_units_line(line: str) -> dict[str, str]:
    # "# units: condition=degC observed=MHz" or "# units: m" (all columns)
    body = line.split(":", 1)[1].strip()
    if "=" not in body:
        return {"*": body}
    out = {}
    for tok in body.split():
        key, _, val = tok.partition("=")
        out[key] = val
    return out


def _is_content(line: str) -> bool:
    """Whether ``line`` is a header or data line: neither empty,
    whitespace only, nor a comment (``#`` first)."""
    return line != "" and line[0] != "#" and not line.isspace()


def _content(lines: list[str]) -> list[str]:
    """The header and data lines among ``lines``."""
    return list(filter(_is_content, lines))


# A data block of at least this many characters is handed to numpy's C
# reader by the file's path, so that no Python string is built per line;
# a smaller one as its list of lines.  Reading by path has a fixed cost:
# on 21 rows np.loadtxt took 75 us by path against 11 us from the lines,
# numpy's _datasource.open alone 53 us.  It saves ~35 ns a line.
# load_series on rows of ~24 characters, list against path feed, median
# of 5 processes each taking the best of 15 interleaved timings (x86_64,
# 2 cores, numpy 2.4): 21 rows 65 vs 130 us, 1000 rows 281 vs 311 us,
# 1500 rows (35 KB) 396 vs 396 us, 2000 rows (47 KB) 491 vs 483 us, 10^4
# rows 2.62 vs 2.27 ms.  load_differential, rows of ~28 characters, broke
# even at 1500 rows (42 KB): 383 vs 380 us.
_PATH_FEED_CHARS = 48_000
# The line breaks str.splitlines knows besides "\n", "\r\n" and "\r".
# numpy's reader does not break a line at them, so a file holding one
# is read from its lines.
_ODD_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# The suffixes numpy's reader takes for a compressed file.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _file_key(st: os.stat_result) -> tuple[int, int, int, int]:
    """What tells whether a file changed between two reads."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _Block(NamedTuple):
    """The data block of a CSV file, from its first data line on, as
    :func:`_read_csv` returns it."""

    text: str  # the file's text
    start: int  # where the first data line starts in it
    clean: bool  # whether no data line holds a quote or a "#"
    file: tuple | None  # (path, lines before the data, file key) for the path feed


def _head_lines(text: str) -> list[str]:
    """The lines of ``text`` up to its second content line (its first data
    line), or every line if it has no second one.

    Only a prefix of a long text is split, its last line, which may be
    cut off, dropped; a prefix with too few content lines is grown."""
    size = 256
    while size < len(text):
        lines = text[:size].splitlines()[:-1]
        content = [i for i, line in enumerate(lines) if _is_content(line)]
        if len(content) > 1:
            return lines[:content[1] + 1]
        size *= 16
    return text.splitlines()


def _read_csv(path) -> tuple[dict[str, str], list[str], _Block]:
    """The units, the header cells and the data block of a CSV file.

    Empty, whitespace-only and comment lines (``#`` first) are skipped,
    and a leading byte-order mark is ignored.  The header is the first
    line not skipped, and the last ``# units:`` line, among the data
    lines too, gives the units.  The data lines are neither split nor
    filtered here.  The block is clean when no data line holds a quote
    or a ``#``; only a clean block goes to numpy's C reader, which may
    read one of :data:`_PATH_FEED_CHARS` characters or more from the
    file itself, so that a large clean file gets no per-line Python
    pass at all.  The path feed needs a regular file whose name has no
    compressed suffix, and no line break in the text but ``\\n``,
    ``\\r\\n`` and ``\\r``, the ones both readers know.
    """
    with open(path, "rb") as file:
        st = os.fstat(file.fileno())
        raw = file.read()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DatasetError(not_utf8(path, exc)) from None
    if not text or text.isspace():
        raise EmptyInputError(f"{path}: file is empty")
    lines = _head_lines(text)
    content = (i for i, line in enumerate(lines) if _is_content(line))
    header_at, data_at = next(content, None), next(content, None)
    if header_at is None:
        raise EmptyInputError(f"{path}: no header row found")
    if data_at is None:
        raise EmptyInputError(f"{path}: header only, no data rows")
    head = lines[:data_at]
    start = 0  # where the data lines start: a line break is 1 character, "\r\n" 2
    for line in head:
        start += len(line) + 1 + text.startswith("\r\n", start + len(line))
    hashed, file = text.find("#", start) >= 0, None
    clean = not hashed and text.find('"', start) < 0
    if hashed:  # a comment or units line among the data
        head = head + text[start:].splitlines()
    elif (clean and len(text) - start >= _PATH_FEED_CHARS
          and stat.S_ISREG(st.st_mode) and st.st_size == len(raw)
          and not os.fspath(path).endswith(_COMPRESSED)
          and not any(br in text for br in _ODD_BREAKS)):
        # An absolute path, which numpy cannot take for a URL.
        file = (os.path.join(os.getcwd(), path), data_at, _file_key(st))
    units_lines = [line for line in head if line.startswith("# units:")]
    units = _parse_units_line(units_lines[-1]) if units_lines else {}
    header = [h.strip() for h in next(csv.reader([lines[header_at]]))]
    return units, header, _Block(text, start, clean, file)


def _specs(path, header: list[str], required, optional=()) -> list[tuple[int, str, bool]]:
    """The ``(position, column name, optional)`` of each column to read:
    the ``required`` ones, which the header must name, then the
    ``optional`` ones it names.  A column to read must be named once."""
    index = {name: i for i, name in enumerate(header)}
    for name in required:
        if name not in index:
            raise DatasetError(f"{path}: missing column {name!r}")
    specs = ([(index[name], name, False) for name in required]
             + [(index[name], name, True) for name in optional if name in index])
    for _, name, _ in specs:
        if header.count(name) > 1:
            raise DatasetError(f"{path}: column {name!r} is named more than once")
    return specs


def _read_column(
    raw_rows: list[list[str]], pos: int, column: str, *, optional: bool = False
) -> tuple[np.ndarray, MalformedRowError | None]:
    """Parse cell ``pos`` of every row with ``float()``, the cell-by-cell
    reader that locates faults.

    Returns the values of the rows before the first bad cell and that
    cell's error, or every value and None.  In an ``optional`` column a
    blank or missing cell reads as NaN ("no value"), so a cell that
    parses to NaN is refused.  Only this reader builds a
    :class:`MalformedRowError` for a CSV cell.
    """
    values = []
    for i, raw in enumerate(raw_rows, start=1):
        cell = raw[pos] if pos < len(raw) else ""
        if optional and not cell.strip():
            values.append(math.nan)
            continue
        if pos >= len(raw):
            return np.array(values), MalformedRowError(
                i, column, f"row has only {len(raw)} cells")
        try:
            value = float(cell)
        except ValueError:
            return np.array(values), MalformedRowError(
                i, column, f"not a number: {cell!r}")
        if optional and math.isnan(value):
            return np.array(values), MalformedRowError(
                i, column, f"must be finite, got {value!r}")
        values.append(value)
    return np.array(values), None


def _c_columns(source, specs, skiprows: int = 0) -> np.ndarray | None:
    """The columns ``specs`` of ``source``, a list of lines or the path of
    a UTF-8 file, as parsed by numpy's C reader, one row each, past the
    first ``skiprows`` lines; or None if it refuses a line or reads a NaN
    in an optional column, where only the cell reader tells a blank cell
    from a ``nan`` one."""
    try:
        # An explicit encoding: the file's.
        columns = np.loadtxt(source, delimiter=",", comments=None, quotechar=None,
                             ndmin=2, usecols=[pos for pos, _, _ in specs],
                             skiprows=skiprows, encoding="utf-8").T
    except ValueError:
        return None
    optional = [i for i, (_, _, opt) in enumerate(specs) if opt]
    if optional and np.isnan(columns[optional]).any():
        return None
    return columns


def _c_read(block: _Block, specs) -> np.ndarray | None:
    """The columns ``specs`` of a clean block from numpy's C reader, in one
    pass: from the file itself when the block may take the path feed,
    else from its lines; or None as :func:`_c_columns`.  The file is read
    twice on the path feed, so if it changed after its text was read,
    the text is parsed from its lines instead."""
    if block.file is not None:
        path, skip, key = block.file
        try:
            columns = _c_columns(path, specs, skip)
            if _file_key(os.stat(path)) == key:
                return columns
        except OSError:
            pass
    return _c_columns(block.text[block.start:].splitlines(), specs)


def _read_columns(
    block: _Block, specs
) -> list[tuple[np.ndarray, MalformedRowError | None]]:
    """Parse the columns ``specs`` of a data block from :func:`_read_csv`.

    Each spec is ``(position, column name, optional)``.  Returns one
    ``(values, error)`` pair per spec, as :func:`_read_column` does, and
    every column from one of two readers.  numpy's C reader parses a
    clean block in one pass (:func:`_c_read`).  Every other block is read
    cell by cell, after the lines that are not data are dropped: one
    with a quote or a ``#`` among its data lines, one the C reader
    refuses (whitespace-only lines, short required cells, bad cells,
    spellings such as ``1_0`` that only ``float()`` accepts), and one in
    whose optional column it reads a NaN (a blank, left-out or ``nan``
    cell).
    """
    columns = _c_read(block, specs) if block.clean else None
    if columns is not None:
        return [(values, None) for values in columns]
    lines = _content(block.text[block.start:].splitlines())
    rows = [row for row in csv.reader(io.StringIO("\n".join(lines))) if row]
    return [_read_column(rows, pos, column, optional=optional)
            for pos, column, optional in specs]


def _checked_prefix(build, columns):
    """Build from the parsed ``columns``, or raise the earliest error.

    ``columns`` holds ``(values, error)`` pairs from :func:`_read_columns`
    in the order a row's cells are read.  The rows before the first bad
    cell are still checked by ``build``, so a check failing on an
    earlier row wins, as it does when rows are read one at a time.
    """
    errors = [err for _, err in columns if err is not None]
    if not errors:
        return build(*(values for values, _ in columns))
    first = min(errors, key=lambda err: err.row_index)
    n = first.row_index - 1
    build(*(values[:n] for values, _ in columns))
    raise first


@gc_paused
def load_series(path) -> MeasurementSeries:
    """Load a measurement series from CSV.

    Args:
        path: CSV file with a ``# units:`` line, a header row, and
            ``condition,observed[,reference]`` columns.

    Returns:
        MeasurementSeries with row order preserved.

    Raises:
        EmptyInputError: the file has no data rows.
        MalformedRowError: a cell failed to parse or to pass the row
            checks, named by row/column (the first such row in the file).
        DatasetError: a required column is missing.
    """
    units, header, block = _read_csv(path)
    specs = _specs(path, header, ("condition", "observed"), ("reference",))
    build = partial(MeasurementSeries.from_columns,
                    condition_unit=units.get("condition") or units.get("*", ""),
                    value_unit=units.get("observed") or units.get("*", ""),
                    label=Path(path).stem)
    return _checked_prefix(build, _read_columns(block, specs))


@gc_paused
def load_differential(path) -> DifferentialRows:
    """Load a four-column differential campaign CSV (s_ab,s_ac,s2,s1).

    Raises:
        MalformedRowError: a leg failed to parse, is not finite, or
            ``s1 <= s2``; the first such row in the file, with its column.
    """
    _, header, block = _read_csv(path)
    return _checked_prefix(DifferentialRows,
                           _read_columns(block, _specs(path, header, ("s1", "s2"))))


@gc_paused
def load_differential_pairs(path) -> LegPairs:
    """Return the nominal (s_ab, s_ac) leg pairs of a differential CSV.

    Raises:
        MalformedRowError: a nominal leg failed to parse or is not
            finite, or ``s_ac <= s_ab``; the first such row in the file,
            with its column.
    """
    _, header, block = _read_csv(path)
    return _checked_prefix(LegPairs,
                           _read_columns(block, _specs(path, header, ("s_ab", "s_ac"))))


def write_table(path, units: str, header: str, formats, rows: int, block) -> None:
    """Write a CSV in errorkit's layout: the ``# units:`` line, the
    header, then ``rows`` body lines, each ended by a newline.

    ``block(s)`` gives the columns of the rows in the slice ``s``, one
    per format in ``formats`` (``%g`` or ``%.Nf``); a NaN cell is
    written empty.  The body is built, formatted and written
    ``_BLOCK_LINES`` lines at a time, so the memory held does not grow
    with the line count.  :func:`errorkit._cellformat.format_block`
    formats each block, byte for byte as ``%`` would.
    """
    from ._cellformat import format_block

    with open(path, "wb") as out:
        out.write(f"# units: {units}\n{header}\n".encode())
        for at in range(0, rows, _BLOCK_LINES):
            columns = block(slice(at, at + _BLOCK_LINES))
            out.write(format_block(formats, [np.asarray(c, dtype=float) for c in columns]))


def write_series_csv(series: MeasurementSeries, path) -> None:
    """Write a series in the canonical layout; inverse of load_series."""
    condition, observed, reference = series.columns
    units = f"condition={series.condition_unit} observed={series.value_unit}"
    header = "condition,observed"
    value_fmt = _UNIT_FORMATS.get(series.value_unit, "%g")
    formats = [_UNIT_FORMATS.get(series.condition_unit, "%g"), value_fmt]
    columns = [condition, observed]
    # A missing reference is NaN, written as an empty cell: "cond,obs,"
    # when the file has the column, which it has if any row has one
    # (fmin skips NaN, so it gives NaN only if every row lacks one).
    if len(reference) and not math.isnan(np.fmin.reduce(reference)):
        units += f" reference={series.value_unit}"
        header += ",reference"
        formats.append(value_fmt)
        columns.append(reference)
    write_table(path, units, header, formats, len(condition),
                lambda s: [c[s] for c in columns])


def write_differential_csv(pairs: LegPairs, rows: DifferentialRows, path) -> None:
    """Write a differential campaign in metres (``%.4f`` readings): the
    nominal leg pairs, then the readings, as the loaders and the
    simulator return them."""
    if len(pairs) != len(rows):
        raise ValueError("pairs and rows must have equal length")
    columns = [*pairs.columns, rows.columns.s2, rows.columns.s1]
    write_table(path, "m", "s_ab,s_ac,s2,s1", ["%g", "%g", "%.4f", "%.4f"], len(rows),
                lambda s: [c[s] for c in columns])


def write_fit_points(path, series, samples, model, condition_format, error_unit):
    """Write each sample with the model's fitted value and the residual
    (``fit --emit-series``), evaluated one block of rows at a time."""

    def block(s):
        condition, error = (c[s] for c in samples.columns)
        fitted = model(condition)
        return condition, error, fitted, error - fitted

    write_table(
        path,
        f"condition={series.condition_unit} observed={error_unit}",
        "condition,observed,fitted,residual",
        [condition_format, "%g", "%.6f", "%.6f"],
        len(samples),
        block,
    )


def to_error_samples(series: MeasurementSeries, reference_rule: str) -> ErrorSamples:
    """Convert a series to (condition, error) samples.

    Two conventions are supported:

    * ``"explicit-reference"``: every row carries a reference value and
      the error is ``reference - observed``, reported in mm.  Requires
      the series value unit to be metres (``m``) or undeclared.
    * ``"mean-reference"``: the series mean plays the reference role and
      the error is ``(observed - mean) / mean * 1e6``, in ppm.  The mean
      is the built-in ``sum(...) / n`` of the observed values.

    Returns:
        ErrorSamples, whose ``columns.condition`` and ``columns.error``
        hold the data.

    Raises:
        DatasetError: explicit-reference requested on a series in a
            unit other than metres or with a row that has no
            reference, mean-reference on a series whose mean is 0 or
            overflows, or the rule name is unknown.
        ValueError: some error is not finite.
    """
    cond, obs, ref = series.columns
    if reference_rule == "explicit-reference":
        if series.value_unit not in ("m", ""):
            raise DatasetError(
                f"explicit-reference needs a series in metres (m), "
                f"got values in {shorten(repr(series.value_unit))}"
            )
        missing = np.flatnonzero(np.isnan(ref)) + 1
        if missing.size:
            # At most the first 12 rows, as _jsonfile._brief cuts a list, in
            # at most the 94 characters twelve 6-digit rows take: the error
            # line stays within 200 bytes below 10^12 missing rows.
            named = missing[:12].tolist()
            while len(rows := ", ".join(map(str, named))) > 94:
                named.pop()
            rest = f", ...] ({missing.size} rows)" if missing.size > len(named) else "]"
            raise DatasetError(
                f"explicit-reference requires a reference on every row; "
                f"missing on rows [{rows}{rest}"
            )
        with np.errstate(over="ignore"):
            return ErrorSamples(cond, (ref - obs) * 1e3)
    if reference_rule == "mean-reference":
        if not len(obs):
            raise EmptyInputError("cannot take the mean of an empty series")
        mean = sum(obs.tolist()) / len(obs)
        if mean == 0.0:
            raise DatasetError(
                "mean-reference needs a nonzero mean; the observed values average to 0"
            )
        if not math.isfinite(mean):
            raise DatasetError(
                f"mean-reference needs a finite mean; the mean of the observed "
                f"values overflows to {mean}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            return ErrorSamples(cond, (obs - mean) / mean * 1e6)
    raise DatasetError(f"unknown reference rule {reference_rule!r}")
