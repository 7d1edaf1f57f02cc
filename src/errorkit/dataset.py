"""Measurement series, error samples, and CSV ingestion.

The toolkit works on small calibration-style datasets: a series of
(condition, observed, optional reference) rows, where the condition is
the measurement condition that drives the error (temperature for an
oscillator, distance for a rangefinder).  Three fixtures ship with the
package under ``errorkit/data/``:

* ``table1.csv``   quartz oscillator frequency over a temperature sweep
* ``table2.csv``   geodimeter readings against a calibration baseline
* ``table3.csv``   simulated differential distance campaign

Series CSV layout is ``condition,observed[,reference]`` with a
``# units:`` comment line before the header.  Differential campaigns
use the four-column layout ``s_ab,s_ac,s2,s1`` (nominal legs, then the
two readings).  All values use a decimal point; locale-specific comma
decimals are not supported.

Series, error samples and differential readings are stored as
read-only float64 columns, one per field; a missing reference is NaN.
The loaders parse the CSV columns in one pass with numpy's C reader
and check each whole column at once; empty, whitespace-only and
comment lines are skipped.  When the C reader refuses a file, it parses
the required columns alone once more.  A column it cannot take, and an
optional reference column with a gap or a NaN, is read cell by cell
with Python's ``float()``; that reader alone locates errors.  The
first bad row, in file order, is reported as a
:class:`MalformedRowError` naming its 1-based row and its column.  A
leading UTF-8 byte-order mark is ignored; any other byte that is not
UTF-8 is reported with its line.  A series is only its columns, and
:meth:`MeasurementSeries.from_columns` is its one checked constructor.
The items of error samples (:class:`ErrorSample`), of differential
readings (:class:`DifferentialRow`) and of the nominal leg pairs of a
differential campaign (:class:`LegPair`) are built from the columns
only when a caller reads them.  Every CSV errorkit writes, the command
line's ``--emit-series`` files included, goes through
:func:`write_table`: a ``# units:`` line, the header, and a body
written in blocks of lines, each formatted with one ``%`` over its
cells of the interleaved columns, its format string made of one line
template per row.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from ._jsonfile import bundled_path, gc_paused, not_utf8, shorten

__all__ = [
    "DatasetError",
    "MalformedRowError",
    "EmptyInputError",
    "MeasurementSeries",
    "DifferentialRow",
    "DifferentialRows",
    "LegPair",
    "LegPairs",
    "ErrorSample",
    "ErrorSamples",
    "ColumnSchema",
    "load_series",
    "load_differential",
    "load_differential_pairs",
    "write_series_csv",
    "write_differential_csv",
    "to_error_samples",
    "bundled_path",
]

# Default bound for the reference sanity check: a reference that differs
# from the observed value by more than this fraction is rejected as a
# probable column mix-up.
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
# write_table formats and writes the body _BLOCK_LINES lines at a time.
_BLOCK_LINES = 2048


class DatasetError(ValueError):
    """Base class for ingestion and conversion failures."""


class MalformedRowError(DatasetError):
    """A row failed to parse or to pass its checks; carries the offending
    1-based row and the column.

    Like every ``DatasetError`` it is a ``ValueError``, the type the
    record types (:class:`ErrorSample`, :class:`DifferentialRow`) raise
    for their own faults."""

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

# One nominal leg pair of a differential setup: short leg, long leg (m).
# A tuple, so pairs compare equal to plain (s_ab, s_ac) tuples.
LegPair = namedtuple("LegPair", ["s_ab", "s_ac"])


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


@dataclass(frozen=True, eq=False, init=False)
class MeasurementSeries:
    """An ordered, immutable series of readings sharing unit tags.

    The series is three read-only float64 columns, ``columns.condition``,
    ``columns.observed`` and ``columns.reference`` (NaN where a reading
    has no reference).  :meth:`from_columns` builds and checks one.
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
        sanity_bound: float = SANITY_BOUND,
    ) -> MeasurementSeries:
        """Build a series from columns, checking every row.

        ``reference`` is optional; NaN entries mean "no reference".  A
        row's condition and observed value must be finite.  A reference
        further than ``sanity_bound`` (fractional) from the observed
        value is rejected, because real instrument errors are orders of
        magnitude smaller than the reading itself.

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
            ok &= np.isnan(ref) | ~(np.abs(obs - ref) >= sanity_bound * np.abs(obs))
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

    def __eq__(self, other):
        if not isinstance(other, MeasurementSeries):
            return NotImplemented
        return (
            (self.condition_unit, self.value_unit, self.label)
            == (other.condition_unit, other.value_unit, other.label)
            and all(
                np.array_equal(a, b, equal_nan=True)
                for a, b in zip(self.columns, other.columns)
            )
        )

    def __hash__(self):
        # Equal series hash alike: "+ 0.0" turns -0.0 into 0.0, and the
        # reference column, whose NaNs compare equal, is left out.
        cond, obs, _ = self.columns
        return hash((self.condition_unit, self.value_unit, self.label,
                     (cond + 0.0).tobytes(), (obs + 0.0).tobytes()))

    @property
    def conditions(self) -> tuple[float, ...]:
        return tuple(self.columns.condition.tolist())

    @property
    def observed(self) -> tuple[float, ...]:
        return tuple(self.columns.observed.tolist())


@dataclass(frozen=True)
class DifferentialRow:
    """A reading pair from one differential setup; s1 is the longer leg."""

    s1: float
    s2: float

    def __post_init__(self):
        if not self.s1 > self.s2:
            raise ValueError(f"require s1 > s2, got s1={self.s1} s2={self.s2}")

    @property
    def difference(self) -> float:
        return self.s1 - self.s2


@dataclass(frozen=True)
class ErrorSample:
    """A single (condition, error) point ready for fitting.

    The error unit follows the conversion that produced the sample:
    ppm for mean-referenced relative errors, mm for explicit-reference
    distance errors.
    """

    condition: float
    error: float

    def __post_init__(self):
        if not math.isfinite(self.error):
            raise ValueError(f"error must be finite, got {self.error!r}")


class _Records(Sequence):
    """A read-only sequence of frozen records stored as float64 columns.

    ``columns`` is a named tuple with one column per field of the record
    type.  An item is built from the columns only when it is indexed,
    iterated over or unpacked, so a subclass checks in its constructor
    whatever the record type would reject.  It compares equal to any
    sequence of equal items and hashes as the tuple of its items.
    """

    _record: type
    _columns: type

    def __init__(self, *columns):
        self.columns = self._columns(*map(_frozen_column, columns))
        if len({len(c) for c in self.columns}) > 1:
            raise ValueError(f"columns {self.columns._fields} differ in length")

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._record(*(float(c[index]) for c in self.columns))

    def __iter__(self):
        return map(self._record, *(c.tolist() for c in self.columns))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class ErrorSamples(_Records):
    """(condition, error) samples as columns; items are :class:`ErrorSample`.

    Raises:
        ValueError: some error is not finite (the ErrorSample message,
            after the first such 1-based row).
    """

    _record = ErrorSample
    _columns = SampleColumns

    def __init__(self, conditions, errors):
        super().__init__(conditions, errors)
        bad = _first_false(np.isfinite(self.columns.error))
        if bad is not None:
            raise ValueError(
                f"row {bad + 1}: error must be finite, "
                f"got {float(self.columns.error[bad])!r}"
            )


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
        s1, s2 = self.columns
        bad = _first_false(np.isfinite(s1) & np.isfinite(s2) & (s1 > s2))
        if bad is not None:
            a, b = float(s1[bad]), float(s2[bad])
            if not math.isfinite(a):
                column, detail = "s1", f"must be finite, got {a!r}"
            elif not math.isfinite(b):
                column, detail = "s2", f"must be finite, got {b!r}"
            else:
                column, detail = "s1", f"require s1 > s2, got s1={a} s2={b}"
            raise MalformedRowError(bad + 1, column, detail)


class LegPairs(_Records):
    """Nominal (s_ab, s_ac) leg pairs as columns; items are :class:`LegPair`.

    It holds the pairs as given: whether ``s_ac > s_ab`` is for the
    loader or the simulator that reads them to check.
    """

    _record = LegPair
    _columns = PairColumns


@dataclass(frozen=True)
class ColumnSchema:
    """Mapping from CSV header names to the series' slots.

    The defaults match the canonical layout.  Units given here override
    whatever the file's ``# units:`` line declares, which lets callers
    ingest third-party files without editing them.
    """

    condition: str = "condition"
    observed: str = "observed"
    reference: str = "reference"
    condition_unit: str | None = None
    value_unit: str | None = None
    sanity_bound: float = SANITY_BOUND


def _parse_units_line(line: str) -> dict[str, str]:
    # "# units: condition=degC observed=MHz" or "# units: m" (all columns)
    body = line.split(":", 1)[1].strip()
    if not body:
        return {}
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


def _read_csv(path) -> tuple[dict[str, str], list[str], tuple[list[str], bool]]:
    """The units, the header cells and the data block of a CSV file.

    Empty, whitespace-only and comment lines (``#`` first) are skipped,
    and a leading byte-order mark is ignored.  The header is the first
    line not skipped, and the last ``# units:`` line gives the units.
    The data block is the lines from the first data line on, and
    whether one of them holds a quote.  Unless one holds a ``#``, they
    are not filtered here: numpy's C reader skips empty lines and refuses
    whitespace-only ones, and :func:`_read_columns` drops both before it
    reads cell by cell.  So a clean file gets no per-line Python pass.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DatasetError(not_utf8(path, exc)) from None
    if not text.strip():
        raise EmptyInputError(f"{path}: file is empty")
    lines = text.splitlines()
    content = (i for i, line in enumerate(lines) if _is_content(line))
    header_at, data_at = next(content, None), next(content, None)
    if header_at is None:
        raise EmptyInputError(f"{path}: no header row found")
    if data_at is None:
        raise EmptyInputError(f"{path}: header only, no data rows")
    head, data = lines[:data_at], lines[data_at:]
    start = 0  # where the data lines start: a line break is 1 character, "\r\n" 2
    for line in head:
        start += len(line) + 1 + text.startswith("\r\n", start + len(line))
    if text.find("#", start) >= 0:  # a comment or units line among the data
        head, data = lines, _content(data)
    units_lines = [line for line in head if line.startswith("# units:")]
    units = _parse_units_line(units_lines[-1]) if units_lines else {}
    header = next(csv.reader([lines[header_at]]))
    quoted = '"' in text and '"' in "\n".join(data)
    return units, [h.strip() for h in header], (data, quoted)


def _column_index(path, header: list[str], required) -> dict[str, int]:
    index = {name: i for i, name in enumerate(header)}
    for name in required:
        if name not in index:
            raise DatasetError(f"{path}: missing column {name!r}")
    return index


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


def _loadtxt(lines: list[str], positions: list[int]) -> np.ndarray | None:
    """The columns ``positions`` of ``lines`` as parsed by numpy's C
    reader, one row each, or None if it refuses a line."""
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, quotechar=None,
                          ndmin=2, usecols=positions).T
    except ValueError:
        return None


def _read_columns(
    block: tuple[list[str], bool], specs
) -> list[tuple[np.ndarray, MalformedRowError | None]]:
    """Parse the columns ``specs`` of a data block from :func:`_read_csv`.

    Each spec is ``(position, column name, optional)``.  Returns one
    ``(values, error)`` pair per spec, as :func:`_read_column` does.
    Unless a data line holds a quote (which may hide a comma or span
    lines), numpy's C reader parses the whole block in one pass.  If it
    refuses a line, it parses the required columns alone once more.  A
    column it parsed is used as it is, but an optional column with a NaN
    (a gap, or a NaN cell) is read again.  Every column left (quotes,
    whitespace-only lines, blank or bad cells, spellings such as ``1_0``
    that only ``float()`` accepts) is read cell by cell, after the
    lines that are not data are dropped.
    """
    lines, quoted = block
    parsed = {}  # spec index -> values from the C reader
    if not quoted:
        columns = _loadtxt(lines, [pos for pos, _, _ in specs])
        if columns is not None:
            parsed = {i: values for i, (values, (_, _, optional))
                      in enumerate(zip(columns, specs))
                      if not (optional and np.isnan(values).any())}
        elif any(optional for _, _, optional in specs):
            required = [i for i, (_, _, optional) in enumerate(specs) if not optional]
            columns = _loadtxt(lines, [specs[i][0] for i in required])
            if columns is not None:
                parsed = dict(zip(required, columns))
    if len(parsed) == len(specs):
        return [(parsed[i], None) for i in range(len(specs))]
    rows = [row for row in csv.reader(io.StringIO("\n".join(_content(lines)))) if row]
    return [(parsed[i], None) if i in parsed
            else _read_column(rows, pos, column, optional=optional)
            for i, (pos, column, optional) in enumerate(specs)]


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
def load_series(path, schema: ColumnSchema | None = None) -> MeasurementSeries:
    """Load a measurement series from CSV.

    Args:
        path: CSV file with a ``# units:`` line, a header row, and
            ``condition,observed[,reference]`` columns (names remappable
            through ``schema``).
        schema: optional column mapping and unit overrides.

    Returns:
        MeasurementSeries with row order preserved.

    Raises:
        EmptyInputError: the file has no data rows.
        MalformedRowError: a cell failed to parse or to pass the row
            checks, named by row/column (the first such row in the file).
        DatasetError: a required column is missing.
    """
    schema = schema or ColumnSchema()
    units, header, block = _read_csv(path)
    index = _column_index(path, header, (schema.condition, schema.observed))
    cond_unit = schema.condition_unit or units.get("condition") or units.get("*", "")
    value_unit = schema.value_unit or units.get("observed") or units.get("*", "")
    names = {
        "condition": schema.condition,
        "observed": schema.observed,
        "reference": schema.reference,
    }

    def build(cond, obs, ref=None):
        try:
            return MeasurementSeries.from_columns(
                cond, obs, ref,
                condition_unit=cond_unit,
                value_unit=value_unit,
                label=Path(path).stem,
                sanity_bound=schema.sanity_bound,
            )
        except MalformedRowError as exc:
            raise MalformedRowError(exc.row_index, names[exc.column], exc.detail) from None

    specs = [(index[name], name, False)
             for name in (schema.condition, schema.observed)]
    if schema.reference in index:
        specs.append((index[schema.reference], schema.reference, True))
    return _checked_prefix(build, _read_columns(block, specs))


@gc_paused
def load_differential(path) -> DifferentialRows:
    """Load a four-column differential campaign CSV (s_ab,s_ac,s2,s1).

    Raises:
        MalformedRowError: a leg failed to parse, is not finite, or
            ``s1 <= s2``; the first such row in the file, with its column.
    """
    _, header, block = _read_csv(path)
    index = _column_index(path, header, ("s1", "s2"))
    return _checked_prefix(DifferentialRows, _read_columns(
        block, [(index[name], name, False) for name in ("s1", "s2")]))


@gc_paused
def load_differential_pairs(path) -> LegPairs:
    """Return the nominal (s_ab, s_ac) leg pairs of a differential CSV.

    Raises:
        MalformedRowError: a nominal leg failed to parse; the first such
            row in the file, with its column.
    """
    _, header, block = _read_csv(path)
    index = _column_index(path, header, ("s_ab", "s_ac"))
    return _checked_prefix(LegPairs, _read_columns(
        block, [(index[name], name, False) for name in ("s_ab", "s_ac")]))


def write_table(path, units: str, header: str, templates, values) -> None:
    """Write a CSV in errorkit's layout: the ``# units:`` line, the
    header, then one body line per template, each ended by a newline.

    ``np.ravel(values)`` holds the cells of every line in file order.
    The body is formatted and written ``_BLOCK_LINES`` lines at a time,
    one ``%`` per block, so the text held does not grow with the line
    count.
    """
    cells, templates = np.ravel(values), iter(templates)
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"# units: {units}\n{header}\n")
        at = 0
        while block := "\n".join(islice(templates, _BLOCK_LINES)):
            n = block.count("%")
            out.write(block % tuple(cells[at:at + n].tolist()) + "\n")
            at += n


def write_series_csv(series: MeasurementSeries, path) -> None:
    """Write a series in the canonical layout; inverse of load_series."""
    has = ~np.isnan(series.columns.reference)
    has_ref = bool(has.any())
    units = f"condition={series.condition_unit} observed={series.value_unit}"
    header = "condition,observed"
    if has_ref:
        units += f" reference={series.value_unit}"
        header += ",reference"
    value_fmt = _UNIT_FORMATS.get(series.value_unit, "%g")
    row_fmt = _UNIT_FORMATS.get(series.condition_unit, "%g") + "," + value_fmt
    # A row without a reference has no slot for it: "cond,obs," when
    # the file has the column, "cond,obs" when it has not.
    templates = [row_fmt + ("," if has_ref else ""), row_fmt + "," + value_fmt]
    # Condition and observed are finite, so the NaN cells are the
    # missing references, which have no slot.
    values = np.column_stack(series.columns).ravel()
    values = values[~np.isnan(values)]
    write_table(path, units, header, map(templates.__getitem__, has.tolist()), values)


def write_differential_csv(
    pairs: LegPairs, rows: DifferentialRows, path, *, units: str = "m"
) -> None:
    """Write a differential campaign: the nominal leg pairs, then the
    readings, as the loaders and the simulator return them."""
    if len(pairs) != len(rows):
        raise ValueError("pairs and rows must have equal length")
    value_fmt = _UNIT_FORMATS.get(units, "%g")
    write_table(path, units, "s_ab,s_ac,s2,s1",
                ["%g,%g," + value_fmt + "," + value_fmt] * len(rows),
                np.column_stack((*pairs.columns, rows.columns.s2, rows.columns.s1)))


def write_fit_points(path, series, samples, model, condition_format, error_unit):
    """Write each sample with the model's fitted value and the residual
    (``fit --emit-series``)."""
    condition, error = samples.columns
    fitted = [model(c) for c in condition.tolist()]
    write_table(
        path,
        f"condition={series.condition_unit} observed={error_unit}",
        "condition,observed,fitted,residual",
        [condition_format + ",%g,%.6f,%.6f"] * len(fitted),
        np.column_stack((condition, error, fitted, error - fitted)),
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
        ErrorSamples, a read-only sequence of ErrorSample whose
        ``columns.condition`` and ``columns.error`` hold the data.

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
        missing = np.flatnonzero(np.isnan(ref))
        if missing.size:
            raise DatasetError(
                f"explicit-reference requires a reference on every row; "
                f"missing on rows {(missing + 1).tolist()}"
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
