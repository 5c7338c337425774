"""Shared domain types, input validation, and CSV schemas.

Conventions used throughout the package:

* Risks are dimensionless reals in ``[0, 1]``; use :class:`RiskRescaler` to
  map a bounded original scale onto the unit interval and back.
* Scores are ordinary finite reals.  Procedures only ever compare scores with
  ``<=``, so any strictly increasing transform of the scores leaves every
  downstream decision unchanged.  Ties are legal and never perturbed.
* E-values are nonnegative floats; ``numpy.inf`` is a legal value and encodes
  an exactly-zero denominator with a positive numerator.
* "No feasible threshold" is represented by the ``None`` sentinel in scalar
  code paths (and ``nan`` inside diagnostic arrays), never by a float
  infinity, so that threshold comparisons stay total.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ScoreKitError",
    "EmptyCalibration",
    "RiskOutOfRange",
    "NonPositiveWeight",
    "NonFiniteScore",
    "OutOfRange",
    "SchemaError",
    "CalibSample",
    "TestPoint",
    "Levels",
    "RiskRescaler",
    "ValidatedBatch",
    "validate_batch",
    "rescale_risk",
    "unrescale",
    "read_calibration_csv",
    "read_test_csv",
]


class ScoreKitError(Exception):
    """Base class for data and validation errors raised by this package."""


class EmptyCalibration(ScoreKitError):
    def __init__(self) -> None:
        super().__init__("calibration set is empty")


class RiskOutOfRange(ScoreKitError):
    def __init__(self, index: int, value: float) -> None:
        self.index = index
        super().__init__(f"calibration risk at index {index} is {value!r}, expected a value in [0, 1]")


class NonPositiveWeight(ScoreKitError):
    def __init__(self, index: int, value: float, kind: str = "calibration") -> None:
        self.index = index
        super().__init__(f"{kind} weight at index {index} is {value!r}, expected a positive finite real")


class NonFiniteScore(ScoreKitError):
    def __init__(self, index: int, value: float, kind: str = "calibration") -> None:
        self.index = index
        super().__init__(f"{kind} score at index {index} is {value!r}, expected a finite real")


class OutOfRange(ScoreKitError):
    pass


class SchemaError(ScoreKitError):
    """A CSV file does not match the expected schema.  Carries the file's
    path and a line number, and names both in its message."""

    def __init__(self, message: str, line: int | None = None, path=None) -> None:
        self.line = line
        self.path = path
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class CalibSample:
    """One labeled calibration point reduced to (score, realized risk, weight)."""

    score: float
    risk: float
    weight: float = 1.0


@dataclass(frozen=True)
class TestPoint:
    """One unlabeled test point reduced to (score, weight)."""

    __test__ = False  # not a pytest class, despite the name

    score: float
    weight: float = 1.0


@dataclass(frozen=True)
class Levels:
    """Target level ``alpha`` and internal calibration level ``gamma``.

    ``gamma`` defaults to ``alpha``; setting them equal maximizes power while
    preserving validity, and is the recommended choice.
    """

    alpha: float
    gamma: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.gamma is None:
            object.__setattr__(self, "gamma", float(self.alpha))
        elif not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")


@dataclass(frozen=True)
class RiskRescaler:
    """Affine map of an original risk scale ``[lo, hi]`` onto ``[0, 1]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got lo={self.lo!r}, hi={self.hi!r}")


def rescale_risk(raw: float, r: RiskRescaler) -> float:
    """Map a raw value in ``[r.lo, r.hi]`` affinely onto ``[0, 1]``."""
    if not (r.lo <= raw <= r.hi):
        raise OutOfRange(f"value {raw!r} outside [{r.lo!r}, {r.hi!r}]")
    return (raw - r.lo) / (r.hi - r.lo)


def unrescale(value: float, r: RiskRescaler) -> float:
    """Invert :func:`rescale_risk`, mapping ``[0, 1]`` back to the original scale."""
    return r.lo + value * (r.hi - r.lo)


@dataclass(frozen=True)
class ValidatedBatch:
    """A validated calibration/test batch held as read-only float arrays."""

    calib_scores: np.ndarray
    calib_risks: np.ndarray
    calib_weights: np.ndarray
    test_scores: np.ndarray
    test_weights: np.ndarray

    def __post_init__(self) -> None:
        # Freeze private views: the caller's own arrays stay writeable.
        for name in ("calib_scores", "calib_risks", "calib_weights",
                     "test_scores", "test_weights"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n(self) -> int:
        return self.calib_scores.shape[0]

    @property
    def m(self) -> int:
        return self.test_scores.shape[0]

    @property
    def has_unit_weights(self) -> bool:
        return bool((self.calib_weights == 1.0).all() and (self.test_weights == 1.0).all())


def _column(rows: np.ndarray, name: str) -> np.ndarray:
    """A contiguous float copy of one field of a structured array; a missing
    ``weight`` field means unit weights."""
    if name == "weight" and name not in rows.dtype.names:
        return np.ones(rows.shape[0])
    return np.array(rows[name], dtype=float)


def _is_columnar(items) -> bool:
    return isinstance(items, np.ndarray) and items.dtype.names is not None


def _as_calib_arrays(calib: Iterable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if _is_columnar(calib):
        return _column(calib, "score"), _column(calib, "risk"), _column(calib, "weight")
    scores, risks, weights = [], [], []
    for item in calib:
        if isinstance(item, CalibSample):
            scores.append(item.score)
            risks.append(item.risk)
            weights.append(item.weight)
        else:
            t = tuple(item)
            scores.append(t[0])
            risks.append(t[1])
            weights.append(t[2] if len(t) > 2 else 1.0)
    return (np.asarray(scores, dtype=float),
            np.asarray(risks, dtype=float),
            np.asarray(weights, dtype=float))


def _as_test_arrays(tests: Iterable) -> tuple[np.ndarray, np.ndarray]:
    if _is_columnar(tests):
        return _column(tests, "score"), _column(tests, "weight")
    scores, weights = [], []
    for item in tests:
        if isinstance(item, TestPoint):
            scores.append(item.score)
            weights.append(item.weight)
        elif np.isscalar(item):
            scores.append(float(item))
            weights.append(1.0)
        else:
            t = tuple(item)
            scores.append(t[0])
            weights.append(t[1] if len(t) > 1 else 1.0)
    return np.asarray(scores, dtype=float), np.asarray(weights, dtype=float)


def _sorted_prefix(keys: np.ndarray, contrib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` in stable ascending order and the running sum of ``contrib``
    in that order, with a leading zero.

    ``prefix0[np.searchsorted(sorted_keys, t, side="right")]`` is then the
    sum of ``contrib`` over ``keys <= t``, for any array of thresholds ``t``:
    tied keys share the value that closes their tie group and a threshold
    below every key gets 0.  This is the one way the package sums over
    "score <= threshold": O((n + q) log n) time and O(n + q) memory for q
    thresholds, with no q-by-n comparison matrix.
    """
    order = keys.argsort(kind="stable")
    prefix0 = np.zeros(keys.size + 1)
    contrib[order].cumsum(out=prefix0[1:])
    return keys[order], prefix0


def validate_batch(calib, tests=None) -> ValidatedBatch:
    """Validate calibration samples and test points into a :class:`ValidatedBatch`.

    Accepts sequences of :class:`CalibSample` / :class:`TestPoint`, plain
    tuples ``(score, risk[, weight])`` / ``(score[, weight])``, bare test
    scores, or the structured arrays returned by :func:`read_calibration_csv`
    / :func:`read_test_csv` (read column by column; a missing ``weight``
    field means unit weights).  Passing an existing :class:`ValidatedBatch`
    returns it unchanged (validation is idempotent).

    Raises
    ------
    EmptyCalibration, RiskOutOfRange, NonPositiveWeight, NonFiniteScore
    """
    if isinstance(calib, ValidatedBatch):
        if tests is not None:
            raise ValueError("pass either a ValidatedBatch or (calib, tests), not both")
        return calib
    if tests is None:
        tests = []

    cs, cr, cw = _as_calib_arrays(calib)
    ts, tw = _as_test_arrays(tests)

    if cs.size == 0:
        raise EmptyCalibration()
    for i in np.flatnonzero(~np.isfinite(cs)):
        raise NonFiniteScore(int(i), float(cs[i]))
    for i in np.flatnonzero(~((cr >= 0.0) & (cr <= 1.0))):
        raise RiskOutOfRange(int(i), float(cr[i]))
    for i in np.flatnonzero(~(np.isfinite(cw) & (cw > 0.0))):
        raise NonPositiveWeight(int(i), float(cw[i]))
    for i in np.flatnonzero(~np.isfinite(ts)):
        raise NonFiniteScore(int(i), float(ts[i]), kind="test")
    for i in np.flatnonzero(~(np.isfinite(tw) & (tw > 0.0))):
        raise NonPositiveWeight(int(i), float(tw[i]), kind="test")

    return ValidatedBatch(cs, cr, cw, ts, tw)


# ---------------------------------------------------------------------------
# CSV schemas.  Calibration: header ``score,risk[,weight]``; test: header
# ``score[,weight]``.  Missing weight column means weight 1.  Feature files
# (``estimate-weights``): every header column is a distinctly named feature.
# A column that is read must be named exactly once; extra columns are
# ignored, and so are blank lines.  Every cell read must be a finite ASCII
# decimal number without ``_`` digit separators.  Comma-separated, UTF-8
# (a leading byte-order mark is skipped), '.' decimal, header required.
# Errors name the file and the physical line.
# Output: 17 significant digits, CRLF line ends.
# ---------------------------------------------------------------------------

def _raise_first_bad_cell(reader, path, names: Sequence[str], position: dict) -> None:
    """Read on from ``reader``, the :func:`csv.reader` that parsed the header,
    and raise a :class:`SchemaError` naming the file and the physical line of
    the first missing, non-numeric or non-finite cell.  A number is what
    numpy's text parser reads: after stripping whitespace, ASCII only and no
    ``_`` (Python's ``float`` also takes ``1_0`` and non-ASCII digits)."""
    for row in reader:
        if not row:
            continue
        for col in names:
            i = position[col]
            raw = row[i] if i < len(row) else ""
            if raw == "":
                raise SchemaError(f"missing value for column {col!r}",
                                  line=reader.line_num, path=path)
            cell = raw.strip()
            try:
                if not cell.isascii() or "_" in cell:
                    raise ValueError(raw)
                value = float(cell)
            except ValueError:
                raise SchemaError(f"non-numeric value {raw!r} in column {col!r}",
                                  line=reader.line_num, path=path) from None
            if not np.isfinite(value):
                raise SchemaError(f"non-finite value {raw!r} in column {col!r}",
                                  line=reader.line_num, path=path)
    raise SchemaError("the data rows could not be parsed", path=path)


def _read_columns(path, required: Sequence[str] | None,
                  optional: Sequence[str] = ()) -> np.ndarray:
    """Parse the ``required`` columns and the ``optional`` ones present into a
    float64 structured array with one field per column and one element per
    data row.  ``required=None`` reads every header column.  Each column
    read must carry a distinct, non-empty name and finite numbers; other
    columns are ignored.  The header is read with :mod:`csv`; the data rows
    are parsed in one pass by numpy's text parser, which gives the values
    Python's ``float`` gives.  The file is read once, so a pipe works and a
    bad cell is looked for in the lines that were parsed."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise SchemaError("file is empty, expected a header row", line=1, path=path)
    if required is None:
        required = header
    for col in required:
        if col not in header:
            raise SchemaError(
                f"missing required column {col!r} (header is {header})", line=1, path=path)
    names = [*required, *(c for c in optional if c in header)]
    for i, col in enumerate(header):
        if col in names and (not col or col in header[:i]):
            raise SchemaError(f"column {i + 1} has an empty or repeated name {col!r}",
                              line=1, path=path)
    position = {col: header.index(col) for col in names}
    dtype = [(col, float) for col in names]
    rows = lines[reader.line_num:]
    # loadtxt warns on input without rows, so look for one here.
    if not any(line.strip("\r\n") for line in rows):
        return np.empty(0, dtype=dtype)
    try:
        out = np.loadtxt(rows, dtype=dtype, delimiter=",",
                         usecols=[position[col] for col in names], comments=None,
                         quotechar='"', ndmin=1)
    except ValueError:
        _raise_first_bad_cell(reader, path, names, position)
    if not all(np.isfinite(out[col]).all() for col in names):
        _raise_first_bad_cell(reader, path, names, position)
    return out


def _write_csv(out, header: Sequence[str], row_fmt: str, rows: Iterable) -> None:
    """Write ``header`` and then each of ``rows`` formatted by the ``%``
    format ``row_fmt`` (``%.17g`` for floats), CRLF-terminated like
    :mod:`csv`, to ``out``: a path, or an open text stream."""
    own = isinstance(out, (str, bytes)) or hasattr(out, "__fspath__")
    with open(out, "w", newline="", encoding="utf-8") if own else nullcontext(out) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(map((row_fmt + "\r\n").__mod__, rows)))


def read_calibration_csv(path) -> np.ndarray:
    """Read a ``score,risk[,weight]`` CSV file into a structured array.

    The array has one float64 field per schema column present in the header
    (``score``, ``risk`` and, if present, ``weight``) and one element per
    data row, so ``len()`` is the row count.  The cells are parsed by
    numpy's text parser, which gives the values Python's ``float`` gives.
    """
    return _read_columns(path, required=("score", "risk"), optional=("weight",))


def read_test_csv(path) -> np.ndarray:
    """Read a ``score[,weight]`` CSV file into a structured array with fields
    ``score`` and, if present, ``weight`` (as :func:`read_calibration_csv`)."""
    return _read_columns(path, required=("score",), optional=("weight",))
