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
import math
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
    """A CSV file does not match the expected schema.  Carries a line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
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
        return bool(np.all(self.calib_weights == 1.0) and np.all(self.test_weights == 1.0))


def _as_calib_arrays(calib: Iterable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def validate_batch(calib, tests=None) -> ValidatedBatch:
    """Validate calibration samples and test points into a :class:`ValidatedBatch`.

    Accepts sequences of :class:`CalibSample` / :class:`TestPoint`, plain
    tuples ``(score, risk[, weight])`` / ``(score[, weight])``, or bare test
    scores.  Passing an existing :class:`ValidatedBatch` returns it unchanged
    (validation is idempotent).

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
# ``score[,weight]``.  Missing weight column means weight 1.  Extra columns
# are ignored.  Comma-separated, UTF-8, '.' decimal, header required.
# ---------------------------------------------------------------------------

def _parse_cell(row: dict, col: str, line: int) -> float:
    raw = row.get(col)
    if raw is None or raw == "":
        raise SchemaError(f"missing value for column {col!r}", line=line)
    try:
        return float(raw)
    except ValueError:
        raise SchemaError(f"non-numeric value {raw!r} in column {col!r}", line=line) from None


def _read_rows(path, required: Sequence[str], optional: Sequence[str]):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise SchemaError("file is empty, expected a header row", line=1)
        for col in required:
            if col not in header:
                raise SchemaError(
                    f"missing required column {col!r} (header is {header})", line=1)
        present_optional = [c for c in optional if c in header]
        rows = []
        for line_no, row in enumerate(reader, start=2):
            values = {c: _parse_cell(row, c, line_no) for c in (*required, *present_optional)}
            rows.append(values)
    return rows


def read_calibration_csv(path) -> list[CalibSample]:
    """Read calibration samples from a ``score,risk[,weight]`` CSV file."""
    rows = _read_rows(path, required=("score", "risk"), optional=("weight",))
    return [CalibSample(r["score"], r["risk"], r.get("weight", 1.0)) for r in rows]


def read_test_csv(path) -> list[TestPoint]:
    """Read test points from a ``score[,weight]`` CSV file."""
    rows = _read_rows(path, required=("score",), optional=("weight",))
    return [TestPoint(r["score"], r.get("weight", 1.0)) for r in rows]
