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


def _freeze_views(obj, names) -> None:
    """Hold each named array field of the frozen dataclass ``obj`` as a
    read-only view: the caller's own arrays stay writeable."""
    for name in names:
        view = getattr(obj, name).view()
        view.flags.writeable = False
        object.__setattr__(obj, name, view)


@dataclass(frozen=True)
class ValidatedBatch:
    """A validated calibration/test batch held as read-only float arrays."""

    calib_scores: np.ndarray
    calib_risks: np.ndarray
    calib_weights: np.ndarray
    test_scores: np.ndarray
    test_weights: np.ndarray

    def __post_init__(self) -> None:
        _freeze_views(self, ("calib_scores", "calib_risks", "calib_weights",
                             "test_scores", "test_weights"))

    @property
    def n(self) -> int:
        return self.calib_scores.shape[0]

    @property
    def m(self) -> int:
        return self.test_scores.shape[0]

    @property
    def has_unit_weights(self) -> bool:
        return not (np.count_nonzero(self.calib_weights != 1.0)
                    or np.count_nonzero(self.test_weights != 1.0))


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
        elif np.isscalar(item) or getattr(item, "ndim", None) == 0:   # 0-d arrays too
            scores.append(float(item))
            weights.append(1.0)
        else:
            t = tuple(item)
            scores.append(t[0])
            weights.append(t[1] if len(t) > 1 else 1.0)
    return np.asarray(scores, dtype=float), np.asarray(weights, dtype=float)


def _sorted_prefix(keys: np.ndarray, contrib: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``keys`` in stable ascending order, the running sum of ``contrib``
    in that order, with a leading zero, and the order itself.

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
    return keys[order], prefix0, order


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
# Output: floats as C ``%.17g`` (17 significant digits rounded half to even,
# trailing zeros dropped; fixed notation for decimal exponents -4 to 16,
# exponent form otherwise; ``inf``, ``-inf``, ``nan`` as Python spells them),
# integers as ``%d``, CRLF line ends.
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


# The writer builds each field of a block of rows as a (width, rows) uint8
# matrix of ASCII codes in which NUL bytes are padding.  The fields are laid
# side by side in one matrix, and deleting its NULs leaves the rows' text.
_CSV_BLOCK = 4096                                        # rows per block
_POW10 = np.array([float(10 ** k) for k in range(21)])   # exact doubles
_DIGIT_POS = np.arange(17)[:, None]
_FLOAT_WIDTH = 39     # sign, "0.", 3 zeros, 17 digits, 16 point slots
_FALLBACK_WIDTH = 24  # the longest %.17g text: -1.2345678901234567e-308


def _two_product(a, b):
    """``hi, lo`` with ``hi = fl(a*b)`` and ``hi + lo == a*b`` exactly
    (Dekker's TwoProduct; the Veltkamp split by 2**27 + 1 needs no fused
    multiply-add)."""
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    hi = a * b
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _digit_rows(values, count):
    """The ``count`` lowest decimal digits of nonnegative integers as a
    (count, rows) uint8 matrix of ASCII codes, most significant first."""
    out = np.empty((count, values.size), dtype=np.uint8)
    k = count
    while k:
        chunk = (values % 1_000_000_000).astype(np.int32)
        values = values // 1_000_000_000
        for _ in range(min(9, k)):
            k -= 1
            q = chunk // 10
            chunk -= q * 10
            np.add(chunk, 48, out=out[k], casting="unsafe")
            chunk = q
    return out


def _float_text(x):
    """``"%.17g" % v`` for each float64 ``v`` of ``x``, as a NUL-padded
    (39, rows) text matrix.

    Rows 0–5 hold the sign, then "0." and up to three zeros for |v| < 1;
    digit i of the 17 sits in row 6 + 2i, and row 7 + 2i holds the point
    when it follows digit i.  Trailing zeros of the fraction and a point
    with no fraction after it stay NUL; zero is ``0`` or ``-0``.  Values
    outside the exact range (see :func:`_write_csv`) are formatted by ``%``
    one at a time.
    """
    a = np.abs(x)
    zero = a == 0.0
    exact = (a >= 1e-4) & (a < 1e17)                 # nan compares False
    a = np.where(exact, a, 1.0)
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 16)
    hi, lo = _two_product(a, _POW10[16 - e])
    while True:     # log10 may be one off near a power of ten
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
        fix = np.flatnonzero(low | high)
        if not fix.size:
            break
        e[fix] += np.where(high[fix], 1, -1)
        hi[fix], lo[fix] = _two_product(a[fix], _POW10[16 - e[fix]])
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    digits[zero] = 0
    e[zero] = 0
    d = _digit_rows(digits, 17)
    keep = d != 48                   # then: some nonzero digit at or after i
    for k in range(15, -1, -1):
        keep[k] |= keep[k + 1]
    keep |= _DIGIT_POS <= e          # and the integer part
    text = np.zeros((_FLOAT_WIDTH, x.size), dtype=np.uint8)
    text[0] = np.signbit(x) * np.uint8(45)           # '-'
    below_one = e < 0
    text[1] = below_one * np.uint8(48)               # '0'
    text[2] = below_one * np.uint8(46)               # '.'
    for j in range(3):
        text[3 + j] = (e < -1 - j) * np.uint8(48)
    np.multiply(d, keep, out=text[6::2])
    np.multiply((_DIGIT_POS[:16] == e) & keep[1:], np.uint8(46), out=text[7::2])
    slow = np.flatnonzero(~(exact | zero))
    if slow.size:
        text[:, slow] = 0
        spelled = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{_FALLBACK_WIDTH}")
        text[:_FALLBACK_WIDTH, slow] = spelled.view(np.uint8).reshape(slow.size, -1).T
    return text


def _int_text(v):
    """``"%d" % i`` for each integer or bool ``i`` of ``v``, as a NUL-padded
    text matrix: a sign row, then the digits with leading zeros left NUL."""
    magnitude = np.abs(v.astype(np.int64)).astype(np.uint64)  # -2**63 wraps to 2**63
    count = len(str(int(magnitude.max())))
    d = _digit_rows(magnitude, count)
    keep = d != 48
    for k in range(1, count):
        keep[k] |= keep[k - 1]
    keep[-1] = True
    text = np.empty((count + 1, v.size), dtype=np.uint8)
    text[0] = (v < 0) * np.uint8(45)
    np.multiply(d, keep, out=text[1:])
    return text


def _str_text(col):
    """``str(v)`` for each element, UTF-8 encoded, as a NUL-padded text
    matrix."""
    spelled = np.array([str(v).encode("utf-8") for v in col.tolist()])
    return spelled.view(np.uint8).reshape(col.size, -1).T


def _field_text(col):
    kind = col.dtype.kind
    if kind == "f":
        return _float_text(col.astype(np.float64))
    if kind in "ib":
        return _int_text(col)
    return _str_text(col)


def _write_csv(out, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header`` and one row per position of ``columns`` to ``out``,
    a path or an open text stream, with CRLF line ends like :mod:`csv`.

    Float columns are written as C ``%.17g``, signed integer and bool
    columns as ``%d`` and other columns (short strings, without NUL) as
    ``str``.  Rows are formatted in blocks of ``_CSV_BLOCK``, so the memory
    this takes does not grow with the row count.

    Floats need no Python formatting in the range that ``%.17g`` writes in
    fixed notation.  For finite |x| >= 1e-4 with decimal exponent X <= 16,
    ``p = 16 - X`` is at most 20, so ``10**p`` is an exact double (every
    power up to 10**22 is).  TwoProduct then gives ``hi + lo == |x|·10**p``
    exactly; X is the exponent for which that product lies in
    [10**16, 10**17).  There ``hi >= 2**53`` is an even integer, so the 17
    correctly rounded digits are ``int(hi) + rint(lo)``, ties to even.
    They never round up to 10**17, which would move X up by one: that
    takes a double within 0.5·10**(X-16) below 10**(X+1), and the nearest
    one below each of 1e-3 ... 1e17 is more than 16 times as far.  Every
    other value (zero aside: ``0``, ``-0``) is formatted by
    ``"%.17g" % v``: inf, nan, subnormals, 0 < |x| < 1e-4 and
    |x| >= 1e17.
    """
    columns = [np.asarray(col) for col in columns]
    rows = len(columns[0]) if columns else 0
    if any(len(col) != rows for col in columns):
        raise ValueError("CSV columns differ in length")
    own = isinstance(out, (str, bytes)) or hasattr(out, "__fspath__")
    with open(out, "w", newline="", encoding="utf-8") if own else nullcontext(out) as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, _CSV_BLOCK):
            fields = [_field_text(col[start:start + _CSV_BLOCK]) for col in columns]
            block = np.empty((fields[0].shape[1], sum(len(f) + 1 for f in fields) + 1),
                             dtype=np.uint8)
            pos = 0
            for text in fields:
                block[:, pos:pos + len(text)] = text.T
                block[:, pos + len(text)] = 44             # ','
                pos += len(text) + 1
            block[:, pos - 1:] = (13, 10)                  # the last ',' becomes CRLF
            fh.write(block.tobytes().translate(None, b"\0").decode("utf-8"))


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
