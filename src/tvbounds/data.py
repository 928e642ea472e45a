"""Dataset ingestion and the sufficient statistics behind the Gibbs certificates.

The location model consumes (J, y_bar, S) with S the centered sum of
squares; the regression model consumes A = X^T X + lambda I, the
posterior mean beta_tilde = A^{-1} X^T Y, and the scalar
C = Y^T (I - X A^{-1} X^T) Y.

The 31 tree girth measurements (the public `trees` dataset) are embedded
under the builtin name ``trees-girth`` so the location-model numbers are
reproducible without any file.  The 333-row doctoral-delay regression
dataset is NOT embedded; supply it as a CSV (see README) to evaluate its
certificate constant.
"""

from __future__ import annotations

import csv

import numpy as np

from . import bounds
from .errors import IngestionError, ParameterError
from .stochastics import Record, finite_positive

__all__ = [
    "RegressionData",
    "LocationData",
    "TREES_GIRTH",
    "builtin_dataset",
    "load_csv",
    "location_stats",
    "regression_stats",
]

# girth (inches) of 31 felled black cherry trees
TREES_GIRTH = (
    8.3, 8.6, 8.8, 10.5, 10.7, 10.8, 11.0, 11.0, 11.1, 11.2,
    11.3, 11.4, 11.4, 11.7, 12.0, 12.9, 12.9, 13.3, 13.7, 13.8,
    14.0, 14.2, 14.5, 16.0, 16.3, 17.3, 17.5, 17.9, 18.0, 18.0,
    20.6,
)

_BUILTINS = {"trees-girth": TREES_GIRTH}


def builtin_dataset(name: str) -> "LocationData":
    try:
        values = _BUILTINS[name]
    except KeyError:
        raise IngestionError(
            f"unknown builtin dataset '{name}' (available: {', '.join(sorted(_BUILTINS))})"
        ) from None
    return LocationData(np.array(values, dtype=float))


class LocationData(Record):
    """A single numeric sample y_1..y_J."""

    y: np.ndarray
    __eq__, __hash__ = object.__eq__, object.__hash__  # array fields: compare by identity

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.y.ndim != 1 or self.y.size < 3:
            raise ParameterError(f"location data needs a 1-d sample with J >= 3, got shape {self.y.shape}")
        if not np.all(np.isfinite(self.y)):
            raise ParameterError("location data must be finite")


class RegressionData(Record):
    """Response Y (length k), design X (k x p), and the known prior precision."""

    y: np.ndarray
    x: np.ndarray
    prior_lambda: float
    domains = {"prior_lambda": finite_positive}
    __eq__, __hash__ = object.__eq__, object.__hash__  # array fields: compare by identity

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.y.ndim != 1 or self.x.ndim != 2 or self.x.shape[0] != self.y.size:
            raise ParameterError(
                f"need Y of length k and X of shape (k, p); got {self.y.shape} and {self.x.shape}"
            )
        if self.y.size <= self.x.shape[1]:
            raise ParameterError(f"need k > p, got k={self.y.size}, p={self.x.shape[1]}")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.x))):
            raise ParameterError("regression data must be finite")


def _parse_cell(raw: str, row: int, column: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise IngestionError(f"row {row}, column '{column}': cannot parse {raw!r} as a number") from None


def load_csv(path, y_column: str, x_columns=None, prior_lambda=None):
    """Load a UTF-8 CSV with a header row into a typed dataset.

    Without ``x_columns`` the y column alone becomes a LocationData;
    with them the result is a RegressionData, and ``prior_lambda`` is
    required (there is no defensible default for the prior precision).
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IngestionError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestionError(f"{path}: missing header row")
        wanted = [y_column] + list(x_columns or [])
        for col in wanted:
            if col not in reader.fieldnames:
                raise IngestionError(f"{path}: missing column '{col}' (header: {reader.fieldnames})")
        ys, xs = [], []
        for i, rec in enumerate(reader, start=2):  # header is line 1
            if rec[y_column] is None:
                raise IngestionError(f"row {i}: missing value in column '{y_column}'")
            ys.append(_parse_cell(rec[y_column], i, y_column))
            if x_columns:
                xs.append([_parse_cell(rec[c], i, c) for c in x_columns])
    if not ys:
        raise IngestionError(f"{path}: no data rows")
    if not x_columns:
        if prior_lambda is not None:
            raise ParameterError("location data (no x_columns) takes no prior precision (prior_lambda)")
        return LocationData(np.array(ys))
    if prior_lambda is None:
        raise ParameterError("regression data requires the prior precision (prior_lambda)")
    return RegressionData(np.array(ys), np.array(xs), prior_lambda)


def location_stats(d: LocationData):
    """(J, y_bar, S) with S the two-pass centered sum of squares."""
    j = int(d.y.size)
    y_bar = float(d.y.mean())
    s = float(((d.y - y_bar) ** 2).sum())
    return j, y_bar, s


def regression_stats(d: RegressionData):
    """(A, beta_tilde, C) for A = X^T X + lambda I.

    C is clipped to 0 when it lands in (-1e-8, 0) from rounding; larger
    negative values indicate an inconsistent input and raise.
    """
    x, y = d.x, d.y
    a = x.T @ x + d.prior_lambda * np.eye(x.shape[1])
    try:
        a_inv = bounds._inverse("A", a)
    except ParameterError as exc:
        raise ParameterError(f"design matrix is rank deficient: {exc}") from None
    beta_tilde = a_inv @ (x.T @ y)
    c = float(y @ y - y @ (x @ beta_tilde))
    if c < -1e-8 * max(1.0, float(y @ y)):
        raise ParameterError(f"residual statistic came out negative ({c:.3e})")
    return a, beta_tilde, max(c, 0.0)
