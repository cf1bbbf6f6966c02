"""Synthetic loan-approval benchmark.

A correlated bivariate Gaussian feature distribution over (credit, risk), a
diamond-shaped approval rule, an oracle classifier that is exact wherever the
feature density is non-negligible and coin-flips elsewhere, and the local
linear boundary associated with each Cartesian quadrant.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Sequence

import numpy as np

from .core import BlackBoxModel, FeatureVector, _by_column
from .samplers import RngStream, cholesky

__all__ = [
    "BenchmarkDistribution",
    "Dataset",
    "DatasetFormatError",
    "FEATURE_NAMES",
    "OracleModel",
    "QUADRANT_BOUNDARIES",
    "Quadrant",
    "approval_label",
    "gaussian_pdf",
    "generate_dataset",
    "ground_truth_for",
    "oracle_model",
    "read_dataset_csv",
    "write_dataset_csv",
]

FEATURE_NAMES = ("credit", "risk")


@dataclass(frozen=True)
class BenchmarkDistribution:
    """The benchmark's feature distribution and the oracle's density cutoff.

    Zero-mean, unit-variance features with a single correlation ``rho``, so
    the covariance is the correlation matrix [[1, rho], [rho, 1]]. The
    cutoff lies below the peak density 1/(2*pi*sqrt(1 - rho**2)) for every
    valid ``rho``.
    """

    rho: float = -0.9
    mean: ClassVar[tuple[float, float]] = (0.0, 0.0)
    density_threshold: ClassVar[float] = 0.01
    # The covariance's read-only Cholesky factor, computed once per distribution.
    _lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", float(self.rho))
        if not math.isfinite(self.rho):
            raise ValueError("correlation must be finite")
        if not abs(self.rho) < 1.0:
            raise ValueError("correlation magnitude must be below 1")
        lower = cholesky(self.covariance)
        lower.flags.writeable = False
        object.__setattr__(self, "_lower", lower)

    @property
    def covariance(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((1.0, self.rho), (self.rho, 1.0))


class Quadrant(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


@dataclass(frozen=True)
class GroundTruthBoundary:
    """Linear boundary 0 = intercept + credit_coef*credit + risk_coef*risk."""

    quadrant: Quadrant
    intercept: float
    credit_coef: float
    risk_coef: float


QUADRANT_BOUNDARIES = {
    Quadrant.I: GroundTruthBoundary(Quadrant.I, 1.0, -1.0, -1.0),
    Quadrant.II: GroundTruthBoundary(Quadrant.II, 1.0, 1.0, -1.0),
    Quadrant.III: GroundTruthBoundary(Quadrant.III, 1.0, 1.0, 1.0),
    Quadrant.IV: GroundTruthBoundary(Quadrant.IV, 1.0, -1.0, 1.0),
}


def approval_label(credit: float, risk: float) -> int:
    """1 inside the diamond |credit+risk| < 1 and |credit-risk| < 1, else 0."""
    if abs(credit + risk) < 1.0 and abs(credit - risk) < 1.0:
        return 1
    return 0


def _diamond_mask(points: np.ndarray) -> np.ndarray:
    c = points[:, 0]
    r = points[:, 1]
    # Far out, c + r may overflow to inf, which correctly fails the test.
    with np.errstate(over="ignore"):
        return (np.abs(c + r) < 1.0) & (np.abs(c - r) < 1.0)


def _pdf_values(points: np.ndarray, dist: BenchmarkDistribution) -> np.ndarray:
    rho = dist.rho
    det = 1.0 - rho * rho
    c = points[:, 0] - dist.mean[0]
    r = points[:, 1] - dist.mean[1]
    # Far out, the quadratic form overflows to inf (or inf - inf = nan); both
    # fail every density-threshold comparison, as a density of ~0 should.
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (c * c - 2.0 * rho * c * r + r * r) / det
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def gaussian_pdf(x: FeatureVector, dist: BenchmarkDistribution) -> float:
    """Exact density of the benchmark distribution at a point."""
    if x.dim != 2:
        raise ValueError("the benchmark density is bivariate")
    return float(_pdf_values(np.array([x.values]), dist)[0])


def _first_invalid_row(features: np.ndarray, labels: np.ndarray) -> tuple[int, str] | None:
    """Index of the first row with a non-finite feature or a label other than
    0/1, with the reason; the feature check comes first within a row."""
    bad_features = ~np.isfinite(features).all(axis=1)
    bad_labels = ~((labels == 0) | (labels == 1))
    bad = bad_features | bad_labels
    if not bad.any():
        return None
    index = int(np.argmax(bad))
    if bad_features[index]:
        row = features[index]
        return index, f"feature values must be finite, got {row[~np.isfinite(row)][0].item()!r}"
    return index, f"label must be 0 or 1, got {labels[index:index + 1].tolist()[0]!r}"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled benchmark rows: a read-only, finite ``(n, 2)`` float ``features``
    array of (credit, risk) and a read-only ``(n,)`` int array of 0/1
    ``labels``. ``n`` may be 0. Both arrays are copied and validated once."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.array(self.features, dtype=float, order="C")
        labels = np.array(self.labels)
        if features.ndim != 2 or features.shape[1] != 2:
            raise ValueError(f"features must be an (n, 2) array, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(f"labels must have shape ({features.shape[0]},), got {labels.shape}")
        invalid = _first_invalid_row(features, labels)
        if invalid is not None:
            raise ValueError(f"row {invalid[0]}: {invalid[1]}")
        labels = labels.astype(np.int64)
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.features, other.features) and np.array_equal(self.labels, other.labels)


def generate_dataset(
    n: int,
    rng: RngStream,
    dist: BenchmarkDistribution = BenchmarkDistribution(),
) -> Dataset:
    """Draw n labeled rows from the benchmark distribution."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    gen = rng.generator()
    rows = _by_column(np.add, gen.standard_normal((n, 2)) @ dist._lower.T, dist.mean)
    return Dataset(rows, _diamond_mask(rows))


class OracleModel(BlackBoxModel):
    """Exact on-distribution, a per-point deterministic coin off-distribution.

    Wherever the feature density clears the threshold the model outputs the
    one-hot probabilities of the true diamond label. Elsewhere it outputs the
    one-hot of a fair coin that is a fixed function of (model seed, exact
    point coordinates), realized by hashing the seed with the coordinates'
    bit patterns. The model is therefore a deterministic function that still
    looks random across distinct far-out points.
    """

    n_classes = 2

    def __init__(self, dist: BenchmarkDistribution, model_seed: int):
        self._dist = dist
        self._seed_bytes = struct.pack("<Q", int(model_seed) % 2**64)

    def _coins(self, rows: np.ndarray) -> np.ndarray:
        """Per row: low bit of the first byte of blake2b(seed bytes + the row as two "<f8")."""
        data = np.asarray(rows, dtype="<f8").tobytes()
        seeded = hashlib.blake2b(self._seed_bytes, digest_size=8)
        first_bytes = []
        for start in range(0, len(data), 16):
            h = seeded.copy()
            h.update(data[start:start + 16])
            first_bytes.append(h.digest()[0])
        return np.frombuffer(bytes(first_bytes), dtype=np.uint8) & 1

    def predict_proba(self, X: np.ndarray, feature_names: Sequence[str] | None = None) -> np.ndarray:
        rows = np.asarray(X, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) array of (credit, risk) rows, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            first = int(np.argmin(np.isfinite(rows).all(axis=1)))
            raise ValueError(f"row {first}: feature values must be finite")
        out = np.empty((rows.shape[0], 2))
        labels = out[:, 1]
        labels[:] = _diamond_mask(rows)
        off = ~(_pdf_values(rows, self._dist) >= self._dist.density_threshold)
        if off.any():
            labels[off] = self._coins(rows[off])
        np.subtract(1.0, labels, out=out[:, 0])
        return out


def oracle_model(dist: BenchmarkDistribution, model_seed: int) -> BlackBoxModel:
    """The benchmark's black box; see :class:`OracleModel`."""
    return OracleModel(dist, model_seed)


def ground_truth_for(x: FeatureVector) -> GroundTruthBoundary:
    """Boundary of the Cartesian quadrant containing x; zeros count as positive."""
    if x.dim != 2:
        raise ValueError("ground truth is defined for bivariate points")
    credit, risk = x.values
    if credit >= 0.0:
        quadrant = Quadrant.I if risk >= 0.0 else Quadrant.IV
    else:
        quadrant = Quadrant.II if risk >= 0.0 else Quadrant.III
    return QUADRANT_BOUNDARIES[quadrant]


class DatasetFormatError(ValueError):
    """A dataset CSV line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset as CSV with header credit,risk,label, full float precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("credit,risk,label\n")
        for (credit, risk), label in zip(dataset.features.tolist(), dataset.labels.tolist()):
            fh.write(f"{credit!r},{risk!r},{label}\n")


def _undecodable(row: list[str]) -> ValueError | None:
    """The first byte that was not valid UTF-8, read as a lone surrogate."""
    for char in "".join(row):
        if "\udc80" <= char <= "\udcff":
            return ValueError(f"byte {ord(char) - 0xdc00:#04x} is not valid UTF-8")
    return None


def read_dataset_csv(path: str) -> Dataset:
    """Read a dataset written by :func:`write_dataset_csv`.

    An empty file reads as an empty dataset. Raises
    :class:`DatasetFormatError` naming the first line that fails.
    """
    values: list[float] = []
    labels: list[int] = []
    failure = None
    # Undecodable bytes read as lone surrogates, which no number parses, so a
    # bad byte fails on its own line and lines after a failure are never split.
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        line_number = 0  # the last line read whole
        try:
            header = next(reader, None)
            line_number = 1
            if header is not None and header != ["credit", "risk", "label"]:
                raise DatasetFormatError(1, "expected header credit,risk,label")
            for line_number, row in enumerate(reader, start=2):
                try:
                    if len(row) != 3:
                        raise ValueError(f"expected 3 columns, got {len(row)}")
                    credit, risk, label = float(row[0]), float(row[1]), int(row[2])
                except ValueError as exc:
                    failure = line_number, _undecodable(row) or exc
                    break
                values += (credit, risk)
                labels.append(label)
        except csv.Error as exc:
            failure = line_number + 1, exc
    features = np.array(values, dtype=float).reshape(-1, 2)
    label_array = np.array(labels)
    # Rows before a parse failure may hold an earlier non-finite value or bad label.
    invalid = _first_invalid_row(features, label_array)
    if invalid is not None:
        raise DatasetFormatError(invalid[0] + 2, invalid[1])
    if failure is not None:
        line_number, exc = failure
        raise DatasetFormatError(line_number, str(exc)) from exc
    return Dataset(features, label_array)
