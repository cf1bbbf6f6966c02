"""Synthetic loan-approval benchmark.

A correlated bivariate Gaussian feature distribution over (credit, risk), a
diamond-shaped approval rule, an oracle classifier that is exact wherever the
feature density is non-negligible and coin-flips elsewhere, and the local
linear boundary of the diamond edge in each point's Cartesian quadrant.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import stat
import struct
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .core import BlackBoxModel
from .samplers import ProcessAwareSpec, RngStream, _gaussian_rows

__all__ = [
    "BenchmarkDistribution",
    "Dataset",
    "DatasetFormatError",
    "FEATURE_NAMES",
    "OracleModel",
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
    # The distribution's process-aware sampler, built once with its Cholesky factor.
    spec: ProcessAwareSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", float(self.rho))
        if not math.isfinite(self.rho):
            raise ValueError("correlation must be finite")
        if not abs(self.rho) < 1.0:
            raise ValueError("correlation magnitude must be below 1")
        object.__setattr__(self, "spec", ProcessAwareSpec(self.mean, self.covariance))

    @property
    def covariance(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((1.0, self.rho), (self.rho, 1.0))


def _rows(points: np.ndarray) -> np.ndarray:
    rows = np.asarray(points, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array of (credit, risk) rows, got shape {rows.shape}")
    return rows


def _finite_rows(points: np.ndarray) -> np.ndarray:
    """:func:`_rows`, naming the first row that holds a non-finite value."""
    rows = _rows(points)
    # A reduction along the rows' short axis is slow; only a failure pays for it.
    if not np.isfinite(rows).all():
        first = int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise ValueError(f"row {first}: feature values must be finite")
    return rows


def approval_label(points: np.ndarray) -> np.ndarray:
    """Per (credit, risk) row of an ``(n, 2)`` array: inside the diamond
    |credit+risk| < 1 and |credit-risk| < 1, as an ``(n,)`` bool mask."""
    c, r = _rows(points).T
    # Far out, c + r may overflow to inf, which correctly fails the test.
    with np.errstate(over="ignore"):
        return (np.abs(c + r) < 1.0) & (np.abs(c - r) < 1.0)


def gaussian_pdf(points: np.ndarray, dist: BenchmarkDistribution) -> np.ndarray:
    """Exact density of the benchmark distribution at each (credit, risk) row
    of an ``(n, 2)`` array, as an ``(n,)`` float array."""
    credit, risk = _rows(points).T
    rho = dist.rho
    det = 1.0 - rho * rho
    c = credit - dist.mean[0]
    r = risk - dist.mean[1]
    # Far out, the quadratic form overflows to inf (or inf - inf = nan); both
    # fail every density-threshold comparison, as a density of ~0 should.
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (c * c - 2.0 * rho * c * r + r * r) / det
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


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
    rows = _gaussian_rows(dist.spec, n, rng.generator())
    return Dataset(rows, approval_label(rows))


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
        # A model seed obeys the rule of a stream seed.
        self._seed_bytes = struct.pack("<Q", RngStream(model_seed).seed)

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
        rows = _finite_rows(X)
        out = np.empty((rows.shape[0], 2))
        labels = out[:, 1]
        labels[:] = approval_label(rows)
        off = ~(gaussian_pdf(rows, self._dist) >= self._dist.density_threshold)
        if off.any():
            labels[off] = self._coins(rows[off])
        np.subtract(1.0, labels, out=out[:, 0])
        return out


def oracle_model(dist: BenchmarkDistribution, model_seed: int) -> BlackBoxModel:
    """The benchmark's black box; see :class:`OracleModel`."""
    return OracleModel(dist, model_seed)


def ground_truth_for(points: np.ndarray) -> np.ndarray:
    """Per finite (credit, risk) row of an ``(n, 2)`` array, the coefficients
    ``(c, r)`` of the local boundary ``1 + c*credit + r*risk = 0``: the diamond
    edge in the row's Cartesian quadrant, where zeros (-0.0 too) count as
    positive. Each coefficient is -1 where its feature is >= 0, else +1."""
    return np.where(_finite_rows(points) >= 0.0, -1.0, 1.0)


class DatasetFormatError(ValueError):
    """A dataset CSV line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number


def _overwrite(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, created if missing, in place: a
    regular file is overwritten from its start and then cut to the bytes
    written, also when a write fails, and any other target, such as
    ``/dev/null``, is written through.

    Not ``open(path, "w")``: ext4 (its ``auto_da_alloc`` heuristic) flushes a
    non-empty file truncated to zero and rewritten when it is closed. Neither
    way is atomic. A failed write leaves a prefix of the new text; after a
    crash, a file overwritten in place may hold old and new blocks mixed,
    where that flush made the new text or an empty file more likely.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset as CSV with header credit,risk,label, full float precision."""
    rows = zip(dataset.features.tolist(), dataset.labels.tolist())
    _overwrite(path, "credit,risk,label\n" + "".join(f"{c!r},{r!r},{label}\n" for (c, r), label in rows))


def _undecodable(row: list[str]) -> ValueError | None:
    """The first byte that was not valid UTF-8, read as a lone surrogate."""
    for char in "".join(row):
        if "\udc80" <= char <= "\udcff":
            return ValueError(f"byte {ord(char) - 0xdc00:#04x} is not valid UTF-8")
    return None


_HEADER = b"credit,risk,label\n"
# Every character of the rows write_dataset_csv writes: float reprs, 0/1 labels, commas, \n.
_ROW_BYTES = b"0123456789+-.e,\n"
_ROW_DTYPE = np.dtype([("credit", "f8"), ("risk", "f8"), ("label", "i8")])


def _read_writer_form(data: bytes) -> Dataset | None:
    """The valid dataset in ``data``, parsed in one pass of numpy's C reader,
    if ``data`` is in :func:`write_dataset_csv`'s own form; else None.

    Over the form's characters numpy parses each field to what ``float()`` or
    ``int()`` gives, or fails where they fail. Other characters, such as
    spaces, control characters, quotes, carriage returns, underscores and
    non-ASCII digits, are read differently by one side or the other.
    """
    if not data.startswith(_HEADER) or len(data) == len(_HEADER) or not data.endswith(b"\n"):
        return None
    # numpy skips blank lines, which the per-row reader rejects, and warns
    # when every line is blank.
    if b"\n\n" in data or data[len(_HEADER):].translate(None, _ROW_BYTES):
        return None
    chars = np.frombuffer(data, dtype=np.uint8, offset=len(_HEADER))
    ends = np.flatnonzero(chars == ord("\n"))
    # Each label is written as one digit after a comma; numpy before 2.0
    # reads an int field such as "1.0" through a float, where int() fails.
    # No line is blank, so ends - 2 is at least -1, the final newline.
    if not (np.isin(chars[ends - 1], (ord("0"), ord("1"))) & (chars[ends - 2] == ord(","))).all():
        return None
    # numpy parses a field that the csv module finds longer than its limit.
    if (np.diff(ends, prepend=-1) - 1).max() > csv.field_size_limit():
        return None
    rows_in = io.BytesIO(data)
    rows_in.seek(len(_HEADER))
    try:
        rows = np.loadtxt(rows_in, dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1, encoding="ascii")
        # Dataset rejects the rows the per-row reader names.
        return Dataset(np.column_stack((rows["credit"], rows["risk"])), rows["label"])
    except ValueError:
        return None


def read_dataset_csv(path: str) -> Dataset:
    """Read a dataset written by :func:`write_dataset_csv`.

    An empty file reads as an empty dataset. Raises
    :class:`DatasetFormatError` naming the first line that fails.
    """
    # Read once: the path may be a pipe, which a second open finds drained.
    with open(path, "rb") as fh:
        data = fh.read()
    dataset = _read_writer_form(data)
    return dataset if dataset is not None else _read_rows(data)


def _read_rows(data: bytes) -> Dataset:
    """:func:`read_dataset_csv` row by row: every file the writer's form
    refuses, each error message and line number."""
    values: list[float] = []
    labels: list[int] = []
    failure = None
    # Undecodable bytes read as lone surrogates, which no number parses, so a
    # bad byte fails on its own line and lines after a failure are never split.
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="") as fh:
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
