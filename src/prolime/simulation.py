"""Synthetic loan-approval benchmark.

A correlated bivariate Gaussian feature distribution over (credit, risk), a
diamond-shaped approval rule, an oracle classifier that is exact wherever the
feature density is non-negligible and coin-flips elsewhere, the local linear
boundary of the diamond edge in each point's Cartesian quadrant, and labeled
draws from the distribution, whose CSV file :mod:`prolime.datasets` owns.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .core import BlackBoxModel
from .datasets import Dataset
from .samplers import ProcessAwareSpec, RngStream, _gaussian_rows

__all__ = [
    "BenchmarkDistribution",
    "FEATURE_NAMES",
    "OracleModel",
    "approval_label",
    "gaussian_pdf",
    "generate_dataset",
    "ground_truth_for",
    "oracle_model",
]

FEATURE_NAMES = ("credit", "risk")


@dataclass(frozen=True)
class BenchmarkDistribution:
    """The benchmark's feature distribution and the oracle's density cutoff.

    Zero-mean, unit-variance features with a single correlation ``rho``, so
    the covariance is the correlation matrix [[1, rho], [rho, 1]]. The
    cutoff lies below the peak density 1/(2*pi*sqrt(1 - rho**2)) for every
    valid ``rho``; :meth:`on_distribution` is the one test against it.
    """

    rho: float = -0.9
    mean: ClassVar[tuple[float, float]] = (0.0, 0.0)
    density_threshold: ClassVar[float] = 0.01
    # The distribution's process-aware sampler with its Cholesky factor,
    # built once per rho and shared by every distribution with that rho.
    spec: ProcessAwareSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", float(self.rho))
        if not math.isfinite(self.rho):
            raise ValueError("correlation must be finite")
        if not abs(self.rho) < 1.0:
            raise ValueError("correlation magnitude must be below 1")
        object.__setattr__(self, "spec", _process_aware_spec(self.rho.hex(), self.covariance))

    @property
    def covariance(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((1.0, self.rho), (self.rho, 1.0))

    def on_distribution(self, points: np.ndarray) -> np.ndarray:
        """Per (credit, risk) row of an ``(n, 2)`` array: whether its density
        reaches the cutoff, as an ``(n,)`` bool mask; a NaN density does not."""
        return gaussian_pdf(points, self) >= self.density_threshold


@functools.lru_cache(maxsize=16)
def _process_aware_spec(rho_hex: str, covariance: tuple) -> ProcessAwareSpec:
    """:attr:`BenchmarkDistribution.spec` for the distribution with this
    covariance. ``rho_hex``, rho's exact bits, only keys the cache: equal
    covariances may differ in the sign of a zero, which the factor keeps."""
    return ProcessAwareSpec(BenchmarkDistribution.mean, covariance)


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


def generate_dataset(
    n: int,
    rng: RngStream,
    dist: BenchmarkDistribution = BenchmarkDistribution(),
) -> Dataset:
    """Draw n labeled rows from the benchmark distribution."""
    rows = _gaussian_rows(dist.spec, n, rng.generator())
    return Dataset(rows, approval_label(rows))


# Rows whose coin keys are listed at once by ``OracleModel._coins``.
_COIN_BLOCK_ROWS = 512


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
        self._seed_bytes = RngStream(model_seed).seed.to_bytes(8, "little")

    def _coins(self, rows: np.ndarray) -> np.ndarray:
        """Per row: low bit of the first byte of blake2b(seed bytes + the row as two "<f8")."""
        # One 16-byte key per row. A void view keeps trailing NUL bytes, which
        # a bytes ("S16") view would strip; blocks bound the keys held at once.
        keys = np.ascontiguousarray(rows, dtype="<f8").view("V16").ravel()
        seeded = hashlib.blake2b(self._seed_bytes, digest_size=8)
        first_bytes = []
        for start in range(0, len(keys), _COIN_BLOCK_ROWS):
            for key in keys[start:start + _COIN_BLOCK_ROWS].tolist():
                h = seeded.copy()
                h.update(key)
                first_bytes.append(h.digest()[0])
        return np.frombuffer(bytes(first_bytes), dtype=np.uint8) & 1

    def predict_proba(self, X: np.ndarray, feature_names: Sequence[str] | None = None) -> np.ndarray:
        rows = _finite_rows(X)
        out = np.empty((rows.shape[0], 2))
        labels = out[:, 1]
        labels[:] = approval_label(rows)
        off = ~self._dist.on_distribution(rows)
        if off.any():
            labels[off] = self._coins(rows[off])
        np.subtract(1.0, labels, out=out[:, 0])
        return out


def oracle_model(dist: BenchmarkDistribution, model_seed: int) -> BlackBoxModel:
    """``OracleModel(dist, model_seed)``. Unused by the package; kept only
    because ``perfbench/workloads.py`` imports it."""
    return OracleModel(dist, model_seed)


def ground_truth_for(points: np.ndarray) -> np.ndarray:
    """Per finite (credit, risk) row of an ``(n, 2)`` array, the coefficients
    ``(c, r)`` of the local boundary ``1 + c*credit + r*risk = 0``: the diamond
    edge in the row's Cartesian quadrant, where zeros (-0.0 too) count as
    positive. Each coefficient is -1 where its feature is >= 0, else +1."""
    return np.where(_finite_rows(points) >= 0.0, -1.0, 1.0)
