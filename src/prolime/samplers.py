"""Neighborhood generation around an explained sample.

Two interchangeable strategies behind one contract: independent per-feature
perturbation around the sample (or the training mean), and direct draws from
a declared multivariate normal feature distribution. The second keeps the
neighborhood inside the feature distribution; locality is then provided by
the proximity kernel rather than by the sampler.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .core import FeatureVector, NoiseMode, _by_column

__all__ = [
    "CenterMode",
    "Neighborhood",
    "NotPositiveDefiniteError",
    "ProcessAwareSpec",
    "RngStream",
    "StandardSpec",
    "cholesky",
    "draw_neighborhood",
    "inverse_normal_cdf",
    "latin_hypercube_uniforms",
]

class NotPositiveDefiniteError(ValueError):
    """A symmetric matrix failed its Cholesky factorization."""

    def __init__(self, order: int):
        super().__init__(
            f"matrix is not positive definite: leading minor of order {order} is not positive"
        )
        self.minor_order = order


@dataclass(frozen=True)
class RngStream:
    """Addressable source of reproducible random numbers.

    The same (seed, stream_id) pair yields the same draw sequence on every
    run and platform; distinct stream ids give independent streams under the
    same seed. Backed by the counter-based Philox generator, so streams can
    be created cheaply in any order.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = operator.index(getattr(self, name))
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")
            object.__setattr__(self, name, value)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


class CenterMode(Enum):
    """Where a standard perturbation neighborhood is centered."""

    SAMPLE = "sample"
    MEAN = "mean"


@dataclass(frozen=True)
class StandardSpec:
    """Configuration for independent per-feature perturbation.

    ``per_feature_scale`` is the noise standard deviation per feature,
    normally the training data's per-feature standard deviation.
    ``training_mean`` is the center under mean-centered mode, which requires it.
    """

    center_mode: CenterMode = CenterMode.SAMPLE
    noise_mode: NoiseMode = NoiseMode.GAUSSIAN
    per_feature_scale: tuple[float, ...] = (1.0, 1.0)
    training_mean: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        scales = tuple(float(s) for s in self.per_feature_scale)
        object.__setattr__(self, "center_mode", CenterMode(self.center_mode))
        object.__setattr__(self, "noise_mode", NoiseMode(self.noise_mode))
        object.__setattr__(self, "per_feature_scale", scales)
        if not scales:
            raise ValueError("per_feature_scale must not be empty")
        if any(not 0 < s < math.inf for s in scales):
            raise ValueError("per-feature scales must be positive and finite")
        if self.training_mean is not None:
            mean = tuple(float(m) for m in self.training_mean)
            object.__setattr__(self, "training_mean", mean)
            if len(mean) != len(scales):
                raise ValueError("training_mean and per_feature_scale must have equal length")
            if not all(map(math.isfinite, mean)):
                raise ValueError("training_mean must be finite")
        elif self.center_mode is CenterMode.MEAN:
            raise ValueError("mean-centered sampling requires a training mean")


@dataclass(frozen=True)
class ProcessAwareSpec:
    """Draws the whole neighborhood from a declared N(mean, covariance)."""

    mean: tuple[float, ...]
    covariance: tuple[tuple[float, ...], ...]
    # Each feature's standard deviation, the root of the covariance's diagonal.
    per_feature_scale: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # The covariance's read-only Cholesky factor, computed once per spec.
    _lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mean = tuple(float(m) for m in self.mean)
        cov = tuple(tuple(float(v) for v in row) for row in self.covariance)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        n = len(mean)
        if n == 0:
            raise ValueError("mean must not be empty")
        if not all(map(math.isfinite, mean)):
            raise ValueError("mean must be finite")
        if len(cov) != n or any(len(row) != n for row in cov):
            raise ValueError("covariance must be square and match the mean's length")
        lower = cholesky(cov)
        lower.flags.writeable = False
        object.__setattr__(self, "_lower", lower)
        object.__setattr__(self, "per_feature_scale", tuple(math.sqrt(cov[j][j]) for j in range(n)))


SamplerSpec = Union[StandardSpec, ProcessAwareSpec]


@dataclass(frozen=True, eq=False)
class Neighborhood:
    """Perturbed points around an explained origin sample, as a read-only,
    finite ``(n, d)`` float array with ``n >= 1`` and ``d == origin.dim``."""

    points: np.ndarray
    origin: FeatureVector

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=float, order="C")
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(f"points must be a nonempty (n, d) array, got shape {points.shape}")
        if points.shape[1] != self.origin.dim:
            raise ValueError("every neighborhood point must match the origin's dimension")
        if not np.isfinite(points).all():
            raise ValueError("neighborhood points must be finite")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Neighborhood):
            return NotImplemented
        return self.origin == other.origin and np.array_equal(self.points, other.points)


def cholesky(matrix: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix.

    One pass, column by column; the first pivot that is not positive names
    the failing minor. As in LAPACK's unblocked factor, a column is scaled
    by the reciprocal of its pivot's root.

    Parameters
    ----------
    matrix : array_like
        Square matrix, symmetric within 1e-12.

    Returns
    -------
    numpy.ndarray
        Lower-triangular ``L`` with ``L @ L.T`` equal to the input and a
        strictly positive diagonal.

    Raises
    ------
    NotPositiveDefiniteError
        Naming the order of the first non-positive leading minor.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if a.size and float(np.max(np.abs(a - a.T))) > 1e-12:
        raise ValueError("matrix must be symmetric within 1e-12")
    lower = np.zeros_like(a)
    # Only a matrix that is not positive definite overflows; a later pivot then fails.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(a.shape[0]):
            row = lower[j, :j]
            pivot = a[j, j] - row @ row
            if not pivot > 0:
                raise NotPositiveDefiniteError(j + 1)
            lower[j, j] = math.sqrt(pivot)
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ row) * (1.0 / lower[j, j])
    return lower


@functools.cache
def _standard_normal():
    """The standard normal distribution, built on first use: importing
    ``statistics`` costs a few milliseconds that processes drawing no Latin
    hypercube neighborhood should not pay."""
    from statistics import NormalDist

    return NormalDist()


def inverse_normal_cdf(u: float) -> float:
    """Quantile function of the standard normal distribution.

    Wichura's algorithm AS241 (Appl. Statist. 1988), as the standard library
    implements it; accurate to a few ulps over the whole open interval.

    Parameters
    ----------
    u : float
        Probability strictly between 0 and 1.
    """
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie strictly between 0 and 1")
    return _standard_normal().inv_cdf(u)


def latin_hypercube_uniforms(n: int, n_features: int, gen: np.random.Generator) -> np.ndarray:
    """Stratified uniforms on [0, 1): one point per stratum per feature.

    Stratum k of a feature contributes ``(k + U) / n`` with U uniform on
    [0, 1); each feature's column is then shuffled independently so strata
    are not paired across features.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n_features < 1:
        raise ValueError("n_features must be at least 1")
    u = (np.arange(n)[:, None] + gen.random((n, n_features))) / n
    for j in range(n_features):
        u[:, j] = u[gen.permutation(n), j]
    return u


def draw_neighborhood(
    sample: FeatureVector,
    sampler: SamplerSpec,
    n: int,
    rng: RngStream,
) -> Neighborhood:
    """``n`` neighborhood points for ``sample``, bit for bit the same for the same inputs.

    A :class:`StandardSpec` adds per-feature scaled noise to the sample, or to
    the training mean under mean-centered mode: standard normals, or under
    Latin hypercube mode stratified uniforms mapped through
    :func:`inverse_normal_cdf`, so both noise modes share their marginals. A
    :class:`ProcessAwareSpec` draws rows of N(mean, covariance) wherever the
    sample lies; the sample is only recorded, to anchor proximity weighting.
    """
    if not isinstance(sampler, (StandardSpec, ProcessAwareSpec)):
        raise TypeError(f"unknown sampler spec: {type(sampler).__name__}")
    d = sample.dim
    if len(sampler.per_feature_scale) != d:
        raise ValueError("per_feature_scale must match the origin's dimension")
    gen = rng.generator()
    if isinstance(sampler, ProcessAwareSpec):
        return Neighborhood(_gaussian_rows(sampler, n, gen), sample)
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if sampler.noise_mode is NoiseMode.GAUSSIAN:
        normals = gen.standard_normal((n, d))
    else:
        # Built per call from the module global, so a wrapper swapped in for
        # inverse_normal_cdf still sees every scalar call.
        icdf = np.frompyfunc(inverse_normal_cdf, 1, 1)
        normals = icdf(latin_hypercube_uniforms(n, d, gen)).astype(float)
    center = sampler.training_mean if sampler.center_mode is CenterMode.MEAN else sample.values
    noise = _by_column(np.multiply, normals, sampler.per_feature_scale)
    return Neighborhood(_by_column(np.add, noise, center), sample)


def _gaussian_rows(spec: ProcessAwareSpec, n: int, gen: np.random.Generator) -> np.ndarray:
    """``n >= 1`` rows of N(mean, covariance) as an ``(n, d)`` array: standard
    normals from ``gen`` through the spec's Cholesky factor, the mean added
    column by column. The one place the benchmark's Gaussian is drawn."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    return _by_column(np.add, gen.standard_normal((n, len(spec.mean))) @ spec._lower.T, spec.mean)
