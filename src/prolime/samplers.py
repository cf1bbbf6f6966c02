"""Neighborhood generation around an explained sample.

Two interchangeable strategies behind one contract: independent per-feature
perturbation around the sample (or the training mean), and direct draws from
a declared multivariate normal feature distribution. The second keeps the
neighborhood inside the feature distribution; locality is then provided by
the proximity kernel rather than by the sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .core import CenterMode, FeatureVector, NoiseMode, _by_column

__all__ = [
    "Neighborhood",
    "NotPositiveDefiniteError",
    "ProcessAwareSpec",
    "RngStream",
    "StandardSpec",
    "cholesky",
    "inverse_normal_cdf",
    "latin_hypercube_uniforms",
    "sample_process_aware",
    "sample_standard",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
            value = int(getattr(self, name))
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")
            object.__setattr__(self, name, value)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class StandardSpec:
    """Configuration for independent per-feature perturbation.

    ``per_feature_scale`` is the noise standard deviation per feature,
    normally the training data's per-feature standard deviation.
    ``training_mean`` is only consulted under mean-centered mode.
    """

    center_mode: CenterMode = CenterMode.SAMPLE
    noise_mode: NoiseMode = NoiseMode.GAUSSIAN
    per_feature_scale: tuple[float, ...] = (1.0, 1.0)
    training_mean: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        scales = tuple(float(s) for s in self.per_feature_scale)
        object.__setattr__(self, "per_feature_scale", scales)
        if not scales:
            raise ValueError("per_feature_scale must not be empty")
        if any(not s > 0 for s in scales):
            raise ValueError("per-feature scales must be positive")
        if self.training_mean is not None:
            mean = tuple(float(m) for m in self.training_mean)
            object.__setattr__(self, "training_mean", mean)
            if len(mean) != len(scales):
                raise ValueError("training_mean and per_feature_scale must have equal length")


@dataclass(frozen=True)
class ProcessAwareSpec:
    """Draws the whole neighborhood from a declared N(mean, covariance)."""

    mean: tuple[float, ...]
    covariance: tuple[tuple[float, ...], ...]
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
        if len(cov) != n or any(len(row) != n for row in cov):
            raise ValueError("covariance must be square and match the mean's length")
        lower = cholesky(cov)
        lower.flags.writeable = False
        object.__setattr__(self, "_lower", lower)


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
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    # numpy does not say which pivot failed; the first leading minor that
    # does not factor names it.
    for order in range(1, a.shape[0]):
        try:
            np.linalg.cholesky(a[:order, :order])
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(order) from None
    raise NotPositiveDefiniteError(a.shape[0])


# Rational approximation after P. Acklam; relative error below 1.15e-9 over
# (0, 1) even before the refinement step.
_ICDF_A = (
    -3.969683028665376e+01,
    2.209460984245205e+02,
    -2.759285104469687e+02,
    1.383577518672690e+02,
    -3.066479806614716e+01,
    2.506628277459239e+00,
)
_ICDF_B = (
    -5.447609879822406e+01,
    1.615858368580409e+02,
    -1.556989798598866e+02,
    6.680131188771972e+01,
    -1.328068155288572e+01,
)
_ICDF_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e+00,
    -2.549732539343734e+00,
    4.374664141464968e+00,
    2.938163982698783e+00,
)
_ICDF_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e+00,
    3.754408661907416e+00,
)
_ICDF_P_LOW = 0.02425


def inverse_normal_cdf(u: float) -> float:
    """Quantile function of the standard normal distribution.

    Acklam's rational approximation followed by one Halley refinement against
    the erfc-based normal CDF; the result satisfies ``|Phi(z) - u| <= 1e-9``.

    Parameters
    ----------
    u : float
        Probability strictly between 0 and 1.
    """
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie strictly between 0 and 1")
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    if u < _ICDF_P_LOW:
        q = math.sqrt(-2.0 * math.log(u))
        z = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    elif u > 1.0 - _ICDF_P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - u))
        z = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    else:
        q = u - 0.5
        r = q * q
        z = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    # Skip the refinement where exp(z*z/2) would overflow; out there the
    # absolute CDF error is far below the contract already.
    if 0.5 * z * z < 700.0:
        err = 0.5 * math.erfc(-z / _SQRT2) - u
        step = err * _SQRT_2PI * math.exp(0.5 * z * z)
        z = z - step / (1.0 + 0.5 * z * step)
    return z


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


def sample_standard(
    origin: FeatureVector,
    spec: StandardSpec,
    n: int,
    rng: RngStream,
) -> Neighborhood:
    """Perturb independently per feature around the configured center.

    Parameters
    ----------
    origin : FeatureVector
        The explained sample; also the center under sample-centered mode.
    spec : StandardSpec
        Center, noise mode, per-feature noise scales, and the training mean
        that mean-centered mode centers on.
    n : int
        Number of points to draw.
    rng : RngStream
        Stream to draw from; identical inputs reproduce the neighborhood
        bit for bit.

    Notes
    -----
    Gaussian mode draws standard normals and scales them per feature. Latin
    hypercube mode draws one stratified uniform per stratum per feature,
    maps each through :func:`inverse_normal_cdf`, and applies the same
    per-feature scaling, so both modes share their marginal distributions.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    d = origin.dim
    if len(spec.per_feature_scale) != d:
        raise ValueError("per_feature_scale must match the origin's dimension")
    if spec.center_mode is CenterMode.MEAN:
        if spec.training_mean is None:
            raise ValueError("mean-centered sampling requires a training mean")
        center = spec.training_mean
    else:
        center = origin.values
    gen = rng.generator()
    if spec.noise_mode is NoiseMode.GAUSSIAN:
        normals = gen.standard_normal((n, d))
    else:
        uniforms = latin_hypercube_uniforms(n, d, gen)
        normals = np.array(
            [[inverse_normal_cdf(u) for u in row] for row in uniforms.tolist()]
        )
    noise = _by_column(np.multiply, normals, spec.per_feature_scale)
    return Neighborhood(_by_column(np.add, noise, center), origin)


def sample_process_aware(
    spec: ProcessAwareSpec,
    n: int,
    rng: RngStream,
    *,
    origin: FeatureVector,
) -> Neighborhood:
    """Draw the neighborhood directly from the declared feature distribution.

    Points are i.i.d. from N(mean, covariance) via the lower Cholesky factor;
    the origin sample does not shift the distribution, it is only recorded so
    downstream proximity weighting stays anchored at the explained sample.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    d = len(spec.mean)
    if origin.dim != d:
        raise ValueError("origin dimension must match the sampler's mean")
    gen = rng.generator()
    rows = _by_column(np.add, gen.standard_normal((n, d)) @ spec._lower.T, spec.mean)
    return Neighborhood(rows, origin)
