"""Proximity weighting and the weighted ridge fit of the local linear model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BlackBoxModel, FeatureVector, LocalSurrogate
from .samplers import Neighborhood

__all__ = [
    "KernelSpec",
    "SingularFitError",
    "WeightedDesign",
    "fit_weighted_ridge",
    "kernel_weight",
    "label_neighborhood",
    "neighborhood_weights",
]


class SingularFitError(RuntimeError):
    """The normal equations could not be solved: they overflowed, or they were
    singular, which a positive ridge strength fixes."""


@dataclass(frozen=True)
class KernelSpec:
    """Width of the exponential proximity kernel over Euclidean distance."""

    width: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError("kernel width must be positive and finite")


@dataclass(frozen=True)
class WeightedDesign:
    """Neighborhood matrix, per-point targets, and per-point proximity weights."""

    features: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        n, d = features.shape
        if n == 0:
            raise ValueError("the design needs at least one row")
        if targets.shape != (n,) or weights.shape != (n,):
            raise ValueError("features, targets and weights must agree on the row count")
        if len(self.feature_names) != d:
            raise ValueError("feature_names must match the feature dimension")
        finite = np.all(np.isfinite(features)) and np.all(np.isfinite(targets))
        if not (finite and np.all(np.isfinite(weights))):
            raise ValueError("design entries must be finite")
        if np.any(weights < 0.0) or np.any(weights > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if not np.any(weights > 0.0):
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "feature_names", tuple(str(n) for n in self.feature_names))


def kernel_weight(x: FeatureVector, z: FeatureVector, spec: KernelSpec) -> float:
    """exp(-distance(x, z)^2 / width^2); equals 1 at zero distance."""
    if x.dim != z.dim:
        raise ValueError("points must share a dimension")
    d2 = 0.0
    for xv, zv in zip(x.values, z.values):
        d2 += (xv - zv) ** 2
    return math.exp(-d2 / (spec.width * spec.width))


def neighborhood_weights(origin: FeatureVector, nbhd: Neighborhood, spec: KernelSpec) -> np.ndarray:
    """Proximity weight of every neighborhood point, anchored at the origin."""
    # A squared distance that overflows to inf gets weight exp(-inf) = 0.
    with np.errstate(over="ignore"):
        d2 = np.sum((nbhd.points - origin.as_array()) ** 2, axis=1)
    return np.exp(-d2 / (spec.width * spec.width))


def label_neighborhood(model: BlackBoxModel, nbhd: Neighborhood, explained_class: int) -> np.ndarray:
    """Model probability of the explained class for every neighborhood point."""
    if not 0 <= explained_class < model.n_classes:
        raise ValueError(f"explained_class {explained_class} out of range for {model.n_classes} classes")
    probabilities = np.asarray(
        model.predict_proba(nbhd.points, feature_names=nbhd.origin.feature_names), dtype=float
    )
    expected = (nbhd.points.shape[0], model.n_classes)
    if probabilities.shape != expected:
        raise ValueError(f"predict_proba returned shape {probabilities.shape}, expected {expected}")
    # A contiguous copy, not a strided view: the fit's BLAS reductions sum in
    # a layout-dependent order, and reports are pinned to the last bit.
    return np.ascontiguousarray(probabilities[:, explained_class])


def fit_weighted_ridge(design: WeightedDesign, ridge_strength: float) -> LocalSurrogate:
    """Fit intercept and coefficients by weighted, L2-penalized least squares.

    Minimizes ``sum_i w_i * (t_i - b0 - b . x_i)^2 + ridge_strength * ||b||^2``
    with the intercept left unpenalized. Solved in closed form through the
    normal equations of the weight-centered system: centering by the weighted
    means eliminates the intercept, a (d x d) solve yields the coefficients,
    and the intercept is recovered as ``tbar - b . xbar``.
    """
    if not (math.isfinite(ridge_strength) and ridge_strength >= 0):
        raise ValueError("ridge_strength must be nonnegative and finite")
    features = design.features
    targets = design.targets
    weights = design.weights
    weight_sum = float(weights.sum())
    tbar = float(weights @ targets) / weight_sum
    centered_t = targets - tbar
    d = features.shape[1]
    # Overflow is checked below; an overflowing weighted mean makes the Gram
    # matrix non-finite too.
    with np.errstate(over="ignore", invalid="ignore"):
        xbar = (weights @ features) / weight_sum
        centered_x = features - xbar
        gram = centered_x.T @ (centered_x * weights[:, None]) + ridge_strength * np.eye(d)
        moment = centered_x.T @ (weights * centered_t)
    if not (np.isfinite(gram).all() and np.isfinite(moment).all()):
        raise SingularFitError(
            "feature values are too large to fit: the weighted normal equations overflow"
        )
    advice = "; set ridge_strength above zero to regularize" if ridge_strength == 0 else ""
    try:
        beta = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError as exc:
        raise SingularFitError(f"normal equations are singular{advice}") from exc
    if not np.all(np.isfinite(beta)):
        raise SingularFitError(f"normal equations produced non-finite coefficients{advice}")
    intercept = tbar - float(beta @ xbar)
    return LocalSurrogate(intercept, tuple(beta.tolist()), design.feature_names)
