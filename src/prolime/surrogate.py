"""Proximity weighting and the weighted ridge fit of the local linear model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BlackBoxModel, FeatureVector, LocalSurrogate, _by_column, _require_kernel_width
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
        _require_kernel_width(self.width, "kernel width")


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
        finite = np.isfinite(features).all() and np.isfinite(targets).all()
        if not (finite and np.isfinite(weights).all()):
            raise ValueError("design entries must be finite")
        # The weights are finite here, so their extremes decide both checks.
        lowest, highest = weights.min(), weights.max()
        if lowest < 0.0 or highest > 1.0:
            raise ValueError("weights must lie in [0, 1]")
        if not highest > 0.0:
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


def _squared_distances(points: np.ndarray, origin: tuple[float, ...]) -> np.ndarray:
    """Squared Euclidean distance of each row from the origin, summed column
    by column. For d < 8 that adds in the order of ``np.sum(diff ** 2, axis=1)``,
    bit for bit, without its per-row reduction cost; from d = 8 ``np.sum``
    adds in pairwise blocks, and the last bit can differ."""
    d2 = np.zeros(points.shape[0])
    for column, value in zip(points.T, origin):
        diff = column - value
        d2 += diff * diff
    return d2


def neighborhood_weights(origin: FeatureVector, nbhd: Neighborhood, spec: KernelSpec) -> np.ndarray:
    """Proximity weight of every neighborhood point, anchored at the origin."""
    # A squared distance, or its ratio to a tiny squared width, that
    # overflows to inf gets weight exp(-inf) = 0.
    with np.errstate(over="ignore"):
        d2 = _squared_distances(nbhd.points, origin.values)
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
    targets = np.ascontiguousarray(probabilities[:, explained_class])
    if not (targets.min() >= 0.0 and targets.max() <= 1.0):
        row = int(np.argmax(~((targets >= 0.0) & (targets <= 1.0))))
        raise ValueError(
            f"row {row}: probability of class {explained_class} must lie in [0, 1], got {targets[row].item()!r}"
        )
    return targets


def _collapse_cause(features: np.ndarray, feature_names: tuple[str, ...]) -> str:
    """Why a fit cannot explain a neighborhood in which some feature takes one
    value in every row: the perturbations of that feature were lost to
    rounding, so the model was never probed along it. Empty if every
    feature varies."""
    flat = (features == features[0]).all(axis=0)
    if not flat.any():
        return ""
    spacing = float(np.spacing(np.abs(features[0, flat])).max())
    if flat.all():
        same, of = "are the same point", "its coordinates"
    else:
        same = "have the same " + ", ".join(name for name, f in zip(feature_names, flat.tolist()) if f)
        of = "its value"
    return (
        f": all {features.shape[0]} rows {same}, so perturbations below the "
        f"float spacing of {of} (up to {spacing:.3g}) were lost to rounding"
    )


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
        centered_x = _by_column(np.subtract, features, xbar)
        gram = centered_x.T @ _by_column(np.multiply, centered_x, [weights] * d) + ridge_strength * np.eye(d)
        moment = centered_x.T @ (weights * centered_t)
    if not (np.isfinite(gram).all() and np.isfinite(moment).all()):
        raise SingularFitError(
            "feature values are too large to fit: the weighted normal equations overflow"
        )
    advice = "; set ridge_strength above zero to regularize" if ridge_strength == 0 else ""
    try:
        beta = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError as exc:
        cause = advice or _collapse_cause(features, design.feature_names)
        raise SingularFitError(f"normal equations are singular{cause}") from exc
    if not np.isfinite(beta).all():
        raise SingularFitError(f"normal equations produced non-finite coefficients{advice}")
    intercept = tbar - float(beta @ xbar)
    return LocalSurrogate(intercept, tuple(beta.tolist()), design.feature_names)
