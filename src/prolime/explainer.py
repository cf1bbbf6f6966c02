"""End-to-end explanation pipeline: sample, label, weight, fit, package.

The sampler is the only interchangeable stage; proximity weighting, labeling
and the weighted ridge fit of the local linear model are shared verbatim
between sampler variants. Every question put to the black box goes through
one checked call, :func:`_class_probabilities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    BlackBoxModel,
    Explanation,
    FeatureVector,
    LimeHyperparameters,
    LocalSurrogate,
    _by_column,
    _probability_row,
    _require_kernel_width,
)
from .samplers import Neighborhood, RngStream, SamplerSpec, StandardSpec, draw_neighborhood

__all__ = [
    "BatchExplainError",
    "ExplainRequest",
    "ExplainStageError",
    "SingularFitError",
    "explain",
    "fit_weighted_ridge",
    "label_neighborhood",
    "neighborhood_weights",
]


class ExplainStageError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage


class BatchExplainError(RuntimeError):
    """Unused; kept only because ``perfbench/workloads.py`` imports and catches it."""


class SingularFitError(RuntimeError):
    """The fit cannot explain the neighborhood: its normal equations
    overflowed, or were singular (which a positive ridge strength fixes), or
    some feature never varies across the neighborhood or its weighted rows."""


def _class_probabilities(model: BlackBoxModel, points: np.ndarray, feature_names: Sequence[str]) -> np.ndarray:
    """The model's answer at ``points``, checked: an ``(n, n_classes)`` float
    array whose every entry lies in [0, 1]. A failure names the first bad
    entry in row-major order."""
    probabilities = np.asarray(model.predict_proba(points, feature_names=feature_names), dtype=float)
    expected = (points.shape[0], model.n_classes)
    if probabilities.shape != expected:
        raise ValueError(f"predict_proba returned shape {probabilities.shape}, expected {expected}")
    if probabilities.size and not (probabilities.min() >= 0.0 and probabilities.max() <= 1.0):
        row, k = divmod(int(np.argmax(~((probabilities >= 0.0) & (probabilities <= 1.0)))), expected[1])
        raise ValueError(
            f"row {row}: probability of class {k} must lie in [0, 1], got {probabilities[row, k].item()!r}"
        )
    return probabilities


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


def neighborhood_weights(nbhd: Neighborhood, width: float) -> np.ndarray:
    """Proximity weight exp(-distance^2 / width^2) of every neighborhood
    point from its origin; 1 at zero distance."""
    _require_kernel_width(width, "kernel width")
    # A squared distance, or its ratio to a tiny squared width, that
    # overflows to inf gets weight exp(-inf) = 0.
    with np.errstate(over="ignore"):
        d2 = _squared_distances(nbhd.points, nbhd.origin.values)
        return np.exp(-d2 / (width * width))


def label_neighborhood(model: BlackBoxModel, nbhd: Neighborhood) -> np.ndarray:
    """Model probability of class 1, approval, for every neighborhood point."""
    if model.n_classes < 2:
        raise ValueError(f"the explained class 1 (approval) is out of range for {model.n_classes} classes")
    probabilities = _class_probabilities(model, nbhd.points, nbhd.origin.feature_names)
    # A contiguous copy, not a strided view: the fit's BLAS reductions sum in
    # a layout-dependent order, and reports are pinned to the last bit.
    return np.ascontiguousarray(probabilities[:, 1])


def _collapse_cause(nbhd: Neighborhood) -> str:
    """Why a fit cannot explain a neighborhood in which some feature takes one
    value in every row: the perturbations of that feature were lost to
    rounding, so the model was never probed along it. Empty if every
    feature varies."""
    points = nbhd.points
    flat = (points == points[0]).all(axis=0)
    if not flat.any():
        return ""
    spacing = float(np.spacing(np.abs(points[0, flat])).max())
    if flat.all():
        same, of = "are the same point", "its coordinates"
    else:
        names = (name for name, f in zip(nbhd.origin.feature_names, flat.tolist()) if f)
        same, of = "have the same " + ", ".join(names), "its value"
    return (
        f": all {points.shape[0]} rows {same}, so perturbations below the "
        f"float spacing of {of} (up to {spacing:.3g}) were lost to rounding"
    )


def fit_weighted_ridge(
    nbhd: Neighborhood, targets: np.ndarray, weights: np.ndarray, ridge_strength: float
) -> LocalSurrogate:
    """Fit intercept and coefficients by weighted, L2-penalized least squares.

    Minimizes ``sum_i w_i * (t_i - b0 - b . x_i)^2 + ridge_strength * ||b||^2``
    over the neighborhood points ``x_i``, with the intercept left
    unpenalized. Solved in closed form through the normal equations of the
    weight-centered system: centering by the weighted means eliminates the
    intercept, a (d x d) solve yields the coefficients, and the intercept is
    recovered as ``tbar - b . xbar``.

    Targets and weights hold one finite entry per point; the weights lie in
    [0, 1] and at least one is positive. Raises :class:`SingularFitError`,
    before any arithmetic, when some feature never varies across the
    neighborhood or across its rows of positive weight: a ridge would fit it
    a zero coefficient, which is no explanation. Raises it too when the
    normal equations of a design that does vary overflow or are singular.
    """
    features = nbhd.points
    n, d = features.shape
    targets = np.asarray(targets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if targets.shape != (n,) or weights.shape != (n,):
        raise ValueError("features, targets and weights must agree on the row count")
    if not (np.isfinite(targets).all() and np.isfinite(weights).all()):
        raise ValueError("design entries must be finite")
    # The weights are finite here, so their extremes decide both checks.
    lowest, highest = weights.min(), weights.max()
    if lowest < 0.0 or highest > 1.0:
        raise ValueError("weights must lie in [0, 1]")
    if not highest > 0.0:
        raise ValueError("at least one weight must be positive")
    if not (math.isfinite(ridge_strength) and ridge_strength >= 0):
        raise ValueError("ridge_strength must be nonnegative and finite")
    # A column can only be constant if its last value equals its first.
    if (features[-1] == features[0]).any() and (cause := _collapse_cause(nbhd)):
        raise SingularFitError(f"the neighborhood has no spread{cause}")
    # A row of zero weight drops out of the sums, so the rows left must vary.
    if lowest == 0.0 and (flat := (features[weights > 0.0] == features[np.argmax(weights)]).all(axis=0)).any():
        names = ", ".join(name for name, f in zip(nbhd.origin.feature_names, flat.tolist()) if f)
        raise SingularFitError(f"the weighted neighborhood has no spread: the {np.count_nonzero(weights)} of {n} rows"
                               f" of positive weight do not vary in {names}")
    weight_sum = float(weights.sum())
    tbar = float(weights @ targets) / weight_sum
    centered_t = targets - tbar
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
        raise SingularFitError(f"normal equations are singular{advice}") from exc
    if not np.isfinite(beta).all():
        raise SingularFitError(f"normal equations produced non-finite coefficients{advice}")
    intercept = tbar - float(beta @ xbar)
    return LocalSurrogate(intercept, tuple(beta.tolist()), nbhd.origin.feature_names)


@dataclass(frozen=True)
class ExplainRequest:
    """Everything one explanation needs: sample, model, knobs, sampler, stream."""

    sample: FeatureVector
    model: BlackBoxModel
    hyper: LimeHyperparameters
    sampler: SamplerSpec
    rng: RngStream

    def __post_init__(self) -> None:
        # The spec draws the neighborhood, and reports read the noise mode from hyper.
        if isinstance(self.sampler, StandardSpec) and self.sampler.noise_mode is not self.hyper.noise_mode:
            raise ValueError(
                f"the sampler's noise mode ({self.sampler.noise_mode.value}) differs from the "
                f"hyperparameters' ({self.hyper.noise_mode.value})"
            )


def explain(req: ExplainRequest) -> Explanation:
    """Run the whole pipeline for one sample.

    Deterministic given the request's rng stream. Failures are re-raised as
    :class:`ExplainStageError` labeled with the stage (sampling, labeling,
    or fitting) so harness runs can attribute them.
    """
    hyper = req.hyper
    try:
        nbhd = draw_neighborhood(req.sample, req.sampler, hyper.neighborhood_size, req.rng)
    except Exception as exc:
        raise ExplainStageError("sampling", exc) from exc
    try:
        row = _class_probabilities(req.model, req.sample.as_array()[None, :], req.sample.feature_names)[0]
        predicted = _probability_row(row.tolist())
        targets = label_neighborhood(req.model, nbhd)
    except Exception as exc:
        raise ExplainStageError("labeling", exc) from exc
    weights = neighborhood_weights(nbhd, hyper.kernel_width)
    try:
        if weights.max() == 0.0:
            # Squared distances that overflow are inf, and so is their root.
            with np.errstate(over="ignore"):
                nearest = np.sqrt(_squared_distances(nbhd.points, req.sample.values).min())
            if np.isfinite(nearest):
                where = f"the nearest drawn point lies {nearest:.3g} from the sample"
            else:
                where = "the nearest drawn point's distance from the sample exceeds the float range"
            raise ValueError(f"every kernel weight is 0: {where}, too far for kernel width {hyper.kernel_width:.3g}")
        surrogate = fit_weighted_ridge(nbhd, targets, weights, hyper.ridge_strength)
        # Where a feature's float spacing reaches its noise scale, the
        # perturbations land on a lattice of a few values and the fit
        # explains the lattice, not the model.
        scales = req.sampler.per_feature_scale
        spacings = np.spacing(np.abs(nbhd.points[0]))
        if (coarse := spacings >= scales).any():
            j = int(np.argmax(coarse))
            raise ValueError(
                f"the neighborhood is quantized: the float spacing of {req.sample.feature_names[j]} "
                f"({spacings[j]:.3g}) is not below its noise scale ({scales[j]:.3g})"
            )
    except Exception as exc:
        raise ExplainStageError("fitting", exc) from exc
    return Explanation(req.sample, predicted, surrogate)
