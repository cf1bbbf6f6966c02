"""End-to-end explanation pipeline: sample, label, weight, fit, package.

The sampler is the only interchangeable stage; proximity weighting, labeling
and the surrogate fit are shared verbatim between sampler variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BlackBoxModel,
    ClassProbabilities,
    Explanation,
    FeatureVector,
    LimeHyperparameters,
)
from .samplers import RngStream, SamplerSpec, StandardSpec, draw_neighborhood
from .surrogate import _squared_distances, fit_weighted_ridge, label_neighborhood, neighborhood_weights

__all__ = [
    "BatchExplainError",
    "ExplainRequest",
    "ExplainStageError",
    "explain",
]


class ExplainStageError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage


class BatchExplainError(RuntimeError):
    """Unused; kept only because ``perfbench/workloads.py`` imports and catches it."""


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
        row = req.model.predict_proba(req.sample.as_array()[None, :], req.sample.feature_names)[0]
        predicted = ClassProbabilities(row)
        targets = label_neighborhood(req.model, nbhd, hyper.explained_class)
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

