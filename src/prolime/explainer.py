"""End-to-end explanation pipeline: sample, label, weight, fit, package.

The sampler is the only interchangeable stage; proximity weighting, labeling
and the surrogate fit are shared verbatim between sampler variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    BlackBoxModel,
    ClassProbabilities,
    Explanation,
    FeatureVector,
    LimeHyperparameters,
)
from .samplers import (
    Neighborhood,
    ProcessAwareSpec,
    RngStream,
    SamplerSpec,
    StandardSpec,
    sample_process_aware,
    sample_standard,
)
from .surrogate import (
    KernelSpec,
    SingularFitError,
    WeightedDesign,
    _collapse_cause,
    fit_weighted_ridge,
    label_neighborhood,
    neighborhood_weights,
)

__all__ = [
    "BatchConfig",
    "BatchExplainError",
    "ExplainRequest",
    "ExplainStageError",
    "draw_neighborhood",
    "explain",
    "explain_batch",
]


class ExplainStageError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage
        self.cause = cause


class BatchExplainError(RuntimeError):
    """One or more batch elements failed; completed ones are kept by index."""

    def __init__(
        self,
        errors: Sequence[tuple[int, ExplainStageError]],
        completed: dict[int, Explanation],
    ):
        indexes = ", ".join(str(i) for i, _ in errors)
        super().__init__(f"explanation failed for sample index {indexes}")
        self.errors = tuple(errors)
        self.completed = dict(completed)


@dataclass(frozen=True)
class ExplainRequest:
    """Everything one explanation needs: sample, model, knobs, sampler, stream."""

    sample: FeatureVector
    model: BlackBoxModel
    hyper: LimeHyperparameters
    sampler: SamplerSpec
    rng: RngStream

    def __post_init__(self) -> None:
        sampler = self.sampler
        dim = len(sampler.per_feature_scale if isinstance(sampler, StandardSpec) else sampler.mean)
        if dim != self.sample.dim:
            raise ValueError("sampler dimension does not match the explained sample")


def draw_neighborhood(
    sample: FeatureVector,
    sampler: SamplerSpec,
    n: int,
    rng: RngStream,
) -> Neighborhood:
    """Dispatch neighborhood generation to the configured strategy."""
    if isinstance(sampler, StandardSpec):
        return sample_standard(sample, sampler, n, rng)
    if isinstance(sampler, ProcessAwareSpec):
        return sample_process_aware(sampler, n, rng, origin=sample)
    raise TypeError(f"unknown sampler spec: {type(sampler).__name__}")


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
    weights = neighborhood_weights(req.sample, nbhd, KernelSpec(width=hyper.kernel_width))
    points = nbhd.points
    try:
        design = WeightedDesign(points, targets, weights, req.sample.feature_names)
        surrogate = fit_weighted_ridge(design, hyper.ridge_strength)
        # A ridge fits a feature that never varies to a zero coefficient; that
        # is no explanation. A column can only be constant if its last value
        # equals its first.
        if (points[-1] == points[0]).any() and (
            cause := _collapse_cause(points, req.sample.feature_names)
        ):
            raise SingularFitError(f"the neighborhood has no spread{cause}")
    except Exception as exc:
        raise ExplainStageError("fitting", exc) from exc
    return Explanation(req.sample, predicted, surrogate)


@dataclass(frozen=True)
class BatchConfig:
    """The parts of a request shared by every sample in a batch."""

    model: BlackBoxModel
    hyper: LimeHyperparameters
    sampler: SamplerSpec


def explain_batch(
    samples: Sequence[FeatureVector],
    shared: BatchConfig,
    master_seed: int,
) -> list[Explanation]:
    """Explain many samples with one stream per input index.

    Element ``k`` is computed with ``RngStream(master_seed, k)``, so results
    depend only on each sample's position in the input, never on execution
    order. Per-sample failures are collected into a single
    :class:`BatchExplainError` instead of aborting the rest of the batch.
    """
    if not samples:
        raise ValueError("samples must be nonempty")
    completed: dict[int, Explanation] = {}
    errors: list[tuple[int, ExplainStageError]] = []
    for k, sample in enumerate(samples):
        request = ExplainRequest(
            sample=sample,
            model=shared.model,
            hyper=shared.hyper,
            sampler=shared.sampler,
            rng=RngStream(master_seed, k),
        )
        try:
            completed[k] = explain(request)
        except ExplainStageError as exc:
            errors.append((k, exc))
    if errors:
        raise BatchExplainError(errors, completed)
    return [completed[k] for k in range(len(samples))]
