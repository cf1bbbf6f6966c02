"""End-to-end pipeline: dispatch, stage labeling, determinism."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import prolime.explainer as explainer_module
from prolime.core import (
    BlackBoxModel,
    ConstantModel,
    Explanation,
    FeatureVector,
    LimeHyperparameters,
    NoiseMode,
)
from prolime.explainer import ExplainRequest, ExplainStageError, explain
from prolime.samplers import (
    CenterMode,
    Neighborhood,
    ProcessAwareSpec,
    RngStream,
    StandardSpec,
    draw_neighborhood,
)
from prolime.simulation import BenchmarkDistribution, oracle_model

NAMES = ("credit", "risk")
BENCH_COV = ((1.0, -0.9), (-0.9, 1.0))


def _fv(credit: float, risk: float) -> FeatureVector:
    return FeatureVector((credit, risk), NAMES)


class _LinearProbabilityModel(BlackBoxModel):
    """Class-1 probability is an affine function of the features, clipped."""

    def __init__(self, intercept: float, credit_coef: float, risk_coef: float):
        self._params = (intercept, credit_coef, risk_coef)

    def predict_proba(self, X, feature_names=None):
        b0, bc, br = self._params
        p = np.clip(b0 + bc * X[:, 0] + br * X[:, 1], 0.0, 1.0)
        return np.column_stack((1.0 - p, p))


class _RejectsLargeCredit(BlackBoxModel):

    def predict_proba(self, X, feature_names=None):
        if (np.abs(X[:, 0]) > 9.0).any():
            raise ValueError("credit out of supported range")
        return np.tile([0.4, 0.6], (X.shape[0], 1))


@pytest.mark.parametrize(
    "sampler", [StandardSpec(), ProcessAwareSpec(mean=(0.0, 0.0), covariance=BENCH_COV)], ids=["standard", "process-aware"]
)
def test_a_dimension_mismatch_fails_in_the_sampling_stage(sampler):
    request = _request(ConstantModel((0.5, 0.5)), sampler, sample=FeatureVector((1.0,), ("credit",)))
    message = "^sampling stage failed: per_feature_scale must match the origin's dimension$"
    with pytest.raises(ExplainStageError, match=message) as info:
        explain(request)
    assert info.value.stage == "sampling"


class _GridSpec:
    """A sampler spec that no strategy draws."""

    per_feature_scale = (1.0, 1.0)


def test_draw_neighborhood_rejects_an_unknown_spec_by_its_type_name():
    with pytest.raises(TypeError, match="unknown sampler spec: _GridSpec"):
        draw_neighborhood(_fv(0.41, -0.51), _GridSpec(), 32, RngStream(5, 1))


@pytest.mark.parametrize("sampler", [_GridSpec(), object()], ids=["spec-like", "object"])
def test_a_non_spec_sampler_fails_at_sampling_by_its_type_name(sampler):
    message = f"^sampling stage failed: unknown sampler spec: {type(sampler).__name__}$"
    with pytest.raises(ExplainStageError, match=message) as info:
        explain(_request(ConstantModel((0.5, 0.5)), sampler))
    assert isinstance(info.value.__cause__, TypeError)


def test_process_aware_draw_gives_the_same_points_for_any_origin():
    process = ProcessAwareSpec(mean=(0.0, 0.0), covariance=BENCH_COV)
    near, far = (
        draw_neighborhood(origin, process, 32, RngStream(5, 2)) for origin in (_fv(0.41, -0.51), _fv(-7.0, 9.0))
    )
    assert np.array_equal(near.points, far.points)
    assert far.origin == _fv(-7.0, 9.0)


def _request(model, sampler, *, hyper=None, sample=None, stream=0) -> ExplainRequest:
    return ExplainRequest(
        sample=sample if sample is not None else _fv(0.0, 0.0),
        model=model,
        hyper=hyper if hyper is not None else LimeHyperparameters(neighborhood_size=500),
        sampler=sampler,
        rng=RngStream(0, stream),
    )


@pytest.mark.parametrize(
    "spec, hyper",
    [
        (StandardSpec(noise_mode=NoiseMode.LATIN_HYPERCUBE), LimeHyperparameters(neighborhood_size=500)),
        (StandardSpec(), LimeHyperparameters(neighborhood_size=500, noise_mode=NoiseMode.LATIN_HYPERCUBE)),
    ],
)
def test_request_rejects_sampler_modes_that_differ_from_the_hyperparameters(spec, hyper):
    message = (
        rf"^the sampler's noise mode \({spec.noise_mode.value}\) differs from the "
        rf"hyperparameters' \({hyper.noise_mode.value}\)$"
    )
    with pytest.raises(ValueError, match=message):
        _request(ConstantModel((0.5, 0.5)), spec, hyper=hyper)
    _request(ConstantModel((0.5, 0.5)), spec, hyper=replace(hyper, noise_mode=spec.noise_mode))
    # The center mode has one home, the spec, so there is nothing to compare.
    _request(ConstantModel((0.5, 0.5)), replace(spec, center_mode=CenterMode.MEAN, training_mean=(0.0, 0.0)),
             hyper=replace(hyper, noise_mode=spec.noise_mode))


def test_explain_reports_the_model_prediction_at_the_sample():
    explanation = explain(_request(ConstantModel((0.3, 0.7)), StandardSpec()))
    assert isinstance(explanation, Explanation)
    assert explanation.predicted.p == (0.3, 0.7)
    assert explanation.surrogate.feature_names == NAMES


def test_constant_model_yields_zero_coefficients():
    explanation = explain(_request(ConstantModel((0.5, 0.5)), StandardSpec()))
    assert abs(explanation.surrogate.coefficients[0]) <= 1e-6
    assert abs(explanation.surrogate.coefficients[1]) <= 1e-6
    assert abs(explanation.surrogate.intercept - 0.5) <= 1e-9


def test_linear_probability_model_is_recovered():
    model = _LinearProbabilityModel(0.5, 0.1, -0.2)
    hyper = LimeHyperparameters(neighborhood_size=4000, ridge_strength=1e-8)
    sampler = StandardSpec(per_feature_scale=(0.5, 0.5))
    explanation = explain(_request(model, sampler, hyper=hyper))
    assert abs(explanation.surrogate.coefficients[0] - 0.1) <= 1e-3
    assert abs(explanation.surrogate.coefficients[1] + 0.2) <= 1e-3
    assert abs(explanation.surrogate.intercept - 0.5) <= 1e-3


def test_benchmark_explanation_sign_pattern():
    dist = BenchmarkDistribution()
    request = ExplainRequest(
        sample=_fv(0.41, -0.51),
        model=oracle_model(dist, model_seed=0),
        hyper=LimeHyperparameters(),
        sampler=StandardSpec(training_mean=dist.mean),
        rng=RngStream(0, 0),
    )
    explanation = explain(request)
    assert explanation.predicted.p == (0.0, 1.0)
    assert explanation.surrogate.coefficient("credit") < 0.0
    assert explanation.surrogate.coefficient("risk") > 0.0
    assert explanation.ranked_features[0][1] == max(
        explanation.surrogate.coefficients, key=abs
    )


def test_sampling_failure_is_stage_labeled(monkeypatch):
    def exhausted(origin, spec, n, rng):
        raise MemoryError("no room for the neighborhood")

    monkeypatch.setattr("prolime.explainer.draw_neighborhood", exhausted)
    with pytest.raises(ExplainStageError) as info:
        explain(_request(ConstantModel((0.5, 0.5)), StandardSpec()))
    assert info.value.stage == "sampling"
    assert str(info.value) == "sampling stage failed: no room for the neighborhood"


def test_labeling_failure_is_stage_labeled():
    with pytest.raises(ExplainStageError) as info:
        explain(_request(_RejectsLargeCredit(), StandardSpec(), sample=_fv(100.0, 0.0)))
    assert info.value.stage == "labeling"


def test_fitting_failure_is_stage_labeled(monkeypatch):
    def degenerate(origin, spec, n, rng):
        return Neighborhood(np.tile([0.1, 0.2], (4, 1)), origin)

    monkeypatch.setattr("prolime.explainer.draw_neighborhood", degenerate)
    hyper = LimeHyperparameters(neighborhood_size=4, ridge_strength=0.0)
    with pytest.raises(ExplainStageError) as info:
        explain(_request(ConstantModel((0.5, 0.5)), StandardSpec(), hyper=hyper))
    assert info.value.stage == "fitting"


def test_proximity_stays_anchored_at_the_sample_under_mean_centering(monkeypatch):
    seen = {}
    real = explainer_module.neighborhood_weights

    def spy(nbhd, width):
        seen["origin"] = nbhd.origin
        return real(nbhd, width)

    monkeypatch.setattr("prolime.explainer.neighborhood_weights", spy)
    sample = _fv(0.25, -0.25)
    sampler = StandardSpec(center_mode=CenterMode.MEAN, training_mean=(5.0, 5.0))
    explain(_request(ConstantModel((0.5, 0.5)), sampler, sample=sample))
    assert seen["origin"] == sample


def test_sampler_swap_reuses_the_same_downstream_stages(monkeypatch):
    calls = []
    real_fit = explainer_module.fit_weighted_ridge

    def spy(nbhd, targets, weights, ridge_strength):
        calls.append(nbhd.points.shape)
        return real_fit(nbhd, targets, weights, ridge_strength)

    monkeypatch.setattr("prolime.explainer.fit_weighted_ridge", spy)
    model = ConstantModel((0.5, 0.5))
    explain(_request(model, StandardSpec()))
    explain(_request(model, ProcessAwareSpec(mean=(0.0, 0.0), covariance=BENCH_COV)))
    assert calls == [(500, 2), (500, 2)]

