"""End-to-end pipeline: dispatch, stage labeling, batching, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest

import prolime.explainer as explainer_module
import prolime.surrogate as surrogate_module
from prolime.core import (
    BlackBoxModel,
    CenterMode,
    ConstantModel,
    Explanation,
    FeatureVector,
    LimeHyperparameters,
)
from prolime.explainer import (
    BatchConfig,
    BatchExplainError,
    ExplainRequest,
    ExplainStageError,
    draw_neighborhood,
    explain,
    explain_batch,
)
from prolime.samplers import (
    Neighborhood,
    ProcessAwareSpec,
    RngStream,
    StandardSpec,
    sample_process_aware,
    sample_standard,
)
from prolime.simulation import BenchmarkDistribution, generate_dataset, oracle_model

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


def test_request_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        ExplainRequest(
            sample=FeatureVector((1.0,), ("credit",)),
            model=ConstantModel((0.5, 0.5)),
            hyper=LimeHyperparameters(),
            sampler=StandardSpec(),
            rng=RngStream(0),
        )


def test_draw_neighborhood_dispatches_to_the_matching_sampler():
    origin = _fv(0.41, -0.51)
    standard = StandardSpec()
    direct = sample_standard(origin, standard, 32, RngStream(5, 1))
    assert draw_neighborhood(origin, standard, 32, RngStream(5, 1)) == direct
    process = ProcessAwareSpec(mean=(0.0, 0.0), covariance=BENCH_COV)
    direct = sample_process_aware(process, 32, RngStream(5, 2), origin=origin)
    assert draw_neighborhood(origin, process, 32, RngStream(5, 2)) == direct


def _request(model, sampler, *, hyper=None, sample=None, stream=0) -> ExplainRequest:
    return ExplainRequest(
        sample=sample if sample is not None else _fv(0.0, 0.0),
        model=model,
        hyper=hyper if hyper is not None else LimeHyperparameters(neighborhood_size=500),
        sampler=sampler,
        rng=RngStream(0, stream),
    )


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


def test_sampling_failure_is_stage_labeled():
    sampler = StandardSpec(center_mode=CenterMode.MEAN, training_mean=None)
    with pytest.raises(ExplainStageError) as info:
        explain(_request(ConstantModel((0.5, 0.5)), sampler))
    assert info.value.stage == "sampling"
    assert "sampling stage failed" in str(info.value)


def test_labeling_failure_is_stage_labeled():
    with pytest.raises(ExplainStageError) as info:
        explain(_request(_RejectsLargeCredit(), StandardSpec(), sample=_fv(100.0, 0.0)))
    assert info.value.stage == "labeling"


def test_fitting_failure_is_stage_labeled(monkeypatch):
    def degenerate(origin, spec, n, rng):
        return Neighborhood(np.tile([0.1, 0.2], (4, 1)), origin)

    monkeypatch.setattr("prolime.explainer.sample_standard", degenerate)
    hyper = LimeHyperparameters(neighborhood_size=4, ridge_strength=0.0)
    with pytest.raises(ExplainStageError) as info:
        explain(_request(ConstantModel((0.5, 0.5)), StandardSpec(), hyper=hyper))
    assert info.value.stage == "fitting"


def test_proximity_stays_anchored_at_the_sample_under_mean_centering(monkeypatch):
    seen = {}
    real = explainer_module.neighborhood_weights

    def spy(origin, nbhd, spec):
        seen["origin"] = origin
        return real(origin, nbhd, spec)

    monkeypatch.setattr("prolime.explainer.neighborhood_weights", spy)
    sample = _fv(0.25, -0.25)
    sampler = StandardSpec(center_mode=CenterMode.MEAN, training_mean=(5.0, 5.0))
    explain(_request(ConstantModel((0.5, 0.5)), sampler, sample=sample))
    assert seen["origin"] == sample


def test_sampler_swap_reuses_the_same_downstream_stages(monkeypatch):
    assert explainer_module.fit_weighted_ridge is surrogate_module.fit_weighted_ridge
    assert explainer_module.label_neighborhood is surrogate_module.label_neighborhood
    assert explainer_module.neighborhood_weights is surrogate_module.neighborhood_weights

    calls = []
    real_fit = explainer_module.fit_weighted_ridge

    def spy(design, ridge_strength):
        calls.append(design.features.shape)
        return real_fit(design, ridge_strength)

    monkeypatch.setattr("prolime.explainer.fit_weighted_ridge", spy)
    model = ConstantModel((0.5, 0.5))
    explain(_request(model, StandardSpec()))
    explain(_request(model, ProcessAwareSpec(mean=(0.0, 0.0), covariance=BENCH_COV)))
    assert calls == [(500, 2), (500, 2)]


def _batch_shared(size: int = 300) -> BatchConfig:
    return BatchConfig(
        model=_LinearProbabilityModel(0.5, 0.1, -0.2),
        hyper=LimeHyperparameters(neighborhood_size=size),
        sampler=StandardSpec(),
    )


def test_batch_of_one_equals_single_explain_on_stream_zero():
    shared = _batch_shared()
    sample = _fv(0.2, 0.4)
    batch = explain_batch([sample], shared, master_seed=9)
    single = explain(
        ExplainRequest(sample, shared.model, shared.hyper, shared.sampler, RngStream(9, 0))
    )
    assert batch == [single]


def test_batch_elements_follow_their_input_index():
    shared = _batch_shared()
    samples = [_fv(0.1, 0.0), _fv(-0.4, 0.3), _fv(0.8, -0.8)]
    batch = explain_batch(samples, shared, master_seed=31)
    manual = {}
    for k in reversed(range(len(samples))):
        manual[k] = explain(
            ExplainRequest(samples[k], shared.model, shared.hyper, shared.sampler, RngStream(31, k))
        )
    assert batch == [manual[0], manual[1], manual[2]]


def test_batch_streams_follow_position_after_permutation():
    shared = _batch_shared()
    a, b = _fv(0.1, 0.0), _fv(-0.4, 0.3)
    forward = explain_batch([a, b], shared, master_seed=31)
    swapped = explain_batch([b, a], shared, master_seed=31)
    assert swapped[0] == explain(
        ExplainRequest(b, shared.model, shared.hyper, shared.sampler, RngStream(31, 0))
    )
    assert swapped[0] != forward[1]


def test_batch_collects_per_sample_failures():
    shared = BatchConfig(
        model=_RejectsLargeCredit(),
        hyper=LimeHyperparameters(neighborhood_size=50),
        sampler=StandardSpec(),
    )
    samples = [_fv(0.0, 0.0), _fv(100.0, 0.0), _fv(0.5, 0.5), _fv(-50.0, 2.0)]
    with pytest.raises(BatchExplainError) as info:
        explain_batch(samples, shared, master_seed=3)
    error = info.value
    assert [index for index, _ in error.errors] == [1, 3]
    assert all(stage_error.stage == "labeling" for _, stage_error in error.errors)
    assert sorted(error.completed) == [0, 2]
    assert "1, 3" in str(error)


def test_batch_rejects_empty_input():
    with pytest.raises(ValueError):
        explain_batch([], _batch_shared(), master_seed=0)


def test_batch_reruns_are_bitwise_identical():
    dist = BenchmarkDistribution()
    samples = [_fv(credit, risk) for credit, risk in generate_dataset(100, RngStream(55), dist).features.tolist()]
    shared = BatchConfig(
        model=oracle_model(dist, model_seed=55),
        hyper=LimeHyperparameters(neighborhood_size=200),
        sampler=StandardSpec(training_mean=dist.mean),
    )
    first = explain_batch(samples, shared, master_seed=55)
    second = explain_batch(samples, shared, master_seed=55)
    assert first == second
