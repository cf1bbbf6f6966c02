"""Mismatch metric and the paired sampler-comparison experiment."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

import prolime.evaluation as evaluation_module
import prolime.samplers as samplers_module
import prolime.simulation as simulation_module
from prolime.core import FeatureVector, LimeHyperparameters, LocalSurrogate, NoiseMode
from prolime.evaluation import (
    ExperimentConfig,
    MismatchResult,
    coefficient_mismatch,
    draw_test_point,
    report_to_csv,
    report_to_json,
    run_experiment,
    sampler_spec,
    summary_table,
)
from prolime.explainer import ExplainRequest, ExplainStageError, explain
from prolime.samplers import ProcessAwareSpec, RngStream, StandardSpec
from prolime.simulation import (
    BenchmarkDistribution,
    Quadrant,
    gaussian_pdf,
    ground_truth_for,
    oracle_model,
)

NAMES = ("credit", "risk")


def _surrogate(credit: float, risk: float, intercept: float = 1.0) -> LocalSurrogate:
    return LocalSurrogate(intercept, (credit, risk), NAMES)


def _fv(credit: float, risk: float) -> FeatureVector:
    return FeatureVector((credit, risk), NAMES)


def test_mismatch_result_rejects_invalid_values():
    with pytest.raises(ValueError):
        MismatchResult(-0.1, 0.2, Quadrant.I)
    with pytest.raises(ValueError):
        MismatchResult(float("nan"), 0.2, Quadrant.I)
    assert MismatchResult(0.0, 0.0, Quadrant.II).quadrant is Quadrant.II


def test_coefficient_mismatch_quadrant_four_example():
    truth = ground_truth_for(_fv(0.41, -0.51))
    result = coefficient_mismatch(_surrogate(-0.66, 0.69), truth)
    assert abs(result.credit_mismatch - 0.34) <= 1e-12
    assert abs(result.risk_mismatch - 0.31) <= 1e-12
    assert result.quadrant == Quadrant.IV


def test_coefficient_mismatch_exact_recovery_is_zero():
    truth = ground_truth_for(_fv(0.41, -0.51))
    result = coefficient_mismatch(_surrogate(-1.0, 1.0), truth)
    assert result.credit_mismatch == 0.0
    assert result.risk_mismatch == 0.0


def test_coefficient_mismatch_zero_surrogate():
    truth = ground_truth_for(_fv(0.41, -0.51))
    result = coefficient_mismatch(_surrogate(0.0, 0.0), truth)
    assert result.credit_mismatch == 1.0
    assert result.risk_mismatch == 1.0


def test_coefficient_mismatch_ignores_the_intercept():
    truth = ground_truth_for(_fv(0.41, -0.51))
    a = coefficient_mismatch(_surrogate(-0.66, 0.69, intercept=1.0), truth)
    b = coefficient_mismatch(_surrogate(-0.66, 0.69, intercept=-7.5), truth)
    assert (a.credit_mismatch, a.risk_mismatch) == (b.credit_mismatch, b.risk_mismatch)


def test_coefficient_mismatch_requires_both_benchmark_features():
    truth = ground_truth_for(_fv(0.41, -0.51))
    stranger = LocalSurrogate(0.0, (1.0, 2.0), ("credit", "duration"))
    with pytest.raises(ValueError) as info:
        coefficient_mismatch(stranger, truth)
    assert "risk" in str(info.value)


def test_draw_test_point_stays_on_distribution():
    dist = BenchmarkDistribution()
    for stream in range(20):
        point = draw_test_point(dist, RngStream(17, stream))
        assert gaussian_pdf(point, dist) >= dist.density_threshold
    again = draw_test_point(dist, RngStream(17, 0))
    assert again == draw_test_point(dist, RngStream(17, 0))


def test_a_run_factors_each_covariance_once(monkeypatch):
    calls = []
    original = samplers_module.cholesky

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    for module in (samplers_module, simulation_module, evaluation_module):
        monkeypatch.setattr(module, "cholesky", counted, raising=False)
    config = ExperimentConfig(
        master_seed=3, trials=1, neighborhood_sizes=(50, 100),
        distribution=BenchmarkDistribution(-0.5),
    )
    report = run_experiment(config)
    assert all(cell.trials == 1 for cell in report.cells)
    # One factor for the distribution, one for the process-aware spec.
    assert len(calls) <= 2


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=0, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=0, neighborhood_sizes=())
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=0, neighborhood_sizes=(1,))


def test_sampler_spec_builds_each_named_sampler():
    hyper, dist = LimeHyperparameters(noise_mode=NoiseMode.LATIN_HYPERCUBE), BenchmarkDistribution()
    standard = sampler_spec("standard", hyper, dist)
    assert standard == StandardSpec(noise_mode=NoiseMode.LATIN_HYPERCUBE, training_mean=dist.mean)
    assert sampler_spec("process-aware", hyper, dist) == ProcessAwareSpec(dist.mean, dist.covariance)
    with pytest.raises(ValueError, match="unknown sampler 'gridwise'"):
        sampler_spec("gridwise", hyper, dist)


def test_single_trial_uses_the_documented_stream_layout():
    config = ExperimentConfig(master_seed=41, trials=1, neighborhood_sizes=(500,))
    report = run_experiment(config)
    assert [(c.sampler, c.size) for c in report.cells] == [
        ("standard", 500),
        ("process-aware", 500),
    ]
    for cell in report.cells:
        assert cell.trials == 1
        assert cell.credit_std == 0.0
        assert cell.risk_std == 0.0

    dist = config.distribution
    test_point = draw_test_point(dist, RngStream(41, 0))
    truth = ground_truth_for(test_point)
    model = oracle_model(dist, model_seed=41)
    hyper = replace(config.hyper, neighborhood_size=500)
    samplers = {
        1: StandardSpec(per_feature_scale=(1.0, 1.0), training_mean=dist.mean),
        2: ProcessAwareSpec(mean=dist.mean, covariance=dist.covariance),
    }
    for stream, cell in zip((1, 2), report.cells):
        explanation = explain(
            ExplainRequest(test_point, model, hyper, samplers[stream], RngStream(41, stream))
        )
        expected = coefficient_mismatch(explanation.surrogate, truth)
        assert cell.credit_mean == expected.credit_mismatch
        assert cell.risk_mean == expected.risk_mismatch


def test_report_serialization_is_deterministic():
    config = ExperimentConfig(master_seed=6, trials=3, neighborhood_sizes=(100, 200))
    first = run_experiment(config)
    second = run_experiment(config)
    assert report_to_csv(first) == report_to_csv(second)
    assert report_to_json(first) == report_to_json(second)


def test_report_csv_format_round_trips():
    config = ExperimentConfig(master_seed=6, trials=3, neighborhood_sizes=(100, 200))
    report = run_experiment(config)
    lines = report_to_csv(report).splitlines()
    assert lines[0] == "# master_seed=6"
    assert lines[1] == "# trials=3"
    assert lines[2].startswith("# hyperparameters={")
    assert lines[3] == "sampler,size,feature,mean,std,trials"
    data = lines[4:]
    assert len(data) == 2 * len(report.cells)
    by_key = {}
    for line in data:
        sampler, size, feature, mean, std, trials = line.split(",")
        by_key[(sampler, int(size), feature)] = (float(mean), float(std), int(trials))
    for cell in report.cells:
        assert by_key[(cell.sampler, cell.size, "credit")] == (
            cell.credit_mean,
            cell.credit_std,
            cell.trials,
        )
        assert by_key[(cell.sampler, cell.size, "risk")] == (
            cell.risk_mean,
            cell.risk_std,
            cell.trials,
        )


def test_report_json_structure():
    config = ExperimentConfig(master_seed=6, trials=2, neighborhood_sizes=(100,))
    report = run_experiment(config)
    document = json.loads(report_to_json(report))
    assert document["master_seed"] == 6
    assert document["trials"] == 2
    assert document["samplers"] == ["standard", "process-aware"]
    assert document["neighborhood_sizes"] == [100]
    assert document["hyperparameters"]["kernel_width"] == 0.75 * math.sqrt(2.0)
    assert len(document["cells"]) == 2
    assert document["cells"][0]["credit"]["mean"] == report.cells[0].credit_mean
    assert document["failures"] == []


def test_summary_table_lists_every_cell():
    config = ExperimentConfig(master_seed=6, trials=2, neighborhood_sizes=(100, 200))
    report = run_experiment(config)
    table = summary_table(report)
    lines = table.splitlines()
    assert "sampler" in lines[0] and "trials" in lines[0]
    assert len(lines) == 1 + len(report.cells)
    assert all("+/-" in line for line in lines[1:])
    assert sum(line.startswith("process-aware") for line in lines[1:]) == 2


def test_failures_are_recorded_and_empty_cells_serialize_as_missing(monkeypatch):
    def broken_for_standard(request):
        if isinstance(request.sampler, StandardSpec):
            raise ExplainStageError("sampling", ValueError("synthetic breakage"))
        return explain(request)

    monkeypatch.setattr(evaluation_module, "explain", broken_for_standard)
    config = ExperimentConfig(master_seed=2, trials=2, neighborhood_sizes=(50,))
    report = run_experiment(config)
    standard = next(c for c in report.cells if c.sampler == "standard")
    process = next(c for c in report.cells if c.sampler == "process-aware")
    assert standard.trials == 0
    assert math.isnan(standard.credit_mean) and math.isnan(standard.risk_std)
    assert process.trials == 2
    assert len(report.failures) == 2
    assert {f.stage for f in report.failures} == {"sampling"}
    assert [f.trial for f in report.failures] == [0, 1]

    document = json.loads(report_to_json(report))
    standard_cell = next(c for c in document["cells"] if c["sampler"] == "standard")
    assert standard_cell["credit"]["mean"] is None
    assert standard_cell["trials"] == 0
    assert len(document["failures"]) == 2
    assert "synthetic breakage" in document["failures"][0]["message"]
    csv_text = report_to_csv(report)
    assert "standard,50,credit,nan,nan,0" in csv_text


def test_process_aware_mismatch_does_not_grow_with_neighborhood_size():
    report = run_experiment(ExperimentConfig(master_seed=29))
    cells = {(c.sampler, c.size): c for c in report.cells}
    assert report.failures == ()
    small = cells[("process-aware", 1000)]
    large = cells[("process-aware", 5000)]
    assert large.credit_mean <= small.credit_mean
    assert large.risk_mean <= small.risk_mean
    for size in (1000, 5000):
        assert cells[("standard", size)].credit_mean > cells[("process-aware", size)].credit_mean
        assert cells[("standard", size)].risk_mean > cells[("process-aware", size)].risk_mean
