"""Mismatch metric and the paired sampler-comparison experiment."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import t as student_t

import prolime.evaluation as evaluation_module
import prolime.samplers as samplers_module
import prolime.simulation as simulation_module
from prolime.core import LimeHyperparameters, LocalSurrogate, NoiseMode
from prolime.evaluation import (
    SAMPLER_NAMES,
    ExperimentConfig,
    coefficient_mismatch,
    draw_test_point,
    report_to_csv,
    report_to_json,
    run_experiment,
    sampler_spec,
    summary_table,
)
from prolime.explainer import ExplainRequest, ExplainStageError, explain
from prolime.samplers import CenterMode, ProcessAwareSpec, RngStream, StandardSpec
from prolime.simulation import (
    BenchmarkDistribution,
    gaussian_pdf,
    ground_truth_for,
    oracle_model,
)

NAMES = ("credit", "risk")


def _surrogate(credit: float, risk: float, intercept: float = 1.0) -> LocalSurrogate:
    return LocalSurrogate(intercept, (credit, risk), NAMES)


def test_coefficient_mismatch_quadrant_four_example():
    (truth,) = ground_truth_for([(0.41, -0.51)])
    assert truth.tolist() == [-1.0, 1.0]
    credit, risk = coefficient_mismatch(_surrogate(-0.66, 0.69), truth)
    assert abs(credit - 0.34) <= 1e-12
    assert abs(risk - 0.31) <= 1e-12


def test_coefficient_mismatch_exact_recovery_is_zero():
    (truth,) = ground_truth_for([(0.41, -0.51)])
    assert coefficient_mismatch(_surrogate(-1.0, 1.0), truth) == (0.0, 0.0)


def test_coefficient_mismatch_zero_surrogate():
    (truth,) = ground_truth_for([(0.41, -0.51)])
    assert coefficient_mismatch(_surrogate(0.0, 0.0), truth) == (1.0, 1.0)


def test_coefficient_mismatch_ignores_the_intercept():
    (truth,) = ground_truth_for([(0.41, -0.51)])
    a = coefficient_mismatch(_surrogate(-0.66, 0.69, intercept=1.0), truth)
    b = coefficient_mismatch(_surrogate(-0.66, 0.69, intercept=-7.5), truth)
    assert a == b


def test_coefficient_mismatch_requires_both_benchmark_features():
    (truth,) = ground_truth_for([(0.41, -0.51)])
    # The surrogate names the first benchmark feature it lacks.
    stranger = LocalSurrogate(0.0, (1.0, 2.0), ("credit", "duration"))
    with pytest.raises(ValueError, match=r"^unknown feature 'risk'$"):
        coefficient_mismatch(stranger, truth)
    with pytest.raises(ValueError, match=r"^unknown feature 'credit'$"):
        coefficient_mismatch(LocalSurrogate(0.0, (1.0,), ("duration",)), truth)
    # The truth is one row of ground_truth_for, not the whole array.
    with pytest.raises(ValueError, match=r"truth must be one \(credit, risk\) row of shape \(2,\), got shape \(1, 2\)"):
        coefficient_mismatch(_surrogate(-0.66, 0.69), ground_truth_for([(0.41, -0.51)]))


def test_draw_test_point_stays_on_distribution():
    dist = BenchmarkDistribution()
    for stream in range(20):
        point = draw_test_point(dist, RngStream(17, stream))
        assert gaussian_pdf(point.as_array()[None, :], dist)[0] >= dist.density_threshold
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
    # Distributions share the spec of their rho, which earlier tests may have built.
    simulation_module._process_aware_spec.cache_clear()
    config = ExperimentConfig(
        master_seed=3, trials=1, neighborhood_sizes=(50, 100),
        distribution=BenchmarkDistribution(-0.5),
    )
    report = run_experiment(config)
    assert all(cell.trials == 1 for cell in report.cells)
    # The distribution's, which its process-aware sampler holds.
    assert len(calls) == 1


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=0, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=0, neighborhood_sizes=())
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=0, neighborhood_sizes=(1,))
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
            ExperimentConfig(master_seed=seed)
    for whole_numbers_only in ({"trials": 2.5}, {"neighborhood_sizes": (50.7,)}, {"master_seed": 1.5}):
        with pytest.raises(TypeError):
            ExperimentConfig(**{"master_seed": 0, **whole_numbers_only})
    # numpy integers become Python ints, which the JSON report can write.
    config = ExperimentConfig(master_seed=np.uint64(3), trials=np.int64(1), neighborhood_sizes=(np.int32(50),))
    assert [type(v) for v in (config.master_seed, config.trials, *config.neighborhood_sizes)] == [int, int, int]
    # The center mode is cast through its enum, as the spec casts it.
    assert ExperimentConfig(master_seed=0).center_mode is CenterMode.SAMPLE
    assert ExperimentConfig(master_seed=0, center_mode="mean").center_mode is CenterMode.MEAN
    with pytest.raises(ValueError, match="'median' is not a valid CenterMode"):
        ExperimentConfig(master_seed=0, center_mode="median")


def test_experiment_config_rejects_a_repeated_size():
    # Two cells of one sampler and size would each claim the same report row.
    with pytest.raises(ValueError, match="^neighborhood size 50 is given more than once$"):
        ExperimentConfig(master_seed=0, neighborhood_sizes=(50, 100, 50))
    assert ExperimentConfig(master_seed=0, neighborhood_sizes=(100, 50)).neighborhood_sizes == (100, 50)


def test_sampler_spec_builds_each_named_sampler():
    hyper, dist = LimeHyperparameters(noise_mode=NoiseMode.LATIN_HYPERCUBE), BenchmarkDistribution()
    standard = sampler_spec("standard", hyper, dist)
    assert standard == StandardSpec(noise_mode=NoiseMode.LATIN_HYPERCUBE, training_mean=dist.mean)
    assert sampler_spec("process-aware", hyper, dist) is dist.spec
    assert dist.spec == ProcessAwareSpec(dist.mean, dist.covariance)
    with pytest.raises(ValueError, match="unknown sampler 'gridwise'"):
        sampler_spec("gridwise", hyper, dist)
    mean_centered = sampler_spec("standard", hyper, dist, CenterMode.MEAN)
    assert mean_centered == replace(standard, center_mode=CenterMode.MEAN)


def test_single_trial_uses_the_documented_stream_layout():
    config = ExperimentConfig(master_seed=41, trials=1, neighborhood_sizes=(500,))
    report = run_experiment(config)
    assert [(c.sampler, c.size) for c in report.cells] == [
        ("standard", 500),
        ("process-aware", 500),
    ]
    for cell in report.cells:
        assert cell.trials == 1
        assert cell.stds == (0.0, 0.0)

    dist = config.distribution
    test_point = draw_test_point(dist, RngStream(41, 0))
    (truth,) = ground_truth_for([test_point.values])
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
        assert cell.means == coefficient_mismatch(explanation.surrogate, truth)


def test_a_failed_trial_drops_out_of_its_cell_alone(monkeypatch):
    # Four cells per trial, so trial t explains cell j with stream 5t + 1 + j;
    # standard@50 is cell 0, and its trial 1 fails.
    failing = RngStream(5, 1 * 5 + 1)

    def broken_once(request):
        if request.rng == failing:
            raise ExplainStageError("fitting", ValueError("synthetic breakage"))
        return explain(request)

    monkeypatch.setattr(evaluation_module, "explain", broken_once)
    config = ExperimentConfig(master_seed=5, trials=3, neighborhood_sizes=(50, 100))
    report = run_experiment(config)
    assert [(f.sampler, f.size, f.trial) for f in report.failures] == [("standard", 50, 1)]
    assert [cell.trials for cell in report.cells] == [2, 3, 3, 3]

    dist = config.distribution
    model = oracle_model(dist, model_seed=5)
    hyper = replace(config.hyper, neighborhood_size=50)
    standard = sampler_spec("standard", config.hyper, dist)
    credit, risk = [], []
    for trial in (0, 2):
        test_point = draw_test_point(dist, RngStream(5, trial * 5))
        explanation = explain(ExplainRequest(test_point, model, hyper, standard, RngStream(5, trial * 5 + 1)))
        credit_gap, risk_gap = coefficient_mismatch(explanation.surrogate, ground_truth_for([test_point.values])[0])
        credit.append(credit_gap)
        risk.append(risk_gap)
    cell = report.cells[0]
    assert cell.means == (float(np.mean(credit)), float(np.mean(risk)))
    assert cell.stds == (float(np.std(credit)), float(np.std(risk)))


@pytest.mark.parametrize("trials", [1, 8, 9, 100, 129])
def test_cell_moments_are_those_of_each_cells_kept_trials_bit_for_bit(trials, monkeypatch):
    # Cell 1 fails every trial, cell 2 every third from trial 1 on.
    cells = 2 * len(SAMPLER_NAMES)
    failed = np.zeros((cells, trials), dtype=bool)
    failed[1] = True
    failed[2, 1::3] = True
    gen = np.random.default_rng(trials)
    # Gaps over six decades, so a change in summation order shows in the last bit.
    gaps = gen.standard_normal((cells, 2, trials)) ** 2 * 10.0 ** gen.uniform(-3.0, 3.0, (cells, 2, trials))
    # Cells are explained in order within each trial.
    calls = np.ndindex(trials, cells)

    def scripted(request):
        trial, cell = next(calls)
        if failed[cell, trial]:
            raise ExplainStageError("fitting", ValueError("scripted failure"))
        return SimpleNamespace(surrogate=tuple(gaps[cell, :, trial].tolist()))

    monkeypatch.setattr(evaluation_module, "explain", scripted)
    monkeypatch.setattr(evaluation_module, "coefficient_mismatch", lambda surrogate, truth: surrogate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_experiment(ExperimentConfig(master_seed=4, trials=trials, neighborhood_sizes=(50, 100)))
    assert len(report.failures) == failed.sum()
    for stats, gap, cell_failed in zip(report.cells, gaps, failed):
        credit, risk = gap[0, ~cell_failed], gap[1, ~cell_failed]
        assert stats.trials == len(credit)
        moments = (*stats.means, *stats.stds)
        assert len(moments) == 2 * len(NAMES)
        if len(credit):
            assert moments == (credit.mean(), risk.mean(), credit.std(), risk.std())
        else:
            assert all(map(math.isnan, moments))


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
        assert len(cell.means) == len(cell.stds) == len(NAMES)
        for feature, mean, std in zip(NAMES, cell.means, cell.stds):
            assert by_key[(cell.sampler, cell.size, feature)] == (mean, std, cell.trials)


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
    assert document["cells"][0]["credit"]["mean"] == report.cells[0].means[0]
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
    assert math.isnan(standard.means[0]) and math.isnan(standard.stds[1])
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
    for feature in range(len(NAMES)):
        assert large.means[feature] <= small.means[feature]
        for size in (1000, 5000):
            assert cells[("standard", size)].means[feature] > cells[("process-aware", size)].means[feature]


@pytest.mark.parametrize("seed", [24, 0])
def test_the_default_paired_gap_stays_positive_within_its_confidence_interval(seed):
    # Rebuild every trial of the default experiment with explain and the
    # stream layout of run_experiment's docstring, then bound the paired
    # difference (standard - process-aware) of per-trial mismatch, the mean
    # of the two features' gaps, by its 95% t-interval.
    config = ExperimentConfig(master_seed=seed)
    report = run_experiment(config)
    assert report.failures == ()
    dist = config.distribution
    model = oracle_model(dist, model_seed=seed)
    cells = [(name, size) for name in SAMPLER_NAMES for size in config.neighborhood_sizes]
    assert [(cell.sampler, cell.size) for cell in report.cells] == cells
    stride = len(cells) + 1
    mismatch = np.empty((len(cells), 2, config.trials))
    for trial in range(config.trials):
        test_point = draw_test_point(dist, RngStream(seed, trial * stride))
        truth = ground_truth_for([test_point.values])[0]
        for j, (name, size) in enumerate(cells):
            hyper = replace(config.hyper, neighborhood_size=size)
            spec = sampler_spec(name, config.hyper, dist)
            request = ExplainRequest(test_point, model, hyper, spec, RngStream(seed, trial * stride + 1 + j))
            mismatch[j, :, trial] = coefficient_mismatch(explain(request).surrogate, truth)
    for cell, (credit, risk) in zip(report.cells, mismatch):
        assert cell.means == (credit.mean(), risk.mean())
    per_trial = dict(zip(cells, mismatch.mean(axis=1)))
    critical = student_t.ppf(0.975, config.trials - 1)
    for size in config.neighborhood_sizes:
        gap = per_trial[("standard", size)] - per_trial[("process-aware", size)]
        half_width = critical * gap.std(ddof=1) / math.sqrt(len(gap))
        assert gap.mean() - half_width > 0
