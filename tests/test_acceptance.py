"""Release gate: one test per shipped guarantee, each printing PASS or FAIL."""

from __future__ import annotations

import contextlib
import io
import math
import time

import numpy as np

from prolime.cli import main
from prolime.core import FeatureVector, LimeHyperparameters, LocalSurrogate, NoiseMode
from prolime.evaluation import ExperimentConfig, coefficient_mismatch, run_experiment
from prolime.explainer import ExplainRequest, explain
from prolime.samplers import (
    Neighborhood,
    ProcessAwareSpec,
    RngStream,
    StandardSpec,
    cholesky,
    draw_neighborhood,
    inverse_normal_cdf,
)
from prolime.simulation import (
    BenchmarkDistribution,
    approval_label,
    gaussian_pdf,
    generate_dataset,
    ground_truth_for,
    oracle_model,
)
from prolime.explainer import fit_weighted_ridge, neighborhood_weights

NAMES = ("credit", "risk")


def _fv(credit: float, risk: float) -> FeatureVector:
    return FeatureVector((credit, risk), NAMES)


def _report(label: str, ok: bool) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_mismatch_metric_reference_value():
    (truth,) = ground_truth_for([(0.41, -0.51)])
    surrogate = LocalSurrogate(1.0, (-0.66, 0.69), NAMES)
    credit, risk = coefficient_mismatch(surrogate, truth)
    credit_ok = abs(credit - 0.34) <= 1e-12
    risk_ok = abs(risk - 0.31) <= 1e-12
    _report("criterion 1", credit_ok and risk_ok)
    assert credit_ok
    assert risk_ok


def test_criterion_2_process_aware_sampling_wins_the_comparison():
    started = time.perf_counter()
    report = run_experiment(ExperimentConfig(master_seed=24))
    elapsed = time.perf_counter() - started
    cells = {(c.sampler, c.size): c for c in report.cells}
    # Each size's mean mismatch per feature, in the order of NAMES.
    process_means = [mean for size in (1000, 5000) for mean in cells[("process-aware", size)].means]
    standard_means = [mean for size in (1000, 5000) for mean in cells[("standard", size)].means]
    ordering = all(process < standard for process, standard in zip(process_means, standard_means))
    band = all(0.3 <= mean <= 1.1 for mean in process_means)
    margin = all(standard >= 1.1 * process for process, standard in zip(process_means, standard_means))
    complete = (
        report.failures == ()
        and all(cell.trials == 100 for cell in report.cells)
        and len(process_means) == len(standard_means) == 2 * len(NAMES)
    )
    within_budget = elapsed < 300.0
    ok = ordering and band and margin and complete and within_budget
    _report("criterion 2", ok)
    assert ordering
    assert band
    assert margin
    assert complete
    assert within_budget


def test_criterion_3_sampler_distributions():
    dist = BenchmarkDistribution()
    origin = _fv(0.41, -0.51)
    aware = draw_neighborhood(
        origin,
        ProcessAwareSpec(mean=dist.mean, covariance=dist.covariance),
        10000,
        RngStream(2026, 0),
    )
    rows = aware.points
    correlation = float(np.corrcoef(rows.T)[0, 1])
    corr_ok = -0.95 <= correlation <= -0.85
    means_ok = abs(float(rows[:, 0].mean())) <= 0.05 and abs(float(rows[:, 1].mean())) <= 0.05

    standard = draw_neighborhood(origin, StandardSpec(), 10000, RngStream(2026, 1))
    srows = standard.points
    cross = float(np.corrcoef(srows.T)[0, 1])
    cross_ok = abs(cross) <= 0.05
    ok = corr_ok and means_ok and cross_ok
    _report("criterion 3", ok)
    assert corr_ok
    assert means_ok
    assert cross_ok


def test_criterion_4_oracle_grid_behavior():
    dist = BenchmarkDistribution()
    model = oracle_model(dist, model_seed=0)
    axis = np.linspace(-3.0, 3.0, 200)
    points = np.array([(c, r) for c in axis for r in axis])
    first = model.predict_proba(points)
    second = model.predict_proba(points)
    repeat_ok = np.array_equal(first, second)

    labels = first[:, 1]
    on = gaussian_pdf(points, dist) >= dist.density_threshold
    exact_ok = bool(np.array_equal(labels[on], approval_label(points[on])))
    ood_labels = labels[~on]
    enough_ood = len(ood_labels) >= 10000
    fraction = float(ood_labels.mean())
    fraction_ok = 0.45 <= fraction <= 0.55
    ok = repeat_ok and exact_ok and enough_ood and fraction_ok
    _report("criterion 4", ok)
    assert repeat_ok
    assert exact_ok
    assert enough_ood
    assert fraction_ok


def _brute_force(features, targets, weights, ridge):
    n = features.shape[0]
    augmented = np.hstack([np.ones((n, 1)), features])
    w = np.diag(weights)
    penalty = ridge * np.diag([0.0] + [1.0] * features.shape[1])
    beta = np.linalg.solve(
        augmented.T @ w @ augmented + penalty, augmented.T @ w @ targets
    )
    return beta[0], beta[1:]


def test_criterion_5_weighted_ridge_matches_brute_force():
    gen = np.random.default_rng(1234)
    lambdas = (0.0, 0.1, 1.0, 10.0)
    agree = True
    for instance in range(100):
        d = int(gen.integers(1, 6))
        n = int(gen.integers(d + 2, 51))
        features = gen.normal(size=(n, d))
        targets = gen.normal(size=n)
        weights = gen.uniform(0.05, 1.0, size=n)
        ridge = lambdas[instance % 4]
        names = tuple(f"f{j}" for j in range(d))
        nbhd = Neighborhood(features, FeatureVector((0.0,) * d, names))
        fitted = fit_weighted_ridge(nbhd, targets, weights, ridge)
        intercept, coefficients = _brute_force(features, targets, weights, ridge)
        if abs(fitted.intercept - intercept) > 1e-8:
            agree = False
        if np.max(np.abs(np.asarray(fitted.coefficients) - coefficients)) > 1e-8:
            agree = False

    features = gen.normal(size=(40, 3))
    planted = 1.0 + 2.0 * features[:, 0] - 3.0 * features[:, 1] + 0.5 * features[:, 2]
    nbhd = Neighborhood(features, FeatureVector((0.0, 0.0, 0.0), ("a", "b", "c")))
    exact = fit_weighted_ridge(nbhd, planted, gen.uniform(0.1, 1.0, size=40), 0.0)
    planted_ok = (
        abs(exact.intercept - 1.0) <= 1e-8
        and abs(exact.coefficients[0] - 2.0) <= 1e-8
        and abs(exact.coefficients[1] + 3.0) <= 1e-8
        and abs(exact.coefficients[2] - 0.5) <= 1e-8
    )
    ok = agree and planted_ok
    _report("criterion 5", ok)
    assert agree
    assert planted_ok


def test_criterion_6_proximity_kernel_shape():
    width = 0.75 * math.sqrt(2.0)
    origin = _fv(0.3, -0.7)
    at_origin = neighborhood_weights(Neighborhood(np.array([origin.values]), origin), width)[0]
    identity_ok = at_origin == 1.0
    distances = np.linspace(0.1, 5.0, 80)
    on_axis = Neighborhood(np.column_stack([[width, *distances], np.zeros(81)]), _fv(0.0, 0.0))
    at_width, *values = neighborhood_weights(on_axis, width).tolist()
    width_ok = abs(at_width - math.exp(-1.0)) <= 1e-12
    monotone_ok = all(a > b for a, b in zip(values, values[1:]))
    ok = identity_ok and width_ok and monotone_ok
    _report("criterion 6", ok)
    assert identity_ok
    assert width_ok
    assert monotone_ok


def _run_cli(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0
    return buffer.getvalue()


def test_criterion_7_deterministic_commands(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        data = tmp_path / f"data_{tag}.csv"
        explanation = tmp_path / f"explanation_{tag}.json"
        report = tmp_path / f"report_{tag}.csv"
        stdout = _run_cli(["generate", "--n", "2000", "--seed", "11", "--out", str(data)])
        stdout += _run_cli(
            ["explain", "0.41", "-0.51", "--seed", "11", "--out", str(explanation)]
        )
        stdout += _run_cli(
            [
                "evaluate", "--trials", "3", "--sizes", "100,200", "--seed", "11",
                "--out", str(report),
            ]
        )
        stdout = stdout.replace(tag, "run")
        files = (
            data.read_bytes(),
            explanation.read_bytes(),
            report.read_bytes(),
            (tmp_path / f"report_{tag}.json").read_bytes(),
        )
        outputs.append((stdout, files))
    commands_ok = outputs[0] == outputs[1]

    dist = BenchmarkDistribution()
    samples = [_fv(credit, risk) for credit, risk in generate_dataset(6, RngStream(1), dist).features.tolist()]
    shared = (
        oracle_model(dist, model_seed=1),
        LimeHyperparameters(neighborhood_size=300),
        StandardSpec(training_mean=dist.mean),
    )
    order = range(len(samples))

    def explained(k):
        # Point k is explained on stream k, so the order of the calls is free.
        return explain(ExplainRequest(samples[k], *shared, RngStream(1, k)))

    forward = [explained(k) for k in order]
    backward = {k: explained(k) for k in reversed(order)}
    schedule_ok = forward == [backward[k] for k in order]
    ok = commands_ok and schedule_ok
    _report("criterion 7", ok)
    assert commands_ok
    assert schedule_ok


def test_criterion_8_latin_hypercube_stratification():
    ok = True
    for n in (4, 16, 100):
        boundaries = [inverse_normal_cdf(k / n) for k in range(1, n)]
        nbhd = draw_neighborhood(
            _fv(0.0, 0.0),
            StandardSpec(noise_mode=NoiseMode.LATIN_HYPERCUBE),
            n,
            RngStream(2026, 0),
        )
        rows = nbhd.points
        for column in range(2):
            strata = np.searchsorted(boundaries, rows[:, column])
            if sorted(strata.tolist()) != list(range(n)):
                ok = False
    _report("criterion 8", ok)
    assert ok


def test_criterion_9_dataset_mass_matches_independent_monte_carlo():
    labels = generate_dataset(10000, RngStream(2026)).labels
    fraction = int(labels.sum()) / len(labels)

    gen = np.random.default_rng(99)
    lower = np.asarray(cholesky(((1.0, -0.9), (-0.9, 1.0))))
    draws = gen.standard_normal((1_000_000, 2)) @ lower.T
    mass = float(
        ((np.abs(draws[:, 0] + draws[:, 1]) < 1.0) & (np.abs(draws[:, 0] - draws[:, 1]) < 1.0)).mean()
    )
    closed_form = math.erf(1.0 / math.sqrt(0.4)) * math.erf(1.0 / math.sqrt(7.6))
    close_ok = abs(fraction - mass) <= 0.02
    anchor_ok = abs(mass - closed_form) <= 0.005
    ok = close_ok and anchor_ok
    _report("criterion 9", ok)
    assert close_ok
    assert anchor_ok
