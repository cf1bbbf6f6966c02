"""Coefficient-mismatch metric and the paired sampler-comparison harness."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import FeatureVector, LimeHyperparameters, LocalSurrogate
from .explainer import ExplainRequest, ExplainStageError, explain
from .samplers import ProcessAwareSpec, RngStream, SamplerSpec, StandardSpec
from .simulation import (
    FEATURE_NAMES,
    BenchmarkDistribution,
    GroundTruthBoundary,
    Quadrant,
    gaussian_pdf,
    ground_truth_for,
    oracle_model,
)

__all__ = [
    "SAMPLER_NAMES",
    "ExperimentConfig",
    "MismatchResult",
    "coefficient_mismatch",
    "draw_test_point",
    "report_to_csv",
    "report_to_json",
    "run_experiment",
    "sampler_spec",
    "summary_table",
]

SAMPLER_NAMES = ("standard", "process-aware")


@dataclass(frozen=True)
class MismatchResult:
    """Per-feature absolute gap between a surrogate and its local ground truth."""

    credit_mismatch: float
    risk_mismatch: float
    quadrant: Quadrant

    def __post_init__(self) -> None:
        for value in (self.credit_mismatch, self.risk_mismatch):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError("mismatches must be finite and nonnegative")


def coefficient_mismatch(surrogate: LocalSurrogate, truth: GroundTruthBoundary) -> MismatchResult:
    """Absolute per-feature coefficient differences; the intercept is ignored."""
    missing = [name for name in FEATURE_NAMES if name not in surrogate.feature_names]
    if missing:
        raise ValueError(f"surrogate lacks coefficients for {missing}")
    credit = abs(surrogate.coefficient("credit") - truth.credit_coef)
    risk = abs(surrogate.coefficient("risk") - truth.risk_coef)
    return MismatchResult(credit, risk, truth.quadrant)


@dataclass(frozen=True)
class ExperimentConfig:
    """Deterministic description of a full sampler-comparison run."""

    master_seed: int
    trials: int = 100
    neighborhood_sizes: tuple[int, ...] = (1000, 5000)
    hyper: LimeHyperparameters = LimeHyperparameters()
    distribution: BenchmarkDistribution = BenchmarkDistribution()

    def __post_init__(self) -> None:
        object.__setattr__(self, "neighborhood_sizes", tuple(int(s) for s in self.neighborhood_sizes))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.neighborhood_sizes:
            raise ValueError("at least one neighborhood size is required")
        if any(size < 2 for size in self.neighborhood_sizes):
            raise ValueError("neighborhood sizes must be at least 2")


@dataclass(frozen=True)
class CellStats:
    """Aggregated mismatch for one sampler at one neighborhood size."""

    sampler: str
    size: int
    credit_mean: float
    credit_std: float
    risk_mean: float
    risk_std: float
    trials: int


@dataclass(frozen=True)
class CellFailure:
    sampler: str
    size: int
    trial: int
    stage: str
    message: str


@dataclass(frozen=True)
class ExperimentReport:
    cells: tuple[CellStats, ...]
    failures: tuple[CellFailure, ...]
    master_seed: int
    trials: int
    neighborhood_sizes: tuple[int, ...]
    hyper: LimeHyperparameters


def draw_test_point(dist: BenchmarkDistribution, rng: RngStream) -> FeatureVector:
    """One draw from the benchmark distribution, rejection-resampled until the
    density clears the oracle threshold so the local ground truth is defined."""
    mean = np.asarray(dist.mean)
    gen = rng.generator()
    while True:
        point = FeatureVector(tuple((mean + dist._lower @ gen.standard_normal(2)).tolist()), FEATURE_NAMES)
        if gaussian_pdf(point, dist) >= dist.density_threshold:
            return point


def sampler_spec(name: str, hyper: LimeHyperparameters, dist: BenchmarkDistribution) -> SamplerSpec:
    """The named benchmark sampler: ``standard`` perturbs at the features'
    unit scales under the hyperparameters' center and noise modes;
    ``process-aware`` draws from the benchmark distribution itself."""
    if name == "standard":
        return StandardSpec(center_mode=hyper.center_mode, noise_mode=hyper.noise_mode, training_mean=dist.mean)
    if name == "process-aware":
        return ProcessAwareSpec(mean=dist.mean, covariance=dist.covariance)
    raise ValueError(f"unknown sampler {name!r}, expected one of {', '.join(SAMPLER_NAMES)}")


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Paired comparison of samplers across neighborhood sizes.

    Every trial draws one fresh in-distribution test point and explains it
    once per (sampler, size) cell, so cells within a trial are paired.
    Stream layout: with ``cells`` combinations per trial, trial ``t`` draws
    its test point from stream ``t * (cells + 1)`` and cell ``j`` of that
    trial explains with stream ``t * (cells + 1) + 1 + j``, all under the
    master seed. The oracle model is seeded with the master seed as well.
    Mismatch means and population standard deviations aggregate the
    successful trials of each cell in trial order.
    """
    dist = config.distribution
    model = oracle_model(dist, model_seed=config.master_seed)
    specs = {name: sampler_spec(name, config.hyper, dist) for name in SAMPLER_NAMES}
    cells = [(name, size) for name in SAMPLER_NAMES for size in config.neighborhood_sizes]
    stride = len(cells) + 1
    values: dict[tuple[str, int], dict[str, list[float]]] = {
        cell: {"credit": [], "risk": []} for cell in cells
    }
    failures: list[CellFailure] = []
    for trial in range(config.trials):
        test_point = draw_test_point(dist, RngStream(config.master_seed, trial * stride))
        truth = ground_truth_for(test_point)
        for cell_index, (name, size) in enumerate(cells):
            stream = RngStream(config.master_seed, trial * stride + 1 + cell_index)
            request = ExplainRequest(
                sample=test_point,
                model=model,
                hyper=replace(config.hyper, neighborhood_size=size),
                sampler=specs[name],
                rng=stream,
            )
            try:
                explanation = explain(request)
            except ExplainStageError as exc:
                failures.append(CellFailure(name, size, trial, exc.stage, str(exc)))
                continue
            result = coefficient_mismatch(explanation.surrogate, truth)
            values[(name, size)]["credit"].append(result.credit_mismatch)
            values[(name, size)]["risk"].append(result.risk_mismatch)
    stats = []
    for name, size in cells:
        credit = np.asarray(values[(name, size)]["credit"])
        risk = np.asarray(values[(name, size)]["risk"])
        if credit.size:
            stats.append(
                CellStats(
                    sampler=name,
                    size=size,
                    credit_mean=float(credit.mean()),
                    credit_std=float(credit.std()),
                    risk_mean=float(risk.mean()),
                    risk_std=float(risk.std()),
                    trials=int(credit.size),
                )
            )
        else:
            nan = float("nan")
            stats.append(CellStats(name, size, nan, nan, nan, nan, 0))
    return ExperimentReport(
        cells=tuple(stats),
        failures=tuple(failures),
        master_seed=config.master_seed,
        trials=config.trials,
        neighborhood_sizes=config.neighborhood_sizes,
        hyper=config.hyper,
    )


def _hyper_dict(hyper: LimeHyperparameters) -> dict:
    # "distance" and "standardize_features" are fixed: the pipeline has no such knobs.
    return {
        "neighborhood_size": hyper.neighborhood_size,
        "center_mode": hyper.center_mode.value,
        "noise_mode": hyper.noise_mode.value,
        "kernel_width": hyper.kernel_width,
        "distance": "euclidean",
        "ridge_strength": hyper.ridge_strength,
        "explained_class": hyper.explained_class,
        "standardize_features": False,
    }


def report_to_csv(report: ExperimentReport) -> str:
    """CSV rows sampler,size,feature,mean,std,trials, preceded by comment
    lines that pin the master seed and the hyperparameter snapshot."""
    lines = [
        f"# master_seed={report.master_seed}",
        f"# trials={report.trials}",
        f"# hyperparameters={json.dumps(_hyper_dict(report.hyper))}",
        "sampler,size,feature,mean,std,trials",
    ]
    for cell in report.cells:
        lines.append(
            f"{cell.sampler},{cell.size},credit,{cell.credit_mean!r},{cell.credit_std!r},{cell.trials}"
        )
        lines.append(
            f"{cell.sampler},{cell.size},risk,{cell.risk_mean!r},{cell.risk_std!r},{cell.trials}"
        )
    return "\n".join(lines) + "\n"


def _json_number(value: float) -> float | None:
    return value if math.isfinite(value) else None


def report_to_json(report: ExperimentReport) -> str:
    document = {
        "master_seed": report.master_seed,
        "trials": report.trials,
        "hyperparameters": _hyper_dict(report.hyper),
        "samplers": list(SAMPLER_NAMES),
        "neighborhood_sizes": list(report.neighborhood_sizes),
        "cells": [
            {
                "sampler": cell.sampler,
                "size": cell.size,
                "credit": {"mean": _json_number(cell.credit_mean), "std": _json_number(cell.credit_std)},
                "risk": {"mean": _json_number(cell.risk_mean), "std": _json_number(cell.risk_std)},
                "trials": cell.trials,
            }
            for cell in report.cells
        ],
        "failures": [
            {
                "sampler": failure.sampler,
                "size": failure.size,
                "trial": failure.trial,
                "stage": failure.stage,
                "message": failure.message,
            }
            for failure in report.failures
        ],
    }
    return json.dumps(document, indent=2) + "\n"


def summary_table(report: ExperimentReport) -> str:
    """Fixed-width text summary, one row per (sampler, size) cell."""
    header = f"{'sampler':<15}{'size':>6}  {'credit (mean +/- std)':<24}{'risk (mean +/- std)':<24}{'trials':>6}"
    lines = [header]
    for cell in report.cells:
        credit = f"{cell.credit_mean:.4f} +/- {cell.credit_std:.4f}"
        risk = f"{cell.risk_mean:.4f} +/- {cell.risk_std:.4f}"
        lines.append(f"{cell.sampler:<15}{cell.size:>6}  {credit:<24}{risk:<24}{cell.trials:>6}")
    return "\n".join(lines)
