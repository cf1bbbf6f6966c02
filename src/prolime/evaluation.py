"""Coefficient-mismatch metric and the paired sampler-comparison harness."""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import FeatureVector, LimeHyperparameters, LocalSurrogate
from .explainer import ExplainRequest, ExplainStageError, explain
from .samplers import CenterMode, RngStream, SamplerSpec, StandardSpec, _gaussian_rows
from .simulation import FEATURE_NAMES, BenchmarkDistribution, OracleModel, ground_truth_for

__all__ = [
    "SAMPLER_NAMES",
    "ExperimentConfig",
    "coefficient_mismatch",
    "draw_test_point",
    "report_to_csv",
    "report_to_json",
    "run_experiment",
    "sampler_spec",
    "summary_table",
]

SAMPLER_NAMES = ("standard", "process-aware")


def coefficient_mismatch(surrogate: LocalSurrogate, truth: np.ndarray) -> tuple[float, ...]:
    """Absolute gaps between the surrogate's coefficients and ``truth``, one
    row of :func:`ground_truth_for`, one gap per name in ``FEATURE_NAMES``;
    the intercept is ignored."""
    truth = np.asarray(truth, dtype=float)
    shape = (len(FEATURE_NAMES),)
    if truth.shape != shape:
        row = ", ".join(FEATURE_NAMES)
        raise ValueError(f"truth must be one ({row}) row of shape {shape}, got shape {truth.shape}")
    return tuple(abs(surrogate.coefficient(name) - value) for name, value in zip(FEATURE_NAMES, truth.tolist()))


@dataclass(frozen=True)
class ExperimentConfig:
    """Deterministic description of a full sampler-comparison run;
    ``center_mode`` centers the standard sampler's neighborhoods."""

    master_seed: int
    trials: int = 100
    neighborhood_sizes: tuple[int, ...] = (1000, 5000)
    hyper: LimeHyperparameters = LimeHyperparameters()
    distribution: BenchmarkDistribution = BenchmarkDistribution()
    center_mode: CenterMode = StandardSpec.center_mode

    def __post_init__(self) -> None:
        sizes = tuple(map(operator.index, self.neighborhood_sizes))
        object.__setattr__(self, "neighborhood_sizes", sizes)
        object.__setattr__(self, "center_mode", CenterMode(self.center_mode))
        object.__setattr__(self, "trials", operator.index(self.trials))
        # Every stream of the run is seeded with the master seed.
        object.__setattr__(self, "master_seed", RngStream(self.master_seed).seed)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not sizes:
            raise ValueError("at least one neighborhood size is required")
        if any(size < 2 for size in sizes):
            raise ValueError("neighborhood sizes must be at least 2")
        repeated = [size for i, size in enumerate(sizes) if size in sizes[:i]]
        if repeated:
            raise ValueError(f"neighborhood size {repeated[0]} is given more than once")


@dataclass(frozen=True)
class CellStats:
    """Aggregated mismatch for one sampler at one neighborhood size: per
    feature, in ``FEATURE_NAMES`` order, the mean and population standard
    deviation over the cell's successful trials."""

    sampler: str
    size: int
    means: tuple[float, ...]
    stds: tuple[float, ...]
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
    config: ExperimentConfig


def draw_test_point(dist: BenchmarkDistribution, rng: RngStream) -> FeatureVector:
    """One draw from the benchmark distribution, rejection-resampled until the
    density clears the oracle threshold so the local ground truth is defined."""
    gen = rng.generator()
    while True:
        row = _gaussian_rows(dist.spec, 1, gen)
        if dist.on_distribution(row)[0]:
            return FeatureVector(tuple(row[0].tolist()), FEATURE_NAMES)


def sampler_spec(
    name: str, hyper: LimeHyperparameters, dist: BenchmarkDistribution,
    center_mode: CenterMode = StandardSpec.center_mode,
) -> SamplerSpec:
    """The named benchmark sampler: ``standard`` perturbs at the features'
    unit scales around ``center_mode``'s center, with the hyperparameters'
    noise mode; ``process-aware`` draws from the benchmark distribution itself."""
    if name == "standard":
        return StandardSpec(center_mode=center_mode, noise_mode=hyper.noise_mode, training_mean=dist.mean)
    if name == "process-aware":
        return dist.spec
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
    model = OracleModel(dist, config.master_seed)
    specs = {name: sampler_spec(name, config.hyper, dist, config.center_mode) for name in SAMPLER_NAMES}
    hypers = {size: replace(config.hyper, neighborhood_size=size) for size in config.neighborhood_sizes}
    cells = [(name, size) for name in SAMPLER_NAMES for size in config.neighborhood_sizes]
    stride = len(cells) + 1
    # Each feature's mismatch by cell and trial; NaN where the explanation failed.
    mismatch = np.full((len(cells), len(FEATURE_NAMES), config.trials), np.nan)
    failures: list[CellFailure] = []
    for trial in range(config.trials):
        test_point = draw_test_point(dist, RngStream(config.master_seed, trial * stride))
        truth = ground_truth_for([test_point.values])[0]
        for cell_index, (name, size) in enumerate(cells):
            stream = RngStream(config.master_seed, trial * stride + 1 + cell_index)
            request = ExplainRequest(
                sample=test_point,
                model=model,
                hyper=hypers[size],
                sampler=specs[name],
                rng=stream,
            )
            try:
                explanation = explain(request)
            except ExplainStageError as exc:
                failures.append(CellFailure(name, size, trial, exc.stage, str(exc)))
                continue
            mismatch[cell_index, :, trial] = coefficient_mismatch(explanation.surrogate, truth)
    stats = []
    for (name, size), pair in zip(cells, mismatch):
        # A boolean gather is not C-ordered, and its rows would then sum in
        # sequence, not pairwise as the mean of one contiguous row does.
        kept = np.ascontiguousarray(pair[:, ~np.isnan(pair[0])])
        if kept.size:
            means = tuple(kept.mean(axis=1).tolist())
            stds = tuple(kept.std(axis=1).tolist())
        else:
            # Named, not computed: the mean of an empty slice warns.
            means = stds = (math.nan,) * len(FEATURE_NAMES)
        stats.append(CellStats(name, size, means, stds, kept.shape[1]))
    return ExperimentReport(cells=tuple(stats), failures=tuple(failures), config=config)


def _hyper_dict(config: ExperimentConfig) -> dict:
    # "distance", "explained_class" and "standardize_features" are fixed: the
    # pipeline has no such knobs.
    hyper = config.hyper
    return {
        "neighborhood_size": hyper.neighborhood_size,
        "center_mode": config.center_mode.value,
        "noise_mode": hyper.noise_mode.value,
        "kernel_width": hyper.kernel_width,
        "distance": "euclidean",
        "ridge_strength": hyper.ridge_strength,
        "explained_class": 1,
        "standardize_features": False,
    }


def report_to_csv(report: ExperimentReport) -> str:
    """CSV rows sampler,size,feature,mean,std,trials, preceded by comment
    lines that pin the master seed and the hyperparameter snapshot."""
    lines = [
        f"# master_seed={report.config.master_seed}",
        f"# trials={report.config.trials}",
        f"# hyperparameters={json.dumps(_hyper_dict(report.config))}",
        "sampler,size,feature,mean,std,trials",
    ]
    for cell in report.cells:
        for feature, mean, std in zip(FEATURE_NAMES, cell.means, cell.stds):
            lines.append(f"{cell.sampler},{cell.size},{feature},{mean!r},{std!r},{cell.trials}")
    return "\n".join(lines) + "\n"


def _json_number(value: float) -> float | None:
    return value if math.isfinite(value) else None


def report_to_json(report: ExperimentReport) -> str:
    config = report.config
    cells = []
    for cell in report.cells:
        entry = {"sampler": cell.sampler, "size": cell.size}
        for feature, mean, std in zip(FEATURE_NAMES, cell.means, cell.stds):
            entry[feature] = {"mean": _json_number(mean), "std": _json_number(std)}
        entry["trials"] = cell.trials
        cells.append(entry)
    document = {
        "master_seed": config.master_seed,
        "trials": config.trials,
        "hyperparameters": _hyper_dict(config),
        "samplers": list(SAMPLER_NAMES),
        "neighborhood_sizes": list(config.neighborhood_sizes),
        "cells": cells,
        # The fields' order is the keys' order.
        "failures": [asdict(failure) for failure in report.failures],
    }
    return json.dumps(document, indent=2) + "\n"


def summary_table(report: ExperimentReport) -> str:
    """Fixed-width text summary, one row per (sampler, size) cell."""
    rows = [("sampler", "size", [f"{feature} (mean +/- std)" for feature in FEATURE_NAMES], "trials")]
    for cell in report.cells:
        stats = [f"{mean:.4f} +/- {std:.4f}" for mean, std in zip(cell.means, cell.stds)]
        rows.append((cell.sampler, cell.size, stats, cell.trials))
    # The header and the cells share one layout.
    return "\n".join(
        f"{sampler:<15}{size:>6}  {''.join(stat.ljust(24) for stat in stats)}{trials:>6}"
        for sampler, size, stats, trials in rows
    )
