"""The benchmark's workloads: their inputs, set-up and one operation each.

``evaluate`` and ``figures`` are declared in BENCHMARK.json; ``explain-lhs``
and ``explain-small`` are kept for runs by hand.

Each workload is driven in-process through prolime's public API or through
``prolime.cli.main``. Inputs come from the benchmark's own numpy generator,
seeded by the workload seed; prolime receives only the generated values
(explained points, stream seeds and CLI seeds).

Module attributes are always looked up at call time (``explainer.explain``,
``cli.main``), so the tracer in ``tracing.py`` can swap in span-recording
wrappers without this module knowing about it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from prolime import cli, explainer
from prolime import (
    FEATURE_NAMES,
    BatchExplainError,
    BenchmarkDistribution,
    ExplainRequest,
    ExplainStageError,
    FeatureVector,
    LimeHyperparameters,
    NoiseMode,
    ProcessAwareSpec,
    RngStream,
    StandardSpec,
    oracle_model,
)

NAMES = ("evaluate", "explain-lhs", "explain-small", "figures")

# Sizes of one op at full scale and at the tiny scale the smoke test and the
# set-up warm-up use. ``check_ops`` is how many leading ops form the check set
# whose output bytes are hashed.
_SIZES = {
    "evaluate": {
        "full": {"trials": 1, "sizes": (1000, 5000), "check_ops": 20},
        "tiny": {"trials": 1, "sizes": (50, 100), "check_ops": 2},
    },
    "explain-lhs": {
        "full": {"n": 5000, "check_ops": 20},
        "tiny": {"n": 200, "check_ops": 3},
    },
    "explain-small": {
        "full": {"n": 32, "check_ops": 200},
        "tiny": {"n": 32, "check_ops": 20},
    },
    "figures": {
        "full": {"n": 3000, "resolution": 50, "check_ops": 3},
        "tiny": {"n": 500, "resolution": 12, "check_ops": 1},
    },
}

_CHUNK = 1024


class OpFailed(Exception):
    """An op failed in a way the benchmark counts: a stage error or a nonzero exit."""


class ExplainedPoints:
    """On-distribution points drawn with the benchmark's own generator.

    Draws come from N(mean, covariance) of the public distribution
    parameters; a draw is kept only when its density, computed here from the
    same parameters, clears the oracle's threshold. Points are produced in
    fixed-size chunks, so point ``k`` depends only on the seed.
    """

    def __init__(self, dist: BenchmarkDistribution, gen: np.random.Generator):
        self._gen = gen
        self._mean = np.asarray(dist.mean, dtype=float)
        self._lower = np.linalg.cholesky(np.asarray(dist.covariance, dtype=float))
        self._dist = dist
        self._points: list[tuple[float, float]] = []

    def __getitem__(self, k: int) -> tuple[float, float]:
        while len(self._points) <= k:
            rows = self._mean + self._gen.standard_normal((_CHUNK, 2)) @ self._lower.T
            keep = density(rows, self._dist) >= self._dist.density_threshold
            self._points.extend(map(tuple, rows[keep].tolist()))
        return self._points[k]


def density(rows: np.ndarray, dist: BenchmarkDistribution) -> np.ndarray:
    """Bivariate normal density of each row under ``dist``."""
    cov = np.asarray(dist.covariance, dtype=float)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    c = rows[:, 0] - dist.mean[0]
    r = rows[:, 1] - dist.mean[1]
    quad = (cov[1, 1] * c * c - 2.0 * cov[0, 1] * c * r + cov[0, 0] * r * r) / det
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def _quiet_cli(argv: list[str]) -> None:
    """Run one CLI command with its stdout captured, as a script would."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"prolime {argv[0]} exited with {code}")


class ExplainWorkload:
    """One ``explainer.explain`` call per op, on the k-th generated point."""

    def __init__(self, seed: int, sizes: dict, sampler: str):
        gen = np.random.default_rng(seed)
        self.dist = BenchmarkDistribution()
        self.program_seed = int(gen.integers(2**32))
        self.points = ExplainedPoints(self.dist, gen)
        self.model = oracle_model(self.dist, self.program_seed)
        if sampler == "standard-lhs":
            noise = NoiseMode.LATIN_HYPERCUBE
            self.sampler = StandardSpec(
                noise_mode=noise,
                per_feature_scale=tuple(math.sqrt(self.dist.covariance[j][j]) for j in range(2)),
                training_mean=self.dist.mean,
            )
        else:
            noise = NoiseMode.GAUSSIAN
            self.sampler = ProcessAwareSpec(mean=self.dist.mean, covariance=self.dist.covariance)
        self.hyper = LimeHyperparameters(neighborhood_size=sizes["n"], noise_mode=noise)
        self.explanations_per_op = 1

    def failed_explanations(self) -> int:
        return 0

    def run(self, k: int):
        request = ExplainRequest(
            sample=FeatureVector(self.points[k], FEATURE_NAMES),
            model=self.model,
            hyper=self.hyper,
            sampler=self.sampler,
            rng=RngStream(self.program_seed, k),
        )
        try:
            return explainer.explain(request)
        except (ExplainStageError, BatchExplainError) as exc:
            raise OpFailed(str(exc)) from exc

    def outputs(self, result) -> list[tuple[str, bytes]]:
        return [("explain.json", (result.to_json(indent=2) + "\n").encode("utf-8"))]


class EvaluateWorkload:
    """One ``prolime evaluate`` pass per op with the default experiment."""

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        gen = np.random.default_rng(seed)
        self.dist = BenchmarkDistribution()
        self.base_seed = int(gen.integers(2**31))
        self.trials = sizes["trials"]
        self.sizes = ",".join(str(s) for s in sizes["sizes"])
        self.report = workdir / "report.csv"
        # two samplers per trial and size
        self.explanations_per_op = 2 * self.trials * len(sizes["sizes"])

    def run(self, k: int):
        _quiet_cli([
            "evaluate", "--trials", str(self.trials), "--sizes", self.sizes,
            "--seed", str(self.base_seed + k), "--out", str(self.report),
        ])
        return None

    def outputs(self, result) -> list[tuple[str, bytes]]:
        return [
            ("report.csv", self.report.read_bytes()),
            ("report.json", self.report.with_suffix(".json").read_bytes()),
        ]

    def failed_explanations(self) -> int:
        """Explanations of the last pass that the report lists as failed."""
        return len(json.loads(self.report.with_suffix(".json").read_text("utf-8"))["failures"])


class FiguresWorkload:
    """One pass per op: generate a dataset, plot it, plot the model grid."""

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        gen = np.random.default_rng(seed)
        self.dist = BenchmarkDistribution()
        self.base_seed = int(gen.integers(2**31))
        self.n = sizes["n"]
        self.resolution = sizes["resolution"]
        self.files = {name: workdir / name for name in ("dataset.csv", "data.svg", "model-grid.svg")}
        self.explanations_per_op = 1

    def failed_explanations(self) -> int:
        return 0

    def run(self, k: int):
        seed = str(self.base_seed + k)
        files = self.files
        _quiet_cli(["generate", "--n", str(self.n), "--seed", seed, "--out", str(files["dataset.csv"])])
        _quiet_cli(["plot", "data", "--data", str(files["dataset.csv"]), "--out", str(files["data.svg"])])
        _quiet_cli([
            "plot", "model-grid", "--resolution", str(self.resolution), "--seed", seed,
            "--out", str(files["model-grid.svg"]),
        ])
        return None

    def outputs(self, result) -> list[tuple[str, bytes]]:
        return [(name, path.read_bytes()) for name, path in self.files.items()]


def make(name: str, seed: int, tiny: bool, workdir: Path):
    """Build a workload: distribution, oracle, sampler spec and hyperparameters."""
    sizes = _SIZES[name]["tiny" if tiny else "full"]
    if name == "explain-lhs":
        workload = ExplainWorkload(seed, sizes, "standard-lhs")
    elif name == "explain-small":
        workload = ExplainWorkload(seed, sizes, "process-aware")
    elif name == "evaluate":
        workload = EvaluateWorkload(seed, sizes, workdir)
    elif name == "figures":
        workload = FiguresWorkload(seed, sizes, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    workload.check_ops = sizes["check_ops"]
    return workload


def mismatch_gap(reports: list[dict]) -> float:
    """Mean coefficient mismatch of standard minus process-aware.

    Trial-weighted over the given evaluate reports, then averaged over
    features and neighborhood sizes.
    """
    sums: dict[tuple[str, int, str], list[float]] = {}
    for report in reports:
        for cell in report["cells"]:
            for feature in ("credit", "risk"):
                if cell["trials"]:
                    acc = sums.setdefault((cell["sampler"], cell["size"], feature), [0.0, 0])
                    acc[0] += cell[feature]["mean"] * cell["trials"]
                    acc[1] += cell["trials"]
    means = {key: total / count for key, (total, count) in sums.items()}
    gaps = [
        mean - means[("process-aware", size, feature)]
        for (sampler, size, feature), mean in means.items()
        if sampler == "standard" and ("process-aware", size, feature) in means
    ]
    return float(np.mean(gaps)) if gaps else float("nan")
