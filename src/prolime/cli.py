"""Command-line surface: dataset generation, one-off explanations, sampler
comparison runs, and SVG figures.

Every value flag can also come from a flat key=value config file passed with
--config; explicit flags override config values. The seed falls back to the
PROLIME_SEED environment variable when neither flag nor config provides one.
Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Callable, Mapping

from .core import (
    CenterMode,
    ConstantModel,
    FeatureVector,
    LimeHyperparameters,
    NoiseMode,
    default_kernel_width,
)
from .evaluation import (
    SAMPLER_NAMES,
    ExperimentConfig,
    report_to_csv,
    report_to_json,
    run_experiment,
    sampler_spec,
    summary_table,
)
from .explainer import (
    BatchExplainError,
    ExplainRequest,
    ExplainStageError,
    draw_neighborhood,
    explain,
)
from .samplers import RngStream
from .simulation import (
    BenchmarkDistribution,
    DatasetFormatError,
    FEATURE_NAMES,
    generate_dataset,
    oracle_model,
    read_dataset_csv,
    write_dataset_csv,
)
from .surrogate import KernelSpec, neighborhood_weights
from .plots import plot_dataset, plot_model_grid, plot_neighborhood

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or config values; maps to exit code 2."""


def _as_int(raw: str) -> int:
    return int(raw)


def _as_float(raw: str) -> float:
    return float(raw)


def _as_choice(options: tuple[str, ...]) -> Callable[[str], str]:
    def cast(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return raw

    return cast


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    config: dict[str, str] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {line_number} is not key=value: {line!r}")
        key, _, value = stripped.partition("=")
        config[key.strip()] = value.strip()
    return config


def _check_config_keys(config: Mapping[str, str], allowed: set[str]) -> None:
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")


def _setting(args: argparse.Namespace, config: Mapping[str, str], key: str, cast, default):
    flag_value = getattr(args, key.replace("-", "_"), None)
    if flag_value is not None:
        return flag_value
    if key in config:
        raw = config[key]
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad config value for {key!r}: {raw!r} ({exc})") from exc
    return default


def _resolve_seed(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in config:
        try:
            return int(config["seed"])
        except ValueError as exc:
            raise UsageError(f"bad config value for 'seed': {config['seed']!r}") from exc
    env = os.environ.get("PROLIME_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"PROLIME_SEED must be an integer, got {env!r}") from exc
    return 0


def _distribution(rho: float) -> BenchmarkDistribution:
    try:
        return BenchmarkDistribution.with_correlation(rho)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _hyperparameters(
    args: argparse.Namespace,
    config: Mapping[str, str],
    neighborhood_size: int,
) -> LimeHyperparameters:
    center = _setting(args, config, "center", _as_choice(("sample", "mean")), "sample")
    noise = _setting(args, config, "noise", _as_choice(("gaussian", "lhs")), "gaussian")
    kernel_width = _setting(args, config, "kernel-width", _as_float, default_kernel_width(2))
    ridge = _setting(args, config, "ridge", _as_float, 1.0)
    try:
        return LimeHyperparameters(
            neighborhood_size=neighborhood_size,
            center_mode=CenterMode(center),
            noise_mode=NoiseMode(noise),
            kernel_width=kernel_width,
            ridge_strength=ridge,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_generate(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    _check_config_keys(config, {"seed", "n", "rho", "out"})
    seed = _resolve_seed(args, config)
    n = _setting(args, config, "n", _as_int, 10000)
    rho = _setting(args, config, "rho", _as_float, -0.9)
    out = _setting(args, config, "out", str, "dataset.csv")
    if n < 1:
        raise UsageError("n must be at least 1")
    dist = _distribution(rho)
    dataset = generate_dataset(n, RngStream(seed, 0), dist)
    write_dataset_csv(dataset, out)
    fraction = int(dataset.labels.sum()) / n
    print(f"wrote {n} samples to {out}")
    print(f"label-1 fraction: {fraction:.6f}")
    return 0


def _parse_constant_model(raw: str) -> ConstantModel:
    try:
        probabilities = tuple(float(part) for part in raw.split(","))
        return ConstantModel(probabilities)
    except ValueError as exc:
        raise UsageError(f"bad constant model probabilities {raw!r}: {exc}") from exc


def _cmd_explain(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    _check_config_keys(
        config,
        {"seed", "sampler", "center", "noise", "neighborhood-size", "kernel-width",
         "ridge", "rho", "constant-model", "out"},
    )
    seed = _resolve_seed(args, config)
    sampler_name = _setting(args, config, "sampler", _as_choice(SAMPLER_NAMES), "standard")
    size = _setting(args, config, "neighborhood-size", _as_int, 1000)
    rho = _setting(args, config, "rho", _as_float, -0.9)
    constant = _setting(args, config, "constant-model", str, None)
    out = _setting(args, config, "out", str, None)
    hyper = _hyperparameters(args, config, size)
    dist = _distribution(rho)
    try:
        sample = FeatureVector((args.credit, args.risk), FEATURE_NAMES)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    model = _parse_constant_model(constant) if constant else oracle_model(dist, seed)
    request = ExplainRequest(
        sample=sample,
        model=model,
        hyper=hyper,
        sampler=sampler_spec(sampler_name, hyper, dist),
        rng=RngStream(seed, 0),
    )
    text = explain(request).to_json(indent=2)
    print(text)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    return 0


def _parse_sizes(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {raw!r}") from exc


def _cmd_evaluate(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    _check_config_keys(
        config,
        {"seed", "trials", "sizes", "center", "noise", "kernel-width", "ridge", "rho", "out"},
    )
    seed = _resolve_seed(args, config)
    trials = _setting(args, config, "trials", _as_int, 100)
    sizes = _setting(args, config, "sizes", _parse_sizes, (1000, 5000))
    rho = _setting(args, config, "rho", _as_float, -0.9)
    out = _setting(args, config, "out", str, "report.csv")
    hyper = _hyperparameters(args, config, neighborhood_size=1000)
    try:
        experiment = ExperimentConfig(
            master_seed=seed,
            trials=trials,
            neighborhood_sizes=sizes,
            hyper=hyper,
            distribution=_distribution(rho),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = run_experiment(experiment)
    json_path = str(Path(out).with_suffix(".json"))
    Path(out).write_text(report_to_csv(report), encoding="utf-8")
    Path(json_path).write_text(report_to_json(report), encoding="utf-8")
    print(summary_table(report))
    print(f"wrote {out} and {json_path}")
    empty_cells = [cell for cell in report.cells if cell.trials == 0]
    if empty_cells:
        names = ", ".join(f"{c.sampler}@{c.size}" for c in empty_cells)
        print(f"error: no successful trials for cell(s): {names}", file=sys.stderr)
        return 1
    return 0


def _cmd_plot(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    _check_config_keys(
        config,
        {"seed", "data", "resolution", "credit", "risk", "sampler", "center", "noise",
         "neighborhood-size", "kernel-width", "rho", "out"},
    )
    seed = _resolve_seed(args, config)
    rho = _setting(args, config, "rho", _as_float, -0.9)
    out = _setting(args, config, "out", str, f"{args.kind}.svg")
    dist = _distribution(rho)
    if args.kind == "data":
        data = _setting(args, config, "data", str, None)
        if data is None:
            raise UsageError("the data plot requires --data pointing to a dataset CSV")
        try:
            dataset = read_dataset_csv(data)
        except FileNotFoundError as exc:
            raise UsageError(f"cannot read dataset {data!r}: {exc}") from exc
        svg = plot_dataset(dataset)
    elif args.kind == "model-grid":
        resolution = _setting(args, config, "resolution", _as_int, 200)
        if resolution < 2:
            raise UsageError("resolution must be at least 2")
        svg = plot_model_grid(oracle_model(dist, seed), resolution)
    else:
        credit = _setting(args, config, "credit", _as_float, None)
        risk = _setting(args, config, "risk", _as_float, None)
        if credit is None or risk is None:
            raise UsageError("the neighborhood plot requires --credit and --risk")
        sampler_name = _setting(args, config, "sampler", _as_choice(SAMPLER_NAMES), "standard")
        size = _setting(args, config, "neighborhood-size", _as_int, 1000)
        hyper = _hyperparameters(args, config, size)
        try:
            origin = FeatureVector((credit, risk), FEATURE_NAMES)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        spec = sampler_spec(sampler_name, hyper, dist)
        nbhd = draw_neighborhood(origin, spec, hyper.neighborhood_size, RngStream(seed, 0))
        weights = neighborhood_weights(origin, nbhd, KernelSpec(hyper.kernel_width))
        svg = plot_neighborhood(origin, nbhd, weights.tolist())
    Path(out).write_text(svg, encoding="utf-8")
    print(f"wrote {out}")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed (fallback: PROLIME_SEED, then 0)")
    parser.add_argument("--config", default=None, help="flat key=value config file; flags override it")


def _add_hyper_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--center", choices=["sample", "mean"], default=None,
                        help="perturbation center (default sample)")
    parser.add_argument("--noise", choices=["gaussian", "lhs"], default=None,
                        help="perturbation noise (default gaussian)")
    parser.add_argument("--kernel-width", type=float, default=None,
                        help="proximity kernel width (default 0.75*sqrt(2))")
    parser.add_argument("--ridge", type=float, default=None,
                        help="L2 penalty on surrogate coefficients (default 1.0)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="prolime",
        description="Local surrogate explanations with swappable neighborhood sampling, "
        "plus a correlated loan-approval benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a labeled benchmark dataset as CSV")
    _add_common_flags(gen)
    gen.add_argument("--n", type=int, default=None, help="number of samples (default 10000)")
    gen.add_argument("--rho", type=float, default=None, help="feature correlation (default -0.9)")
    gen.add_argument("--out", default=None, help="output CSV path (default dataset.csv)")
    gen.set_defaults(handler=_cmd_generate)

    exp = sub.add_parser("explain", help="explain one point, JSON on stdout")
    _add_common_flags(exp)
    exp.add_argument("credit", type=float, help="credit value of the explained point")
    exp.add_argument("risk", type=float, help="risk value of the explained point")
    exp.add_argument("--sampler", choices=list(SAMPLER_NAMES), default=None,
                     help="neighborhood sampler (default standard)")
    exp.add_argument("--neighborhood-size", type=int, default=None,
                     help="points per neighborhood (default 1000)")
    _add_hyper_flags(exp)
    exp.add_argument("--rho", type=float, default=None, help="feature correlation (default -0.9)")
    exp.add_argument("--constant-model", default=None, metavar="P0,P1",
                     help="replace the benchmark model with a constant output, e.g. 0.5,0.5")
    exp.add_argument("--out", default=None, help="also write the JSON to this path")
    exp.set_defaults(handler=_cmd_explain)

    ev = sub.add_parser("evaluate", help="run the paired sampler comparison")
    _add_common_flags(ev)
    ev.add_argument("--trials", type=int, default=None, help="trial count (default 100)")
    ev.add_argument("--sizes", type=_parse_sizes, default=None, metavar="N1,N2,...",
                    help="neighborhood sizes (default 1000,5000)")
    _add_hyper_flags(ev)
    ev.add_argument("--rho", type=float, default=None, help="feature correlation (default -0.9)")
    ev.add_argument("--out", default=None, help="report CSV path (default report.csv); JSON lands beside it")
    ev.set_defaults(handler=_cmd_evaluate)

    pl = sub.add_parser("plot", help="emit an SVG figure")
    _add_common_flags(pl)
    pl.add_argument("kind", choices=["data", "model-grid", "neighborhood"],
                    help="what to draw")
    pl.add_argument("--data", default=None, help="dataset CSV for the data plot")
    pl.add_argument("--resolution", type=int, default=None,
                    help="grid points per axis for the model-grid plot (default 200)")
    pl.add_argument("--credit", type=float, default=None, help="explained point for the neighborhood plot")
    pl.add_argument("--risk", type=float, default=None, help="explained point for the neighborhood plot")
    pl.add_argument("--sampler", choices=list(SAMPLER_NAMES), default=None,
                    help="sampler for the neighborhood plot (default standard)")
    pl.add_argument("--neighborhood-size", type=int, default=None,
                    help="points for the neighborhood plot (default 1000)")
    _add_hyper_flags(pl)
    pl.add_argument("--rho", type=float, default=None, help="feature correlation (default -0.9)")
    pl.add_argument("--out", default=None, help="output SVG path (default <kind>.svg)")
    pl.set_defaults(handler=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        config = _load_config(args.config)
        return args.handler(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DatasetFormatError as exc:
        print(f"error: malformed dataset CSV: {exc}", file=sys.stderr)
        return 2
    except (ExplainStageError, BatchExplainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
