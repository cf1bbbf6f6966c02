"""Command-line surface: dataset generation, one-off explanations, sampler
comparison runs, and SVG figures.

Every long option of a subcommand is also a key of the flat key=value config
file passed with --config; explicit flags override config values. The seed
falls back to the PROLIME_SEED environment variable when neither flag nor
config provides one. Exit codes: 0 success, 1 runtime failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path
from typing import Mapping

from .core import (
    CenterMode,
    ConstantModel,
    FeatureVector,
    LimeHyperparameters,
    NoiseMode,
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
from .explainer import ExplainRequest, ExplainStageError, draw_neighborhood, explain
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


# argparse's own pattern takes "-1e-3" for an option; exponents are allowed here.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")

# Size caps, so that a typo fails at once instead of exhausting memory.
MAX_SAMPLES = 1_000_000
MAX_NEIGHBORHOOD_SIZE = 1_000_000
MAX_TRIALS = 100_000
MAX_RESOLUTION = 1000

# The hyperparameter flags default to the library's own defaults.
_DEFAULTS = LimeHyperparameters()


def _int_at_most(maximum: int):
    """An argparse type: an int no larger than ``maximum``."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" errors
    return parse


def _file_path(raw: str) -> str:
    """An argparse type: a path whose last component names a file, so not
    empty, not ending in a separator, not ``.`` or ``..``, and without the
    NUL byte that no file name holds."""
    if os.path.basename(raw) in ("", ".", "..") or "\0" in raw:
        raise argparse.ArgumentTypeError(f"must name a file, got {raw!r}")
    return raw


def _load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def _parse_with_config(
    parser: argparse.ArgumentParser, argv: list[str], config: Mapping[str, str]
) -> argparse.Namespace:
    """Parse a subcommand's flags over its config values, each config value
    cast and checked by the long option of the same name."""
    options = {
        option[2:]: action
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option not in ("--help", "--config")
    }
    unknown = sorted(set(config) - set(options))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    values = argparse.Namespace()
    for key, raw in config.items():
        action = options[key]
        try:
            value = (action.type or str)(raw)
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"expected one of {', '.join(action.choices)}")
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"bad config value for {key!r}: {raw!r} ({exc})") from exc
        setattr(values, action.dest, value)
    # Parsing into a namespace keeps the attributes it already has unless a
    # flag sets them, so flags override config values.
    return parser.parse_args(argv, namespace=values)


def _resolve_seed(args: argparse.Namespace) -> int:
    seed, source = args.seed, "seed"
    if seed is None:
        env = os.environ.get("PROLIME_SEED")
        if env is None:
            return 0
        try:
            seed, source = int(env), "PROLIME_SEED"
        except ValueError as exc:
            raise UsageError(f"PROLIME_SEED must be an integer, got {env!r}") from exc
    if not 0 <= seed < 2**64:
        raise UsageError(f"{source} must lie in [0, 2**64), got {seed}")
    return seed


def _distribution(rho: float) -> BenchmarkDistribution:
    try:
        return BenchmarkDistribution(rho)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _hyperparameters(args: argparse.Namespace, neighborhood_size: int) -> LimeHyperparameters:
    try:
        return LimeHyperparameters(
            neighborhood_size=neighborhood_size,
            center_mode=CenterMode(args.center),
            noise_mode=NoiseMode(args.noise),
            kernel_width=args.kernel_width,
            ridge_strength=args.ridge,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_generate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    if args.n < 1:
        raise UsageError("n must be at least 1")
    dataset = generate_dataset(args.n, RngStream(seed, 0), _distribution(args.rho))
    write_dataset_csv(dataset, args.out)
    fraction = int(dataset.labels.sum()) / args.n
    print(f"wrote {args.n} samples to {args.out}")
    print(f"label-1 fraction: {fraction:.6f}")
    return 0


def _parse_constant_model(raw: str) -> ConstantModel:
    try:
        probabilities = tuple(float(part) for part in raw.split(","))
        if len(probabilities) < 2:
            raise ValueError("at least two class probabilities are required")
        return ConstantModel(probabilities)
    except ValueError as exc:
        raise UsageError(f"bad constant model probabilities {raw!r}: {exc}") from exc


def _cmd_explain(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    hyper = _hyperparameters(args, args.neighborhood_size)
    dist = _distribution(args.rho)
    try:
        sample = FeatureVector((args.credit, args.risk), FEATURE_NAMES)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    constant = args.constant_model
    model = _parse_constant_model(constant) if constant else oracle_model(dist, seed)
    request = ExplainRequest(
        sample=sample,
        model=model,
        hyper=hyper,
        sampler=sampler_spec(args.sampler, hyper, dist),
        rng=RngStream(seed, 0),
    )
    text = explain(request).to_json(indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def _parse_sizes(raw: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}") from exc
    if max(sizes) > MAX_NEIGHBORHOOD_SIZE:
        raise argparse.ArgumentTypeError(
            f"each size must be at most {MAX_NEIGHBORHOOD_SIZE}, got {max(sizes)}"
        )
    return sizes


def _cmd_evaluate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    out = args.out
    if Path(out).suffix == ".json":
        raise UsageError(f"the report CSV path {out!r} must not end in .json, where the JSON report goes")
    json_path = str(Path(out).with_suffix(".json"))
    hyper = _hyperparameters(args, _DEFAULTS.neighborhood_size)
    try:
        experiment = ExperimentConfig(
            master_seed=seed,
            trials=args.trials,
            neighborhood_sizes=args.sizes,
            hyper=hyper,
            distribution=_distribution(args.rho),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = run_experiment(experiment)
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


def _cmd_plot(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    out = f"{args.kind}.svg" if args.out is None else args.out
    dist = _distribution(args.rho)
    if args.kind == "data":
        if args.data is None:
            raise UsageError("the data plot requires --data pointing to a dataset CSV")
        try:
            dataset = read_dataset_csv(args.data)
        except FileNotFoundError as exc:
            raise UsageError(f"cannot read dataset {args.data!r}: {exc}") from exc
        svg = plot_dataset(dataset)
    elif args.kind == "model-grid":
        if args.resolution < 2:
            raise UsageError("resolution must be at least 2")
        svg = plot_model_grid(oracle_model(dist, seed), args.resolution)
    else:
        if args.credit is None or args.risk is None:
            raise UsageError("the neighborhood plot requires --credit and --risk")
        hyper = _hyperparameters(args, args.neighborhood_size)
        try:
            origin = FeatureVector((args.credit, args.risk), FEATURE_NAMES)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        spec = sampler_spec(args.sampler, hyper, dist)
        nbhd = draw_neighborhood(origin, spec, hyper.neighborhood_size, RngStream(seed, 0))
        weights = neighborhood_weights(origin, nbhd, KernelSpec(hyper.kernel_width))
        svg = plot_neighborhood(origin, nbhd, weights)
    Path(out).write_text(svg, encoding="utf-8")
    print(f"wrote {out}")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed (fallback: PROLIME_SEED, then 0)")
    parser.add_argument("--config", default=None, help="flat key=value config file; flags override it")
    parser.add_argument("--rho", type=float, default=BenchmarkDistribution().rho,
                        help="feature correlation (default %(default)s)")


def _add_hyper_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--center", choices=[mode.value for mode in CenterMode],
                        default=_DEFAULTS.center_mode.value, help="perturbation center (default %(default)s)")
    parser.add_argument("--noise", choices=[mode.value for mode in NoiseMode],
                        default=_DEFAULTS.noise_mode.value, help="perturbation noise (default %(default)s)")
    parser.add_argument("--kernel-width", type=float, default=_DEFAULTS.kernel_width,
                        help="proximity kernel width (default 0.75*sqrt(2) = %(default).4g)")
    parser.add_argument("--ridge", type=float, default=_DEFAULTS.ridge_strength,
                        help="L2 penalty on surrogate coefficients (default %(default)s)")


def _add_neighborhood_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sampler", choices=list(SAMPLER_NAMES), default="standard",
                        help="neighborhood sampler (default %(default)s)")
    parser.add_argument("--neighborhood-size", type=_int_at_most(MAX_NEIGHBORHOOD_SIZE),
                        default=_DEFAULTS.neighborhood_size,
                        help="points per neighborhood "
                        f"(default %(default)s, at most {MAX_NEIGHBORHOOD_SIZE})")
    _add_hyper_flags(parser)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name, built once per process: parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="prolime",
        description="Local surrogate explanations with swappable neighborhood sampling, "
        "plus a correlated loan-approval benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a labeled benchmark dataset as CSV")
    _add_common_flags(gen)
    gen.add_argument("--n", type=_int_at_most(MAX_SAMPLES), default=10000,
                     help=f"number of samples (default %(default)s, at most {MAX_SAMPLES})")
    gen.add_argument("--out", type=_file_path, default="dataset.csv", help="output CSV path (default %(default)s)")
    gen.set_defaults(handler=_cmd_generate)

    exp = sub.add_parser("explain", help="explain one point, JSON on stdout")
    _add_common_flags(exp)
    exp.add_argument("credit", type=float, help="credit value of the explained point")
    exp.add_argument("risk", type=float, help="risk value of the explained point")
    _add_neighborhood_flags(exp)
    exp.add_argument("--constant-model", default=None, metavar="P0,P1",
                     help="replace the benchmark model with a constant output, e.g. 0.5,0.5")
    exp.add_argument("--out", type=_file_path, default=None, help="also write the JSON to this path")
    exp.set_defaults(handler=_cmd_explain)

    ev = sub.add_parser("evaluate", help="run the paired sampler comparison")
    _add_common_flags(ev)
    ev.add_argument("--trials", type=_int_at_most(MAX_TRIALS), default=100,
                    help=f"trial count (default %(default)s, at most {MAX_TRIALS})")
    ev.add_argument("--sizes", type=_parse_sizes, default="1000,5000", metavar="N1,N2,...",
                    help=f"neighborhood sizes (default %(default)s, each at most {MAX_NEIGHBORHOOD_SIZE})")
    _add_hyper_flags(ev)
    ev.add_argument("--out", type=_file_path, default="report.csv",
                    help="report CSV path (default %(default)s); JSON lands beside it")
    ev.set_defaults(handler=_cmd_evaluate)

    pl = sub.add_parser("plot", help="emit an SVG figure")
    _add_common_flags(pl)
    pl.add_argument("kind", choices=["data", "model-grid", "neighborhood"],
                    help="what to draw")
    pl.add_argument("--data", default=None, help="dataset CSV for the data plot")
    pl.add_argument("--resolution", type=_int_at_most(MAX_RESOLUTION), default=200,
                    help="grid points per axis for the model-grid plot "
                    f"(default %(default)s, at most {MAX_RESOLUTION})")
    pl.add_argument("--credit", type=float, default=None, help="explained point for the neighborhood plot")
    pl.add_argument("--risk", type=float, default=None, help="explained point for the neighborhood plot")
    _add_neighborhood_flags(pl)
    pl.add_argument("--out", type=_file_path, default=None, help="output SVG path (default <kind>.svg)")
    pl.set_defaults(handler=_cmd_plot)

    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        if args.config is not None:
            # argv[0] is the command: the top parser has no options of its own.
            args = _parse_with_config(commands[args.command], argv[1:], _load_config(args.config))
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DatasetFormatError as exc:
        print(f"error: malformed dataset CSV: {exc}", file=sys.stderr)
        return 2
    except ExplainStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
