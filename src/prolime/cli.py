"""Command-line surface: dataset generation, one-off explanations, sampler
comparison runs, and SVG figures.

Every long option of a command ("generate", "plot data", ...) is also a key of
the flat key=value config file passed with --config; explicit flags override
config values. The seed falls back to the PROLIME_SEED environment variable
when neither flag nor config provides one. Exit codes: 0 success, 1 runtime failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys
from pathlib import Path
from typing import Mapping

from .core import ConstantModel, FeatureVector, LimeHyperparameters, NoiseMode
from .datasets import DatasetFormatError, _overwrite, read_dataset_csv, write_dataset_csv
from .evaluation import (
    SAMPLER_NAMES,
    ExperimentConfig,
    report_to_csv,
    report_to_json,
    run_experiment,
    sampler_spec,
    summary_table,
)
from .explainer import ExplainRequest, ExplainStageError, explain, neighborhood_weights
from .samplers import CenterMode, RngStream, draw_neighborhood
from .simulation import BenchmarkDistribution, FEATURE_NAMES, OracleModel, generate_dataset
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


def _int_at_most(maximum: int, minimum: int | None = None):
    """An argparse type: an int no larger than ``maximum`` nor smaller than ``minimum``."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" errors
    return parse


def _file_path(raw: str) -> str:
    """An argparse type: a path whose last component names a file, so not
    empty, not ending in a separator, not ``.`` or ``..``, and without the
    NUL byte that no file name holds, in a directory that exists."""
    if os.path.basename(raw) in ("", ".", "..") or "\0" in raw:
        raise argparse.ArgumentTypeError(f"must name a file, got {raw!r}")
    directory = os.path.dirname(raw)
    if directory and not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"no such directory {directory!r} for {raw!r}")
    return raw


def _load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
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
        key = key.rstrip()
        if not key:
            raise UsageError(f"config line {line_number} has no key: {line!r}")
        if key in config:
            raise UsageError(f"config line {line_number} sets {key!r} again: {line!r}")
        config[key] = value.lstrip()
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


@contextlib.contextmanager
def _rejected_values():
    """Re-raise a ``ValueError`` from building library values out of flags as
    a usage error with the same text. Only construction runs inside: a
    ``ValueError`` from a run phase is a bug, not a bad flag."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _hyperparameters(args: argparse.Namespace, **flagged) -> LimeHyperparameters:
    """From the sampling flags and ``flagged``, the command's other flags; the rest keep their defaults."""
    return LimeHyperparameters(noise_mode=NoiseMode(args.noise), kernel_width=args.kernel_width, **flagged)


def _cmd_generate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    with _rejected_values():
        dist = BenchmarkDistribution(args.rho)
    dataset = generate_dataset(args.n, RngStream(seed, 0), dist)
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
    with _rejected_values():
        hyper = _hyperparameters(args, neighborhood_size=args.neighborhood_size, ridge_strength=args.ridge)
        dist = BenchmarkDistribution(args.rho)
        sample = FeatureVector((args.credit, args.risk), FEATURE_NAMES)
    constant = args.constant_model
    model = _parse_constant_model(constant) if constant else OracleModel(dist, seed)
    request = ExplainRequest(
        sample=sample,
        model=model,
        hyper=hyper,
        sampler=sampler_spec(args.sampler, hyper, dist, CenterMode(args.center)),
        rng=RngStream(seed, 0),
    )
    text = explain(request).to_json(indent=2)
    print(text)
    if args.out:
        _overwrite(args.out, ((text + "\n").encode("utf-8"),))
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
    with _rejected_values():
        hyper = _hyperparameters(args, ridge_strength=args.ridge)
        experiment = ExperimentConfig(
            master_seed=seed,
            trials=args.trials,
            neighborhood_sizes=args.sizes,
            hyper=hyper,
            distribution=BenchmarkDistribution(args.rho),
            center_mode=CenterMode(args.center),
        )
    report = run_experiment(experiment)
    _overwrite(out, (report_to_csv(report).encode("utf-8"),))
    _overwrite(json_path, (report_to_json(report).encode("utf-8"),))
    print(summary_table(report))
    print(f"wrote {out} and {json_path}")
    empty_cells = [cell for cell in report.cells if cell.trials == 0]
    if empty_cells:
        names = ", ".join(f"{c.sampler}@{c.size}" for c in empty_cells)
        print(f"error: no successful trials for cell(s): {names}", file=sys.stderr)
        return 1
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    if args.kind == "data":
        if args.data is None:
            raise UsageError("the data plot requires --data pointing to a dataset CSV")
        try:
            dataset = read_dataset_csv(args.data)
        except OSError as exc:
            raise UsageError(f"cannot read dataset {args.data!r}: {exc}") from exc
        svg = plot_dataset(dataset)
    else:
        seed = _resolve_seed(args)
        with _rejected_values():
            dist = BenchmarkDistribution(args.rho)
        if args.kind == "model-grid":
            svg = plot_model_grid(OracleModel(dist, seed), args.resolution)
        else:
            if args.credit is None or args.risk is None:
                raise UsageError("the neighborhood plot requires --credit and --risk")
            with _rejected_values():
                hyper = _hyperparameters(args, neighborhood_size=args.neighborhood_size)
                origin = FeatureVector((args.credit, args.risk), FEATURE_NAMES)
            spec = sampler_spec(args.sampler, hyper, dist, CenterMode(args.center))
            nbhd = draw_neighborhood(origin, spec, hyper.neighborhood_size, RngStream(seed, 0))
            svg = plot_neighborhood(nbhd, neighborhood_weights(nbhd, hyper.kernel_width))
    _overwrite(args.out, (svg.encode("utf-8"),))
    print(f"wrote {args.out}")
    return 0


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=_file_path, default=None,
                        help="flat key=value config file; flags override it")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed (fallback: PROLIME_SEED, then 0)")
    _add_config_flag(parser)
    parser.add_argument("--rho", type=float, default=BenchmarkDistribution().rho,
                        help="feature correlation (default %(default)s)")


def _add_hyper_flags(parser: argparse.ArgumentParser, ridge: bool = True) -> None:
    parser.add_argument("--center", choices=[mode.value for mode in CenterMode],
                        default=ExperimentConfig.center_mode.value, help="perturbation center (default %(default)s)")
    parser.add_argument("--noise", choices=[mode.value for mode in NoiseMode],
                        default=_DEFAULTS.noise_mode.value, help="perturbation noise (default %(default)s)")
    parser.add_argument("--kernel-width", type=float, default=_DEFAULTS.kernel_width,
                        help="proximity kernel width (default 0.75*sqrt(2) = %(default).4g)")
    if ridge:
        parser.add_argument("--ridge", type=float, default=_DEFAULTS.ridge_strength,
                            help="L2 penalty on surrogate coefficients (default %(default)s)")


def _add_neighborhood_flags(parser: argparse.ArgumentParser, ridge: bool = True) -> None:
    parser.add_argument("--sampler", choices=list(SAMPLER_NAMES), default="standard",
                        help="neighborhood sampler (default %(default)s)")
    parser.add_argument("--neighborhood-size", type=_int_at_most(MAX_NEIGHBORHOOD_SIZE),
                        default=_DEFAULTS.neighborhood_size,
                        help="points per neighborhood "
                        f"(default %(default)s, at most {MAX_NEIGHBORHOOD_SIZE})")
    _add_hyper_flags(parser, ridge)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its innermost parsers by command words ("plot data"),
    built once per process: parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="prolime",
        description="Local surrogate explanations with swappable neighborhood sampling, "
        "plus a correlated loan-approval benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a labeled benchmark dataset as CSV")
    _add_common_flags(gen)
    gen.add_argument("--n", type=_int_at_most(MAX_SAMPLES, minimum=1), default=10000,
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
    ev.add_argument("--trials", type=_int_at_most(MAX_TRIALS), default=ExperimentConfig.trials,
                    help=f"trial count (default %(default)s, at most {MAX_TRIALS})")
    ev.add_argument("--sizes", type=_parse_sizes, metavar="N1,N2,...",
                    default=",".join(map(str, ExperimentConfig.neighborhood_sizes)),
                    help=f"neighborhood sizes (default %(default)s, each at most {MAX_NEIGHBORHOOD_SIZE})")
    _add_hyper_flags(ev)
    ev.add_argument("--out", type=_file_path, default="report.csv",
                    help="report CSV path (default %(default)s); JSON lands beside it")
    ev.set_defaults(handler=_cmd_evaluate)

    kinds = sub.add_parser("plot", help="emit an SVG figure").add_subparsers(dest="kind", required=True)
    # --data, --credit and --risk stay optional here: the config file, read later, may set them.
    data = kinds.add_parser("data", help="the labeled points of a dataset CSV")
    _add_config_flag(data)
    data.add_argument("--data", type=_file_path, default=None, help="dataset CSV to draw (required)")

    grid = kinds.add_parser("model-grid", help="the benchmark model's labels on a grid")
    _add_common_flags(grid)
    grid.add_argument("--resolution", type=_int_at_most(MAX_RESOLUTION, minimum=2), default=200,
                      help=f"grid points per axis (default %(default)s, at most {MAX_RESOLUTION})")

    nbhd = kinds.add_parser("neighborhood", help="one sampled neighborhood, sized by proximity weight")
    _add_common_flags(nbhd)
    nbhd.add_argument("--credit", type=float, default=None, help="credit of the explained point (required)")
    nbhd.add_argument("--risk", type=float, default=None, help="risk of the explained point (required)")
    _add_neighborhood_flags(nbhd, ridge=False)

    for kind, each in kinds.choices.items():
        each.add_argument("--out", type=_file_path, default=f"{kind}.svg",
                          help="output SVG path (default %(default)s)")
        # The kind is a default too, so that a re-parse by this parser alone keeps it.
        each.set_defaults(kind=kind, handler=_cmd_plot)

    commands = {name: each for name, each in sub.choices.items() if name != "plot"}
    commands.update((f"plot {kind}", each) for kind, each in kinds.choices.items())
    for each in (parser, sub.choices["plot"], *commands.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser, commands


def _reject_leading_option(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Exit 2 naming an option placed before the command or the plot kind:
    argparse would skip it and take its value for the command word."""
    words = argv[:2] if argv[:1] == ["plot"] else argv[:1]
    for where, word in zip(("command", "plot kind"), words):
        if word.startswith("-") and word not in ("-h", "--help") and not _NEGATIVE_NUMBER.match(word):
            parser.error(f"option {word} comes before the {where}; options follow the {where}")


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        _reject_leading_option(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        if args.config is not None:
            # Only the innermost parsers have options, so the command words lead argv.
            name = f"plot {args.kind}" if args.command == "plot" else args.command
            args = _parse_with_config(commands[name], argv[len(name.split()):], _load_config(args.config))
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
