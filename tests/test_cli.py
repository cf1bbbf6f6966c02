"""Command-line behavior: outputs, exit codes, config and seed resolution."""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import prolime
import prolime.evaluation as evaluation_module
from prolime import cli
from prolime.cli import main
from prolime.explainer import ExplainStageError
from prolime.simulation import read_dataset_csv


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _ordered_keys(text: str) -> list[str]:
    pairs = json.loads(text, object_pairs_hook=lambda items: items)
    return [key for key, _ in pairs]


def _circle_count(svg_text: str) -> int:
    root = ET.fromstring(svg_text)
    assert root.tag.endswith("svg")
    return sum(1 for element in root.iter() if element.tag.endswith("circle"))


def test_no_arguments_is_a_usage_error(capsys):
    code, _, _ = _run([], capsys)
    assert code == 2


def test_unknown_command_is_a_usage_error(capsys):
    code, _, _ = _run(["frobnicate"], capsys)
    assert code == 2


def test_generate_writes_header_plus_n_rows(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code, stdout, _ = _run(["generate", "--n", "120", "--seed", "5", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 121
    assert lines[0] == "credit,risk,label"
    assert f"wrote 120 samples to {out}" in stdout
    assert "label-1 fraction: 0." in stdout


def test_generate_rejects_nonpositive_n(tmp_path, capsys):
    code, _, stderr = _run(["generate", "--n", "0", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert stderr.startswith("error:")


def test_generate_reruns_are_byte_identical(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert _run(["generate", "--n", "200", "--seed", "8", "--out", str(a)], capsys)[0] == 0
    assert _run(["generate", "--n", "200", "--seed", "8", "--out", str(b)], capsys)[0] == 0
    assert _run(["generate", "--n", "200", "--seed", "9", "--out", str(c)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_generate_respects_rho(tmp_path, capsys):
    out = tmp_path / "positive.csv"
    code, _, _ = _run(
        ["generate", "--n", "4000", "--rho", "0.9", "--seed", "1", "--out", str(out)], capsys
    )
    assert code == 0
    rows = read_dataset_csv(str(out)).features
    assert float(np.corrcoef(rows.T)[0, 1]) > 0.8


def test_explain_json_shape_and_signs(capsys):
    code, stdout, _ = _run(["explain", "0.41", "-0.51", "--seed", "0"], capsys)
    assert code == 0
    assert _ordered_keys(stdout) == ["sample", "predicted", "coefficients", "ranked"]
    document = json.loads(stdout)
    assert document["sample"] == {"credit": 0.41, "risk": -0.51}
    assert document["predicted"] == [0.0, 1.0]
    assert document["coefficients"]["credit"] < 0.0
    assert document["coefficients"]["risk"] > 0.0
    ranked = document["ranked"]
    assert sorted(name for name, _ in ranked) == ["credit", "risk"]
    assert abs(ranked[0][1]) >= abs(ranked[1][1])


def test_explain_out_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "explanation.json"
    code, stdout, _ = _run(["explain", "0.41", "-0.51", "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text(encoding="utf-8") == stdout


def test_explain_reruns_are_byte_identical(capsys):
    argv = ["explain", "0.41", "-0.51", "--seed", "3"]
    first = _run(argv, capsys)
    second = _run(argv, capsys)
    assert first == second


def test_explain_sampler_choice_changes_the_fit_but_not_the_signs(capsys):
    _, standard, _ = _run(["explain", "0.41", "-0.51", "--seed", "0"], capsys)
    code, aware, _ = _run(
        ["explain", "0.41", "-0.51", "--seed", "0", "--sampler", "process-aware"], capsys
    )
    assert code == 0
    assert aware != standard
    document = json.loads(aware)
    assert document["coefficients"]["credit"] < 0.0
    assert document["coefficients"]["risk"] > 0.0


def test_explain_constant_model_yields_flat_explanation(capsys):
    code, stdout, _ = _run(
        ["explain", "0.0", "0.0", "--constant-model", "0.6,0.4"], capsys
    )
    assert code == 0
    document = json.loads(stdout)
    assert document["predicted"] == [0.6, 0.4]
    assert abs(document["coefficients"]["credit"]) <= 1e-6
    assert abs(document["coefficients"]["risk"]) <= 1e-6


def test_explain_rejects_bad_constant_model(capsys):
    code, _, stderr = _run(["explain", "0.0", "0.0", "--constant-model", "0.6"], capsys)
    assert code == 2
    assert "error:" in stderr
    code, _, _ = _run(["explain", "0.0", "0.0", "--constant-model", "a,b"], capsys)
    assert code == 2
    code, _, stderr = _run(["explain", "0.0", "0.0", "--constant-model", "1"], capsys)
    assert code == 2
    assert "at least two class probabilities" in stderr


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--ridge", "nan", "ridge_strength"),
        ("--ridge", "inf", "ridge_strength"),
        ("--kernel-width", "inf", "kernel_width"),
        ("--kernel-width", "nan", "kernel_width"),
        ("--rho", "nan", "correlation"),
        ("--rho", "inf", "correlation"),
    ],
)
def test_explain_rejects_non_finite_hyperparameters(flag, value, field, capsys):
    code, stdout, stderr = _run(["explain", "0.4", "-0.5", flag, value], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:")
    assert field in stderr and "finite" in stderr
    assert "above zero" not in stderr


@pytest.mark.parametrize("command", [
    ["explain", "0.1", "0.2"],
    ["plot", "neighborhood", "--credit", "0", "--risk", "0", "--out", os.devnull],
])
def test_kernel_width_whose_square_underflows_is_a_usage_error(command, capsys):
    code, stdout, stderr = _run([*command, "--kernel-width", "1e-300"], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == (
        "error: kernel_width must be at least 1.4916681462400413e-154, "
        "where its square stops underflowing, got 1e-300\n"
    )


def test_smallest_kernel_width_weighs_far_points_zero_without_warnings(capsys):
    code, stdout, stderr = _run(["explain", "0.1", "0.2", "--kernel-width", "1.5e-154"], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == "error: fitting stage failed: at least one weight must be positive\n"


def test_explain_at_overflowing_coordinates_names_the_overflow(capsys):
    code, stdout, stderr = _run(["explain", "1.7e308", "1.7e308"], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == (
        "error: fitting stage failed: feature values are too large to fit: "
        "the weighted normal equations overflow\n"
    )


def test_explain_where_unit_perturbations_round_away_names_the_collapse(capsys):
    # At 1e154 the float spacing is about 1.5e138, so every perturbed point
    # rounds back to the sample and a positive ridge cannot save the fit.
    code, stdout, stderr = _run(["explain", "1e154", "1e154"], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == (
        "error: fitting stage failed: normal equations are singular: all 1000 rows are the same "
        "point, so perturbations below the float spacing of its coordinates (up to 1.49e+138) "
        "were lost to rounding\n"
    )
    # From about 1e16 a unit perturbation rounds away too, but the ridge fit
    # itself succeeds, with zero coefficients; that must not pass as an answer.
    for coordinate, spacing in (("1e17", "16"), ("1e20", "1.64e+04")):
        code, stdout, stderr = _run(["explain", coordinate, coordinate], capsys)
        assert (code, stdout) == (1, "")
        assert stderr == (
            "error: fitting stage failed: the neighborhood has no spread: all 1000 rows are the same "
            f"point, so perturbations below the float spacing of its coordinates (up to {spacing}) "
            "were lost to rounding\n"
        )
    # One coordinate alone can lose its perturbations; its coefficient would
    # be zero while the other one is fitted.
    for point, feature, spacing in (
        (["1e17", "0.5"], "credit", "16"),
        (["0.5", "1e17"], "risk", "16"),
        (["1e154", "0.5"], "credit", "1.49e+138"),
    ):
        code, stdout, stderr = _run(["explain", *point], capsys)
        assert (code, stdout) == (1, "")
        assert stderr == (
            f"error: fitting stage failed: the neighborhood has no spread: all 1000 rows have the same "
            f"{feature}, so perturbations below the float spacing of its value (up to {spacing}) "
            "were lost to rounding\n"
        )


def test_negative_coordinates_with_an_exponent_are_values(capsys):
    spelled_out = _run(["explain", "-0.001", "0.5"], capsys)
    assert spelled_out[0] == 0
    assert _run(["explain", "-1e-3", "0.5"], capsys) == spelled_out
    code, _, stderr = _run(["explain", "0", "0", "--seed", "-1e3"], capsys)
    assert code == 2
    assert "argument --seed: invalid int value: '-1e3'" in stderr


def test_non_finite_hyperparameters_from_config_are_usage_errors(tmp_path, capsys):
    config = tmp_path / "nan.cfg"
    config.write_text("ridge=nan\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    code, _, stderr = _run(
        ["evaluate", "--trials", "1", "--config", str(config), "--out", str(out)], capsys
    )
    assert code == 2
    assert "ridge_strength must be nonnegative and finite" in stderr
    assert not out.exists()


def test_evaluate_small_run_is_deterministic(tmp_path, capsys):
    out = tmp_path / "report.csv"
    argv = [
        "evaluate", "--trials", "3", "--sizes", "100,200", "--seed", "4", "--out", str(out),
    ]
    code, stdout, _ = _run(argv, capsys)
    assert code == 0
    json_path = tmp_path / "report.json"
    assert out.exists() and json_path.exists()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[3] == "sampler,size,feature,mean,std,trials"
    assert len(lines) == 4 + 8
    document = json.loads(json_path.read_text(encoding="utf-8"))
    assert len(document["cells"]) == 4
    assert "standard" in stdout and "process-aware" in stdout
    assert f"wrote {out} and {json_path}" in stdout

    first_csv = out.read_bytes()
    second = _run(argv, capsys)
    assert second[0] == 0
    assert out.read_bytes() == first_csv
    assert second[1] == stdout


def test_evaluate_reports_total_failure(tmp_path, capsys, monkeypatch):
    def always_broken(request):
        raise ExplainStageError("sampling", ValueError("nope"))

    monkeypatch.setattr(evaluation_module, "explain", always_broken)
    out = tmp_path / "report.csv"
    code, _, stderr = _run(
        ["evaluate", "--trials", "2", "--sizes", "50", "--out", str(out)], capsys
    )
    assert code == 1
    assert "no successful trials" in stderr
    assert "standard@50" in stderr


def test_evaluate_rejects_a_report_path_its_json_would_overwrite(tmp_path, capsys, monkeypatch):
    def never(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_experiment", never)
    monkeypatch.chdir(tmp_path)
    for out in (str(tmp_path / "r.json"), "./r.json"):
        code, stdout, stderr = _run(["evaluate", "--trials", "1", "--sizes", "20", "--out", out], capsys)
        assert (code, stdout) == (2, "")
        assert f"the report CSV path {out!r} must not end in .json" in stderr
    assert not any(tmp_path.iterdir())


# A small run of each subcommand that has an --out flag.
_OUT_COMMANDS = {
    "generate": ["generate", "--n", "30"],
    "explain": ["explain", "0.41", "-0.51", "--neighborhood-size", "50"],
    "evaluate": ["evaluate", "--trials", "1", "--sizes", "20"],
    "plot": ["plot", "model-grid", "--resolution", "5"],
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("out", ["e/", "", "e/..", "e\0f"])
@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_out_paths_that_name_no_file_are_usage_errors(command, out, source, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [*_OUT_COMMANDS[command], "--out", out]
    if source == "config":
        Path("out.cfg").write_text(f"out={out}\n", encoding="utf-8")
        argv = [*_OUT_COMMANDS[command], "--config", "out.cfg"]
    code, stdout, stderr = _run(argv, capsys)
    assert (code, stdout) == (2, "")
    assert f"must name a file, got {out!r}" in stderr
    assert [path.name for path in tmp_path.iterdir()] == (["out.cfg"] if source == "config" else [])


def test_plot_data(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert _run(["generate", "--n", "150", "--seed", "2", "--out", str(data)], capsys)[0] == 0
    figure = tmp_path / "figure.svg"
    code, stdout, _ = _run(["plot", "data", "--data", str(data), "--out", str(figure)], capsys)
    assert code == 0
    assert f"wrote {figure}" in stdout
    assert _circle_count(figure.read_text(encoding="utf-8")) >= 100


def test_plot_data_requires_dataset_flag(capsys):
    code, _, stderr = _run(["plot", "data"], capsys)
    assert code == 2
    assert "error:" in stderr


def test_plot_data_missing_file(tmp_path, capsys):
    code, _, _ = _run(["plot", "data", "--data", str(tmp_path / "nope.csv")], capsys)
    assert code == 2


def test_plot_data_malformed_csv_names_the_line(tmp_path, capsys):
    data = tmp_path / "broken.csv"
    data.write_text("credit,risk,label\n0.1,0.2,1\n0.3,oops,0\n", encoding="utf-8")
    code, _, stderr = _run(
        ["plot", "data", "--data", str(data), "--out", str(tmp_path / "x.svg")], capsys
    )
    assert code == 2
    assert "malformed dataset CSV" in stderr
    assert "line 3" in stderr


@pytest.mark.parametrize("bad_line, reason", [
    (b"0.1,\xff,1\n", "line 3: byte 0xff is not valid UTF-8"),
    (b"0.1," + b"9" * 140_000 + b",1\n", "line 3: field larger than field limit (131072)"),
], ids=["bad-byte", "huge-field"])
def test_plot_data_undecodable_or_oversized_line_is_named(bad_line, reason, tmp_path, capsys):
    data = tmp_path / "broken.csv"
    data.write_bytes(b"credit,risk,label\n0.1,0.2,1\n" + bad_line + b"0.3,0.4,0\n")
    code, stdout, stderr = _run(
        ["plot", "data", "--data", str(data), "--out", str(tmp_path / "x.svg")], capsys
    )
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: malformed dataset CSV: {reason}\n"


def test_plot_header_only_dataset_gives_axes_only_svg(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("credit,risk,label\n", encoding="utf-8")
    figure = tmp_path / "empty.svg"
    code, _, _ = _run(["plot", "data", "--data", str(data), "--out", str(figure)], capsys)
    assert code == 0
    assert _circle_count(figure.read_text(encoding="utf-8")) == 0


def test_plot_model_grid(tmp_path, capsys):
    figure = tmp_path / "grid.svg"
    code, _, _ = _run(
        ["plot", "model-grid", "--resolution", "24", "--out", str(figure)], capsys
    )
    assert code == 0
    assert _circle_count(figure.read_text(encoding="utf-8")) > 0


def test_plot_model_grid_rejects_tiny_resolution(tmp_path, capsys):
    code, _, _ = _run(
        ["plot", "model-grid", "--resolution", "1", "--out", str(tmp_path / "x.svg")], capsys
    )
    assert code == 2


def test_plot_neighborhood(tmp_path, capsys):
    figure = tmp_path / "nbhd.svg"
    code, _, _ = _run(
        [
            "plot", "neighborhood", "--credit", "0.41", "--risk", "-0.51",
            "--neighborhood-size", "200", "--out", str(figure),
        ],
        capsys,
    )
    assert code == 0
    assert _circle_count(figure.read_text(encoding="utf-8")) == 201


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise TimeoutError in this process if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("point", [
    pytest.param(["--credit=1.7e308", "--risk=1.7e308"], id="1.7e308-1.7e308"),
    pytest.param(
        ["--credit=-1.7976931348623157e308", "--risk=1.7976931348623157e308"],
        id="-1.7976931348623157e308-1.7976931348623157e308",
    ),
    pytest.param(["--credit=1e300", "--risk=-3"], id="1e300--3"),
    pytest.param(["--credit", "0", "--risk", "-1.7976931348623157e308"], id="space-separated-exponent"),
    pytest.param(
        ["--credit=1.7e308", "--risk=1.7e308", "--sampler", "process-aware"], id="process-aware-1.7e308"
    ),
])
def test_plot_neighborhood_at_extreme_coordinates_is_fast_and_finite(point, tmp_path, capsys):
    figure = tmp_path / "nbhd.svg"
    with _time_limit(2.0):
        code, _, stderr = _run(["plot", "neighborhood", *point, "--out", str(figure)], capsys)
    assert code == 0
    assert stderr == ""
    text = figure.read_text(encoding="utf-8")
    assert _circle_count(text) == 1001
    assert "nan" not in text and "inf" not in text


def test_plot_neighborhood_requires_the_point(capsys):
    code, _, stderr = _run(["plot", "neighborhood", "--credit", "0.1"], capsys)
    assert code == 2
    assert "--risk" in stderr


def test_plot_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = _run(["plot", "model-grid", "--resolution", "16"], capsys)
    assert code == 0
    assert (tmp_path / "model-grid.svg").exists()
    assert "wrote model-grid.svg" in stdout


def _generate_bytes(tmp_path, capsys, name: str, extra: list[str], n: int | None = 40) -> bytes:
    out = tmp_path / name
    argv = ["generate", "--out", str(out), *extra]
    if n is not None:
        argv += ["--n", str(n)]
    code, _, _ = _run(argv, capsys)
    assert code == 0
    return out.read_bytes()


def test_seed_resolution_order(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PROLIME_SEED", raising=False)
    reference = {
        seed: _generate_bytes(tmp_path, capsys, f"ref{seed}.csv", ["--seed", str(seed)])
        for seed in (0, 3, 7, 9)
    }
    config = tmp_path / "prolime.cfg"
    config.write_text("# comment line\nseed=7\n", encoding="utf-8")

    monkeypatch.setenv("PROLIME_SEED", "9")
    flag_wins = _generate_bytes(
        tmp_path, capsys, "flag.csv", ["--seed", "3", "--config", str(config)]
    )
    assert flag_wins == reference[3]
    config_wins = _generate_bytes(tmp_path, capsys, "cfg.csv", ["--config", str(config)])
    assert config_wins == reference[7]
    env_wins = _generate_bytes(tmp_path, capsys, "env.csv", [])
    assert env_wins == reference[9]
    monkeypatch.delenv("PROLIME_SEED")
    fallback = _generate_bytes(tmp_path, capsys, "fallback.csv", [])
    assert fallback == reference[0]


def test_invalid_env_seed_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PROLIME_SEED", "abc")
    code, _, stderr = _run(["generate", "--n", "5", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert "error:" in stderr


# One tiny run of each subcommand, and of the plots that resolve a seed.
SEEDED_COMMANDS = {
    "generate": ["generate", "--n", "5"],
    "explain": ["explain", "0", "0", "--neighborhood-size", "20"],
    "evaluate": ["evaluate", "--trials", "1", "--sizes", "20"],
    "model-grid": ["plot", "model-grid", "--resolution", "2"],
    "neighborhood": ["plot", "neighborhood", "--credit", "0", "--risk", "0", "--neighborhood-size", "20"],
}


@pytest.mark.parametrize("argv", SEEDED_COMMANDS.values(), ids=SEEDED_COMMANDS)
def test_seeds_outside_64_bits_are_usage_errors(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PROLIME_SEED", raising=False)
    for seed in ("-1", str(2**64)):
        assert _run([*argv, "--seed", seed], capsys) == (
            2, "", f"error: seed must lie in [0, 2**64), got {seed}\n"
        )
    (tmp_path / "seed.cfg").write_text("seed=-3\n", encoding="utf-8")
    assert _run([*argv, "--config", "seed.cfg"], capsys) == (
        2, "", "error: seed must lie in [0, 2**64), got -3\n"
    )
    monkeypatch.setenv("PROLIME_SEED", "-3")
    assert _run(argv, capsys) == (2, "", "error: PROLIME_SEED must lie in [0, 2**64), got -3\n")
    assert _run([*argv, "--seed", str(2**64 - 1)], capsys)[0] == 0


def test_config_supplies_defaults_and_flags_override(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PROLIME_SEED", raising=False)
    config = tmp_path / "gen.cfg"
    config.write_text("seed=7\nn=25\n", encoding="utf-8")
    from_config = _generate_bytes(tmp_path, capsys, "a.csv", ["--config", str(config)], n=None)
    assert from_config == _generate_bytes(
        tmp_path, capsys, "a_ref.csv", ["--seed", "7", "--n", "25"], n=None
    )
    assert len(from_config.splitlines()) == 26
    overridden = _generate_bytes(
        tmp_path, capsys, "b.csv", ["--config", str(config), "--n", "10"], n=None
    )
    assert overridden == _generate_bytes(
        tmp_path, capsys, "b_ref.csv", ["--seed", "7", "--n", "10"], n=None
    )


def test_config_unknown_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("bogus=1\n", encoding="utf-8")
    code, _, stderr = _run(
        ["generate", "--n", "5", "--out", str(tmp_path / "x.csv"), "--config", str(config)],
        capsys,
    )
    assert code == 2
    assert "unknown config key" in stderr


def test_config_malformed_line_is_rejected(tmp_path, capsys):
    config = tmp_path / "broken.cfg"
    for text, message in (
        (b"seed\n", "config line 1 is not key=value"),
        (b"n=5\xff\n", "can't decode byte 0xff"),
    ):
        config.write_bytes(text)
        code, _, stderr = _run(
            ["generate", "--n", "5", "--out", str(tmp_path / "x.csv"), "--config", str(config)],
            capsys,
        )
        assert code == 2
        assert stderr.startswith("error:") and message in stderr


def test_config_kernel_width_equals_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PROLIME_SEED", raising=False)
    config = tmp_path / "width.cfg"
    config.write_text("kernel-width=0.5\n", encoding="utf-8")
    _, via_config, _ = _run(
        ["explain", "0.2", "0.1", "--config", str(config)], capsys
    )
    _, via_flag, _ = _run(["explain", "0.2", "0.1", "--kernel-width", "0.5"], capsys)
    _, default_width, _ = _run(["explain", "0.2", "0.1"], capsys)
    assert via_config == via_flag
    assert via_config != default_width


def test_one_process_runs_many_commands_like_fresh_processes(tmp_path, capsys, monkeypatch):
    # The parser is built once per process; a usage error must not leave
    # state behind that changes later commands. COLUMNS fixes argparse's
    # wrapping width in both processes.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    commands = [
        ["explain", "0.41", "--seed", "nope"],
        ["explain", "0.41", "-0.51", "--seed", "3", "--neighborhood-size", "200"],
        ["plot", "model-grid", "--resolution", "6", "--seed", "3", "--out", "grid.svg"],
    ]
    in_process = []
    for argv in commands:
        in_process.append(_run(argv, capsys))
        if argv[0] == "plot":
            in_process.append(Path("grid.svg").read_bytes())
    assert [result[0] for result in in_process[:3]] == [2, 0, 0]
    env = dict(os.environ, PYTHONPATH=str(Path(prolime.__file__).parents[1]))
    fresh = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "prolime", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
        if argv[0] == "plot":
            fresh.append(Path("grid.svg").read_bytes())
    assert in_process == fresh


def test_only_latin_hypercube_runs_import_statistics(tmp_path):
    # The inverse normal CDF comes from the statistics module, whose import
    # costs milliseconds and memory; runs that draw no Latin hypercube noise,
    # an evaluate with the default hyperparameters and the figures among
    # them, must not pay for it.
    script = """
import sys
from prolime.cli import main
assert main(["evaluate", "--trials", "2", "--sizes", "50", "--out", "report.csv"]) == 0
assert main(["generate", "--n", "50"]) == 0
assert main(["plot", "data", "--data", "dataset.csv"]) == 0
assert main(["plot", "model-grid", "--resolution", "5"]) == 0
print("statistics" in sys.modules, file=sys.stderr)
assert main(["explain", "0", "0", "--noise", "lhs", "--neighborhood-size", "20"]) == 0
print("statistics" in sys.modules, file=sys.stderr)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(prolime.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["False", "True"]


# Each capped option with its cap, and the function the command would call
# next; the tests replace that function, so a value above the cap allocates nothing.
CAPS = [
    (["generate", "--n"], cli.MAX_SAMPLES, "generate_dataset"),
    (["plot", "model-grid", "--resolution"], cli.MAX_RESOLUTION, "plot_model_grid"),
    (["explain", "0", "0", "--neighborhood-size"], cli.MAX_NEIGHBORHOOD_SIZE, "explain"),
    (["plot", "neighborhood", "--credit", "0", "--risk", "0", "--neighborhood-size"],
     cli.MAX_NEIGHBORHOOD_SIZE, "draw_neighborhood"),
    (["evaluate", "--trials"], cli.MAX_TRIALS, "run_experiment"),
]


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("a capped size reached the pipeline")


@pytest.mark.parametrize("argv, cap, callee", CAPS, ids=[" ".join(argv) for argv, _, _ in CAPS])
def test_sizes_above_their_cap_are_usage_errors(argv, cap, callee, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, callee, _refuse_to_run)
    code, stdout, stderr = _run([*argv, str(cap + 1)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.endswith(f"error: argument {argv[-1]}: must be at most {cap}, got {cap + 1}\n")
    config = tmp_path / "big.cfg"
    config.write_text(f"{argv[-1][2:]}={cap + 1}\n", encoding="utf-8")
    code, _, stderr = _run([*argv[:-1], "--config", str(config)], capsys)
    assert code == 2
    assert stderr == (
        f"error: bad config value for '{argv[-1][2:]}': '{cap + 1}' "
        f"(must be at most {cap}, got {cap + 1})\n"
    )


def test_each_neighborhood_size_is_capped(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", _refuse_to_run)
    big = cli.MAX_NEIGHBORHOOD_SIZE + 1
    code, _, stderr = _run(["evaluate", "--sizes", f"1000,{big}"], capsys)
    assert code == 2
    assert stderr.endswith(
        f"error: argument --sizes: each size must be at most {cli.MAX_NEIGHBORHOOD_SIZE}, got {big}\n"
    )


@pytest.mark.parametrize("sizes", ["1000,", "1000,,5000", "a"])
def test_malformed_sizes_are_usage_errors(sizes, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", _refuse_to_run)
    code, stdout, stderr = _run(["evaluate", "--sizes", sizes], capsys)
    assert (code, stdout) == (2, "")
    assert stderr.endswith(
        f"error: argument --sizes: expected comma-separated integers, got {sizes!r}\n"
    )


def test_caps_admit_the_defaults_and_the_caps_themselves():
    _, commands = cli._build_parser()
    for argv, cap, _ in CAPS:
        parser = commands[argv[0]]
        flag = argv[-1]
        dest = flag[2:].replace("-", "_")
        assert getattr(parser.parse_args(argv[1:-1]), dest) <= cap
        assert getattr(parser.parse_args([*argv[1:], str(cap)]), dest) == cap
    sizes = commands["evaluate"].parse_args(["--sizes", f"2,{cli.MAX_NEIGHBORHOOD_SIZE}"]).sizes
    assert sizes == (2, cli.MAX_NEIGHBORHOOD_SIZE)
