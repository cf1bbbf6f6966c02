"""Command-line behavior: outputs, exit codes, config and seed resolution."""

from __future__ import annotations

import argparse
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
from prolime import cli, datasets, simulation
from prolime.cli import main
from prolime.explainer import ExplainStageError
from prolime.datasets import read_dataset_csv


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


def test_a_value_error_from_a_run_phase_is_not_a_usage_error(tmp_path, monkeypatch):
    # Only building library values from flags turns a ValueError into exit
    # 2; one raised while the command runs is a bug and must surface.
    def broken_writer(dataset, path):
        raise ValueError("writer bug")

    monkeypatch.setattr(cli, "write_dataset_csv", broken_writer)
    with pytest.raises(ValueError, match="writer bug"):
        main(["generate", "--n", "5", "--out", str(tmp_path / "data.csv")])


def test_generate_rejects_nonpositive_n(tmp_path, capsys):
    code, stdout, stderr = _run(["generate", "--n", "0", "--out", str(tmp_path / "x.csv")], capsys)
    assert (code, stdout) == (2, "")
    assert stderr.endswith("error: argument --n: must be at least 1, got 0\n")
    assert not (tmp_path / "x.csv").exists()


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
    assert stderr == (
        "error: fitting stage failed: every kernel weight is 0: the nearest drawn point lies 0.0543 "
        "from the sample, too far for kernel width 1.5e-154\n"
    )


def test_explain_far_from_the_process_names_the_distance_and_the_kernel_width(capsys):
    # Every process-aware point lies near the distribution's mean, about 42
    # units from (30, 30), so every kernel weight underflows to 0.
    code, stdout, stderr = _run(["explain", "30", "30", "--sampler", "process-aware"], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == (
        "error: fitting stage failed: every kernel weight is 0: the nearest drawn point lies 41.5 "
        "from the sample, too far for kernel width 1.06\n"
    )
    code, stdout, _ = _run(["explain", "20", "20", "--sampler", "process-aware"], capsys)
    assert code == 0 and json.loads(stdout)["coefficients"]


def test_explain_names_a_nearest_distance_beyond_the_float_range(capsys):
    # The squared distance of every drawn point from the sample overflows to inf.
    argv = ["explain", "1.7e308", "-1.7e308", "--sampler", "process-aware", "--kernel-width", "1e-100"]
    assert _run(argv, capsys) == (
        1,
        "",
        "error: fitting stage failed: every kernel weight is 0: the nearest drawn point's distance "
        "from the sample exceeds the float range, too far for kernel width 1e-100\n",
    )


def test_explain_at_overflowing_coordinates_names_the_collapse(capsys):
    # Perturbations are lost to rounding long before the normal equations
    # would overflow, and the lost spread is checked before any arithmetic.
    code, stdout, stderr = _run(["explain", "1.7e308", "1.7e308"], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == (
        "error: fitting stage failed: the neighborhood has no spread: all 1000 rows are the same "
        "point, so perturbations below the float spacing of its coordinates (up to 2e+292) "
        "were lost to rounding\n"
    )
    code, stdout, stderr = _run(["explain", "1e200", "0.5"], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == (
        "error: fitting stage failed: the neighborhood has no spread: all 1000 rows have the same "
        "credit, so perturbations below the float spacing of its value (up to 1.7e+184) "
        "were lost to rounding\n"
    )


def test_explain_where_unit_perturbations_round_away_names_the_collapse(capsys):
    # From about 1e16 a unit perturbation rounds away, and every perturbed
    # point rounds back to the sample. A ridge fit would succeed, with zero
    # coefficients; that must not pass as an answer. Without a ridge, and at
    # 1e154 where the float spacing is about 1.5e138, the solve fails too,
    # but the cause named is the same.
    for point, spacing in (
        (["1e17", "1e17"], "16"),
        (["1e17", "1e17", "--ridge", "0"], "16"),
        (["1e20", "1e20"], "1.64e+04"),
        (["1e154", "1e154"], "1.49e+138"),
    ):
        code, stdout, stderr = _run(["explain", *point], capsys)
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


def test_explain_where_float_spacing_reaches_the_noise_scale_names_the_lattice(capsys):
    # At 1e16 the float spacing is 2, twice the unit noise scale, so the
    # perturbed points take about 5 values per feature and a fit to that
    # lattice would pass as an explanation.
    for point, feature in ((["1e16", "1e16"], "credit"), (["0.5", "1e16"], "risk")):
        code, stdout, stderr = _run(["explain", *point], capsys)
        assert (code, stdout) == (1, "")
        assert stderr == (
            f"error: fitting stage failed: the neighborhood is quantized: the float spacing of {feature} "
            "(2) is not below its noise scale (1)\n"
        )
    # At 1e15 the spacing is 0.125 and the fit stands.
    code, stdout, _ = _run(["explain", "1e15", "1e15"], capsys)
    assert code == 0
    assert json.loads(stdout)["sample"] == {"credit": 1e15, "risk": 1e15}


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


def _counted_factorizations(monkeypatch) -> list:
    """The matrices factored from now on, as the test's monkeypatch lasts."""
    calls = []
    original = prolime.samplers.cholesky

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    # Every module that could bind the factorization under its own name.
    for module in (prolime.samplers, prolime.simulation, prolime.evaluation):
        monkeypatch.setattr(module, "cholesky", counted, raising=False)
    return calls


def test_evaluate_factors_the_covariance_once(tmp_path, capsys, monkeypatch):
    cli._build_parser()  # building the parser constructs the default distribution
    # Distributions share the spec of their rho, which earlier tests may have built.
    simulation._process_aware_spec.cache_clear()
    calls = _counted_factorizations(monkeypatch)
    out = tmp_path / "r.csv"
    assert _run(["evaluate", "--trials", "2", "--sizes", "20", "--out", str(out)], capsys)[0] == 0
    # The distribution's, which its process-aware sampler holds.
    assert len(calls) == 1


def test_a_second_evaluate_in_the_process_factors_nothing(tmp_path, capsys, monkeypatch):
    argv = ["evaluate", "--trials", "1", "--sizes", "20", "--rho", "-0.75", "--out", str(tmp_path / "r.csv")]
    assert _run(argv, capsys)[0] == 0
    calls = _counted_factorizations(monkeypatch)
    assert _run(argv, capsys)[0] == 0
    assert calls == []


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
# The function that does the work of each of them.
_OUT_WORK = {
    "generate": "generate_dataset",
    "explain": "explain",
    "evaluate": "run_experiment",
    "plot": "plot_model_grid",
}


def _out_argv(command: str, out: str, source: str) -> list[str]:
    """``command`` of ``_OUT_COMMANDS`` with ``--out`` given by flag or by a
    config file ``out.cfg`` written to the working directory."""
    if source == "flag":
        return [*_OUT_COMMANDS[command], "--out", out]
    Path("out.cfg").write_text(f"out={out}\n", encoding="utf-8")
    return [*_OUT_COMMANDS[command], "--config", "out.cfg"]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("out", ["e/", "", "e/..", "e\0f"])
@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_out_paths_that_name_no_file_are_usage_errors(command, out, source, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = _run(_out_argv(command, out, source), capsys)
    assert (code, stdout) == (2, "")
    assert f"must name a file, got {out!r}" in stderr
    assert [path.name for path in tmp_path.iterdir()] == (["out.cfg"] if source == "config" else [])


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_out_paths_in_a_missing_directory_are_usage_errors(command, source, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def never(*args, **kwargs):
        raise AssertionError("the work started")

    monkeypatch.setattr(cli, _OUT_WORK[command], never)
    code, stdout, stderr = _run(_out_argv(command, "missing/out.csv", source), capsys)
    assert (code, stdout) == (2, "")
    assert "no such directory 'missing' for 'missing/out.csv'" in stderr
    assert [path.name for path in tmp_path.iterdir()] == (["out.cfg"] if source == "config" else [])


@pytest.mark.parametrize(
    "argv, config",
    [
        (["explain", "0", "0", "--config", "a\0b"], None),
        (["plot", "data", "--data", "a\0b"], None),
        (["plot", "data", "--config", "in.cfg"], "data=a\0b\n"),
    ],
    ids=["config-flag", "data-flag", "data-config-key"],
)
def test_input_paths_holding_a_nul_byte_are_usage_errors(argv, config, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("in.cfg").write_text(config, encoding="utf-8")
    code, stdout, stderr = _run(argv, capsys)
    assert (code, stdout) == (2, "")
    assert "must name a file, got 'a\\x00b'" in stderr


def test_plot_data(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert _run(["generate", "--n", "150", "--seed", "2", "--out", str(data)], capsys)[0] == 0
    figure = tmp_path / "figure.svg"
    code, stdout, _ = _run(["plot", "data", "--data", str(data), "--out", str(figure)], capsys)
    assert code == 0
    assert f"wrote {figure}" in stdout
    assert _circle_count(figure.read_text(encoding="utf-8")) >= 100


@contextlib.contextmanager
def _pipe_path(data: bytes):
    """A path that reads ``data`` once from a pipe, as ``--data <(...)`` does."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)  # under the pipe's 64 KiB buffer
        os.close(write_end)
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


def test_plot_data_reads_a_pipe(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert _run(["generate", "--n", "40", "--seed", "2", "--out", str(data)], capsys)[0] == 0
    from_file, from_pipe = tmp_path / "file.svg", tmp_path / "pipe.svg"
    assert _run(["plot", "data", "--data", str(data), "--out", str(from_file)], capsys)[0] == 0
    # CRLF line ends send the file to the per-row reader.
    for text in (data.read_bytes(), data.read_bytes().replace(b"\n", b"\r\n")):
        with _pipe_path(text) as pipe:
            assert _run(["plot", "data", "--data", pipe, "--out", str(from_pipe)], capsys)[0] == 0
        assert from_pipe.read_bytes() == from_file.read_bytes()
    with _pipe_path(data.read_bytes() + b"0.1,0.2\n") as pipe:
        code, stdout, stderr = _run(["plot", "data", "--data", pipe, "--out", str(tmp_path / "bad.svg")], capsys)
    assert (code, stdout) == (2, "")
    assert "line 42: expected 3 columns, got 2" in stderr
    assert not (tmp_path / "bad.svg").exists()


def test_plot_data_reads_a_leading_byte_order_mark(tmp_path, capsys):
    data, marked = tmp_path / "data.csv", tmp_path / "marked.csv"
    assert _run(["generate", "--n", "40", "--seed", "2", "--out", str(data)], capsys)[0] == 0
    marked.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    from_data, from_marked = tmp_path / "data.svg", tmp_path / "marked.svg"
    assert _run(["plot", "data", "--data", str(data), "--out", str(from_data)], capsys)[0] == 0
    assert _run(["plot", "data", "--data", str(marked), "--out", str(from_marked)], capsys) == (
        0, f"wrote {from_marked}\n", "")
    assert from_marked.read_bytes() == from_data.read_bytes()


@pytest.mark.parametrize("seed", [0, 4])
def test_plot_data_reads_a_generated_file_in_bulk_but_its_exponent_forms(seed, tmp_path, capsys, monkeypatch):
    # Neither the per-row reader nor float() reads a generated file's fields,
    # but those written in exponent form: seed 4 writes one, seed 0 none.
    data = tmp_path / "data.csv"
    assert _run(["generate", "--n", "3000", "--seed", str(seed), "--out", str(data)], capsys)[0] == 0
    read_by_float = []
    float_fields = datasets._float_fields

    def counted_float_fields(text, starts, stops):
        read_by_float.extend(text[start:stop] for start, stop in zip(starts, stops))
        return float_fields(text, starts, stops)

    def row_loop(text):
        raise AssertionError("the per-row reader ran")

    monkeypatch.setattr(datasets, "_float_fields", counted_float_fields)
    monkeypatch.setattr(datasets, "_read_rows", row_loop)
    assert _run(["plot", "data", "--data", str(data), "--out", str(tmp_path / "data.svg")], capsys)[0] == 0
    rows = data.read_bytes().split(b"\n")[1:-1]
    assert read_by_float == [field for row in rows for field in row.split(b",")[:2] if b"e" in field]
    assert len(read_by_float) == (seed == 4)


def test_plot_data_requires_dataset_flag(capsys):
    code, _, stderr = _run(["plot", "data"], capsys)
    assert code == 2
    assert "error:" in stderr


def test_plot_data_missing_file(tmp_path, capsys):
    code, _, _ = _run(["plot", "data", "--data", str(tmp_path / "nope.csv")], capsys)
    assert code == 2


def test_plot_data_from_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir.csv").mkdir()
    code, stdout, stderr = _run(["plot", "data", "--data", "dir.csv"], capsys)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: cannot read dataset 'dir.csv': ")
    assert [path.name for path in tmp_path.iterdir()] == ["dir.csv"]


def test_plot_data_needs_no_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(["generate", "--n", "20"], capsys)[0] == 0
    monkeypatch.setenv("PROLIME_SEED", "abc")
    assert _run(["plot", "data", "--data", "dataset.csv"], capsys) == (0, "wrote data.svg\n", "")
    assert (tmp_path / "data.svg").exists()


# Each plot kind with one option that only another kind takes.
_FOREIGN_OPTIONS = [
    ["plot", "data", "--data", "dataset.csv", "--seed", "3"],
    ["plot", "data", "--data", "dataset.csv", "--resolution", "3"],
    ["plot", "model-grid", "--resolution", "3", "--kernel-width", "-1"],
    ["plot", "model-grid", "--resolution", "3", "--data", "dataset.csv"],
    ["plot", "neighborhood", "--credit", "0", "--risk", "0", "--ridge", "1"],
    ["plot", "neighborhood", "--credit", "0", "--risk", "0", "--resolution", "3"],
]


@pytest.mark.parametrize("argv", _FOREIGN_OPTIONS, ids=[f"{argv[1]} {argv[-2]}" for argv in _FOREIGN_OPTIONS])
def test_each_plot_kind_rejects_the_options_of_another(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dataset.csv").write_text("credit,risk,label\n0.1,0.2,1\n", encoding="utf-8")
    code, stdout, stderr = _run(argv, capsys)
    assert (code, stdout) == (2, "")
    assert stderr.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")
    option, value = argv[-2:]
    (tmp_path / "foreign.cfg").write_text(f"{option[2:]}={value}\n", encoding="utf-8")
    assert _run([*argv[:-2], "--config", "foreign.cfg"], capsys) == (
        2, "", f"error: unknown config key(s): {option[2:]}\n"
    )
    assert sorted(path.name for path in tmp_path.iterdir()) == ["dataset.csv", "foreign.cfg"]


def test_an_option_before_the_command_or_the_plot_kind_is_named(tmp_path, capsys, monkeypatch):
    # argparse alone would take the option's value for the command word and
    # report "invalid choice: '3'".
    monkeypatch.chdir(tmp_path)
    for argv, option, where in (
        (["--seed", "3", "explain", "0", "0"], "--seed", "command"),
        (["plot", "--seed", "3", "model-grid", "--resolution", "3"], "--seed", "plot kind"),
        (["plot", "--out", "x.svg", "data"], "--out", "plot kind"),
    ):
        code, stdout, stderr = _run(argv, capsys)
        assert (code, stdout) == (2, "")
        assert stderr.endswith(f"error: option {option} comes before the {where}; options follow the {where}\n")
    assert not any(tmp_path.iterdir())


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


def test_repeated_sizes_are_usage_errors_and_write_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", _refuse_to_run)
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = _run(["evaluate", "--trials", "2", "--sizes", "50,50", "--seed", "0"], capsys)
    assert (code, stdout) == (2, "")
    assert stderr == "error: neighborhood size 50 is given more than once\n"
    assert list(tmp_path.iterdir()) == []


def _innermost(argv: list[str]) -> tuple[argparse.ArgumentParser, list[str]]:
    """The parser that ``argv``'s command words name, and the arguments after them."""
    _, commands = cli._build_parser()
    words = 2 if argv[0] == "plot" else 1
    return commands[" ".join(argv[:words])], argv[words:]


def test_caps_admit_the_defaults_and_the_caps_themselves():
    for argv, cap, _ in CAPS:
        parser, rest = _innermost(argv)
        dest = argv[-1][2:].replace("-", "_")
        assert getattr(parser.parse_args(rest[:-1]), dest) <= cap
        assert getattr(parser.parse_args([*rest, str(cap)]), dest) == cap
    sizes = _innermost(["evaluate"])[0].parse_args(["--sizes", f"2,{cli.MAX_NEIGHBORHOOD_SIZE}"]).sizes
    assert sizes == (2, cli.MAX_NEIGHBORHOOD_SIZE)


# Each option with a minimum that its argparse type checks, that minimum, and
# the function the command would call next.
MINIMUMS = [
    (["generate", "--n"], 1, "generate_dataset"),
    (["plot", "model-grid", "--resolution"], 2, "plot_model_grid"),
]


@pytest.mark.parametrize("argv, minimum, callee", MINIMUMS, ids=[" ".join(argv) for argv, _, _ in MINIMUMS])
def test_sizes_below_their_minimum_are_usage_errors(argv, minimum, callee, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, callee, _refuse_to_run)
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = _run([*argv, str(minimum - 1)], capsys)
    assert (code, stdout) == (2, "")
    assert stderr.endswith(f"error: argument {argv[-1]}: must be at least {minimum}, got {minimum - 1}\n")
    Path("small.cfg").write_text(f"{argv[-1][2:]}={minimum - 1}\n", encoding="utf-8")
    assert _run([*argv[:-1], "--config", "small.cfg"], capsys) == (
        2, "", f"error: bad config value for '{argv[-1][2:]}': '{minimum - 1}' "
        f"(must be at least {minimum}, got {minimum - 1})\n"
    )
    assert [path.name for path in tmp_path.iterdir()] == ["small.cfg"]
    parser, rest = _innermost(argv)
    assert getattr(parser.parse_args([*rest, str(minimum)]), argv[-1][2:]) == minimum


# A tiny run of each innermost parser, from after its command words.
_TINY_RUNS = {
    "generate": ["--n", "5"],
    "explain": ["0", "0", "--neighborhood-size", "20"],
    "evaluate": ["--trials", "1", "--sizes", "20"],
    "plot data": ["--data", "dataset.csv"],
    "plot model-grid": ["--resolution", "2"],
    "plot neighborhood": ["--credit", "0", "--risk", "0", "--neighborhood-size", "20"],
}


@pytest.mark.parametrize("name", _TINY_RUNS)
def test_every_option_is_read_by_its_handler(name, tmp_path, capsys, monkeypatch):
    _, commands = cli._build_parser()
    assert list(commands) == list(_TINY_RUNS)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PROLIME_SEED", raising=False)
    Path("dataset.csv").write_text("credit,risk,label\n0.1,0.2,1\n", encoding="utf-8")
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, attribute):
            read.add(attribute)
            return super().__getattribute__(attribute)

    parser = commands[name]
    parsed = parser.parse_args(_TINY_RUNS[name])
    # A copy, since argparse's own lookups while parsing would count as reads.
    assert parsed.handler(Recording(**vars(parsed))) == 0
    options = {
        action.dest
        for action in parser._actions
        if any(option.startswith("--") for option in action.option_strings)
    }
    assert options - {"help", "config"} - read == set()


# One small run of each command that writes a file, by the path it writes.
WRITERS = {
    "generate": lambda out: ["generate", "--n", "5", "--seed", "1", "--out", out],
    "explain": lambda out: ["explain", "0.41", "-0.51", "--neighborhood-size", "100", "--out", out],
    "evaluate": lambda out: ["evaluate", "--trials", "2", "--sizes", "50", "--out", out],
    "plot": lambda out: ["plot", "model-grid", "--resolution", "2", "--out", out],
}


def _out_name(command: str) -> str:
    return "report.csv" if command == "evaluate" else "out.txt"


def _outputs(command: str, out: Path) -> list[Path]:
    """The files a WRITERS run with ``--out out`` writes: ``evaluate`` puts its JSON beside the CSV."""
    return [out, out.with_suffix(".json")] if command == "evaluate" else [out]


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_rewriting_a_longer_output_leaves_no_stale_tail(command, tmp_path, capsys):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    name = _out_name(command)
    for path in _outputs(command, reused / name):
        path.write_bytes(b"stale\n" * 20_000)
    assert _run(WRITERS[command](str(fresh / name)), capsys)[0] == 0
    assert _run(WRITERS[command](str(reused / name)), capsys)[0] == 0
    for new, old in zip(_outputs(command, fresh / name), _outputs(command, reused / name)):
        assert old.read_bytes() == new.read_bytes()


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_an_output_keeps_the_mode_an_existing_file_has_and_open_would_give_a_new_one(command, tmp_path, capsys):
    name = _out_name(command)
    existing, new, opened = (tmp_path / f"{prefix}-{name}" for prefix in ("existing", "new", "opened"))
    existing.write_bytes(b"old\n")
    existing.chmod(0o604)
    with open(opened, "w", encoding="utf-8"):
        pass
    assert _run(WRITERS[command](str(existing)), capsys)[0] == 0
    assert _run(WRITERS[command](str(new)), capsys)[0] == 0
    assert existing.stat().st_mode & 0o777 == 0o604
    assert new.stat().st_mode & 0o777 == opened.stat().st_mode & 0o777


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_a_symlinked_output_is_written_through(command, tmp_path, capsys):
    name = _out_name(command)
    target, link, fresh = tmp_path / f"target-{name}", tmp_path / name, tmp_path / f"fresh-{name}"
    target.write_bytes(b"stale\n" * 20_000)
    link.symlink_to(target)
    assert _run(WRITERS[command](str(link)), capsys)[0] == 0
    assert _run(WRITERS[command](str(fresh)), capsys)[0] == 0
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_an_output_to_dev_null_is_written_through(command, tmp_path, capsys):
    if command == "evaluate":
        # The JSON report lands beside the CSV, so a link stands in for
        # /dev/null: --out /dev/null would create /dev/null.json.
        out = tmp_path / "report.csv"
        out.symlink_to(os.devnull)
    else:
        out = Path(os.devnull)
    code, _, stderr = _run(WRITERS[command](str(out)), capsys)
    assert (code, stderr) == (0, "")
    assert Path(os.devnull).is_char_device()


@pytest.mark.parametrize("command", sorted(WRITERS))
@pytest.mark.parametrize("target", ["directory", "read-only file"])
def test_an_unwritable_output_exits_1_with_the_error_of_open(command, target, tmp_path, capsys):
    out = tmp_path / _out_name(command)
    if target == "directory":
        out.mkdir()
    else:
        out.write_bytes(b"old\n")
        out.chmod(0o444)
        if os.access(out, os.W_OK):
            pytest.skip("this user may write a read-only file")
    with pytest.raises(OSError) as info:
        open(out, "w", encoding="utf-8")
    code, _, stderr = _run(WRITERS[command](str(out)), capsys)
    assert code == 1
    assert stderr == f"error: {info.value}\n"
