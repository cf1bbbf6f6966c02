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


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--ridge", "nan", "ridge_strength"),
        ("--ridge", "inf", "ridge_strength"),
        ("--kernel-width", "inf", "kernel_width"),
        ("--kernel-width", "nan", "kernel_width"),
    ],
)
def test_explain_rejects_non_finite_hyperparameters(flag, value, field, capsys):
    code, stdout, stderr = _run(["explain", "0.4", "-0.5", flag, value], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:")
    assert field in stderr and "finite" in stderr
    assert "above zero" not in stderr


def test_explain_at_overflowing_coordinates_names_the_overflow(capsys):
    code, stdout, stderr = _run(["explain", "1.7e308", "1.7e308"], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == (
        "error: fitting stage failed: feature values are too large to fit: "
        "the weighted normal equations overflow\n"
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
    config.write_text("seed\n", encoding="utf-8")
    code, _, stderr = _run(
        ["generate", "--n", "5", "--out", str(tmp_path / "x.csv"), "--config", str(config)],
        capsys,
    )
    assert code == 2
    assert "error:" in stderr


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
