"""Config files: every long option of a subcommand is a config key, cast and
checked by that option, and a flag beats its config key."""

from __future__ import annotations

import pytest

from prolime.cli import _build_parser, main

# One non-default value per long option. A new option without an entry here
# fails the test below, so every config key stays covered.
_VALUES = {
    "seed": "5",
    "rho": "0.3",
    "n": "40",
    "out": "chosen.out",
    "sampler": "process-aware",
    "neighborhood-size": "60",
    "center": "mean",
    "noise": "lhs",
    "kernel-width": "0.5",
    "ridge": "2",
    "constant-model": "0.3,0.7",
    "trials": "2",
    "sizes": "20,30",
    "data": "points.csv",
    "resolution": "7",
    "credit": "0.2",
    "risk": "-0.3",
}

# Small runs of each subcommand; the option under test replaces its entry.
_BASE = {
    "generate": {"n": "30"},
    "explain": {"neighborhood-size": "50"},
    "evaluate": {"trials": "1", "sizes": "20"},
    "plot": {"resolution": "5", "credit": "0.41", "risk": "-0.51", "neighborhood-size": "50"},
}


def _plot_kind(key: str) -> str:
    if key == "data":
        return "data"
    if key in ("seed", "rho", "out", "resolution"):
        return "model-grid"
    return "neighborhood"


def _config_keys() -> list[tuple[str, str]]:
    _, commands = _build_parser()
    return [
        (command, option[2:])
        for command, parser in commands.items()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option not in ("--help", "--config")
    ]


def _run_in(directory, argv, capsys, monkeypatch):
    """Exit code, stdout, stderr, and every file the run wrote."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    code = main(argv)
    captured = capsys.readouterr()
    written = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    return code, captured.out, captured.err, written


@pytest.mark.parametrize("command, key", _config_keys())
def test_every_long_option_is_a_config_key_equal_to_its_flag(command, key, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PROLIME_SEED", raising=False)
    (tmp_path / "points.csv").write_text("credit,risk,label\n0.1,0.2,1\n0.3,-0.4,0\n", encoding="utf-8")
    value = str(tmp_path / "points.csv") if key == "data" else _VALUES[key]
    argv = [command]
    if command == "explain":
        argv += ["0.41", "-0.51"]
    elif command == "plot":
        argv.append(_plot_kind(key))
    for base_key, base_value in _BASE[command].items():
        if base_key != key:
            argv += [f"--{base_key}", base_value]
    config = tmp_path / "settings.cfg"
    config.write_text(f"{key}={value}\n", encoding="utf-8")

    via_flag = _run_in(tmp_path / "flag", [*argv, f"--{key}", value], capsys, monkeypatch)
    via_config = _run_in(tmp_path / "config", [*argv, "--config", str(config)], capsys, monkeypatch)
    assert via_flag[0] == 0, via_flag[2]
    assert via_config == via_flag


@pytest.mark.parametrize("key", ["help", "config"])
def test_help_and_config_are_not_config_keys(key, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key}=x\n", encoding="utf-8")
    code = main(["explain", "0.4", "-0.5", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: unknown config key(s): {key}\n"


def test_bad_typed_config_value_names_key_value_and_reason(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("trials=many\n", encoding="utf-8")
    code = main(["evaluate", "--config", str(config), "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: bad config value for 'trials': 'many' "
        "(invalid literal for int() with base 10: 'many')\n"
    )
    assert not (tmp_path / "r.csv").exists()


def test_config_value_outside_the_choices_names_them(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("sampler=magic\n", encoding="utf-8")
    code = main(["explain", "0.4", "-0.5", "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: bad config value for 'sampler': 'magic' (expected one of standard, process-aware)\n"
    )


def test_flag_overrides_its_config_key(tmp_path, capsys):
    config = tmp_path / "aware.cfg"
    config.write_text("sampler=process-aware\nseed=4\n", encoding="utf-8")
    base = ["explain", "0.41", "-0.51", "--neighborhood-size", "50"]
    assert main([*base, "--config", str(config), "--sampler", "standard"]) == 0
    overridden = capsys.readouterr().out
    assert main([*base, "--seed", "4", "--sampler", "standard"]) == 0
    assert overridden == capsys.readouterr().out
    assert main([*base, "--seed", "4", "--sampler", "process-aware"]) == 0
    assert overridden != capsys.readouterr().out
