"""Config files: every long option of a command (a subcommand or a plot kind)
is a config key, cast and checked by that option, and a flag beats its config
key."""

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

# Small runs of each innermost parser; the option under test replaces its entry.
_BASE = {
    "generate": {"n": "30"},
    "explain": {"neighborhood-size": "50"},
    "evaluate": {"trials": "1", "sizes": "20"},
    "plot data": {"data": "points.csv"},
    "plot model-grid": {"resolution": "5"},
    "plot neighborhood": {"credit": "0.41", "risk": "-0.51", "neighborhood-size": "50"},
}


def _config_keys() -> dict[str, list[str]]:
    """The config keys of each innermost parser, by its command words."""
    _, commands = _build_parser()
    return {
        name: [
            option[2:]
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option not in ("--help", "--config")
        ]
        for name, parser in commands.items()
    }


def _cases() -> list[tuple[str, str]]:
    """(command, key) for every key of every command; the plot kinds share the
    command ``plot``, and a case of theirs covers each kind that takes the key."""
    return sorted({(name.split()[0], key) for name, keys in _config_keys().items() for key in keys})


def _run_in(directory, argv, capsys, monkeypatch):
    """Exit code, stdout, stderr, and every file the run wrote."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    code = main(argv)
    captured = capsys.readouterr()
    written = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    return code, captured.out, captured.err, written


@pytest.mark.parametrize("command, key", _cases())
def test_every_long_option_is_a_config_key_equal_to_its_flag(command, key, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PROLIME_SEED", raising=False)
    points = tmp_path / "points.csv"
    points.write_text("credit,risk,label\n0.1,0.2,1\n0.3,-0.4,0\n", encoding="utf-8")
    values = {**_VALUES, "data": str(points)}
    config = tmp_path / "settings.cfg"
    config.write_text(f"{key}={values[key]}\n", encoding="utf-8")
    names = [name for name, keys in _config_keys().items() if name.split()[0] == command and key in keys]
    for name in names:
        argv = name.split() + (["0.41", "-0.51"] if name == "explain" else [])
        for base_key, base_value in _BASE[name].items():
            if base_key != key:
                argv += [f"--{base_key}", str(points) if base_key == "data" else base_value]
        run = tmp_path / name.replace(" ", "-")
        run.mkdir()
        via_flag = _run_in(run / "flag", [*argv, f"--{key}", values[key]], capsys, monkeypatch)
        via_config = _run_in(run / "config", [*argv, "--config", str(config)], capsys, monkeypatch)
        assert via_flag[0] == 0, (name, via_flag[2])
        assert via_config == via_flag, name


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


def test_a_config_file_with_a_byte_order_mark_reads_as_without_it(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PROLIME_SEED", raising=False)
    config = tmp_path / "bom.cfg"
    config.write_bytes(b"\xef\xbb\xbfseed=3\n")
    base = ["generate", "--n", "20"]
    assert main([*base, "--config", str(config), "--out", str(tmp_path / "config.csv")]) == 0
    assert main([*base, "--seed", "3", "--out", str(tmp_path / "flag.csv")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("# seeds\n=3\n", "config line 2 has no key: '=3'"),
        ("seed=3\n n = 20\nseed=4\n", "config line 3 sets 'seed' again: 'seed=4'"),
        ("seed=3\nseed = 3\n", "config line 2 sets 'seed' again: 'seed = 3'"),
    ],
    ids=["empty-key", "repeated-key", "repeated-equal-value"],
)
def test_an_empty_or_repeated_config_key_names_its_line(text, message, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "data.csv"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
