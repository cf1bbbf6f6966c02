"""Fuzz of the command line: random subcommands, flags, seeds, non-finite
floats, config files and PROLIME_SEED values, at tiny sizes. Whatever the
input, ``main`` returns 0, 1 or 2 and never raises."""

from __future__ import annotations

import contextlib
import io
import os
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prolime.cli import _build_parser, main

def _mostly(valid: st.SearchStrategy, *invalid) -> st.SearchStrategy:
    """A value from ``valid`` nine times in ten, else one of the ``invalid``
    raw values, so most runs get past the checks to the pipeline."""
    return st.integers(0, 9).flatmap(lambda k: st.sampled_from(invalid) if k == 9 else valid)


_SEEDS = _mostly(st.integers(0, 2**64 - 1), -1, 2**64, -(2**70), "x", "-1e3")
_COORDINATES = _mostly(st.floats(-3.0, 3.0), "nan", "inf", "-inf", "1e17", "1e154", "-1.7e308", "x")

# Raw values per long option; small sizes keep every run in milliseconds.
_VALUES = {
    "seed": _SEEDS,
    "rho": _mostly(st.floats(-0.95, 0.95), "nan", "inf", "-inf", "1", "x"),
    "n": _mostly(st.integers(1, 40), 0, -3, "x", "1e3", ""),
    "out": _mostly(st.just("out.txt"), "missing/out.txt", ""),
    "sampler": _mostly(st.sampled_from(("standard", "process-aware")), "other"),
    "neighborhood-size": _mostly(st.integers(2, 40), 1, 0, -3, "x", ""),
    "center": _mostly(st.sampled_from(("sample", "mean")), "other"),
    "noise": _mostly(st.sampled_from(("gaussian", "lhs")), "other"),
    "kernel-width": _mostly(st.floats(0.05, 3.0), "nan", "inf", "0", "-1", "1e-300", "1e300"),
    "ridge": _mostly(st.floats(0.0, 3.0), "nan", "inf", "-1"),
    "constant-model": _mostly(st.sampled_from(("0.5,0.5", "0.2,0.8")), "1", "0.2,0.9", "nan,nan", "a,b"),
    "trials": _mostly(st.integers(1, 2), 0, -1),
    "sizes": _mostly(
        st.lists(st.integers(2, 30), min_size=1, max_size=2).map(lambda s: ",".join(map(str, s))),
        "0", "1000,", "a",
    ),
    "data": _mostly(st.just("dataset.csv"), "garbage.csv", "missing.csv", "a\0b"),
    "resolution": _mostly(st.integers(2, 8), 1, -1, "x"),
    "credit": _COORDINATES,
    "risk": _COORDINATES,
}
_POSITIONALS = {
    "explain": st.tuples(_COORDINATES, _COORDINATES),
}


def _options() -> dict[str, list[str]]:
    _, commands = _build_parser()
    return {
        command: [
            option[2:]
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option not in ("--help", "--config")
        ]
        for command, parser in commands.items()
    }


# Options every invocation sets: its sizes, so that no run falls back to a
# full-size default, and the data plot's dataset.
_REQUIRED = {
    "generate": ["n"],
    "explain": ["neighborhood-size"],
    "evaluate": ["trials", "sizes"],
    "plot data": ["data"],
    "plot model-grid": ["resolution"],
    "plot neighborhood": ["neighborhood-size"],
}


@st.composite
def invocations(draw) -> tuple[list[str], bytes | None, str | None]:
    """argv, the bytes of a config file (or None) and PROLIME_SEED (or None).

    Each chosen option lands either on the command line or in the config file.
    """
    options = _options()
    command = draw(st.sampled_from(sorted(options)))
    positionals = [str(value) for value in draw(_POSITIONALS.get(command, st.just(())))]
    argv = [*command.split(), *positionals]
    required = _REQUIRED[command]
    others = [name for name in options[command] if name not in required]
    names = required + draw(st.lists(st.sampled_from(others), max_size=5, unique=True))
    use_config = draw(st.booleans())
    lines = []
    for name in names:
        setting = f"{name}={draw(_VALUES[name])}"
        if use_config and draw(st.booleans()):
            lines.append(setting.encode())
        else:
            argv.append(f"--{setting}")
    config = None
    if use_config:
        if draw(st.integers(0, 4)) == 4:
            lines.append(draw(st.sampled_from((b"bogus=1", b"no equals sign", b"n=\xff", b"# c"))))
        config = b"\n".join(draw(st.permutations(lines)))
        argv.append("--config=run.cfg")
    env_seed = draw(st.one_of(st.none(), st.none(), _SEEDS.map(str)))
    return argv, config, env_seed


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocation=invocations())
@example(invocation=(["explain", "0", "0", "--seed=-1"], None, None))
@example(invocation=(["plot", "model-grid", "--resolution=2", "--seed=18446744073709551616"], None, None))
@example(invocation=(["generate", "--n=5"], None, "-3"))
@example(invocation=(["evaluate", "--trials=1", "--sizes=10", "--config=run.cfg"], b"seed=-3", None))
@example(invocation=(["generate", "--n=5", "--config=run.cfg"], b"n=\xff", None))
@example(invocation=(["explain", "1e17", "0.5"], None, None))
@example(invocation=(["evaluate", "--trials=1", "--sizes=10", "--out="], None, None))
@example(invocation=(["plot", "data", "--data=a\0b"], None, None))
def test_every_invocation_exits_0_1_or_2(invocation, tmp_path):
    argv, config, env_seed = invocation
    (tmp_path / "garbage.csv").write_bytes(b"credit,risk,label\n0.1,\xff,1\n")
    # A saved cwd, not contextlib.chdir, which is new in Python 3.11.
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            os.environ.pop("PROLIME_SEED", None)
            if env_seed is not None:
                os.environ["PROLIME_SEED"] = env_seed
            if config is not None:
                (tmp_path / "run.cfg").write_bytes(config)
            if not (tmp_path / "dataset.csv").exists():
                assert main(["generate", "--n=20", "--seed=1", "--out=dataset.csv"]) == 0
            assert main(argv) in (0, 1, 2)
    finally:
        os.chdir(cwd)
