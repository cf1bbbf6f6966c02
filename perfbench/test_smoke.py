"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

Not part of the tier-1 suite (pytest's ``testpaths`` is ``tests``). Run it
from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The declared workloads and the ones kept for runs by hand.
WORKLOADS = list(json.loads((ROOT / "perfbench" / "meta.json").read_text(encoding="utf-8"))["digests"])


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"{metric['name']} " in proc.stdout
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_icdf_is_counted_per_lhs_draw():
    proc = _run("--workload", "explain-lhs", "--seed", "3", "--seconds", "0.5", "--trace", "1", "--tiny")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    points = metrics["samplers.draw.points"]["value"]
    assert points > 0
    assert metrics["samplers.icdf.calls"]["value"] == 2 * points


def test_profile_prints_top_entries():
    proc = _run("--workload", "explain-small", "--profile", "5", "--tiny")
    assert proc.returncode == 0, proc.stderr
    assert "by cumulative" in proc.stdout and "by tottime" in proc.stdout
