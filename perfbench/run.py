"""prolime benchmark: one command, two declared workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evaluate --seed 0 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones from a separate traced run. ``--workload all`` runs every
workload declared in BENCHMARK.json in turn; ``explain-lhs`` and
``explain-small`` are kept for runs by hand. ``--profile N`` prints a
cProfile top-N of one workload's check set and no metrics. ``--tiny``
shrinks every op for a quick smoke run.

Load is a closed loop with one client: one process, one thread, each op
starting when the previous one returns. Work runs in fresh interpreters
(``worker.py``) that import prolime from ``src`` of this checkout; this
process only orchestrates, checks outputs and prints. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


class Runner:
    """Starts worker interpreters one at a time under a shared deadline."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        # One thread, as the closed loop promises; no seed leaks in from outside.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env.pop("PROLIME_SEED", None)

    def worker(self, mode: str, workload: str, capture: bool = True, **extra) -> dict:
        result = self.workdir / f"{mode}-{workload}.json"
        result.unlink(missing_ok=True)
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
            "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
            "--workdir", str(self.workdir), "--result", str(result),
        ]
        if self.args.tiny:
            cmd.append("--tiny")
        for key, value in extra.items():
            cmd += [f"--{key.replace('_', '-')}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, timeout=remaining, text=True,
                stdout=subprocess.PIPE if capture else None, stderr=subprocess.PIPE,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker for {workload} ran past the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}:\n{proc.stderr}")
        return json.loads(result.read_text(encoding="utf-8"))


def _golden_checks(args, workload: str, digests: list[str], meta: dict) -> list[tuple[str, bool]]:
    """Every digest of a run must agree; at the default seed they must equal the recorded one."""
    checks = [("rerun outputs identical", len(set(digests)) == 1)]
    if args.seed == DEFAULT_SEED and not args.tiny:
        checks.append(("outputs match recorded digest", digests[0] == meta["digests"][workload]))
    return checks


def run_untraced(runner: Runner, workload: str, bench: dict, meta: dict) -> tuple[dict, list[str]]:
    args = runner.args
    fresh = runner.worker("check", workload)
    measured = runner.worker("measure", workload)
    # The measure worker times a fresh set-up before each segment of its loop.
    setups = [fresh["setup_s"], measured["setup_s"], *measured["setups"]]

    checks = _golden_checks(args, workload, [measured["digest"], fresh["digest"]], meta)
    gap = measured["gap"]
    if gap is not None and args.seed == DEFAULT_SEED and not args.tiny:
        checks.append(("mismatch gap positive", gap > 0))
    failed_checks = sum(not ok for _, ok in checks)
    attempted = measured["attempted_ops"] + measured["check_ops"] + fresh["check_ops"] + len(checks)
    failed = measured["failed_ops"] + measured["check_failed"] + fresh["check_failed"] + failed_checks

    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s_quiet": measured["ops_per_s_quiet"],
        "latency_ms_quiet": measured["latency_ms_quiet"],
        "peak_rss_mb": fresh["peak_rss_mb"],
    }
    lines = [
        f"ops: {measured['ops']} timed ops in {measured['busy_s']:.2f} s busy; "
        f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops and checks)",
        f"setup_s: median of {len(setups)} fresh interpreters: " + ", ".join(f"{s:.4f}" for s in setups),
        f"peak_rss_mb: ru_maxrss of a fresh interpreter after set-up and the check set",
        f"ops_per_s_quiet and latency_ms_quiet (their median) over the fastest {measured['quiet_ops']} "
        f"of {measured['ops']} ops",
        f"latency over all {measured['ops']} ops, not bounded (it follows the machine's load): "
        f"p50 {measured['all_p50_ms']:.6g} ms, tail p{measured['tail_pct']} {measured['all_tail_ms']:.6g} ms",
    ]
    if gap is not None:
        lines.append(f"mismatch_gap: {gap:.6f} (standard minus process-aware, check set at this seed)")
    lines += [f"check {name}: {'ok' if ok else 'FAILED'}" for name, ok in checks]
    lines.append(f"digest: {measured['digest']}")
    return _result(values, bench["end_to_end"], attempted, failed), lines


def run_traced(runner: Runner, workload: str, bench: dict, meta: dict) -> tuple[dict, list[str]]:
    args = runner.args
    trace_out = runner.workdir.parent / f"trace-{workload}-seed{args.seed}.jsonl"
    traced = runner.worker("trace", workload, trace_out=trace_out)
    checks = _golden_checks(args, workload, traced["digests"], meta)
    failed_checks = sum(not ok for _, ok in checks)
    attempted = traced["attempted_ops"] + len(checks)
    failed = traced["failed_ops"] + failed_checks

    lines = [
        f"traced: {traced['passes']} passes over the check set, each op untraced and traced; "
        f"the first traced pass's {traced['spans']} spans written to {trace_out.relative_to(ROOT)}",
        f"{'layer':<24}{'calls':>9}{'busy_s':>12}{'self_s':>12}   (last traced pass)",
    ]
    layers = sorted(traced["layers"].items(), key=lambda item: -item[1]["busy_s"])
    lines += [f"{name:<24}{row['calls']:>9}{row['busy_s']:>12.6f}{row['self_s']:>12.6f}" for name, row in layers]
    lines += [f"check {name}: {'ok' if ok else 'FAILED'}" for name, ok in checks]
    return _result(traced["metrics"], bench["per_layer"], attempted, failed), lines


def _result(values: dict, declared: list[dict], attempted: int, failed: int) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metric(s) {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _print_block(workload: str, args, result: dict, lines: list[str]) -> None:
    print(f"== {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f"{' tiny' if args.tiny else ''}")
    for name, metric in result["metrics"].items():
        print(f"{name:<34}{metric['value']:>16.6g} {metric['unit']}")
    for line in lines:
        print(line)


def main(argv: list[str] | None = None) -> int:
    bench_path = ROOT / "BENCHMARK.json"
    try:
        bench = _load(bench_path)
        meta = _load(HERE / "meta.json")
        declared = [w["name"] for w in bench["workloads"]]
        # Workloads kept for runs by hand but not declared in BENCHMARK.json.
        extra = [name for name in meta["digests"] if name not in declared]
    except (BenchError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=declared + extra + ["all"],
                        help="'all' runs the workloads declared in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(bench.get("run_seconds", 20)))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every op (smoke runs)")
    parser.add_argument("--profile", type=int, metavar="N", default=0,
                        help="print a cProfile top-N of the check set instead of metrics")
    args = parser.parse_args(argv)
    args.seed %= 2**63

    if not (ROOT / "src" / "prolime" / "__init__.py").is_file():
        print(f"error: no prolime sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    # A terminated run still kills its worker and removes its files:
    # subprocess.run kills the child on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(args, workdir)
        if args.profile:
            if args.workload == "all":
                raise BenchError("--profile takes one workload")
            runner.worker("profile", args.workload, capture=False, profile_top=args.profile)
            return 0
        print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} (recorded facts: perfbench/meta.json)")
        selected = declared if args.workload == "all" else [args.workload]
        results = {}
        for workload in selected:
            runner.deadline = time.monotonic() + DEADLINE_S
            run = run_traced if args.trace else run_untraced
            result, lines = run(runner, workload, bench, meta)
            _print_block(workload, args, result, lines)
            results[workload] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
