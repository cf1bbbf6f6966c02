"""One fresh interpreter's share of a benchmark run; started by ``run.py``.

Modes:
  setup    time set-up only (import, construction, one tiny warm-up op)
  check    set-up, then run the check set once and hash its outputs
  measure  set-up, check set, then the timed closed loop
  trace    set-up, then passes over the check set, each op run untraced and traced
  profile  set-up, then the check set under cProfile; prints the top entries

The result goes to ``--result`` as JSON. ``PYTHONPATH`` must point at the
checkout's ``src`` so that ``prolime`` is imported from source.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402  (imports prolime: part of set-up)

# The shared machine slows in bursts up to twice as slow, from tens of
# milliseconds to half a minute long, covering anywhere from none to nearly
# all of a run; the quiet moments in between can be single ops. Whole-run
# latencies therefore measure the neighbours more than the program, and the
# benchmark reports its throughput and latency over the run's quiet ops,
# much as timeit reports the best of its repeats: the fastest QUIET_SHARE of
# the timed ops, and at least QUIET_LEAST of them.
QUIET_SHARE = 0.02
QUIET_LEAST = 10
# The whole-run tail printed next to them is the highest whole percentile
# with at least TAIL_BEYOND ops beyond it.
TAIL_BEYOND = 10
# The timed loop is cut into this many segments, each preceded by a set-up
# in a fresh interpreter, so that the set-up samples meet the run's states
# of the machine in proportion.
SETUPS = 12


def _set_up(args):
    workload = workloads.make(args.workload, args.seed, args.tiny, Path(args.workdir))
    warm = workloads.make(args.workload, args.seed, True, Path(args.workdir))
    warm.run(0)
    return workload, perf_counter() - START


def _run_op(workload, k: int):
    """Run op ``k``; return its seconds, its output files (None if it failed) and failed explanations."""
    start = perf_counter()
    try:
        result = workload.run(k)
    except workloads.OpFailed:
        return perf_counter() - start, None, workload.explanations_per_op
    seconds = perf_counter() - start
    return seconds, workload.outputs(result), workload.failed_explanations()


def _hash_op(digest, k: int, files) -> None:
    if files is None:
        digest.update(f"{k}:failed\n".encode())
        return
    for name, data in files:
        digest.update(f"{k}:{name}:{len(data)}\n".encode())
        digest.update(data)


def _check_pass(workload):
    """Run the check set; return the sha256 of its outputs, the outputs by op and failed explanations."""
    digest = hashlib.sha256()
    outputs, failed = [], 0
    for k in range(workload.check_ops):
        _, files, fails = _run_op(workload, k)
        _hash_op(digest, k, files)
        outputs.append(files or [])
        failed += fails
    return digest.hexdigest(), outputs, failed


def _gap(workload, outputs) -> float | None:
    if not isinstance(workload, workloads.EvaluateWorkload):
        return None
    reports = [json.loads(data) for files in outputs for name, data in files if name == "report.json"]
    return workloads.mismatch_gap(reports)


def _fresh_setup(args) -> float:
    """Time set-up in a fresh interpreter, as a user starting prolime would."""
    workdir = Path(args.workdir) / "setup"
    workdir.mkdir(exist_ok=True)
    result = workdir / "result.json"
    cmd = [
        sys.executable, __file__, "--mode", "setup", "--workload", args.workload,
        "--seed", str(args.seed), "--workdir", str(workdir), "--result", str(result),
    ]
    if args.tiny:
        cmd.append("--tiny")
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)
    return json.loads(result.read_text(encoding="utf-8"))["setup_s"]


def _timed_loop(args, workload):
    """Closed loop with one client: ops k = check_ops, check_ops+1, ... until time is up.

    The loop runs in SETUPS segments, each after a fresh-interpreter set-up.
    Returns per-op latencies in seconds, the count of failed explanations
    and the set-up times.
    """
    latencies, failed, setups = [], 0, []
    k = workload.check_ops
    for _ in range(SETUPS):
        setups.append(_fresh_setup(args))
        deadline = perf_counter() + args.seconds / SETUPS
        while perf_counter() < deadline:
            start = perf_counter()
            try:
                workload.run(k)
                latencies.append(perf_counter() - start)
                failed += workload.failed_explanations()
            except workloads.OpFailed:
                latencies.append(perf_counter() - start)
                failed += workload.explanations_per_op
            k += 1
    return latencies, failed, setups


def _latency_summary(latencies, explanations_per_op: int) -> dict:
    lat = np.sort(np.asarray(latencies, dtype=float))
    quiet = lat[: max(QUIET_LEAST, math.ceil(QUIET_SHARE * len(lat)))]
    tail_pct = max(50, math.floor(100 * (1 - TAIL_BEYOND / len(lat))))
    return {
        "ops": len(lat),
        "quiet_ops": len(quiet),
        "ops_per_s_quiet": len(quiet) * explanations_per_op / float(quiet.sum()),
        "latency_ms_quiet": float(np.median(quiet)) * 1e3,
        "tail_pct": tail_pct,
        "all_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "all_tail_ms": float(np.percentile(lat, tail_pct)) * 1e3,
        "busy_s": float(lat.sum()),
    }


def _trace(args, workload, out: dict) -> None:
    """Passes over the check set until time is up, each op run untraced and traced.

    The two runs of an op are adjacent, in alternating order, so a slow
    burst of the shared machine lands on both and cancels in the overhead.
    """
    import tracing  # not at the top: it would count towards set-up

    tracer = tracing.Tracer(workload.dist, workloads.density)
    digest, outputs, failed = _check_pass(workload)
    gap = _gap(workload, outputs)
    digests, per_pass, overheads = [digest], [], []
    first = last = None
    deadline = perf_counter() + args.seconds
    while not per_pass or perf_counter() < deadline:
        plain, traced = hashlib.sha256(), hashlib.sha256()
        overhead = 0.0
        for k in range(workload.check_ops):
            for with_trace in (k % 2 == 1, k % 2 == 0):
                if with_trace:
                    tracer.op = k
                    tracer.install()
                try:
                    seconds, files, fails = _run_op(workload, k)
                finally:
                    tracer.uninstall()
                _hash_op(traced if with_trace else plain, k, files)
                overhead += seconds if with_trace else -seconds
                failed += fails
        digests += [plain.hexdigest(), traced.hexdigest()]
        overheads.append(overhead)
        spans, counts = tracer.take()
        per_pass.append(tracing.layer_metrics(spans, counts))
        first = first or spans
        last = spans
    metrics = {name: float(np.median([m[name] for m in per_pass])) for name in per_pass[0]}
    metrics["trace.overhead_s"] = float(np.median(overheads))
    metrics["evaluation.mismatch_gap"] = gap if gap is not None else 0.0
    tracing.write_jsonl(args.trace_out, first)
    out.update(
        digests=digests,
        failed_ops=failed,
        attempted_ops=len(digests) * workload.check_ops * workload.explanations_per_op,
        metrics=metrics,
        layers=tracing.layer_times(last),
        passes=len(per_pass),
        spans=len(first),
    )


def _profile(args, workload) -> None:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    _check_pass(workload)
    profiler.disable()
    for key in ("cumulative", "tottime"):
        print(f"--- top {args.profile_top} by {key} ({args.workload}, check set of {workload.check_ops} ops)")
        pstats.Stats(profiler).sort_stats(key).print_stats(args.profile_top)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["setup", "check", "measure", "trace", "profile"], required=True)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--profile-top", type=int, default=25)
    args = parser.parse_args()

    workload, setup_s = _set_up(args)
    out: dict = {"setup_s": setup_s}
    if args.mode in ("check", "measure"):
        digest, outputs, failed = _check_pass(workload)
        out.update(digest=digest, check_failed=failed, gap=_gap(workload, outputs),
                   check_ops=workload.check_ops * workload.explanations_per_op,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.mode == "measure":
        latencies, failed, setups = _timed_loop(args, workload)
        out.update(_latency_summary(latencies, workload.explanations_per_op), setups=setups)
        out["attempted_ops"] = len(latencies) * workload.explanations_per_op
        out["failed_ops"] = failed
    elif args.mode == "trace":
        _trace(args, workload, out)
    elif args.mode == "profile":
        _profile(args, workload)
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
