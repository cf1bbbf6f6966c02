"""Span tracing from outside the program.

The tracer swaps span-recording wrappers into the module attributes that
prolime's pipeline calls through, and restores the originals afterwards. A
span is (name, start, end, parent, op); spans stay in memory until the run
ends. Work the tracer itself does after a call (counting points, computing
the off-distribution share) is recorded as a ``trace.bookkeeping`` span and
left out of every layer's busy and self time.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

BOOKKEEPING = "trace.bookkeeping"

# (module, attribute, span name). Missing attributes are skipped, so the
# tracer keeps working when the program drops or renames one of them.
SPANS = (
    ("prolime.cli", "main", "cli"),
    ("prolime.explainer", "explain", "explainer.explain"),
    ("prolime.evaluation", "explain", "explainer.explain"),
    ("prolime.cli", "explain", "explainer.explain"),
    ("prolime.explainer", "draw_neighborhood", "samplers.draw"),
    ("prolime.cli", "draw_neighborhood", "samplers.draw"),
    ("prolime.samplers", "cholesky", "samplers.cholesky"),
    ("prolime.evaluation", "cholesky", "samplers.cholesky"),
    ("prolime.simulation", "cholesky", "samplers.cholesky"),
    ("prolime.simulation:OracleModel", "predict_batch", "simulation.predict"),
    ("prolime.explainer", "label_neighborhood", "surrogate.label"),
    ("prolime.explainer", "neighborhood_weights", "surrogate.weights"),
    ("prolime.cli", "neighborhood_weights", "surrogate.weights"),
    ("prolime.explainer", "fit_weighted_ridge", "surrogate.fit"),
    ("prolime.cli", "run_experiment", "evaluation.run"),
    ("prolime.evaluation", "draw_test_point", "evaluation.test_point"),
    ("prolime.evaluation", "coefficient_mismatch", "evaluation.mismatch"),
    ("prolime.cli", "report_to_csv", "evaluation.report"),
    ("prolime.cli", "report_to_json", "evaluation.report"),
    ("prolime.cli", "summary_table", "evaluation.report"),
    ("prolime.cli", "generate_dataset", "simulation.generate"),
    ("prolime.cli", "write_dataset_csv", "simulation.write_csv"),
    ("prolime.cli", "read_dataset_csv", "simulation.read_csv"),
    ("prolime.cli", "plot_dataset", "plots.dataset"),
    ("prolime.cli", "plot_model_grid", "plots.model_grid"),
    ("prolime.cli", "plot_neighborhood", "plots.neighborhood"),
)

# Called per element, so only counted: a span each would swamp the trace.
COUNTED = (("prolime.samplers", "inverse_normal_cdf", "samplers.icdf.calls"),)


def _target(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _as_rows(points) -> np.ndarray:
    points = list(points)
    if points and hasattr(points[0], "values"):
        return np.array([p.values for p in points], dtype=float)
    return np.asarray(points, dtype=float).reshape(len(points), -1)


class Tracer:
    """Records spans and counts while installed; one instance per traced run."""

    def __init__(self, dist, density):
        self.dist = dist
        self.density = density
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._hooks = {
            "samplers.draw": self._count_drawn,
            "simulation.predict": self._count_predicted,
            "simulation.write_csv": self._count_csv_bytes,
            "plots.dataset": self._count_svg_bytes,
            "plots.model_grid": self._count_svg_bytes,
            "plots.neighborhood": self._count_svg_bytes,
            "explainer.explain": self._count_failed_stage,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for spec, attr, name in SPANS:
            self._swap(spec, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for spec, attr, name in COUNTED:
            self._swap(spec, attr, lambda fn, name=name: self._count_wrapper(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _swap(self, spec: str, attr: str, make) -> None:
        owner = _target(spec)
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span_wrapper(self, name: str, fn):
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
                if hook is not None:
                    hook_start = perf_counter()
                    hook(args, kwargs, result, error)
                    self.spans.append((BOOKKEEPING, hook_start, perf_counter(), parent, self.op))

        return traced

    def _count_wrapper(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- bookkeeping hooks ------------------------------------------------

    def _count_drawn(self, args, kwargs, result, error) -> None:
        if result is not None:
            self.counts["samplers.draw.points"] += len(getattr(result, "points", result))

    def _count_predicted(self, args, kwargs, result, error) -> None:
        rows = _as_rows(args[1] if len(args) > 1 else next(iter(kwargs.values())))
        self.counts["simulation.predict.points"] += len(rows)
        off = self.density(rows, self.dist) < self.dist.density_threshold
        self.counts["simulation.predict.offdist_points"] += int(np.count_nonzero(off))

    def _count_csv_bytes(self, args, kwargs, result, error) -> None:
        path = args[1] if len(args) > 1 else kwargs.get("path")
        if error is None and path is not None:
            self.counts["simulation.write_csv.bytes"] += os.path.getsize(path)

    def _count_svg_bytes(self, args, kwargs, result, error) -> None:
        if isinstance(result, str):
            self.counts["plots.svg_bytes"] += len(result.encode("utf-8"))

    def _count_failed_stage(self, args, kwargs, result, error) -> None:
        stage = getattr(error, "stage", None)
        if stage is not None:
            self.counts[f"explainer.explain.failed.{stage}"] += 1

    # -- results ----------------------------------------------------------

    def take(self) -> tuple[list[tuple], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def layer_times(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Calls, busy time and self time per span name, without bookkeeping.

    A span's net time is its duration minus the bookkeeping spans below it;
    its self time is its net time minus the net time of its direct children.
    """
    hidden = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if name == BOOKKEEPING:
            while parent >= 0:
                hidden[parent] += end - start
                parent = spans[parent][3]
    net = [end - start - hidden[i] for i, (_, start, end, _, _) in enumerate(spans)]
    children = [0.0] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0 and name != BOOKKEEPING:
            children[parent] += net[i]
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, (name, _, _, _, _) in enumerate(spans):
        if name != BOOKKEEPING:
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += net[i]
            row["self_s"] += net[i] - children[i]
    return dict(out)


def layer_metrics(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced pass (trace overhead excepted)."""
    times = layer_times(spans)

    def busy(name: str) -> float:
        return times.get(name, {}).get("busy_s", 0.0)

    def own(name: str) -> float:
        return times.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return times.get(name, {}).get("calls", 0)

    drawn = counts["samplers.draw.points"]
    predicted = counts["simulation.predict.points"]
    return {
        "samplers.draw.busy_s": busy("samplers.draw"),
        "samplers.draw.points": drawn,
        "samplers.draw.ns_per_point": busy("samplers.draw") / drawn * 1e9 if drawn else 0.0,
        "samplers.icdf.calls": counts["samplers.icdf.calls"],
        "samplers.cholesky.calls": calls("samplers.cholesky"),
        "samplers.cholesky.busy_s": busy("samplers.cholesky"),
        "simulation.predict.busy_s": busy("simulation.predict"),
        "simulation.predict.points": predicted,
        "simulation.predict.offdist_frac": (
            counts["simulation.predict.offdist_points"] / predicted if predicted else 0.0
        ),
        "surrogate.label.self_s": own("surrogate.label"),
        "surrogate.weights.busy_s": busy("surrogate.weights"),
        "surrogate.fit.busy_s": busy("surrogate.fit"),
        "explainer.explain.self_s": own("explainer.explain"),
        "explainer.explain.calls": calls("explainer.explain"),
        "explainer.explain.failed.sampling": counts["explainer.explain.failed.sampling"],
        "explainer.explain.failed.labeling": counts["explainer.explain.failed.labeling"],
        "explainer.explain.failed.fitting": counts["explainer.explain.failed.fitting"],
        "evaluation.run.self_s": own("evaluation.run"),
        "evaluation.test_point.busy_s": busy("evaluation.test_point"),
        "evaluation.mismatch.busy_s": busy("evaluation.mismatch"),
        "evaluation.report.busy_s": busy("evaluation.report"),
        "simulation.generate.busy_s": busy("simulation.generate"),
        "simulation.write_csv.busy_s": busy("simulation.write_csv"),
        "simulation.write_csv.bytes": counts["simulation.write_csv.bytes"],
        "simulation.read_csv.busy_s": busy("simulation.read_csv"),
        "plots.model_grid.busy_s": busy("plots.model_grid"),
        "plots.dataset.busy_s": busy("plots.dataset"),
        "plots.svg_bytes": counts["plots.svg_bytes"],
        "cli.self_s": own("cli"),
    }


def write_jsonl(path: str, spans: list[tuple]) -> None:
    """Write spans one JSON object per line; ``parent`` is -1 for a root span."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, op) in enumerate(spans):
            record = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
            fh.write(json.dumps(record) + "\n")
