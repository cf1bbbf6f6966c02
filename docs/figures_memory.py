"""Memory traffic of the ``figures`` op, measured in process.

Runs the three commands of perfbench's ``figures`` op (``generate --n 3000``,
``plot data``, ``plot model-grid --resolution 50``) through ``cli.main``:
30 warm-up ops, then 300 timed ones. Per command it prints the minor page
faults (``ru_minflt``), the system and the wall milliseconds per op. Then it
prints the ``tracemalloc`` peak, above what was traced before the call, of
each stage those commands run, on the same 3,000 rows and resolution 50.

Run from the root of a checkout, so that its own ``src`` is imported:

    python docs/figures_memory.py [--ops 300] [--warmup 30]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from prolime import cli, datasets, plots  # noqa: E402
from prolime.samplers import RngStream  # noqa: E402
from prolime.simulation import BenchmarkDistribution, generate_dataset, oracle_model  # noqa: E402

_COMMANDS = ("generate", "plot data", "plot model-grid")


def _argvs(workdir: Path, seed: int) -> list[list[str]]:
    csv, data_svg, grid_svg = (str(workdir / name) for name in ("dataset.csv", "data.svg", "model-grid.svg"))
    return [
        ["generate", "--n", "3000", "--seed", str(seed), "--out", csv],
        ["plot", "data", "--data", csv, "--out", data_svg],
        ["plot", "model-grid", "--resolution", "50", "--seed", str(seed), "--out", grid_svg],
    ]


def command_costs(workdir: Path, ops: int, warmup: int) -> dict[str, tuple[float, float, float]]:
    """Per command: minor faults, system ms and wall ms per op, over ``ops`` ops."""
    totals = {name: [0, 0.0, 0.0] for name in _COMMANDS}
    for k in range(warmup + ops):
        for name, argv in zip(_COMMANDS, _argvs(workdir, k)):
            before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
            if code != 0:
                raise SystemExit(f"prolime {' '.join(argv)} exited with {code}")
            if k >= warmup:
                total = totals[name]
                total[0] += after.ru_minflt - before.ru_minflt
                total[1] += after.ru_stime - before.ru_stime
                total[2] += wall
    return {name: (faults / ops, 1e3 * stime / ops, 1e3 * wall / ops) for name, (faults, stime, wall) in totals.items()}


def traced_peak(call) -> int:
    """Bytes ``call()`` traced at its peak above what was traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def stage_peaks(workdir: Path) -> dict[str, int]:
    """Traced peak of each stage of a ``figures`` op, on 3,000 rows and resolution 50."""
    dataset = generate_dataset(3000, RngStream(0, 0))
    path = str(workdir / "stage.csv")
    datasets.write_dataset_csv(dataset, path)
    data = Path(path).read_bytes()
    model = oracle_model(BenchmarkDistribution(), 0)
    return {
        "_format_rows": traced_peak(lambda: datasets._format_rows(dataset.features, dataset.labels)),
        "_read_writer_form": traced_peak(lambda: datasets._read_writer_form(data)),
        "plot_dataset": traced_peak(lambda: plots.plot_dataset(dataset)),
        "plot_model_grid": traced_peak(lambda: plots.plot_model_grid(model, 50)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=300)
    parser.add_argument("--warmup", type=int, default=30)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        costs = command_costs(Path(tmp), args.ops, args.warmup)
        peaks = stage_peaks(Path(tmp))
    print(f"{'command':<16}{'faults/op':>10}{'sys ms/op':>11}{'wall ms/op':>12}")
    for name, (faults, stime, wall) in costs.items():
        print(f"{name:<16}{faults:>10.1f}{stime:>11.3f}{wall:>12.3f}")
    faults, stime, wall = (sum(column) for column in zip(*costs.values()))
    print(f"{'figures op':<16}{faults:>10.1f}{stime:>11.3f}{wall:>12.3f}")
    print(f"\n{'stage':<20}{'traced peak KB':>15}")
    for name, peak in peaks.items():
        print(f"{name:<20}{peak / 1024:>15.0f}")


if __name__ == "__main__":
    main()
