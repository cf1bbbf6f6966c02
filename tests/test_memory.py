"""Memory the figures path holds: the traced peak of each stage of a
``figures`` op, the resident peak of the largest model-grid plot, and that
the kernels which work in place leave their callers' arrays as they were."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import prolime
from prolime import cli, datasets, plots
from prolime.samplers import RngStream
from prolime.simulation import BenchmarkDistribution, generate_dataset, oracle_model

# Traced peaks in KB at the figures workload's sizes, 3,000 rows and
# resolution 50. Before the kernels worked in place they held 1,439, 883,
# 750 and 762 KB (docs/figures_memory.py). plot_dataset returns a 232 KB
# document decoded from a buffer of about its own size, so it holds at
# least twice that.
PEAK_KB = {"_format_rows": 719, "_read_writer_form": 526, "plot_dataset": 512, "plot_model_grid": 585}


def _traced_peak(call) -> int:
    """Bytes ``call()`` traced at its peak above what was traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    dataset = generate_dataset(3000, RngStream(0, 0))
    path = tmp_path_factory.mktemp("memory") / "dataset.csv"
    datasets.write_dataset_csv(dataset, str(path))
    data = path.read_bytes()
    model = oracle_model(BenchmarkDistribution(), 0)
    return {
        "_format_rows": lambda: datasets._format_rows(dataset.features, dataset.labels),
        "_read_writer_form": lambda: datasets._read_writer_form(data),
        "plot_dataset": lambda: plots.plot_dataset(dataset),
        "plot_model_grid": lambda: plots.plot_model_grid(model, 50),
    }


@pytest.mark.parametrize("stage", sorted(PEAK_KB))
def test_each_figures_stage_peaks_below_its_bound(stages, stage):
    stages[stage]()  # lazy set-up, such as numpy's caches, is not the stage's
    assert _traced_peak(stages[stage]) <= PEAK_KB[stage] * 1024


def _resident_peak_kb(argv: list[str]) -> int:
    """Peak resident KB of a fresh interpreter that runs ``cli.main(argv)``,
    which must exit 0. Read as VmHWM, the peak of the child's own address
    space: Linux starts a spawned child's ``ru_maxrss`` at the peak of the
    process it replaced, here the test run's."""
    script = (
        "import sys\n"
        "from prolime import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    print(code, next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(prolime.__file__)), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script, *argv], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    code, max_rss_kb = map(int, run.stdout.split()[-2:])
    assert code == 0
    return max_rss_kb


def test_the_largest_model_grid_plot_stays_below_275_mb_resident(tmp_path):
    # A 78 MB document: the markers are formatted in chunks, and the SVG is
    # joined once, so no more than about three copies of it are held.
    out = tmp_path / "model-grid.svg"
    max_rss_kb = _resident_peak_kb(["plot", "model-grid", "--resolution", str(cli.MAX_RESOLUTION), "--out", str(out)])
    assert out.stat().st_size > 75_000_000
    assert max_rss_kb <= 275 * 1024


def test_a_million_row_dataset_is_written_below_95_mb_resident(tmp_path):
    # A 41 MB file: each chunk of rows is written as it is made, so the file
    # is never held whole. Holding it once, as one buffer, peaked near 116 MB.
    out = tmp_path / "dataset.csv"
    max_rss_kb = _resident_peak_kb(["generate", "--n", "1000000", "--out", str(out)])
    assert out.stat().st_size > 40_000_000
    assert max_rss_kb <= 95 * 1024


STYLES = [(2.0, "#111111", 0.5), (3.0, "#222222", 1.0)]


def _frozen(*arrays: np.ndarray) -> list[bytes]:
    return [array.tobytes() for array in arrays]


def test_the_in_place_kernels_leave_their_inputs_unchanged():
    rng = np.random.default_rng(0)
    dataset = generate_dataset(500, RngStream(0, 0))
    features, labels = dataset.features.copy(), dataset.labels.copy()
    # Every power of two and a few values the writer leaves to repr.
    features[:20] = np.reshape([2.0**k for k in range(-14, 53, 2)] + [0.0, -0.0, 1e-5, 2.0**60, 5e-324, 1e300], (20, 2))
    bits = np.abs(features).view(np.uint64).ravel().copy()
    bits[bits < np.float64(2.0**-14).view(np.uint64)] = np.float64(1.0).view(np.uint64)
    bits[bits >= np.float64(2.0**53).view(np.uint64)] = np.float64(1.0).view(np.uint64)
    below_1e8 = rng.integers(0, 10**8, 1000, dtype=np.uint64)
    # Three words of eight ASCII digits per field.
    text = rng.integers(ord("0"), ord("9") + 1, (3, 200, 8), dtype=np.uint8).view("<u8")[..., 0]
    # Decimal digits with a point fraction places from the end, as a field reads.
    fields = [field for field in map(repr, np.abs(dataset.features).ravel().tolist()) if "e" not in field]
    digits = np.array([int(field.replace(".", "")) for field in fields], dtype=np.uint64)
    fraction = np.array([len(field) - field.index(".") - 1 for field in fields], dtype=np.intp)
    values = rng.uniform(1.0, 8192.0, 1000)
    centers = rng.uniform(-5.0, 5.0, (800, 2))
    index = rng.integers(0, 2, 800)
    radii = rng.uniform(1.0, 9.0, 800)
    calls = [
        (datasets._shortest_digits, (bits,)),
        (datasets._ascii8, (below_1e8,)),
        (datasets._digits8, (text,)),
        (datasets._format_rows, (features, labels)),
        (datasets._nearest_double, (digits, fraction)),
        (plots._fixed2, (values,)),
        (lambda points, style_index, sizes: plots.svg_scatter(points, STYLES, style_index, 4.0, "t", radii=sizes),
         (centers, index, radii)),
    ]
    for kernel, args in calls:
        arrays = [arg for arg in args if isinstance(arg, np.ndarray)]
        assert all(array.flags.writeable for array in arrays)
        before = _frozen(*arrays)
        kernel(*args)
        unchanged = _frozen(*arrays) == before
        assert unchanged, f"{kernel} wrote to an input"
