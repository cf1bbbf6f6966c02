"""The package surface: each public name is declared once, in its module, and
the benchmark's workloads run against it."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import prolime
from prolime import datasets
from prolime.simulation import FEATURE_NAMES

PACKAGE = Path(prolime.__file__).parent
# Every library module; the command line's one name, main, is its entry point.
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("_") and path.stem != "cli")
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
TRACING = WORKLOADS.with_name("tracing.py")

# Tracer hooks whose target is gone: the tracer skips them, and the metrics
# they fed read 0. ``predict_batch`` was renamed ``predict_proba``; the
# covariance is factored only through ``prolime.samplers.cholesky``.
STALE_HOOKS = {
    ("prolime.simulation:OracleModel", "predict_batch"),
    ("prolime.evaluation", "cholesky"),
    ("prolime.simulation", "cholesky"),
}


def test_package_all_is_the_union_of_the_module_lists():
    names = prolime.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(prolime, name) for name in names)
    module_names = [name for module in MODULES for name in importlib.import_module(f"prolime.{module}").__all__]
    assert sorted(names) == sorted(module_names)


def test_names_left_out_of_the_surface_stay_importable_from_their_modules():
    from prolime.evaluation import CellFailure, CellStats, ExperimentReport  # noqa: F401
    from prolime.plots import svg_scatter  # noqa: F401
    from prolime.samplers import SamplerSpec  # noqa: F401


def _benchmark_imports() -> set[str]:
    """The names ``perfbench/workloads.py`` imports from the package."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "prolime"
        for alias in node.names
    }


def test_package_exports_every_name_the_benchmark_imports():
    imported = _benchmark_imports()
    submodules = {name for name in imported if importlib.util.find_spec(f"prolime.{name}") is not None}
    assert "oracle_model" in imported
    assert imported - submodules <= set(prolime.__all__)


def _refers_to(node: ast.AST, name: str) -> bool:
    """Whether ``node`` uses ``name`` (as a name, an attribute or an import)
    outside the ``def`` or ``class`` that defines it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name:
        return False
    if (
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    ):
        return True
    return any(_refers_to(child, name) for child in ast.iter_child_nodes(node))


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    # A public name that neither the package nor the benchmark uses is
    # surface to keep up for no caller; its own definition and its __all__
    # entry do not count as uses.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    imported = _benchmark_imports()
    unused = [
        name
        for name in prolime.__all__
        if name not in imported and not any(_refers_to(tree, name) for tree in trees)
    ]
    assert unused == []


@pytest.mark.parametrize("name", ["evaluate", "explain-lhs", "explain-small", "figures"])
def test_every_benchmark_workload_runs_one_tiny_op(name, tmp_path):
    # The benchmark's own smoke test runs outside this suite, in subprocesses;
    # this catches an API change that would break its workloads.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert name in workloads.NAMES
    workload = workloads.make(name, 3, tiny=True, workdir=tmp_path)
    outputs = workload.outputs(workload.run(0))
    assert outputs and all(isinstance(data, bytes) and data for _, data in outputs)


def test_every_benchmark_tracer_hook_resolves_but_the_known_stale_ones():
    # The tracer skips a hook whose target is missing, so a renamed function
    # would silently zero its per-layer metric.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = set()
    for target, attr, _ in (*tracing.SPANS, *tracing.COUNTED):
        owner = tracing._target(target)
        # As the tracer does, look a method up in its own class only.
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            unresolved.add((target, attr))
    assert unresolved <= STALE_HOOKS


def test_only_the_samplers_module_reads_the_cholesky_factor():
    # The benchmark's Gaussian is drawn in one place, samplers._gaussian_rows.
    readers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "_lower"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert readers == ["samplers.py"]


def test_only_the_explainer_module_uses_numpy_linalg():
    # The ridge fit solves its normal equations through LAPACK; the
    # covariance is factored by samplers.cholesky, which finds the failing
    # minor itself.
    users = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if _refers_to(ast.parse(path.read_text(encoding="utf-8")), "linalg")
    )
    assert users == ["explainer.py"]


def test_only_the_samplers_module_branches_on_the_process_aware_spec():
    # Code outside samplers.py reads what both specs share, such as
    # per_feature_scale, and draws through draw_neighborhood.
    checkers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and any(isinstance(n, ast.Name) and n.id == "ProcessAwareSpec" for n in ast.walk(node))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert checkers == ["samplers.py"]


def _files_where(matches) -> list[str]:
    """The package's source files with a node for which ``matches`` holds."""
    return sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(map(matches, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    )


def test_only_the_simulation_module_reads_the_density_threshold():
    # The on-distribution test is BenchmarkDistribution.on_distribution.
    def reads(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "density_threshold"

    assert _files_where(reads) == ["simulation.py"]


def test_only_the_simulation_and_cli_modules_name_a_feature():
    # The benchmark's features are named once, in simulation.FEATURE_NAMES;
    # the command line's positional arguments of explain carry the same names.
    def names_a_feature(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in ("credit", "risk")

    assert _files_where(names_a_feature) == ["cli.py", "simulation.py"]


def test_the_dataset_header_spells_the_feature_names():
    # datasets.py imports no package module and spells its header as bytes,
    # which the guard above cannot see.
    assert datasets._HEADER == (",".join(FEATURE_NAMES) + ",label\n").encode("ascii")


def test_only_the_simulation_module_names_the_oracle_model_alias():
    # The package builds its black box one way, OracleModel(dist, seed); the
    # alias stays only for the benchmark's workloads (ROADMAP item 8).
    def names_the_alias(node: ast.AST) -> bool:
        return "oracle_model" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))

    assert _files_where(names_the_alias) == ["simulation.py"]


def test_only_the_datasets_module_turns_integers_into_digits():
    # Numbers and ASCII digits convert into each other in the dataset file's
    # writer and reader alone; plots.py formats through datasets._ascii8.
    def calls_ord_zero(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "ord"
            and [getattr(arg, "value", None) for arg in node.args] == ["0"]
        )

    assert _files_where(calls_ord_zero) == ["datasets.py"]


def test_the_datasets_module_imports_no_sibling():
    # The dataset file is a leaf that imports numpy and the standard library
    # only: simulation.py, plots.py and cli.py import it, never the reverse.
    tree = ast.parse((PACKAGE / "datasets.py").read_text(encoding="utf-8"))
    imported = [
        "." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ] + [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert "numpy" in imported
    assert [name for name in imported if name.startswith((".", "prolime"))] == []


@pytest.mark.parametrize("module", ["prolime.datasets", "prolime.simulation", "prolime.plots", "prolime.cli"])
def test_each_split_module_imports_first_in_a_fresh_interpreter(module):
    # This suite has imported the package already, which would hide an
    # import cycle that only one import order reaches.
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_private_names_shared_between_modules_stay_few():
    # A private name imported by a sibling module is a decision that module
    # shares without declaring it; each one here is a deliberate exception.
    shared = {
        alias.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert shared == {
        "_gaussian_rows",
        "_class_probabilities",
        "_by_column",
        "_require_kernel_width",
        "_overwrite",
        "_ascii8",
        "_CHUNK_ROWS",
    }


def test_hyperparameters_and_the_standard_spec_share_only_the_noise_mode():
    # Each setting has one home; a field on both has to be kept in agreement
    # by ``ExplainRequest``. The noise mode is the last one: ROADMAP items 3
    # and 5 remove it, once the benchmark's workloads stop passing it to both.
    shared = {f.name for f in fields(prolime.LimeHyperparameters)} & {f.name for f in fields(prolime.StandardSpec)}
    assert shared == {"noise_mode"}


def _writes_a_file(node: ast.AST) -> bool:
    """A call of ``write_text``, ``write_bytes`` or ``os.open``, or an ``open``
    whose mode (any string argument made of mode letters) writes."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    modes = [
        arg.value
        for arg in (*node.args, *(keyword.value for keyword in node.keywords))
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str) and arg.value
        and set(arg.value) <= set("rwxabt+")
    ]
    return any(set(mode) & set("wxa+") for mode in modes)


def _owners(matches) -> set[tuple[str, str]]:
    """(file, innermost enclosing function or ``<module>``) of every node of
    the package's source for which ``matches`` holds."""
    owners = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner in ast.walk(tree):
            for child in ast.iter_child_nodes(owner):
                child.parent = owner
        for node in ast.walk(tree):
            if matches(node):
                owner = node
                while not isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                    owner = owner.parent
                owners.add((path.name, getattr(owner, "name", "<module>")))
    return owners


def test_only_the_overwrite_helper_writes_files():
    # Outputs are overwritten in place and cut to length, one way for every
    # command; see datasets._overwrite.
    assert _owners(_writes_a_file) == {("datasets.py", "_overwrite")}


def test_only_the_checked_model_call_asks_the_black_box():
    # Every answer is checked for shape and range in one place; the model
    # classes still define the method.
    def asks(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "predict_proba"

    assert _owners(asks) == {("explainer.py", "_class_probabilities")}


_REDUCTIONS = {"all", "any", "sum", "min", "max", "argmax", "argmin"}


def _reduces_axis_one(node: ast.AST) -> bool:
    """A call ``x.all(axis=1)``, ``x.all(1)``, ``np.all(x, axis=1)`` or
    ``np.all(x, 1)`` of one of the reductions."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _REDUCTIONS):
        return False
    # The function form takes the array first and the axis second.
    position = 1 if getattr(node.func.value, "id", None) == "np" else 0
    axes = [keyword.value for keyword in node.keywords if keyword.arg == "axis"] + node.args[position:position + 1]
    return any(isinstance(axis, ast.Constant) and axis.value == 1 for axis in axes)


def test_only_the_failure_paths_reduce_along_the_rows_short_axis():
    # Reducing an (n, 2) array along axis 1 costs over ten times a whole-array
    # reduction; the row checks pay for it only once a whole-array test fails.
    assert _owners(_reduces_axis_one) == {("simulation.py", "_finite_rows"), ("datasets.py", "_first_invalid_row")}
