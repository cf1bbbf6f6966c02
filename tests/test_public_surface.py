"""The package surface: each public name is declared once, in its module."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import prolime

MODULES = ("core", "evaluation", "explainer", "plots", "samplers", "simulation", "surrogate")
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_package_all_is_the_union_of_the_module_lists():
    names = prolime.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(prolime, name) for name in names)
    module_names = [name for module in MODULES for name in importlib.import_module(f"prolime.{module}").__all__]
    assert sorted(names) == sorted(module_names)


def test_names_left_out_of_the_surface_stay_importable_from_their_modules():
    from prolime.evaluation import CellFailure, CellStats, ExperimentReport  # noqa: F401
    from prolime.samplers import SamplerSpec  # noqa: F401
    from prolime.simulation import GroundTruthBoundary  # noqa: F401


def test_package_exports_every_name_the_benchmark_imports():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "prolime"
        for alias in node.names
    }
    submodules = {name for name in imported if importlib.util.find_spec(f"prolime.{name}") is not None}
    assert "oracle_model" in imported
    assert imported - submodules <= set(prolime.__all__)
