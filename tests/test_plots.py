"""SVG scatter: tick placement, the square limit, axis names, per-marker styles
and radii, and input checks."""

from __future__ import annotations

import re

import numpy as np
import pytest

from prolime import plots
from prolime.core import BlackBoxModel, ConstantModel, FeatureVector
from prolime.plots import plot_model_grid, plot_neighborhood, svg_scatter
from prolime.samplers import Neighborhood

MAX_FLOAT = 1.7976931348623157e308
NO_MARKERS = (np.empty((0, 2)), [], np.empty(0, dtype=int))


def _tick_labels(svg: str) -> list[str]:
    return re.findall(r'font-size="11">([^<]*)</text>', svg)


def test_spans_up_to_twenty_get_a_tick_per_integer():
    labels = _tick_labels(svg_scatter(*NO_MARKERS, 10.0, "t"))
    assert labels == [str(k) for k in range(-10, 11)] * 2


def test_wider_spans_get_power_of_ten_ticks():
    labels = _tick_labels(svg_scatter(*NO_MARKERS, 26.0, "t"))
    assert labels == ["-20", "-10", "0", "10", "20"] * 2


def test_the_axes_are_credit_and_risk_under_the_title():
    svg = svg_scatter(*NO_MARKERS, 4.0, "a title")
    assert re.findall(r'font-size="1[36]"[^>]*>([^<]*)</text>', svg) == ["a title", "credit", "risk"]


@pytest.mark.parametrize("limit", [MAX_FLOAT, 1e300, 1e-300])
def test_tick_count_stays_bounded_at_extreme_limits(limit):
    marker = (np.array([[limit, -limit]]), [(2.0, "#000000", 1.0)], np.array([0]))
    svg = svg_scatter(*marker, limit, "t")
    assert 2 <= svg.count("<line") <= 2 * 21
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<circle") == 1


@pytest.mark.parametrize("limit", [float("inf"), float("nan"), 0.0, -1.0, -0.0, 5e-324])
def test_the_limit_must_be_finite_and_positive(limit):
    with pytest.raises(ValueError, match="limit must be finite"):
        svg_scatter(*NO_MARKERS, limit, "t")


def test_each_marker_keeps_its_own_style_text():
    centers = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [-1.0, -1.0], [-2.0, -2.0]])
    marker_styles = [(2.0, "#111111", 0.5), (0.0, "#111111", 0.5), (-0.0, "#111111", 0.5),
                     (2.0, "#111111", -0.0), (2.0, "#111111", 0.0), (2.0, "#222222", 0.5)]
    svg = svg_scatter(centers, marker_styles, np.arange(6), 4.0, "t")
    styles = re.findall(r'<circle cx="[^"]*" cy="[^"]*" (r=.*)/>', svg)
    assert styles == [
        'r="2.00" fill="#111111" fill-opacity="0.50"',
        'r="0.00" fill="#111111" fill-opacity="0.50"',
        'r="-0.00" fill="#111111" fill-opacity="0.50"',
        'r="2.00" fill="#111111" fill-opacity="-0.00"',
        'r="2.00" fill="#111111" fill-opacity="0.00"',
        'r="2.00" fill="#222222" fill-opacity="0.50"',
    ]


def test_fill_must_not_contain_nul():
    # The circle rows are NUL-padded and the padding is stripped afterwards,
    # so a NUL in the style text would be lost silently.
    with pytest.raises(ValueError, match="NUL"):
        svg_scatter(np.zeros((1, 2)), [(2.0, "#11\0", 0.5)], np.array([0]), 4.0, "t")


def test_title_must_not_contain_nul():
    # The title is written into the first chunk's rows, whose NULs are stripped.
    with pytest.raises(ValueError, match="NUL"):
        svg_scatter(np.zeros((1, 2)), [(2.0, "#111111", 0.5)], np.array([0]), 4.0, "t\0")


@pytest.mark.parametrize("radii", [np.array([1.0, 0.5]), np.array([1.0, np.nan]), np.array([8192.0, 1.0]),
                                   np.array([1.0])])
def test_radii_must_match_the_markers_and_lie_in_the_exact_range(radii):
    with pytest.raises(ValueError, match="radii must"):
        svg_scatter(np.zeros((2, 2)), [(2.0, "#111111", 0.5)], np.array([0, 0]), 4.0, "t", radii=radii)


@pytest.mark.parametrize("bad", [-0.5, 1.5, np.nan])
def test_neighborhood_weights_must_lie_in_the_unit_interval(bad):
    origin = FeatureVector((0.0, 0.0), ("credit", "risk"))
    nbhd = Neighborhood(np.zeros((2, 2)), origin)
    with pytest.raises(ValueError, match=r"weights must lie in \[0, 1\]"):
        plot_neighborhood(nbhd, np.array([0.5, bad]))


@pytest.mark.parametrize("names", [("credit", "risk", "income"), ("credit",), ("risk", "credit")])
def test_a_neighborhood_plot_draws_only_credit_and_risk(names):
    origin = FeatureVector((0.0,) * len(names), names)
    nbhd = Neighborhood(np.zeros((5, len(names))), origin)
    with pytest.raises(ValueError, match=f"draws the features credit, risk, got {', '.join(names)}"):
        plot_neighborhood(nbhd, np.ones(5))


@pytest.mark.parametrize("probabilities", [(0.2, 0.3, 0.5), (0.5, 0.3, 0.2), (1.0,)])
def test_a_model_grid_plot_draws_only_two_class_models(probabilities):
    # Checked before the model predicts: a 3-class model whose argmax stays
    # below 2 would otherwise be drawn in two colors without complaint.
    with pytest.raises(ValueError, match=f"the model has n_classes={len(probabilities)}"):
        plot_model_grid(ConstantModel(probabilities), 5)


class _Answers(BlackBoxModel):
    """A two-class model whose every answer is ``answer(rows)``."""

    def __init__(self, answer):
        self._answer = answer

    def predict_proba(self, X, feature_names=None):
        return self._answer(X)


@pytest.mark.parametrize("answer, message", [
    (lambda X: np.full((len(X), 3), 1 / 3), r"predict_proba returned shape \(9, 3\), expected \(9, 2\)"),
    (lambda X: np.full((len(X) - 1, 2), 0.5), r"predict_proba returned shape \(8, 2\), expected \(9, 2\)"),
    (lambda X: np.full((len(X), 2), np.nan), r"^row 0: probability of class 0 must lie in \[0, 1\], got nan$"),
], ids=["three-columns", "short", "nan"])
def test_model_grid_checks_the_answer_as_the_pipeline_does(answer, message):
    with pytest.raises(ValueError, match=message) as info:
        plot_model_grid(_Answers(answer), 3)
    assert "style_index" not in str(info.value)


def _drawn_classes(model: BlackBoxModel, resolution: int, monkeypatch) -> np.ndarray:
    """The style index ``plot_model_grid`` draws the model's grid with."""
    drawn = []

    def recorded(centers, styles, style_index, *args, **kwargs):
        drawn.append(np.asarray(style_index))
        return svg_scatter(centers, styles, style_index, *args, **kwargs)

    monkeypatch.setattr(plots, "svg_scatter", recorded)
    plot_model_grid(model, resolution)
    return drawn[0]


def test_a_tied_model_grid_is_all_class_zero(monkeypatch):
    assert _drawn_classes(ConstantModel((0.5, 0.5)), 4, monkeypatch).tolist() == [0] * 16


def test_a_model_grid_colors_each_point_by_its_most_probable_class(monkeypatch):
    # Quarters of one, so ties at 0.5 come up among the points.
    first = np.random.default_rng(5).integers(0, 5, 36) / 4
    answer = np.column_stack((first, 1.0 - first))
    assert (first == 0.5).any()
    drawn = _drawn_classes(_Answers(lambda X: answer), 6, monkeypatch)
    assert drawn.tolist() == np.argmax(answer, axis=1).tolist()
