"""Dependency-free SVG scatter plots for datasets, model grids, and neighborhoods."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .core import BlackBoxModel, FeatureVector
from .samplers import Neighborhood
from .simulation import Dataset

__all__ = [
    "plot_dataset",
    "plot_model_grid",
    "plot_neighborhood",
    "svg_scatter",
]

_WIDTH = 640
_HEIGHT = 640
_MARGIN = 56
_LABEL_COLORS = {0: "#e07a3f", 1: "#3566a8"}

Marker = tuple[float, float, float, str, float]


def _ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """Axis ticks as (position, label): every integer while the span is at
    most 20, else the multiples of the power of ten that leaves at most 20
    intervals, so the count stays bounded for any finite limits."""
    half_span = hi * 0.5 - lo * 0.5
    if half_span <= 10:
        return [(tick, str(tick)) for tick in range(math.ceil(lo), math.floor(hi) + 1)]
    step = 10.0 ** math.ceil(math.log10(half_span / 10))
    multiples = range(math.ceil(lo / step), math.floor(hi / step) + 1)
    return [(k * step, f"{k * step:g}") for k in multiples]


def svg_scatter(
    markers: Iterable[Marker],
    xlim: tuple[float, float] = (-4.0, 4.0),
    ylim: tuple[float, float] = (-4.0, 4.0),
    title: str = "",
    xlabel: str = "credit",
    ylabel: str = "risk",
) -> str:
    """Render circles at data coordinates inside a framed, ticked axis box.

    Each marker is (x, y, radius, fill, opacity); points outside the limits
    are omitted. Returns a complete standalone SVG document.
    """
    x0, x1 = float(xlim[0]), float(xlim[1])
    y0, y1 = float(ylim[0]), float(ylim[1])
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise ValueError("axis limits must be finite")
    if not (x1 > x0 and y1 > y0):
        raise ValueError("axis limits must be increasing")
    inner_w = _WIDTH - 2 * _MARGIN
    inner_h = _HEIGHT - 2 * _MARGIN
    # Halving is exact, so differences of halves are the halved differences
    # bit for bit, yet they stay finite across the whole float range.
    half_x0, half_y0 = x0 * 0.5, y0 * 0.5
    half_w = x1 * 0.5 - half_x0
    half_h = y1 * 0.5 - half_y0

    def px(x: float) -> float:
        return _MARGIN + (x * 0.5 - half_x0) / half_w * inner_w

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - (y * 0.5 - half_y0) / half_h * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{inner_w}" height="{inner_h}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="{_MARGIN - 22}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )
    for tick, label in _ticks(x0, x1):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_HEIGHT - _MARGIN}" x2="{x:.2f}" '
            f'y2="{_HEIGHT - _MARGIN + 6}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_HEIGHT - _MARGIN + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    for tick, label in _ticks(y0, y1):
        y = py(tick)
        parts.append(
            f'<line x1="{_MARGIN - 6}" y1="{y:.2f}" x2="{_MARGIN}" y2="{y:.2f}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_MARGIN - 10}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_HEIGHT / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {_HEIGHT / 2:.1f})">{ylabel}</text>'
    )
    # Markers mostly share a style, so each style's text is formatted once.
    styles: dict[tuple[float, str, float], str] = {}
    for x, y, radius, fill, opacity in markers:
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            continue
        key = (radius, fill, opacity)
        style = styles.get(key)
        if style is None:
            style = f'r="{radius:.2f}" fill="{fill}" fill-opacity="{opacity:.2f}"/>'
            if radius and opacity:  # 0.0 == -0.0 as keys, but they format apart
                styles[key] = style
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" {style}')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_dataset(dataset: Dataset, title: str = "benchmark dataset") -> str:
    """Scatter of a labeled dataset, colored by label."""
    markers = (
        (x, y, 2.4, _LABEL_COLORS[label], 0.75)
        for (x, y), label in zip(dataset.features.tolist(), dataset.labels.tolist())
    )
    return svg_scatter(markers, title=title)


def plot_model_grid(
    model: BlackBoxModel,
    resolution: int,
    limit: float = 3.0,
    title: str = "model predictions on a uniform grid",
) -> str:
    """Model predictions over a uniform grid, colored by the predicted class."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    axis = np.linspace(-limit, limit, resolution)
    credit, risk = np.meshgrid(axis, axis)
    grid = np.column_stack((credit.ravel(), risk.ravel()))
    labels = np.argmax(model.predict_proba(grid, feature_names=("credit", "risk")), axis=1)
    pad = 0.2
    span = (_WIDTH - 2 * _MARGIN) * (2 * limit) / (2 * limit + 2 * pad)
    radius = max(1.0, 0.45 * span / (resolution - 1))
    markers = [
        (x, y, radius, _LABEL_COLORS[label], 0.85)
        for (x, y), label in zip(grid.tolist(), labels.tolist())
    ]
    return svg_scatter(markers, xlim=(-limit - pad, limit + pad), ylim=(-limit - pad, limit + pad), title=title)


def plot_neighborhood(
    origin: FeatureVector,
    nbhd: Neighborhood,
    weights: Sequence[float],
    title: str = "sampled neighborhood",
) -> str:
    """Neighborhood points sized by proximity weight, with the origin on top."""
    points = nbhd.points
    if len(points) != len(weights):
        raise ValueError("weights must match the neighborhood size")
    extent = max(float(np.max(np.abs(points))), *(abs(v) for v in origin.values))
    limit = max(4.0, math.ceil(extent + 0.5))
    markers: list[Marker] = [
        (x, y, 1.0 + 4.0 * float(w), "#777777", 0.6)
        for (x, y), w in zip(points[:, :2].tolist(), weights)
    ]
    markers.append((origin.values[0], origin.values[1], 6.0, "#c0392b", 1.0))
    return svg_scatter(markers, xlim=(-limit, limit), ylim=(-limit, limit), title=title)
