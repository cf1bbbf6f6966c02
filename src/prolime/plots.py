"""Dependency-free SVG scatter plots for datasets, model grids, and neighborhoods."""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .core import BlackBoxModel
from .samplers import Neighborhood
from .simulation import FEATURE_NAMES, Dataset

__all__ = [
    "plot_dataset",
    "plot_model_grid",
    "plot_neighborhood",
    "svg_scatter",
]

_WIDTH = 640
_HEIGHT = 640
_MARGIN = 56
_INNER = _WIDTH - 2 * _MARGIN
_LABEL_COLORS = ("#e07a3f", "#3566a8")


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


# The digits of format(v, ".2f") are exact below for normal floats in
# [_FIXED2_LO, _FIXED2_HI): 100 * mantissa < 2**60 fits in uint64, the
# shift is 40 to 52 bits, and the result has at most four integer digits.
_FIXED2_LO, _FIXED2_HI = 1.0, 8192.0


def _digit_text(count: int, width: int) -> np.ndarray:
    """ASCII digits of 0 .. count - 1, one zero-padded row of ``width`` bytes each."""
    numbers = np.arange(count, dtype=np.uint16)
    text = np.empty((count, width), dtype=np.uint8)
    for column in range(width):
        text[:, column] = numbers // 10 ** (width - 1 - column) % 10 + ord("0")
    return text


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Integer parts up to 9999 (values just below _FIXED2_HI round up to it)
    with their leading zeros as NUL, and two-digit fractions. Each row is one
    4- or 2-byte word, so a lookup gathers words instead of bytes.

    Built on first use: building them costs about half a megabyte of peak
    memory, which processes that draw no figure should not pay.
    """
    integers = _digit_text(10000, 4)
    integers[:, :3][np.logical_and.accumulate(integers[:, :3] == ord("0"), axis=1)] = 0
    tables = integers.view(np.uint32).ravel(), _digit_text(100, 2).view(np.uint16).ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


def _fixed2(values: np.ndarray) -> np.ndarray:
    """``format(v, ".2f")`` of each value as a row of 7 ASCII bytes, with the
    leading zero digits replaced by NUL.

    Works on the float's bits: ``100 * v`` is ``100 * mantissa`` shifted right
    by ``52 - exponent``, rounded half to even on exact ties, which is how the
    correctly rounded decimal conversion of ``format`` rounds.
    """
    if values.size and not (values.min() >= _FIXED2_LO and values.max() < _FIXED2_HI):
        raise ValueError(f"fixed-point formatting is exact only in [{_FIXED2_LO}, {_FIXED2_HI})")
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    shift = np.uint64(1075) - (bits >> np.uint64(52))
    scaled = ((bits & np.uint64(2**52 - 1)) | np.uint64(2**52)) * np.uint64(100)
    quotient = scaled >> shift
    remainder = scaled & ((np.uint64(1) << shift) - np.uint64(1))
    half = np.uint64(1) << (shift - np.uint64(1))
    round_up = (remainder > half) | ((remainder == half) & (quotient & np.uint64(1) == 1))
    integer, fraction = np.divmod((quotient + round_up).astype(np.intp), 100)
    integer_text, fraction_text = _digit_tables()
    out = np.empty((values.size, 7), dtype=np.uint8)
    out[:, :4] = integer_text[integer].view(np.uint8).reshape(-1, 4)
    out[:, 4] = ord(".")
    out[:, 5:] = fraction_text[fraction].view(np.uint8).reshape(-1, 2)
    return out


def _offsets(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Pixel distance of each value from the ``lo`` edge of the plot box.

    Halving is exact, so differences of halves are the halved differences
    bit for bit, yet they stay finite across the whole float range.
    """
    half_lo = lo * 0.5
    return (values * 0.5 - half_lo) / (hi * 0.5 - half_lo) * _INNER


def _ascii_columns(text: str, rows: int) -> np.ndarray:
    return np.broadcast_to(np.frombuffer(text.encode("ascii"), dtype=np.uint8), (rows, len(text)))


def _circles(
    cx: np.ndarray, cy: np.ndarray, radii: np.ndarray | None, style_text: list[str], index: np.ndarray
) -> str:
    """One ``<circle .../>`` line per marker, each ending in a newline; the
    radius is a column of its own when ``radii`` is given.

    Rows are laid out as a NUL-padded byte matrix, so the NULs are stripped
    in one pass instead of formatting each marker apart.
    """
    if "\0" in "".join(style_text):
        raise ValueError("fill must not contain NUL characters")
    # A bytes array pads each style to the longest one with NULs.
    styles = np.array(list(map(str.encode, style_text)), dtype=np.bytes_)
    n = len(index)
    columns = [_ascii_columns('<circle cx="', n), _fixed2(cx), _ascii_columns('" cy="', n), _fixed2(cy)]
    if radii is not None:
        columns += [_ascii_columns('" r="', n), _fixed2(radii)]
    columns += [
        _ascii_columns('" ', n),
        styles.view(np.uint8).reshape(len(styles), styles.itemsize)[index],
        _ascii_columns("\n", n),
    ]
    return np.hstack(columns).tobytes().replace(b"\0", b"").decode("utf-8")


def svg_scatter(
    centers: np.ndarray,
    styles: Sequence[tuple[float, str, float]],
    style_index: np.ndarray,
    xlim: tuple[float, float] = (-4.0, 4.0),
    ylim: tuple[float, float] = (-4.0, 4.0),
    title: str = "",
    xlabel: str = "credit",
    ylabel: str = "risk",
    radii: np.ndarray | None = None,
) -> str:
    """Render circles at data coordinates inside a framed, ticked axis box.

    ``centers`` is an ``(n, 2)`` array of marker positions, ``styles`` a list
    of (radius, fill, opacity) and ``style_index`` an ``(n,)`` int array
    giving each marker's style. ``radii``, when given, is an ``(n,)`` array of
    per-marker radii in [1, 8192) that replaces the radii of the styles.
    Markers outside the limits are omitted; later markers are drawn on top.
    Returns a complete standalone SVG document.
    """
    points = np.asarray(centers, dtype=float)
    index = np.asarray(style_index)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"centers must be an (n, 2) array, got shape {points.shape}")
    if index.shape != (len(points),):
        raise ValueError(f"style_index must have shape ({len(points)},), got {index.shape}")
    if index.size and not (index.dtype.kind in "iu" and index.min() >= 0 and index.max() < len(styles)):
        raise ValueError(f"style_index entries must be integers in [0, {len(styles)})")
    index = index.astype(np.intp, copy=False)
    if radii is not None:
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (len(points),):
            raise ValueError(f"radii must have shape ({len(points)},), got {radii.shape}")
        if radii.size and not (radii.min() >= _FIXED2_LO and radii.max() < _FIXED2_HI):
            raise ValueError(f"radii must lie in [{_FIXED2_LO}, {_FIXED2_HI})")
    x0, x1 = float(xlim[0]), float(xlim[1])
    y0, y1 = float(ylim[0]), float(ylim[1])
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise ValueError("axis limits must be finite")
    if not (x1 > x0 and y1 > y0):
        raise ValueError("axis limits must be increasing")
    if not (x1 * 0.5 - x0 * 0.5 > 0 and y1 * 0.5 - y0 * 0.5 > 0):
        raise ValueError("axis limits must be more than one subnormal step apart")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_INNER}" height="{_INNER}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="{_MARGIN - 22}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )
    x_ticks = _ticks(x0, x1)
    x_pixels = _MARGIN + _offsets(np.array([tick for tick, _ in x_ticks], dtype=float), x0, x1)
    for x, (_, label) in zip(x_pixels.tolist(), x_ticks):
        parts.append(
            f'<line x1="{x:.2f}" y1="{_HEIGHT - _MARGIN}" x2="{x:.2f}" '
            f'y2="{_HEIGHT - _MARGIN + 6}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_HEIGHT - _MARGIN + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    y_ticks = _ticks(y0, y1)
    y_pixels = _HEIGHT - _MARGIN - _offsets(np.array([tick for tick, _ in y_ticks], dtype=float), y0, y1)
    for y, (_, label) in zip(y_pixels.tolist(), y_ticks):
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
    x, y = points[:, 0], points[:, 1]
    keep = (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)
    # Rounding is monotonic, so kept markers land in [_MARGIN, _HEIGHT - _MARGIN]
    # = [56, 584], inside the exact range that _fixed2 checks.
    cx = _MARGIN + _offsets(x[keep], x0, x1)
    cy = _HEIGHT - _MARGIN - _offsets(y[keep], y0, y1)
    if radii is None:
        style_text = list(itertools.starmap('r="{:.2f}" fill="{}" fill-opacity="{:.2f}"/>'.format, styles))
        circles = _circles(cx, cy, None, style_text, index[keep])
    else:
        style_text = [f'fill="{fill}" fill-opacity="{opacity:.2f}"/>' for _, fill, opacity in styles]
        circles = _circles(cx, cy, radii[keep], style_text, index[keep])
    return "\n".join(parts) + "\n" + circles + "</svg>\n"


def plot_dataset(dataset: Dataset, title: str = "benchmark dataset") -> str:
    """Scatter of a labeled dataset, colored by label."""
    styles = [(2.4, color, 0.75) for color in _LABEL_COLORS]
    return svg_scatter(dataset.features, styles, dataset.labels, title=title)


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
    labels = np.argmax(model.predict_proba(grid, feature_names=FEATURE_NAMES), axis=1)
    pad = 0.2
    span = _INNER * (2 * limit) / (2 * limit + 2 * pad)
    radius = max(1.0, 0.45 * span / (resolution - 1))
    styles = [(radius, color, 0.85) for color in _LABEL_COLORS]
    lim = (-limit - pad, limit + pad)
    return svg_scatter(grid, styles, labels, xlim=lim, ylim=lim, title=title)


def plot_neighborhood(
    nbhd: Neighborhood,
    weights: np.ndarray,
    title: str = "sampled neighborhood",
) -> str:
    """Neighborhood points sized by proximity weight, with the origin on top."""
    points, origin = nbhd.points, nbhd.origin
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(points),):
        raise ValueError("weights must match the neighborhood size")
    if not ((weights >= 0.0) & (weights <= 1.0)).all():
        raise ValueError("weights must lie in [0, 1]")
    extent = max(float(np.max(np.abs(points))), *(abs(v) for v in origin.values))
    limit = max(4.0, math.ceil(extent + 0.5))
    styles = [(1.0, "#777777", 0.6), (6.0, "#c0392b", 1.0)]
    # The origin is drawn last, on top, in the second style.
    style_index = np.append(np.zeros(len(points), dtype=np.intp), 1)
    radii = np.append(1.0 + 4.0 * weights, 6.0)
    centers = np.vstack((points[:, :2], [origin.values[:2]]))
    lim = (-limit, limit)
    return svg_scatter(centers, styles, style_index, xlim=lim, ylim=lim, title=title, radii=radii)
