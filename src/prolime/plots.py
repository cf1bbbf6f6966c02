"""Dependency-free SVG scatter plots for datasets, model grids, and neighborhoods."""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .core import BlackBoxModel
from .datasets import _CHUNK_ROWS, Dataset, _ascii8
from .explainer import _class_probabilities
from .samplers import Neighborhood
from .simulation import FEATURE_NAMES

__all__ = [
    "plot_dataset",
    "plot_model_grid",
    "plot_neighborhood",
]

_WIDTH = 640
_HEIGHT = 640
_MARGIN = 56
_INNER = _WIDTH - 2 * _MARGIN
_LABEL_COLORS = ("#e07a3f", "#3566a8")
_GRID_LIMIT = 3.0


def _ticks(limit: float) -> list[tuple[float, str]]:
    """Axis ticks on [-limit, limit] as (position, label): every integer while
    the span is at most 20, else the multiples of the power of ten that leaves
    at most 20 intervals, so the count stays bounded for any finite limit."""
    half_span = limit * 0.5 + limit * 0.5
    if half_span <= 10:
        return [(tick, str(tick)) for tick in range(math.ceil(-limit), math.floor(limit) + 1)]
    step = 10.0 ** math.ceil(math.log10(half_span / 10))
    multiples = range(math.ceil(-limit / step), math.floor(limit / step) + 1)
    return [(k * step, f"{k * step:g}") for k in multiples]


# The digits of format(v, ".2f") are exact below for normal floats in
# [_FIXED2_LO, _FIXED2_HI): 100 * mantissa < 2**60 fits in uint64, the shift is
# 40 to 52 bits, and the result is below 10**6 cents, which _ascii8 writes as
# "00IIIIFF" in one word. The integer part gains a digit at each _CENTS_DIGITS.
_FIXED2_LO, _FIXED2_HI = 1.0, 8192.0
_CENTS_DIGITS = np.array([1000, 10000, 100000], dtype=np.uint64)
_LEADING_ZEROS = np.array([2**64 - 2 ** (8 * k) for k in (3, 2, 1, 0)], dtype=np.uint64)


def _fixed2(values: np.ndarray) -> np.ndarray:
    """``format(v, ".2f")`` of each value as a row of 7 ASCII bytes, with the
    leading zero digits replaced by NUL.

    Works on the float's bits: ``100 * v`` is ``100 * mantissa`` shifted right
    by ``52 - exponent``, rounded half to even on exact ties, which is how the
    correctly rounded decimal conversion of ``format`` rounds. Each value is
    one little-endian word "IIII.FF" and a NUL: the cents' digits shifted down
    two bytes, the fraction's moved up one past the point, and the integer's
    leading zeros masked to NUL by how many there are.
    """
    if values.size and not (values.min() >= _FIXED2_LO and values.max() < _FIXED2_HI):
        raise ValueError(f"fixed-point formatting is exact only in [{_FIXED2_LO}, {_FIXED2_HI})")
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    shift = np.uint64(1075) - (bits >> np.uint64(52))
    cents = ((bits & np.uint64(2**52 - 1)) | np.uint64(2**52)) * np.uint64(100)
    remainder = cents & ((np.uint64(1) << shift) - np.uint64(1))
    cents >>= shift
    shift = np.uint64(1) << (shift - np.uint64(1))  # half the divisor
    cents += (remainder > shift) | ((remainder == shift) & (cents & np.uint64(1) == 1))
    words = _ascii8(cents) >> np.uint64(16)
    words = (words & np.uint64(0xFFFFFFFF)) | np.uint64(ord(".") << 32) | ((words >> np.uint64(32)) << np.uint64(40))
    words &= _LEADING_ZEROS[np.searchsorted(_CENTS_DIGITS, cents, side="right")]
    return words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, :7]


def _offsets(values: np.ndarray, limit: float) -> np.ndarray:
    """Pixel distance of each value from the -limit edge of the plot box.

    Halving is exact, so differences of halves are the halved differences
    bit for bit, yet they stay finite across the whole float range.
    """
    half = limit * 0.5
    return (values * 0.5 + half) / (half + half) * _INNER


def _ascii_columns(text: str, rows: int) -> np.ndarray:
    return np.broadcast_to(np.frombuffer(text.encode("ascii"), dtype=np.uint8), (rows, len(text)))


def _circles(
    head: str, points: np.ndarray, keep: np.ndarray, radii: np.ndarray | None, style_text: list[str],
    index: np.ndarray, limit: float,
) -> Iterator[str]:
    """``head``, one ``<circle .../>`` line per kept marker, each ending in a
    newline, and the closing tag, in chunks of up to ``_CHUNK_ROWS`` markers;
    the radius is a column of its own when ``radii`` is given."""
    if "\0" in head + "".join(style_text):
        raise ValueError("the title and fills must not contain NUL characters")
    # A bytes array pads each style to the longest one with NULs.
    styles = np.array(list(map(str.encode, style_text)), dtype=np.bytes_)
    styles = styles.view(np.uint8).reshape(len(styles), styles.itemsize)
    for start in range(0, max(len(index), 1), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        text = (head if start == 0 else "", "</svg>\n" if start + _CHUNK_ROWS >= len(index) else "")
        # The chunk's arrays die with the call, before the NULs are stripped.
        yield _circle_rows(text, points[rows], None if radii is None else radii[rows], keep[rows], styles,
                           index[rows], limit).replace(b"\0", b"").decode("utf-8")


def _circle_rows(
    text: tuple[str, str], centers: np.ndarray, radii: np.ndarray | None, keep: np.ndarray, styles: np.ndarray,
    index: np.ndarray, limit: float,
) -> bytearray:
    """The two ``text`` around the lines of :func:`_circles` for the kept
    markers, laid out as the rows of a NUL-padded byte matrix, so that the
    NULs are stripped in one pass instead of formatting each marker apart."""
    index = index[keep]
    n = len(index)
    # Rounding is monotonic, so kept markers land in [_MARGIN, _HEIGHT - _MARGIN]
    # = [56, 584], inside the exact range that _fixed2 checks.
    numbers = [_MARGIN + _offsets(centers[keep, 0], limit), _HEIGHT - _MARGIN - _offsets(centers[keep, 1], limit)]
    numbers += [] if radii is None else [radii[keep]]
    # Their text in one call for every column: each _fixed2 call has a fixed cost.
    numbers = _fixed2(np.concatenate(numbers)).reshape(len(numbers), n, 7)
    names = ('<circle cx="', '" cy="', '" r="')
    columns = [column for name, number in zip(names, numbers) for column in (_ascii_columns(name, n), number)]
    width = sum(column.shape[1] for column in columns) + 2 + styles.shape[1] + 1
    head, tail = (part.encode("utf-8") for part in text)
    rows = bytearray(len(head) + n * width + len(tail))
    rows[:len(head)], rows[len(rows) - len(tail):] = head, tail
    columns += [_ascii_columns('" ', n), styles[index], _ascii_columns("\n", n)]
    np.concatenate(columns, axis=1, out=np.frombuffer(rows, np.uint8, n * width, len(head)).reshape(n, width))
    return rows


def svg_scatter(
    centers: np.ndarray,
    styles: Sequence[tuple[float, str, float]],
    style_index: np.ndarray,
    limit: float,
    title: str,
    radii: np.ndarray | None = None,
) -> str:
    """Render circles at data coordinates inside the framed, ticked axis box
    [-limit, limit]², with credit across and risk up.

    ``centers`` is an ``(n, 2)`` array of marker positions, ``styles`` a list
    of (radius, fill, opacity) and ``style_index`` an ``(n,)`` int array
    giving each marker's style. ``radii``, when given, is an ``(n,)`` array of
    per-marker radii in [1, 8192) that replaces the radii of the styles.
    Markers outside the box are omitted; later markers are drawn on top.
    Returns a complete standalone SVG document. The title and the fills must
    not contain NUL characters.
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
    limit = float(limit)
    # Half of the smallest subnormal rounds to 0, which would leave no span.
    if not (math.isfinite(limit) and limit * 0.5 > 0):
        raise ValueError(f"limit must be finite and above the smallest subnormal, got {limit!r}")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_INNER}" height="{_INNER}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="{_MARGIN - 22}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    ticks = _ticks(limit)
    offsets = _offsets(np.array([tick for tick, _ in ticks], dtype=float), limit).tolist()
    for offset, (_, label) in zip(offsets, ticks):
        x = _MARGIN + offset
        parts += [
            f'<line x1="{x:.2f}" y1="{_HEIGHT - _MARGIN}" x2="{x:.2f}" '
            f'y2="{_HEIGHT - _MARGIN + 6}" stroke="#444444"/>',
            f'<text x="{x:.2f}" y="{_HEIGHT - _MARGIN + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>',
        ]
    for offset, (_, label) in zip(offsets, ticks):
        y = _HEIGHT - _MARGIN - offset
        parts += [
            f'<line x1="{_MARGIN - 6}" y1="{y:.2f}" x2="{_MARGIN}" y2="{y:.2f}" stroke="#444444"/>',
            f'<text x="{_MARGIN - 10}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>',
        ]
    parts += [
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{FEATURE_NAMES[0]}</text>',
        f'<text x="16" y="{_HEIGHT / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {_HEIGHT / 2:.1f})">{FEATURE_NAMES[1]}</text>',
    ]
    keep = (np.abs(points[:, 0]) <= limit) & (np.abs(points[:, 1]) <= limit)
    if radii is None:
        style_text = list(itertools.starmap('r="{:.2f}" fill="{}" fill-opacity="{:.2f}"/>'.format, styles))
    else:
        style_text = [f'fill="{fill}" fill-opacity="{opacity:.2f}"/>' for _, fill, opacity in styles]
    # Up to _CHUNK_ROWS markers, the one chunk is the document itself.
    return "".join(_circles("\n".join(parts) + "\n", points, keep, radii, style_text, index, limit))


def plot_dataset(dataset: Dataset) -> str:
    """Scatter of a labeled dataset, colored by label."""
    styles = [(2.4, color, 0.75) for color in _LABEL_COLORS]
    return svg_scatter(dataset.features, styles, dataset.labels, 4.0, "benchmark dataset")


def plot_model_grid(model: BlackBoxModel, resolution: int) -> str:
    """Model predictions over a uniform grid on [-3, 3]², colored by the predicted class."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if model.n_classes != len(_LABEL_COLORS):
        raise ValueError(
            f"a model-grid plot colors {len(_LABEL_COLORS)} classes, the model has n_classes={model.n_classes}"
        )
    axis = np.linspace(-_GRID_LIMIT, _GRID_LIMIT, resolution)
    # Rows of (credit, risk), credit varying fastest.
    grid = np.stack(np.meshgrid(axis, axis, copy=False), axis=-1).reshape(-1, 2)
    labels = _class_probabilities(model, grid, FEATURE_NAMES)
    # The likelier class; as argmax does, a tie goes to class 0.
    labels = (labels[:, 1] > labels[:, 0]).astype(np.intp)
    pad = 0.2
    span = _INNER * (2 * _GRID_LIMIT) / (2 * _GRID_LIMIT + 2 * pad)
    radius = max(1.0, 0.45 * span / (resolution - 1))
    styles = [(radius, color, 0.85) for color in _LABEL_COLORS]
    return svg_scatter(grid, styles, labels, _GRID_LIMIT + pad, "model predictions on a uniform grid")


def plot_neighborhood(nbhd: Neighborhood, weights: np.ndarray) -> str:
    """Neighborhood points sized by proximity weight, with the origin on top."""
    points, origin = nbhd.points, nbhd.origin
    if origin.feature_names != FEATURE_NAMES:
        names = ", ".join(origin.feature_names)
        raise ValueError(f"a neighborhood plot draws the features {', '.join(FEATURE_NAMES)}, got {names}")
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
    centers = np.vstack((points, [origin.values]))
    return svg_scatter(centers, styles, style_index, limit, "sampled neighborhood", radii=radii)
