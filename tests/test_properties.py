"""Property tests of the oracle, the SVG renderer and the dataset CSV reader
against per-row references, of the labeling stage's probability check, of
the CSV round trip, of the proximity kernel, the ridge fit and the inverse
normal CDF against numpy and scipy references, of the Latin hypercube strata
and of the samplers' moments."""

from __future__ import annotations

import csv
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import lstsq
from scipy.special import ndtri

from prolime.core import BlackBoxModel, FeatureVector, NoiseMode
from prolime.plots import _fixed2, svg_scatter
from prolime.samplers import (
    Neighborhood,
    ProcessAwareSpec,
    RngStream,
    StandardSpec,
    inverse_normal_cdf,
    latin_hypercube_uniforms,
    sample_process_aware,
    sample_standard,
)
from prolime.simulation import (
    BenchmarkDistribution,
    Dataset,
    DatasetFormatError,
    OracleModel,
    _diamond_mask,
    _pdf_values,
    read_dataset_csv,
    write_dataset_csv,
)
from prolime.surrogate import (
    KernelSpec,
    WeightedDesign,
    _squared_distances,
    fit_weighted_ridge,
    label_neighborhood,
    neighborhood_weights,
)

coordinates = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)
far_coordinates = st.floats(4.0, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def rows_with_far_points(draw) -> np.ndarray:
    """(n, 2) rows anywhere in [-6, 6]^2, plus at least one row far off-distribution."""
    near = draw(arrays(float, st.tuples(st.integers(0, 40), st.just(2)), elements=coordinates))
    far = draw(arrays(float, st.tuples(st.integers(1, 10), st.just(2)), elements=far_coordinates))
    signs = draw(arrays(float, far.shape, elements=st.sampled_from((-1.0, 1.0))))
    rows = np.concatenate([near, far * signs])
    return rows[draw(st.permutations(range(len(rows))))]


def _reference_oracle(dist: BenchmarkDistribution, model_seed: int, rows: np.ndarray) -> np.ndarray:
    """The per-row oracle loop: exact label on-distribution, one blake2b coin per row off it."""
    seed_bytes = struct.pack("<Q", model_seed % 2**64)
    densities = _pdf_values(rows, dist)
    in_diamond = _diamond_mask(rows)
    out = []
    for i in range(rows.shape[0]):
        if densities[i] >= dist.density_threshold:
            label = int(in_diamond[i])
        else:
            payload = seed_bytes + struct.pack("<dd", rows[i, 0], rows[i, 1])
            label = hashlib.blake2b(payload, digest_size=8).digest()[0] & 1
        out.append((0.0, 1.0) if label == 1 else (1.0, 0.0))
    return np.array(out, dtype=float).reshape(-1, 2)


@settings(deadline=None)
@given(
    rows=rows_with_far_points(),
    model_seed=st.integers(0, 2**64 - 1),
    rho=st.sampled_from((-0.9, 0.0, 0.6)),
)
def test_oracle_predict_proba_equals_the_per_row_reference(rows, model_seed, rho):
    dist = BenchmarkDistribution(rho)
    model = OracleModel(dist, model_seed)
    expected = _reference_oracle(dist, model_seed, rows)
    got = model.predict_proba(rows)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    # Rows are labeled independently: any subset labels the same.
    half = rows[::2]
    assert model.predict_proba(half).tobytes() == expected[::2].tobytes()


@settings(deadline=None)
@given(
    rows=arrays(float, st.tuples(st.integers(1, 30), st.just(2)), elements=coordinates),
    data=st.data(),
)
def test_oracle_names_the_first_non_finite_row(rows, data):
    cells = data.draw(st.lists(
        st.tuples(st.integers(0, len(rows) - 1), st.integers(0, 1), st.sampled_from((math.nan, math.inf, -math.inf))),
        min_size=1,
    ))
    for row, column, value in cells:
        rows[row, column] = value
    first = min(row for row, _, _ in cells)
    message = f"row {first}: feature values must be finite"
    with pytest.raises(ValueError, match=f"^{message}$"):
        OracleModel(BenchmarkDistribution(), 5).predict_proba(rows)


class _FixedColumn(BlackBoxModel):
    """Returns the given class-1 column whatever the rows."""

    def __init__(self, column: np.ndarray):
        self._column = column

    def predict_proba(self, X, feature_names=None):
        return np.column_stack((1.0 - self._column, self._column))


@settings(deadline=None)
@given(column=arrays(float, st.integers(1, 30), elements=st.one_of(
    st.floats(-0.5, 1.5), st.sampled_from((0.0, 1.0, -5e-324, 1.0000000000000002, math.nan, math.inf, -math.inf)),
)))
def test_label_neighborhood_rejects_exactly_the_targets_outside_the_unit_interval(column):
    nbhd = Neighborhood(np.zeros((len(column), 2)), FeatureVector((0.0, 0.0), ("a", "b")))
    bad = [i for i, p in enumerate(column.tolist()) if not 0.0 <= p <= 1.0]
    model = _FixedColumn(column)
    if not bad:
        assert label_neighborhood(model, nbhd, 1).tobytes() == column.tobytes()
        return
    with pytest.raises(ValueError) as info:
        label_neighborhood(model, nbhd, 1)
    assert str(info.value).startswith(f"row {bad[0]}: probability of class 1 must lie in [0, 1]")


# Signed zeros, subnormals and the ends of the float range, besides any finite float.
edge_floats = st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)
)
csv_floats = st.one_of(edge_floats, st.floats(allow_nan=False, allow_infinity=False))


@settings(deadline=None)
@given(
    features=arrays(float, st.tuples(st.integers(0, 30), st.just(2)), elements=csv_floats),
    data=st.data(),
)
def test_dataset_csv_round_trip_is_bit_exact(features, data, tmp_path_factory):
    labels = data.draw(arrays(np.int64, features.shape[0], elements=st.integers(0, 1)))
    path = tmp_path_factory.mktemp("csv") / "dataset.csv"
    write_dataset_csv(Dataset(features, labels), str(path))
    back = read_dataset_csv(str(path))
    assert back.features.shape == features.shape
    assert np.array_equal(back.features.view("<u8"), features.astype("<f8").view("<u8"))
    assert back.labels.tolist() == labels.tolist()


MAX_FLOAT = 1.7976931348623157e308


@settings(deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(56.0, 584.0),
            st.integers(56 * 8, 584 * 8).map(lambda k: k / 8),
            st.sampled_from((56.0, 584.0, math.nextafter(56.0, 100.0), math.nextafter(584.0, 0.0))),
        ),
        max_size=50,
    )
)
def test_fixed_point_kernel_equals_format(values):
    rows = _fixed2(np.array(values, dtype=float))
    texts = [bytes(row).replace(b"\0", b"").decode("ascii") for row in rows]
    assert texts == [format(v, ".2f") for v in values]


def _reference_svg_scatter(markers, xlim, ylim, title="", xlabel="credit", ylabel="risk"):
    """The per-marker renderer: markers are (x, y, radius, fill, opacity)."""
    width = height = 640
    margin = 56
    x0, x1 = float(xlim[0]), float(xlim[1])
    y0, y1 = float(ylim[0]), float(ylim[1])
    inner_w = width - 2 * margin
    inner_h = height - 2 * margin
    half_x0, half_y0 = x0 * 0.5, y0 * 0.5
    half_w = x1 * 0.5 - half_x0
    half_h = y1 * 0.5 - half_y0

    def px(x):
        return margin + (x * 0.5 - half_x0) / half_w * inner_w

    def py(y):
        return height - margin - (y * 0.5 - half_y0) / half_h * inner_h

    def ticks(lo, hi):
        half_span = hi * 0.5 - lo * 0.5
        if half_span <= 10:
            return [(tick, str(tick)) for tick in range(math.ceil(lo), math.floor(hi) + 1)]
        step = 10.0 ** math.ceil(math.log10(half_span / 10))
        return [(k * step, f"{k * step:g}") for k in range(math.ceil(lo / step), math.floor(hi / step) + 1)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{margin}" y="{margin}" width="{inner_w}" height="{inner_h}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{margin - 22}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )
    for tick, label in ticks(x0, x1):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - margin}" x2="{x:.2f}" '
            f'y2="{height - margin + 6}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - margin + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    for tick, label in ticks(y0, y1):
        y = py(tick)
        parts.append(f'<line x1="{margin - 6}" y1="{y:.2f}" x2="{margin}" y2="{y:.2f}" stroke="#444444"/>')
        parts.append(
            f'<text x="{margin - 10}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {height / 2:.1f})">{ylabel}</text>'
    )
    for x, y, radius, fill, opacity in markers:
        if x0 <= x <= x1 and y0 <= y <= y1:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" '
                f'r="{radius:.2f}" fill="{fill}" fill-opacity="{opacity:.2f}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Limits and coordinates from anywhere in the float range, with the ends of
# the range and signed zeros drawn often.
plot_floats = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 5e-324, MAX_FLOAT, -MAX_FLOAT, 1e300, -1e300)),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
style_floats = st.one_of(st.sampled_from((0.0, -0.0, 0.005, -0.005, 2.4, 0.125)), st.floats(-10.0, 10.0))


@st.composite
def scatter_inputs(draw):
    xlim = tuple(sorted(draw(st.lists(plot_floats, min_size=2, max_size=2, unique=True))))
    ylim = tuple(sorted(draw(st.lists(plot_floats, min_size=2, max_size=2, unique=True))))
    assume(xlim[1] * 0.5 - xlim[0] * 0.5 > 0 and ylim[1] * 0.5 - ylim[0] * 0.5 > 0)
    # Markers on the limits, just inside and outside them, and anywhere.
    near = [*xlim, *ylim, *(math.nextafter(v, math.inf) for v in (*xlim, *ylim)),
            *(math.nextafter(v, -math.inf) for v in (*xlim, *ylim))]
    coordinate = st.one_of(plot_floats, st.sampled_from(near), st.just(math.nan), st.just(math.inf))
    n = draw(st.integers(0, 40))
    centers = [(draw(coordinate), draw(coordinate)) for _ in range(n)]
    fills = st.sampled_from(("#e07a3f", "#3566a8", "none"))
    styles = draw(st.lists(st.tuples(style_floats, fills, style_floats), min_size=1, max_size=4))
    index = [draw(st.integers(0, len(styles) - 1)) for _ in range(n)]
    return centers, styles, index, xlim, ylim


@settings(deadline=None, max_examples=200)
@given(inputs=scatter_inputs())
@example(inputs=(
    [(0.0, -0.0), (MAX_FLOAT, -MAX_FLOAT), (1e300, 3.0)],
    [(-0.0, "#e07a3f", 0.75), (2.4, "#3566a8", -0.0)],
    [0, 1, 0],
    (-MAX_FLOAT, MAX_FLOAT),
    (-1e300, MAX_FLOAT),
))
def test_svg_scatter_equals_the_per_marker_reference(inputs):
    centers, styles, index, xlim, ylim = inputs
    markers = [(x, y, *styles[i]) for (x, y), i in zip(centers, index)]
    expected = _reference_svg_scatter(markers, xlim, ylim, title="t")
    got = svg_scatter(np.array(centers, dtype=float).reshape(-1, 2), styles, np.array(index, dtype=int),
                      xlim=xlim, ylim=ylim, title="t")
    assert got == expected


@settings(deadline=None, max_examples=100)
@given(inputs=scatter_inputs(), data=st.data())
def test_svg_scatter_with_per_marker_radii_equals_the_reference(inputs, data):
    centers, styles, index, xlim, ylim = inputs
    radius = st.one_of(st.sampled_from((1.0, 1.005, 4.995, 5.0, 8191.994)), st.floats(1.0, 8191.99))
    radii = [data.draw(radius) for _ in centers]
    markers = [(x, y, r, *styles[i][1:]) for (x, y), i, r in zip(centers, index, radii)]
    expected = _reference_svg_scatter(markers, xlim, ylim)
    got = svg_scatter(np.array(centers, dtype=float).reshape(-1, 2), styles, np.array(index, dtype=int),
                      xlim=xlim, ylim=ylim, radii=np.array(radii))
    assert got == expected


def _reference_read_dataset_csv(path):
    """The per-row reader: returns (features, labels), or (line, message) of the error."""
    values, labels, failure = [], [], None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and header != ["credit", "risk", "label"]:
            return 1, "expected header credit,risk,label"
        for line_number, row in enumerate(reader, start=2):
            try:
                if len(row) != 3:
                    raise ValueError(f"expected 3 columns, got {len(row)}")
                credit, risk, label = float(row[0]), float(row[1]), int(row[2])
            except ValueError as exc:
                failure = line_number, str(exc)
                break
            if not (math.isfinite(credit) and math.isfinite(risk)):
                bad = credit if not math.isfinite(credit) else risk
                return line_number, f"feature values must be finite, got {bad!r}"
            if label not in (0, 1):
                return line_number, f"label must be 0 or 1, got {label!r}"
            values.append((credit, risk))
            labels.append(label)
    return failure or (values, labels)


CSV_FAULTS = {
    "too-few-columns": lambda row: row[:2],
    "too-many-columns": lambda row: [*row, "1"],
    "empty-line": lambda row: [],
    "bad-float": lambda row: ["abc", row[1], row[2]],
    "bad-second-float": lambda row: [row[0], "1.2.3", row[2]],
    "nan": lambda row: [row[0], "nan", row[2]],
    "inf": lambda row: ["inf", row[1], row[2]],
    "negative-inf": lambda row: [row[0], "-inf", row[2]],
    "bad-label": lambda row: [row[0], row[1], "2"],
    "non-integer-label": lambda row: [row[0], row[1], "1.0"],
    "huge-label": lambda row: [row[0], row[1], str(10**20)],
}


@settings(deadline=None)
@given(
    n=st.integers(1, 30),
    faults=st.lists(
        st.tuples(st.integers(0, 29), st.sampled_from(sorted(CSV_FAULTS))), min_size=1, max_size=2
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_read_dataset_csv_reports_the_line_of_the_per_row_reference(n, faults, seed, tmp_path_factory):
    gen = np.random.default_rng(seed)
    rows = [[repr(c), repr(r), str(label)] for (c, r), label in
            zip(gen.standard_normal((n, 2)).tolist(), gen.integers(0, 2, n).tolist())]
    clean = list(rows)
    for line, fault in faults:
        rows[line % n] = CSV_FAULTS[fault](clean[line % n])
    path = tmp_path_factory.mktemp("csv") / "dataset.csv"
    path.write_text("credit,risk,label\n" + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    expected = _reference_read_dataset_csv(str(path))
    assert isinstance(expected[0], int), "every fault makes the file invalid"
    with pytest.raises(DatasetFormatError) as info:
        read_dataset_csv(str(path))
    assert (info.value.line_number, str(info.value)) == (expected[0], f"line {expected[0]}: {expected[1]}")


# Coordinates from subnormal to near the float maximum, where differences
# and their squares overflow to inf.
kernel_floats = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, 1e-150, 1e154, -1e154, 1e200, MAX_FLOAT, -MAX_FLOAT)),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(deadline=None, max_examples=200)
@given(d=st.integers(1, 7), elements=st.sampled_from((st.floats(-10.0, 10.0), kernel_floats)), data=st.data())
def test_squared_distances_equal_numpy_sum_bit_for_bit(d, elements, data):
    # Coordinates of one scale make the summation order show in the last bit.
    points = data.draw(arrays(float, st.tuples(st.integers(1, 20), st.just(d)), elements=elements))
    origin = tuple(data.draw(st.lists(elements, min_size=d, max_size=d)))
    with np.errstate(over="ignore"):
        expected = np.sum((points - np.array(origin)) ** 2, axis=1)
        got = _squared_distances(points, origin)
    assert got.tobytes() == expected.tobytes()
    # Overflowing distances weigh nothing, and no RuntimeWarning escapes.
    names = tuple(f"x{j}" for j in range(d))
    weights = neighborhood_weights(FeatureVector(origin, names), Neighborhood(points, FeatureVector(origin, names)),
                                   KernelSpec(1.0))
    assert (weights[np.isinf(expected)] == 0.0).all()


def _reference_ridge(features, targets, weights, ridge):
    """Intercept and coefficients from scipy's least squares on the augmented
    system: rows sqrt(w) * [1, x] against sqrt(w) * t, plus sqrt(ridge) * I
    against 0 for the coefficients only."""
    n, d = features.shape
    root = np.sqrt(weights)[:, None]
    design = np.vstack([root * np.hstack([np.ones((n, 1)), features]),
                        np.hstack([np.zeros((d, 1)), math.sqrt(ridge) * np.eye(d)])])
    solution = lstsq(design, np.concatenate([np.sqrt(weights) * targets, np.zeros(d)]))[0]
    return solution[0], solution[1:]


@st.composite
def ridge_problems(draw):
    """A well-conditioned weighted design: normal features, weights in [0.05, 1]."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d + 3, 60))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = gen.standard_normal((n, d)) * draw(st.sampled_from((0.01, 1.0, 100.0)))
    targets = gen.standard_normal(n)
    weights = gen.uniform(0.05, 1.0, n)
    ridge = draw(st.sampled_from((0.0, 1e-3, 1.0, 10.0)))
    return features, targets, weights, ridge


def _fit(features, targets, weights, ridge):
    names = tuple(f"x{j}" for j in range(features.shape[1]))
    surrogate = fit_weighted_ridge(WeightedDesign(features, targets, weights, names), ridge)
    return surrogate.intercept, np.array(surrogate.coefficients)


def _close(got, expected):
    (b0, beta), (e0, expected_beta) = got, expected
    scale = 1.0 + abs(e0) + np.abs(expected_beta).max()
    return abs(b0 - e0) <= 1e-8 * scale and np.abs(beta - expected_beta).max() <= 1e-8 * scale


@settings(deadline=None)
@given(problem=ridge_problems(), data=st.data())
def test_ridge_fit_matches_lstsq_and_its_invariances(problem, data):
    features, targets, weights, ridge = problem
    fitted = _fit(features, targets, weights, ridge)
    assert _close(fitted, _reference_ridge(features, targets, weights, ridge))
    order = np.array(data.draw(st.permutations(range(len(targets)))))
    assert _close(_fit(features[order], targets[order], weights[order], ridge), fitted)
    # Scaling every weight and the ridge together scales the objective only.
    scale = data.draw(st.sampled_from((0.5, 0.125, 0.01)))
    assert _close(_fit(features, targets, weights * scale, ridge * scale), fitted)


@settings(deadline=None)
@given(problem=ridge_problems(), planted=st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5))
def test_unregularized_ridge_fit_recovers_a_planted_linear_target(problem, planted):
    features, _, weights, _ = problem
    d = features.shape[1]
    intercept, beta = planted[0], np.array(planted[1:d + 1])
    targets = intercept + features @ beta
    assert _close(_fit(features, targets, weights, 0.0), (intercept, beta))


@settings(deadline=None)
@given(n=st.integers(1, 300), d=st.integers(1, 6), seed=st.integers(0, 2**64 - 1))
def test_latin_hypercube_puts_one_point_in_each_stratum_of_each_column(n, d, seed):
    uniforms = latin_hypercube_uniforms(n, d, RngStream(seed).generator())
    assert uniforms.shape == (n, d)
    strata = np.arange(n + 1) / n
    for column in np.sort(uniforms, axis=0).T:
        # Sorted, the k-th value must lie in [k/n, (k+1)/n).
        assert ((strata[:-1] <= column) & (column < strata[1:])).all()


# AS241 switches formulas where |u - 0.5| passes 0.425 and where the tail
# probability passes exp(-25).
_ICDF_EDGES = (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0))


def _near(edge: float) -> st.SearchStrategy[float]:
    """Floats within 1e-9 of ``edge``, kept inside (0, 1)."""
    width = min(1e-9, edge / 2, (1.0 - edge) / 2)
    return st.floats(edge - width, edge + width)


probabilities = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1e-300, exclude_min=True),
    st.sampled_from(_ICDF_EDGES).flatmap(_near),
    st.sampled_from(_ICDF_EDGES).map(lambda edge: math.nextafter(edge, 0.0)),
)


@settings(deadline=None, max_examples=300)
@given(u=probabilities, v=probabilities)
@example(u=5e-324, v=1.0 - 2.0**-53)
@example(u=0.075, v=math.nextafter(0.075, 1.0))
@example(u=math.exp(-25.0), v=math.nextafter(math.exp(-25.0), 1.0))
@example(u=1.3887943864972827e-11, v=1.3887943864972829e-11)  # two ulps out of order
def test_inverse_normal_cdf_meets_its_cdf_contract_and_is_monotone(u, v):
    z = inverse_normal_cdf(u)
    assert abs(0.5 * math.erfc(-z / math.sqrt(2.0)) - u) <= 1e-9
    # Monotone up to rounding: the rational approximations leave the last
    # bit or two noisy, and neighbouring floats can map one or two ulps out
    # of order.
    lo, hi = sorted((u, v))
    z_lo, z_hi = inverse_normal_cdf(lo), inverse_normal_cdf(hi)
    assert z_lo <= z_hi + 4.0 * math.ulp(z_hi)


@settings(deadline=None, max_examples=300)
@given(u=probabilities)
@example(u=5e-324)
@example(u=1.0 - 2.0**-53)
@example(u=0.5)
def test_inverse_normal_cdf_agrees_with_scipy_ndtri(u):
    assert math.isclose(inverse_normal_cdf(u), float(ndtri(u)), rel_tol=1e-14)


def _assert_moments_within_six_standard_errors(points: np.ndarray, mean, cov) -> None:
    """Column means, column standard deviations and the sample covariance of
    n draws lie within 6 standard errors of their values under N(mean, cov)."""
    n = points.shape[0]
    cov = np.asarray(cov, dtype=float)
    variances = np.diag(cov)
    scales = np.sqrt(variances)
    assert np.all(np.abs(points.mean(axis=0) - mean) <= 6.0 * scales / math.sqrt(n))
    assert np.all(np.abs(points.std(axis=0, ddof=1) - scales) <= 6.0 * scales / math.sqrt(2.0 * (n - 1)))
    covariance_se = np.sqrt((np.outer(variances, variances) + cov * cov) / (n - 1))
    assert np.all(np.abs(np.cov(points, rowvar=False) - cov) <= 6.0 * covariance_se)


moment_scales = st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
moment_centers = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


@settings(deadline=None, max_examples=50)
@given(scales=moment_scales, centers=moment_centers, noise=st.sampled_from(NoiseMode), seed=st.integers(0, 2**64 - 1))
def test_standard_sampler_moments_match_its_scales_and_center(scales, centers, noise, seed):
    spec = StandardSpec(noise_mode=noise, per_feature_scale=scales)
    nbhd = sample_standard(FeatureVector(centers, ("a", "b")), spec, 4000, RngStream(seed))
    _assert_moments_within_six_standard_errors(nbhd.points, centers, np.diag(np.square(scales)))


@settings(deadline=None, max_examples=50)
@given(scales=moment_scales, centers=moment_centers, rho=st.floats(-0.99, 0.99), seed=st.integers(0, 2**64 - 1))
def test_process_aware_sampler_moments_match_its_spec(scales, centers, rho, seed):
    (s0, s1), off = scales, rho * scales[0] * scales[1]
    spec = ProcessAwareSpec(mean=centers, covariance=((s0 * s0, off), (off, s1 * s1)))
    nbhd = sample_process_aware(spec, 4000, RngStream(seed), origin=FeatureVector((0.0, 0.0), ("a", "b")))
    _assert_moments_within_six_standard_errors(nbhd.points, centers, spec.covariance)
