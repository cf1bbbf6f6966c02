"""Property tests of the benchmark's row functions against their one-row
calls, of the oracle, the SVG renderer and the dataset CSV reader
against per-row references, of the labeling stage's probability check, of
the CSV round trip, of the proximity kernel, the ridge fit and the inverse
normal CDF against numpy and scipy references, of the Cholesky factor, of
the Latin hypercube strata and of the samplers' moments."""

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

from prolime import datasets
from prolime.core import BlackBoxModel, FeatureVector, LocalSurrogate, NoiseMode
from prolime.evaluation import coefficient_mismatch
from prolime.plots import _fixed2, svg_scatter
from prolime.samplers import (
    Neighborhood,
    NotPositiveDefiniteError,
    ProcessAwareSpec,
    RngStream,
    StandardSpec,
    cholesky,
    draw_neighborhood,
    inverse_normal_cdf,
    latin_hypercube_uniforms,
)
from prolime.datasets import Dataset, DatasetFormatError, read_dataset_csv, write_dataset_csv
from prolime.simulation import (
    BenchmarkDistribution,
    OracleModel,
    approval_label,
    gaussian_pdf,
    ground_truth_for,
)
from prolime.explainer import (
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
    seed_bytes = struct.pack("<Q", model_seed)
    densities = gaussian_pdf(rows, dist)
    in_diamond = approval_label(rows)
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
    rho=st.sampled_from((-0.9, 0.0, 0.6)),
    width=st.sampled_from((1, 3)),
)
def test_benchmark_row_functions_equal_their_one_row_calls(rows, rho, width):
    dist = BenchmarkDistribution(rho)
    # The four quadrants' sign pairs, and signed zeros, which count as positive.
    signs = np.array([(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
    rows = np.concatenate([rows, signs])
    labels, densities, truths = approval_label(rows), gaussian_pdf(rows, dist), ground_truth_for(rows)
    assert labels.shape == densities.shape == (rows.shape[0],)
    assert truths.shape == rows.shape
    assert truths[-len(signs):].tolist() == [[-1, -1], [1, -1], [1, 1], [-1, 1], [-1, -1], [-1, -1], [-1, -1]]
    for i, row in enumerate(rows):
        assert approval_label(row[None, :]).tolist() == [labels[i]]
        assert gaussian_pdf(row[None, :], dist).tobytes() == densities[i:i + 1].tobytes()
        assert ground_truth_for(row[None, :]).tolist() == [truths[i].tolist()]
    # Only (n, 2) arrays of (credit, risk) rows are accepted.
    for bad in (np.zeros((rows.shape[0], width)), rows[0], rows.ravel()):
        with pytest.raises(ValueError, match=r"^expected an \(n, 2\) array of \(credit, risk\) rows"):
            approval_label(bad)
        with pytest.raises(ValueError, match=r"^expected an \(n, 2\) array of \(credit, risk\) rows"):
            gaussian_pdf(bad, dist)
        with pytest.raises(ValueError, match=r"^expected an \(n, 2\) array of \(credit, risk\) rows"):
            ground_truth_for(bad)


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


@settings(deadline=None)
@given(
    beta=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    point=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
    intercept=st.floats(-10.0, 10.0),
)
def test_mismatch_of_coefficients_within_one_is_one_minus_the_signed_slope(beta, point, intercept):
    # The truth is +-1 per feature, so wherever |beta_i| <= 1 the headline
    # metric rewards a steeper slope toward the truth as much as its sign.
    truth = ground_truth_for(np.array([point]))[0]
    surrogate = LocalSurrogate(intercept, beta, ("credit", "risk"))
    expected = tuple(1.0 - b * t for b, t in zip(beta, truth.tolist()))
    assert coefficient_mismatch(surrogate, truth) == expected


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
        assert label_neighborhood(model, nbhd).tobytes() == column.tobytes()
        return
    with pytest.raises(ValueError) as info:
        label_neighborhood(model, nbhd)
    # Class 0 answers 1 - p, which is out of range wherever p is, unless p
    # lies so little below 0 that 1 - p rounds to 1; it comes first in its row.
    k = 1 if 0.0 <= 1.0 - column[bad[0]] <= 1.0 else 0
    assert str(info.value).startswith(f"row {bad[0]}: probability of class {k} must lie in [0, 1]")


# Signed zeros, subnormals and the ends of the float range, besides any finite float.
edge_floats = st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)
)
csv_floats = st.one_of(edge_floats, st.floats(allow_nan=False, allow_infinity=False))


# Spellings of a whole file that the per-row reader reads as the writer's own.
FILE_SPELLINGS = {
    "as-written": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "no-final-newline": lambda text: text[:-1],
    "quoted": lambda text: "".join(",".join(f'"{field}"' for field in line.split(",")) + "\n"
                                   for line in text.splitlines()),
}


@settings(deadline=None)
@given(
    features=arrays(float, st.tuples(st.integers(0, 30), st.just(2)), elements=csv_floats),
    spelling=st.sampled_from(sorted(FILE_SPELLINGS)),
    data=st.data(),
)
def test_dataset_csv_round_trip_is_bit_exact(features, spelling, data, tmp_path_factory):
    labels = data.draw(arrays(np.int64, features.shape[0], elements=st.integers(0, 1)))
    path = tmp_path_factory.mktemp("csv") / "dataset.csv"
    write_dataset_csv(Dataset(features, labels), str(path))
    path.write_bytes(FILE_SPELLINGS[spelling](path.read_text(encoding="utf-8")).encode("utf-8"))
    back = read_dataset_csv(str(path))
    assert back.features.shape == features.shape
    assert np.array_equal(back.features.view("<u8"), features.astype("<f8").view("<u8"))
    assert back.labels.tolist() == labels.tolist()
    assert _reference_read_dataset_csv(str(path)) == (features.tolist(), labels.tolist())


MAX_FLOAT = 1.7976931348623157e308


def _reference_write_dataset_csv(features: np.ndarray, labels: np.ndarray) -> bytes:
    """The per-row writer: one f-string of the two reprs and the label per row."""
    rows = zip(features.tolist(), labels.tolist())
    return ("credit,risk,label\n" + "".join(f"{c!r},{r!r},{label}\n" for (c, r), label in rows)).encode("ascii")


def _with_neighbours(values):
    steps = (math.nextafter(x, toward) for x in values for toward in (0.0, math.inf))
    return sorted(set(values).union(x for x in steps if math.isfinite(x)))


# Where the writer's cases meet: the bulk range [2**-14, 2**53), repr's
# positional range [1e-4, 1e16), the subnormals and the ends of the float range.
WRITER_EDGES = _with_neighbours(
    [0.0, 5e-324, 2.2250738585072014e-308, 2.0**-14, 1e-4, 1.0, 1e15, 2.0**52, 2.0**53, 1e16, MAX_FLOAT]
)
writer_magnitudes = st.one_of(
    st.floats(0.0, MAX_FLOAT),  # every finite double, subnormals included
    st.floats(2.0**-14, 2.0**53),
    st.sampled_from(WRITER_EDGES),
    st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
    st.integers(-323, 308).map(lambda k: float(f"1e{k}")),
    # Short reprs such as 0.1, 100.0 and 1e15.
    st.builds(lambda digits, k: float(f"{digits}e{k}"), st.integers(1, 999), st.integers(-8, 17)),
    # Exact short decimals, where the digits dropped can be exactly half a unit.
    st.builds(math.ldexp, st.integers(1, 2**30), st.integers(-40, 0)),
)
writer_floats = st.builds(lambda x, negative: -x if negative else x, writer_magnitudes, st.booleans())


def _assert_write_dataset_csv_matches_the_reference(features, labels, path):
    write_dataset_csv(Dataset(features, labels), str(path))
    assert path.read_bytes() == _reference_write_dataset_csv(features, labels)


@settings(deadline=None)
@given(
    rows=st.lists(st.tuples(writer_floats, writer_floats, st.integers(0, 1)), max_size=40),
    beyond_a_chunk=st.booleans(),
)
# Bulk values interleaved with values written with repr, in both columns.
@example(
    rows=[(0.5, 1e-05, 1), (5e-324, 1.5, 0), (-0.0, -123.25, 1), (1e16, -2.0**-14, 0), (0.1, 1e300, 1),
          (-2.0**53, 9007199254740991.0, 0), (0.0001, 9.999999999999999e-05, 1), (-1e15, 0.0, 0),
          # A tie broken to the even digit, and a near tie just above it.
          (0.011728286743164062, -0.00019273161888122559, 1)],
    beyond_a_chunk=False,
)
@example(rows=[(1e-05, 0.3, 1), (0.25, -0.0, 0), (2.0**60, 7.0, 1)], beyond_a_chunk=True)
def test_write_dataset_csv_writes_the_bytes_of_the_per_row_repr_writer(rows, beyond_a_chunk, tmp_path_factory):
    features = np.array([row[:2] for row in rows], dtype=float).reshape(-1, 2)
    labels = np.array([row[2] for row in rows], dtype=np.int64)
    if beyond_a_chunk and rows:
        count = datasets._CHUNK_ROWS + 2 * len(rows) + 1
        features, labels = np.resize(features, (count, 2)), np.resize(labels, count)
    _assert_write_dataset_csv_matches_the_reference(features, labels, tmp_path_factory.mktemp("csv") / "dataset.csv")


def test_write_dataset_csv_writes_every_power_of_two_of_the_bulk_range_as_repr(tmp_path):
    # The only doubles there whose lower halfway neighbour is the nearer one.
    values = _with_neighbours([math.ldexp(1.0, k) for k in range(-14, 54)])
    features = np.array(values + [-x for x in values]).reshape(-1, 2)
    _assert_write_dataset_csv_matches_the_reference(features, np.arange(len(features)) % 2, tmp_path / "powers.csv")


# Where _ascii8 gains a digit, and its ends.
ASCII8_EDGES = sorted({0, 99_999_999, *(10**k - 1 for k in range(1, 9)), *(10**k for k in range(8))})


@given(values=st.lists(st.integers(0, 10**8 - 1), max_size=50))
@example(values=ASCII8_EDGES)
def test_ascii8_writes_the_eight_zero_padded_digits_little_endian(values):
    words = datasets._ascii8(np.array(values, dtype=np.uint64))
    assert [int(word).to_bytes(8, "little") for word in words] == [f"{v:08d}".encode("ascii") for v in values]


def test_digits8_undoes_ascii8_on_every_eight_digit_number():
    for start in range(0, 10**8, 10**6):
        values = np.arange(start, start + 10**6, dtype=np.uint64)
        assert np.array_equal(datasets._digits8(datasets._ascii8(values)), values)


def _fixed(digits: int, fraction: int) -> str:
    """digits / 10**fraction in fixed notation, with a point."""
    text = str(digits).rjust(fraction + 1, "0")
    return f"{text[:len(text) - fraction]}.{text[len(text) - fraction:]}"


@st.composite
def rounding_edges(draw) -> str:
    """A decimal near where its nearest double changes, as the reader's kernel
    reads it: at most 18 significant digits, 10**-3 to 2**56.

    Ties between doubles in [2**52, 2**53) (n.5), and the halfway points between
    two doubles and the quarter-ulp ones below powers of two, cut to fewer
    digits, so just below them, or one unit in the last digit above that.
    """
    sign = draw(st.sampled_from(("", "-", "+")))
    kind = draw(st.sampled_from(("tie", "halfway", "below-a-power-of-two")))
    if kind == "tie":
        return f"{sign}{draw(st.integers(2**52, 2**53 - 1))}.5"
    if kind == "halfway":
        mantissa, exponent = math.frexp(draw(st.floats(1e-3, 2.0**56, exclude_max=True)))
        mantissa, exponent = 2 * int(mantissa * 2**53) + 1, exponent - 54
    else:
        mantissa, exponent = 2**54 - 1, draw(st.integers(-9, 56)) - 54
    # mantissa * 2**exponent as digits / 10**fraction, exactly.
    digits, fraction = (mantissa << exponent, 0) if exponent >= 0 else (mantissa * 5**-exponent, -exponent)
    cut = max(len(str(digits)) - draw(st.integers(1, 18)), 0)
    digits = digits // 10**cut + draw(st.integers(0, 1))
    if cut > fraction:
        digits, fraction = digits * 10 ** (cut - fraction), 0
    else:
        fraction -= cut
    return sign + _fixed(digits, fraction)


# Spellings float() reads: trailing zeros, no digit on one side of the point,
# signed zeros, and ties and quarter-ulp halfway points that need no cut.
DECIMAL_EDGES = [
    "0.50", "5.", ".5", "+1.5", "-0.0", "+0.", "-.0", "0", "007.25", "9007199254740993", "9007199254740993.0",
    "4503599627370496.5", "4503599627370497.5", "18014398509481983", "18014398509481983.0", "4503599627370495.75",
    "0.1", "0.30000000000000004", "0.9999999999999999", "123456789012345678", "0.00012345678901234567",
]


def _no_field_to_float(data, starts, stops):
    raise AssertionError(f"float() read {[data[a:b] for a, b in zip(starts, stops)]}")


@settings(deadline=None)
@given(texts=st.lists(rounding_edges(), min_size=1, max_size=40))
@example(texts=DECIMAL_EDGES)
def test_read_dataset_csv_reads_decimals_in_bulk_to_the_bits_float_gives(texts, tmp_path_factory):
    texts = texts + ["0.5"] * (len(texts) % 2)
    path = tmp_path_factory.mktemp("csv") / "decimals.csv"
    path.write_text("credit,risk,label\n" + "".join(f"{a},{b},1\n" for a, b in zip(texts[::2], texts[1::2])),
                    encoding="ascii")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datasets, "_float_fields", _no_field_to_float)
        features = read_dataset_csv(str(path)).features
    assert features.ravel().view("<u8").tolist() == np.array([float(t) for t in texts]).view("<u8").tolist()


# The kernel's range [1, 8192): its low end, and the values whose rounding
# carries into a new integer digit, each with 40 ulps on either side, and the
# last double below 8192, which writes "8192.00".
FIXED2_EDGES = sorted(
    {
        float(v)
        for anchor in (1.0, 9.995, 99.995, 999.995, 8191.995)
        for v in (np.array([anchor]).view(np.int64) + np.arange(-40, 41)).view(np.float64)
        if 1.0 <= v < 8192.0
    }
    | {math.nextafter(8192.0, 0.0)}
)


@settings(deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(1.0, 8192.0, exclude_max=True),
            # Exact eighths, where the dropped digits can be exactly half a cent.
            st.integers(8, 8192 * 8 - 1).map(lambda k: k / 8),
            st.sampled_from(FIXED2_EDGES),
        ),
        max_size=50,
    )
)
@example(values=FIXED2_EDGES)
def test_fixed_point_kernel_equals_format(values):
    rows = _fixed2(np.array(values, dtype=float))
    texts = [bytes(row).replace(b"\0", b"").decode("ascii") for row in rows]
    assert texts == [format(v, ".2f") for v in values]


@pytest.mark.parametrize("value", [0.999, 8192.0, math.nan])
def test_fixed_point_kernel_rejects_values_outside_its_exact_range(value):
    with pytest.raises(ValueError, match="exact only in"):
        _fixed2(np.array([2.0, value]))


def _reference_svg_scatter(markers, limit, title):
    """The per-marker renderer on the box [-limit, limit]² with general axis
    arithmetic: markers are (x, y, radius, fill, opacity)."""
    width = height = 640
    margin = 56
    x0, x1 = y0, y1 = -limit, limit
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
        f'<text x="{width / 2:.1f}" y="{margin - 22}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
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
        f'font-family="sans-serif" font-size="13">credit</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {height / 2:.1f})">risk</text>'
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
    limit = abs(draw(plot_floats))
    assume(limit * 0.5 > 0)
    # Markers on the limits, just inside and outside them, and anywhere.
    edges = (-limit, limit)
    near = [*edges, *(math.nextafter(v, math.inf) for v in edges), *(math.nextafter(v, -math.inf) for v in edges)]
    coordinate = st.one_of(plot_floats, st.sampled_from(near), st.just(math.nan), st.just(math.inf))
    n = draw(st.integers(0, 40))
    centers = [(draw(coordinate), draw(coordinate)) for _ in range(n)]
    fills = st.sampled_from(("#e07a3f", "#3566a8", "none"))
    styles = draw(st.lists(st.tuples(style_floats, fills, style_floats), min_size=1, max_size=4))
    index = [draw(st.integers(0, len(styles) - 1)) for _ in range(n)]
    return centers, styles, index, limit


@settings(deadline=None, max_examples=200)
@given(inputs=scatter_inputs())
@example(inputs=(
    [(0.0, -0.0), (MAX_FLOAT, -MAX_FLOAT), (1e300, 3.0)],
    [(-0.0, "#e07a3f", 0.75), (2.4, "#3566a8", -0.0)],
    [0, 1, 0],
    MAX_FLOAT,
))
def test_svg_scatter_equals_the_per_marker_reference(inputs):
    centers, styles, index, limit = inputs
    markers = [(x, y, *styles[i]) for (x, y), i in zip(centers, index)]
    expected = _reference_svg_scatter(markers, limit, "t")
    got = svg_scatter(np.array(centers, dtype=float).reshape(-1, 2), styles, np.array(index, dtype=int), limit, "t")
    assert got == expected


@settings(deadline=None, max_examples=100)
@given(inputs=scatter_inputs(), data=st.data())
def test_svg_scatter_with_per_marker_radii_equals_the_reference(inputs, data):
    centers, styles, index, limit = inputs
    radius = st.one_of(st.sampled_from((1.0, 1.005, 4.995, 5.0, 8191.994)), st.floats(1.0, 8191.99))
    radii = [data.draw(radius) for _ in centers]
    markers = [(x, y, r, *styles[i][1:]) for (x, y), i, r in zip(centers, index, radii)]
    expected = _reference_svg_scatter(markers, limit, "t")
    got = svg_scatter(np.array(centers, dtype=float).reshape(-1, 2), styles, np.array(index, dtype=int),
                      limit, "t", radii=np.array(radii))
    assert got == expected


def _reference_read_dataset_csv(path):
    """The per-row reader: returns (features, labels), or (line, message) of the error."""
    values, labels, failure = [], [], None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        line_number = 0  # the last line read whole
        try:
            header = next(reader, None)
            line_number = 1
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
                values.append([credit, risk])
                labels.append(label)
        except csv.Error as exc:
            return line_number + 1, str(exc)
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
    "underscore-label": lambda row: [row[0], row[1], "1_0"],
    "full-width-label-2": lambda row: [row[0], row[1], "\uff12"],
    "whitespace-line": lambda row: [" "],
    # numpy strips a trailing unit separator as whitespace; float() does not.
    "control-character": lambda row: [row[0] + "\x1f", row[1], row[2]],
    "long-finite-field": lambda row: ["0." + "0" * csv.field_size_limit() + "1", row[1], row[2]],
}

# Row spellings that float() and int() accept, whether numpy reads them alike or not.
CSV_SPELLINGS = {
    "underscore-feature": lambda row: ["1_0", row[1], row[2]],
    "full-width-feature": lambda row: [row[0], "\uff11", row[2]],
    "full-width-label": lambda row: [row[0], row[1], "\uff11"],
    "plus-label": lambda row: [row[0], row[1], "+1"],
    "zero-padded-label": lambda row: [row[0], row[1], "01"],
    "negative-zero-label": lambda row: [row[0], row[1], "-0"],
    "space-label": lambda row: [row[0], row[1], " 1"],
    "quoted-feature": lambda row: [f'"{row[0]}"', row[1], row[2]],
}


def _spelled_rows(n, changes, seed):
    """n clean rows from ``seed``, each ``(line, name)`` change applied to row ``line % n``."""
    gen = np.random.default_rng(seed)
    rows = [[repr(c), repr(r), str(label)] for (c, r), label in
            zip(gen.standard_normal((n, 2)).tolist(), gen.integers(0, 2, n).tolist())]
    clean = list(rows)
    for line, name in changes:
        rows[line % n] = {**CSV_FAULTS, **CSV_SPELLINGS}[name](clean[line % n])
    return rows


def _each_change_alone(test):
    """Run ``test`` on a file with each fault or spelling alone, in its middle
    row: a change reaches numpy's reader only when nothing else in the file
    sends it to the per-row reader."""
    for name in sorted(CSV_FAULTS) + sorted(CSV_SPELLINGS):
        test = example(n=3, changes=[(1, name)], seed=0)(test)
    return test


@settings(deadline=None)
@_each_change_alone
@given(
    n=st.integers(1, 30),
    changes=st.lists(
        st.tuples(st.integers(0, 29), st.sampled_from(sorted(CSV_FAULTS) + sorted(CSV_SPELLINGS))),
        min_size=1, max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_read_dataset_csv_reports_the_line_of_the_per_row_reference(n, changes, seed, tmp_path_factory):
    # A file with a fault fails on the reference's line with its message, and
    # one with only other spellings reads to the reference's dataset.
    path = tmp_path_factory.mktemp("csv") / "dataset.csv"
    path.write_text("credit,risk,label\n" + "".join(",".join(row) + "\n" for row in _spelled_rows(n, changes, seed)),
                    encoding="utf-8")
    expected = _reference_read_dataset_csv(str(path))
    last_change_by_row = {line % n: name for line, name in changes}
    assert isinstance(expected[0], int) == any(name in CSV_FAULTS for name in last_change_by_row.values())
    if isinstance(expected[0], int):
        with pytest.raises(DatasetFormatError) as info:
            read_dataset_csv(str(path))
        assert (info.value.line_number, str(info.value)) == (expected[0], f"line {expected[0]}: {expected[1]}")
    else:
        back = read_dataset_csv(str(path))
        assert (back.features.tolist(), back.labels.tolist()) == expected


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
    weights = neighborhood_weights(Neighborhood(points, FeatureVector(origin, names)), 1.0)
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
    d = features.shape[1]
    nbhd = Neighborhood(features, FeatureVector((0.0,) * d, tuple(f"x{j}" for j in range(d))))
    surrogate = fit_weighted_ridge(nbhd, targets, weights, ridge)
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


@given(rho=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
@example(rho=-0.9)
@example(rho=-0.0)
def test_cholesky_of_a_unit_correlation_matrix_is_its_closed_form_bit_for_bit(rho):
    # Every process-aware neighborhood, dataset and test point is drawn
    # through this factor, so the digests rest on these bits.
    expected = np.array([[1.0, 0.0], [rho, math.sqrt(1.0 - rho * rho)]])
    assert cholesky(((1.0, rho), (rho, 1.0))).tobytes() == expected.tobytes()


def _symmetric(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.T) / 2


@settings(deadline=None)
@given(d=st.integers(1, 8), data=st.data())
def test_cholesky_recomposes_a_random_spd_matrix(d, data):
    base = data.draw(arrays(float, (d, d + 2), elements=st.floats(-10.0, 10.0)))
    matrix = _symmetric(base @ base.T) + np.eye(d)
    lower = cholesky(matrix)
    assert (np.triu(lower, k=1) == 0.0).all()
    assert (np.diag(lower) > 0.0).all()
    assert np.abs(lower @ lower.T - matrix).max() <= 8 * d * np.finfo(float).eps * np.abs(matrix).max()


@settings(deadline=None)
@given(d=st.integers(1, 8), data=st.data())
def test_cholesky_names_the_first_leading_minor_that_is_not_positive(d, data):
    # A = L D L^T with L unit lower triangular: the leading minor of order i
    # is the product of D's first i entries, so the first one that is not
    # positive has the order of D's first negative entry, k + 1.
    k = data.draw(st.integers(0, d - 1))
    unit = np.tril(data.draw(arrays(float, (d, d), elements=st.floats(-2.0, 2.0))), k=-1) + np.eye(d)
    pivots = np.concatenate([
        data.draw(arrays(float, k, elements=st.floats(0.5, 4.0))),
        data.draw(arrays(float, 1, elements=st.floats(-4.0, -0.5))),
        data.draw(arrays(float, d - k - 1, elements=st.floats(-4.0, 4.0))),
    ])
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky(_symmetric((unit * pivots) @ unit.T))
    assert info.value.minor_order == k + 1


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
    nbhd = draw_neighborhood(FeatureVector(centers, ("a", "b")), spec, 4000, RngStream(seed))
    _assert_moments_within_six_standard_errors(nbhd.points, centers, np.diag(np.square(scales)))


@settings(deadline=None, max_examples=50)
@given(scales=moment_scales, centers=moment_centers, rho=st.floats(-0.99, 0.99), seed=st.integers(0, 2**64 - 1))
def test_process_aware_sampler_moments_match_its_spec(scales, centers, rho, seed):
    (s0, s1), off = scales, rho * scales[0] * scales[1]
    spec = ProcessAwareSpec(mean=centers, covariance=((s0 * s0, off), (off, s1 * s1)))
    nbhd = draw_neighborhood(FeatureVector((0.0, 0.0), ("a", "b")), spec, 4000, RngStream(seed))
    _assert_moments_within_six_standard_errors(nbhd.points, centers, spec.covariance)
