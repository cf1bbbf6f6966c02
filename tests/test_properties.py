"""Property tests of the array model contract against per-row references,
and of the dataset CSV round trip."""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prolime.core import BlackBoxModel, ClassProbabilities, FeatureVector, ModelEvaluationError
from prolime.simulation import (
    BenchmarkDistribution,
    Dataset,
    OracleModel,
    _diamond_mask,
    _pdf_values,
    read_dataset_csv,
    write_dataset_csv,
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
    dist = BenchmarkDistribution.with_correlation(rho)
    model = OracleModel(dist, model_seed)
    expected = _reference_oracle(dist, model_seed, rows)
    got = model.predict_proba(rows)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    # Rows are labeled independently: any subset labels the same.
    half = rows[::2]
    assert model.predict_proba(half).tobytes() == expected[::2].tobytes()


class _FailsOnMarker(BlackBoxModel):
    """Per-point model that fails on rows whose first coordinate is the marker."""

    MARKER = 1e9

    def predict(self, x: FeatureVector) -> ClassProbabilities:
        if x.values[0] == self.MARKER:
            raise RuntimeError("marker row")
        p = 1.0 / (1.0 + math.exp(-x.values[1]))
        return ClassProbabilities((1.0 - p, p))


@settings(deadline=None)
@given(
    rows=arrays(float, st.tuples(st.integers(1, 30), st.just(2)), elements=coordinates),
    data=st.data(),
)
def test_default_predict_proba_reports_the_first_failing_row(rows, data):
    model = _FailsOnMarker()
    failing = data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))
    for index in failing:
        rows[index, 0] = _FailsOnMarker.MARKER
    with pytest.raises(ModelEvaluationError) as info:
        model.predict_proba(rows)
    assert info.value.index == min(failing)
    assert f"point {min(failing)}" in str(info.value)


@settings(deadline=None)
@given(rows=arrays(float, st.tuples(st.integers(1, 30), st.just(2)), elements=coordinates))
def test_default_predict_proba_equals_per_point_predict(rows):
    model = _FailsOnMarker()
    expected = [list(model.predict(FeatureVector(row, ("a", "b"))).p) for row in rows.tolist()]
    assert model.predict_proba(rows).tolist() == expected


class _BadOutput(BlackBoxModel):
    """Returns a malformed prediction at one row index."""

    def __init__(self, bad_index: int, bad_output):
        self._bad = (bad_index, bad_output)
        self._calls = 0

    def predict(self, x: FeatureVector):
        index, self._calls = self._calls, self._calls + 1
        return self._bad[1] if index == self._bad[0] else ClassProbabilities((0.5, 0.5))


@pytest.mark.parametrize(
    "bad_output",
    [(0.5, 0.5), ClassProbabilities((1.0,)), ClassProbabilities((0.2, 0.3, 0.5))],
)
def test_default_predict_proba_validates_third_party_outputs(bad_output):
    with pytest.raises(ModelEvaluationError) as info:
        _BadOutput(3, bad_output).predict_proba(np.zeros((5, 2)))
    assert info.value.index == 3


def test_default_predict_proba_passes_feature_names_and_rejects_non_finite_rows():
    seen = []

    class _Records(BlackBoxModel):
        def predict(self, x: FeatureVector) -> ClassProbabilities:
            seen.append(x.feature_names)
            return ClassProbabilities((0.5, 0.5))

    _Records().predict_proba(np.zeros((2, 2)), feature_names=("credit", "risk"))
    _Records().predict_proba(np.zeros((1, 2)))
    assert seen == [("credit", "risk"), ("credit", "risk"), ("x0", "x1")]
    with pytest.raises(ModelEvaluationError) as info:
        _Records().predict_proba(np.array([[0.0, 0.0], [0.0, math.inf]]))
    assert info.value.index == 1
    with pytest.raises(ValueError):
        _Records().predict_proba(np.zeros(3))


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
