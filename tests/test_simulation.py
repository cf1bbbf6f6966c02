"""Benchmark distribution, diamond rule, oracle model, dataset round-trip."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from prolime.core import FeatureVector
from prolime.samplers import RngStream
from prolime.simulation import (
    QUADRANT_BOUNDARIES,
    BenchmarkDistribution,
    Dataset,
    DatasetFormatError,
    OracleModel,
    Quadrant,
    approval_label,
    gaussian_pdf,
    generate_dataset,
    ground_truth_for,
    oracle_model,
    read_dataset_csv,
    write_dataset_csv,
)

NAMES = ("credit", "risk")


def _fv(credit: float, risk: float) -> FeatureVector:
    return FeatureVector((credit, risk), NAMES)


def _rows(points) -> np.ndarray:
    return np.array([p.values for p in points])


def test_distribution_defaults():
    dist = BenchmarkDistribution()
    assert dist.mean == (0.0, 0.0)
    assert dist.covariance == ((1.0, -0.9), (-0.9, 1.0))
    assert dist.rho == -0.9
    assert dist.density_threshold == 0.01


def test_distribution_with_correlation():
    dist = BenchmarkDistribution(0.5)
    assert dist.covariance == ((1.0, 0.5), (0.5, 1.0))
    assert dist.rho == 0.5
    assert [f.name for f in fields(dist) if f.init] == ["rho"]
    assert dist == BenchmarkDistribution(rho=0.5) != BenchmarkDistribution()


def test_distribution_validation():
    for rho in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError, match="^correlation magnitude must be below 1$"):
            BenchmarkDistribution(rho)
    for rho in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^correlation must be finite$"):
            BenchmarkDistribution(rho)
    with pytest.raises(TypeError):
        BenchmarkDistribution(covariance=((2.0, 0.0), (0.0, 1.0)))


def test_density_threshold_must_lie_below_the_peak_density():
    # At or above the peak no point would clear the threshold, and the
    # rejection loop of draw_test_point would never return. The peak
    # 1/(2*pi*sqrt(1 - rho**2)) is smallest at rho = 0, where it is 1/(2*pi).
    assert BenchmarkDistribution.density_threshold < 1.0 / (2.0 * math.pi)
    for rho in (-0.999999, -0.9, 0.0, 0.5):
        dist = BenchmarkDistribution(rho)
        assert gaussian_pdf(_fv(0.0, 0.0), dist) >= dist.density_threshold


def test_approval_label_examples():
    assert approval_label(0.0, 0.0) == 1
    assert approval_label(1.5, 0.2) == 0
    assert approval_label(0.3, -0.4) == 1


def test_approval_boundary_is_exclusive():
    assert approval_label(0.5, -0.5) == 0
    assert approval_label(0.5, 0.5) == 0
    assert approval_label(1.0, 0.0) == 0
    assert approval_label(0.0, -1.0) == 0


def test_denied_points_have_a_rotated_coordinate_at_least_one():
    dataset = generate_dataset(2000, RngStream(11))
    for (credit, risk), label in zip(dataset.features.tolist(), dataset.labels.tolist()):
        if label == 0:
            assert max(abs(credit + risk), abs(credit - risk)) >= 1.0
        else:
            assert max(abs(credit + risk), abs(credit - risk)) < 1.0


def test_pdf_at_origin_matches_closed_form():
    value = gaussian_pdf(_fv(0.0, 0.0), BenchmarkDistribution())
    assert value == 0.3651264806855467
    assert abs(value - 1.0 / (2.0 * math.pi * math.sqrt(0.19))) <= 1e-15
    assert abs(value - 0.365135) < 1e-5


def test_pdf_uncorrelated_origin():
    value = gaussian_pdf(_fv(0.0, 0.0), BenchmarkDistribution(0.0))
    assert value == 0.15915494309189535


def test_pdf_symmetry():
    dist = BenchmarkDistribution()
    for credit, risk in [(0.3, -0.7), (1.2, 0.4), (-2.0, 1.5)]:
        assert gaussian_pdf(_fv(credit, risk), dist) == gaussian_pdf(_fv(-credit, -risk), dist)
        swapped = gaussian_pdf(_fv(risk, credit), dist)
        assert abs(gaussian_pdf(_fv(credit, risk), dist) - swapped) <= 1e-12


def test_pdf_agrees_with_reference_implementation():
    dist = BenchmarkDistribution()
    reference = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, -0.9], [-0.9, 1.0]])
    gen = np.random.default_rng(2)
    for point in gen.normal(size=(40, 2)):
        ours = gaussian_pdf(_fv(point[0], point[1]), dist)
        assert abs(ours - float(reference.pdf(point))) <= 1e-12


def test_pdf_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        gaussian_pdf(FeatureVector((1.0,), ("credit",)), BenchmarkDistribution())


def test_generate_dataset_is_deterministic():
    first = generate_dataset(500, RngStream(3))
    second = generate_dataset(500, RngStream(3))
    assert first == second
    assert generate_dataset(500, RngStream(4)) != first


def test_generate_dataset_labels_follow_the_diamond_rule():
    dataset = generate_dataset(3000, RngStream(21))
    for (credit, risk), label in zip(dataset.features.tolist(), dataset.labels.tolist()):
        assert label == approval_label(credit, risk)


def test_generate_dataset_statistics():
    dataset = generate_dataset(10000, RngStream(8))
    rows = dataset.features
    labels = dataset.labels
    assert abs(labels.mean() - 0.3821) < 0.02
    assert abs(float(np.corrcoef(rows.T)[0, 1]) + 0.9) < 0.05
    assert abs(float(rows[:, 0].mean())) < 0.05
    assert abs(float(rows[:, 1].mean())) < 0.05


def test_generate_dataset_honors_the_correlation_parameter():
    dist = BenchmarkDistribution(0.5)
    rows = generate_dataset(10000, RngStream(8), dist).features
    assert abs(float(np.corrcoef(rows.T)[0, 1]) - 0.5) < 0.05


def test_generate_dataset_rejects_empty_request():
    with pytest.raises(ValueError):
        generate_dataset(0, RngStream(0))


def test_oracle_examples():
    model = oracle_model(BenchmarkDistribution(), model_seed=0)
    assert model.predict_proba(np.array([[0.41, -0.51]])).tolist() == [[0.0, 1.0]]
    assert gaussian_pdf(_fv(3.0, 3.0), BenchmarkDistribution()) < 0.01


def test_oracle_is_exact_wherever_density_clears_the_threshold():
    dist = BenchmarkDistribution()
    model = oracle_model(dist, model_seed=5)
    axis = np.linspace(-3.0, 3.0, 60)
    points = [_fv(c, r) for c in axis for r in axis]
    probabilities = model.predict_proba(_rows(points))
    checked = 0
    for point, prob in zip(points, probabilities):
        if gaussian_pdf(point, dist) < dist.density_threshold:
            continue
        checked += 1
        expected = approval_label(point.values[0], point.values[1])
        assert prob.tolist() == ([0.0, 1.0] if expected == 1 else [1.0, 0.0])
    assert checked > 100


def test_oracle_far_out_coin_is_roughly_fair():
    dist = BenchmarkDistribution()
    model = oracle_model(dist, model_seed=0)
    axis = np.linspace(-10.0, 10.0, 150)
    points = [_fv(c, r) for c in axis for r in axis]
    ood = [p for p in points if gaussian_pdf(p, dist) < dist.density_threshold]
    assert len(ood) >= 10000
    ones = float(model.predict_proba(_rows(ood))[:, 1].sum())
    assert 0.45 <= ones / len(ood) <= 0.55


def test_oracle_repeat_queries_are_identical():
    model = oracle_model(BenchmarkDistribution(), model_seed=9)
    points = [_fv(7.3, -4.1), _fv(0.41, -0.51), _fv(-6.0, -6.0)]
    first = model.predict_proba(_rows(points))
    second = model.predict_proba(_rows(points))
    assert np.array_equal(first, second)


def test_oracle_hashes_nothing_when_every_row_is_on_distribution(monkeypatch):
    model = oracle_model(BenchmarkDistribution(), model_seed=2)
    rows = _rows([_fv(0.0, 0.0), _fv(-0.3, 0.2), _fv(0.5, -0.6)])
    expected = model.predict_proba(rows)

    def no_hash(*args, **kwargs):
        raise AssertionError("an on-distribution row was hashed")

    monkeypatch.setattr("hashlib.blake2b", no_hash)
    assert np.array_equal(model.predict_proba(rows), expected)
    assert model.predict_proba(np.array([[0.1, 0.1]])).tolist() == [[0.0, 1.0]]


def test_oracle_predict_matches_predict_proba():
    # explain reads the prediction at the sample from a one-row call; each
    # row's label must not depend on the rows batched with it.
    model = oracle_model(BenchmarkDistribution(), model_seed=2)
    rows = _rows([_fv(0.0, 0.0), _fv(5.0, 5.0), _fv(-0.3, 0.2), _fv(-9.9, 3.3)])
    batch = model.predict_proba(rows)
    assert [model.predict_proba(row[None, :])[0].tolist() for row in rows] == batch.tolist()


def test_oracle_coin_depends_on_the_model_seed():
    dist = BenchmarkDistribution()
    a = oracle_model(dist, model_seed=0)
    b = oracle_model(dist, model_seed=1)
    points = [_fv(5.0 + 0.1 * k, 5.0 - 0.1 * k) for k in range(64)]
    assert not np.array_equal(a.predict_proba(_rows(points)), b.predict_proba(_rows(points)))


def test_oracle_reports_the_failing_point_index():
    model = oracle_model(BenchmarkDistribution(), model_seed=0)
    with pytest.raises(ValueError, match="^row 1: feature values must be finite$"):
        model.predict_proba(np.array([[0.0, 0.0], [math.nan, 0.0]]))
    with pytest.raises(ValueError):
        model.predict_proba(np.zeros((2, 1)))


def test_ground_truth_examples():
    assert ground_truth_for(_fv(0.41, -0.51)).quadrant == Quadrant.IV
    assert ground_truth_for(_fv(-0.2, 0.3)).quadrant == Quadrant.II
    assert ground_truth_for(_fv(0.0, 0.0)).quadrant == Quadrant.I
    assert ground_truth_for(_fv(0.0, -0.3)).quadrant == Quadrant.IV
    assert ground_truth_for(_fv(-0.3, 0.0)).quadrant == Quadrant.II


def test_ground_truth_boundaries_are_unit_diamond_edges():
    assert set(QUADRANT_BOUNDARIES) == set(Quadrant)
    signs = {
        Quadrant.I: (-1.0, -1.0),
        Quadrant.II: (1.0, -1.0),
        Quadrant.III: (1.0, 1.0),
        Quadrant.IV: (-1.0, 1.0),
    }
    for quadrant, boundary in QUADRANT_BOUNDARIES.items():
        assert boundary.intercept == 1.0
        assert (boundary.credit_coef, boundary.risk_coef) == signs[quadrant]
        assert boundary.quadrant == quadrant


def _line_distances(credit: float, risk: float) -> dict[Quadrant, float]:
    root_two = math.sqrt(2.0)
    return {
        quadrant: abs(b.intercept + b.credit_coef * credit + b.risk_coef * risk) / root_two
        for quadrant, b in QUADRANT_BOUNDARIES.items()
    }


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="tail points beyond the unit square sit closer to a neighboring quadrant's edge",
)
def test_own_quadrant_edge_is_strictly_nearest_on_distribution():
    dist = BenchmarkDistribution()
    checked = 0
    for credit, risk in generate_dataset(4000, RngStream(7), dist).features.tolist():
        if gaussian_pdf(_fv(credit, risk), dist) < dist.density_threshold:
            continue
        checked += 1
        own = ground_truth_for(_fv(credit, risk)).quadrant
        distances = _line_distances(credit, risk)
        assert all(distances[own] < d for q, d in distances.items() if q != own)
    assert checked > 0


def test_strict_nearest_edge_holds_exactly_inside_the_unit_square():
    dist = BenchmarkDistribution()
    on_distribution_violations = 0
    for credit, risk in generate_dataset(4000, RngStream(7), dist).features.tolist():
        low, high = sorted((abs(credit), abs(risk)))
        if low < 1e-9 or abs(high - 1.0) < 1e-9:
            continue
        own = ground_truth_for(_fv(credit, risk)).quadrant
        distances = _line_distances(credit, risk)
        strictly_nearest = all(distances[own] < d for q, d in distances.items() if q != own)
        assert strictly_nearest == (high < 1.0)
        if not strictly_nearest and gaussian_pdf(_fv(credit, risk), dist) >= dist.density_threshold:
            on_distribution_violations += 1
    assert on_distribution_violations > 0


def test_dataset_requires_binary_labels():
    features = np.zeros((1, 2))
    assert Dataset(features, [0]).labels.tolist() == [0]
    assert Dataset(features, [1]).labels.tolist() == [1]
    with pytest.raises(ValueError, match="label must be 0 or 1, got 2"):
        Dataset(features, [2])
    with pytest.raises(ValueError, match="label must be 0 or 1, got -1"):
        Dataset(features, [-1])


def test_dataset_holds_validated_read_only_copies():
    features = np.array([[0.1, 0.2], [0.3, 0.4]])
    labels = np.array([True, False])
    dataset = Dataset(features, labels)
    features[0, 0] = 9.0
    labels[0] = False
    assert dataset.features.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    assert dataset.labels.tolist() == [1, 0]
    assert dataset.labels.dtype == np.int64
    assert not dataset.features.flags.writeable and not dataset.labels.flags.writeable
    assert Dataset(np.empty((0, 2)), []).features.shape == (0, 2)
    with pytest.raises(ValueError, match="row 1: feature values must be finite, got nan"):
        Dataset([[0.0, 0.0], [0.0, float("nan")]], [0, 1])
    with pytest.raises(ValueError, match="shape"):
        Dataset(np.zeros((2, 3)), [0, 1])
    with pytest.raises(ValueError, match="shape"):
        Dataset(np.zeros((2, 2)), [0])


def test_dataset_csv_round_trip_is_exact(tmp_path):
    dataset = generate_dataset(200, RngStream(13))
    path = tmp_path / "round_trip.csv"
    write_dataset_csv(dataset, str(path))
    assert read_dataset_csv(str(path)) == dataset
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "credit,risk,label"


def test_dataset_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad_header.csv"
    path.write_text("credit,risk\n0.1,0.2\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError) as info:
        read_dataset_csv(str(path))
    assert info.value.line_number == 1


def test_dataset_csv_reports_the_failing_line(tmp_path):
    path = tmp_path / "bad_row.csv"
    path.write_text("credit,risk,label\n0.1,0.2,1\n0.3,0.4\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError) as info:
        read_dataset_csv(str(path))
    assert info.value.line_number == 3
    assert "line 3" in str(info.value)
    assert "3 columns" in str(info.value)


def test_dataset_csv_reports_the_first_failing_line_of_any_kind(tmp_path):
    path = tmp_path / "bad_rows.csv"
    path.write_text("credit,risk,label\n0.1,0.2,1\nnan,0.4,0\n0.5,0.6,7\n0.7\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 3: feature values must be finite, got nan"):
        read_dataset_csv(str(path))
    path.write_text("credit,risk,label\n0.1,0.2,1\n0.3,0.4,2\n0.5,inf,0\n0.7\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 3: label must be 0 or 1, got 2"):
        read_dataset_csv(str(path))
    path.write_text("credit,risk,label\n0.1,0.2,1\n0.3,-inf,2\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 3: feature values must be finite, got -inf"):
        read_dataset_csv(str(path))
    path.write_text("credit,risk,label\n0.1,0.2,1\n0.3,0.4,x\n0.5,nan,0\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 3: invalid literal for int"):
        read_dataset_csv(str(path))


def test_dataset_csv_stops_reading_at_the_first_failing_line(tmp_path):
    # The reader streams, so bytes past the failing line are never decoded
    # or split: neither the 0xff byte nor the oversized field is reached.
    path = tmp_path / "bad_then_undecodable.csv"
    padding = b"0.1,0.2,1\n" * 10_000
    for tail in (b"\xff,0.2,1\n", b"0.1," + b"9" * 200_000 + b",1\n"):
        path.write_bytes(b"credit,risk,label\n0.1,0.2\n" + padding + tail)
        with pytest.raises(DatasetFormatError, match="line 2: expected 3 columns, got 2"):
            read_dataset_csv(str(path))


def test_dataset_csv_reads_carriage_return_line_endings(tmp_path):
    path = tmp_path / "old_mac.csv"
    path.write_bytes(b"credit,risk,label\r0.1,0.2,1\r0.3,0.4,0\r")
    assert read_dataset_csv(str(path)) == Dataset([[0.1, 0.2], [0.3, 0.4]], [1, 0])


def test_dataset_csv_rejects_non_numeric_values(tmp_path):
    path = tmp_path / "bad_value.csv"
    path.write_text("credit,risk,label\nabc,0.2,1\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError) as info:
        read_dataset_csv(str(path))
    assert info.value.line_number == 2


def test_dataset_csv_rejects_non_binary_labels(tmp_path):
    path = tmp_path / "bad_label.csv"
    path.write_text("credit,risk,label\n0.1,0.2,2\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError) as info:
        read_dataset_csv(str(path))
    assert info.value.line_number == 2
    assert str(info.value) == "line 2: label must be 0 or 1, got 2"


def test_dataset_csv_empty_file_yields_no_samples(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    assert len(read_dataset_csv(str(path)).labels) == 0
    path.write_text("credit,risk,label\n", encoding="utf-8")
    assert read_dataset_csv(str(path)).features.shape == (0, 2)
    assert len(read_dataset_csv(str(path)).labels) == 0
