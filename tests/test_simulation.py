"""Benchmark distribution, diamond rule, oracle model, dataset round-trip."""

from __future__ import annotations

import errno
import math
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from prolime import datasets, simulation
from prolime.core import FeatureVector
from prolime.samplers import RngStream, draw_neighborhood
from prolime.datasets import Dataset, DatasetFormatError, read_dataset_csv, write_dataset_csv
from prolime.simulation import (
    BenchmarkDistribution,
    OracleModel,
    approval_label,
    gaussian_pdf,
    generate_dataset,
    ground_truth_for,
    oracle_model,
)

NAMES = ("credit", "risk")
# The (credit, risk) signs of the four Cartesian quadrants, I to IV.
SIGN_PAIRS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


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


def test_distributions_of_one_rho_share_one_spec():
    assert BenchmarkDistribution(-0.9).spec is BenchmarkDistribution(-0.9).spec
    # 0.0 == -0.0, yet each factor keeps the sign of its zero.
    zero, negative_zero = BenchmarkDistribution(0.0).spec, BenchmarkDistribution(-0.0).spec
    assert zero is not negative_zero
    assert [math.copysign(1.0, spec.covariance[0][1]) for spec in (zero, negative_zero)] == [1.0, -1.0]


def test_the_spec_cache_is_bounded():
    limit = simulation._process_aware_spec.cache_info().maxsize
    rhos = [0.25 + k * 2.0**-20 for k in range(limit + 1)]
    first = BenchmarkDistribution(rhos[0]).spec
    for rho in rhos[1:]:
        BenchmarkDistribution(rho)
    assert simulation._process_aware_spec.cache_info().currsize == limit
    # The least recently used spec is gone, so its rho is factored again.
    assert BenchmarkDistribution(rhos[0]).spec is not first


def test_density_threshold_must_lie_below_the_peak_density():
    # At or above the peak no point would clear the threshold, and the
    # rejection loop of draw_test_point would never return. The peak
    # 1/(2*pi*sqrt(1 - rho**2)) is smallest at rho = 0, where it is 1/(2*pi).
    assert BenchmarkDistribution.density_threshold < 1.0 / (2.0 * math.pi)
    for rho in (-0.999999, -0.9, 0.0, 0.5):
        dist = BenchmarkDistribution(rho)
        assert gaussian_pdf(np.zeros((1, 2)), dist)[0] >= dist.density_threshold


def test_approval_label_examples():
    assert approval_label(np.array([[0.0, 0.0], [1.5, 0.2], [0.3, -0.4]])).tolist() == [True, False, True]


def test_approval_boundary_is_exclusive():
    boundary = np.array([[0.5, -0.5], [0.5, 0.5], [1.0, 0.0], [0.0, -1.0]])
    assert not approval_label(boundary).any()


def test_denied_points_have_a_rotated_coordinate_at_least_one():
    dataset = generate_dataset(2000, RngStream(11))
    for (credit, risk), label in zip(dataset.features.tolist(), dataset.labels.tolist()):
        if label == 0:
            assert max(abs(credit + risk), abs(credit - risk)) >= 1.0
        else:
            assert max(abs(credit + risk), abs(credit - risk)) < 1.0


def test_pdf_at_origin_matches_closed_form():
    value = gaussian_pdf(np.zeros((1, 2)), BenchmarkDistribution())[0]
    assert value == 0.3651264806855467
    assert abs(value - 1.0 / (2.0 * math.pi * math.sqrt(0.19))) <= 1e-15
    assert abs(value - 0.365135) < 1e-5


def test_pdf_uncorrelated_origin():
    value = gaussian_pdf(np.zeros((1, 2)), BenchmarkDistribution(0.0))[0]
    assert value == 0.15915494309189535


def test_pdf_symmetry():
    dist = BenchmarkDistribution()
    points = np.array([[0.3, -0.7], [1.2, 0.4], [-2.0, 1.5]])
    values = gaussian_pdf(points, dist)
    assert gaussian_pdf(-points, dist).tolist() == values.tolist()
    assert np.max(np.abs(gaussian_pdf(points[:, ::-1], dist) - values)) <= 1e-12


def test_pdf_agrees_with_reference_implementation():
    dist = BenchmarkDistribution()
    reference = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, -0.9], [-0.9, 1.0]])
    gen = np.random.default_rng(2)
    points = gen.normal(size=(40, 2))
    assert np.max(np.abs(gaussian_pdf(points, dist) - reference.pdf(points))) <= 1e-12


def test_pdf_rejects_wrong_dimension():
    with pytest.raises(ValueError, match=r"expected an \(n, 2\) array of \(credit, risk\) rows, got shape \(1, 1\)"):
        gaussian_pdf(np.array([[1.0]]), BenchmarkDistribution())


def test_generate_dataset_is_deterministic():
    first = generate_dataset(500, RngStream(3))
    second = generate_dataset(500, RngStream(3))
    assert first == second
    assert generate_dataset(500, RngStream(4)) != first


def test_generate_dataset_labels_follow_the_diamond_rule():
    dataset = generate_dataset(3000, RngStream(21))
    assert dataset.labels.tolist() == approval_label(dataset.features).astype(int).tolist()


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


def test_generate_dataset_draws_what_the_process_aware_sampler_draws():
    # Datasets and process-aware neighborhoods share one Gaussian draw.
    dist = BenchmarkDistribution(0.3)
    neighborhood = draw_neighborhood(_fv(0.0, 0.0), dist.spec, 257, RngStream(9, 4))
    assert generate_dataset(257, RngStream(9, 4), dist).features.tobytes() == neighborhood.points.tobytes()


def test_generate_dataset_rejects_empty_request():
    with pytest.raises(ValueError):
        generate_dataset(0, RngStream(0))


def test_oracle_examples():
    model = oracle_model(BenchmarkDistribution(), model_seed=0)
    assert model.predict_proba(np.array([[0.41, -0.51]])).tolist() == [[0.0, 1.0]]
    assert gaussian_pdf(np.array([[3.0, 3.0]]), BenchmarkDistribution())[0] < 0.01


def test_oracle_is_exact_wherever_density_clears_the_threshold():
    dist = BenchmarkDistribution()
    model = oracle_model(dist, model_seed=5)
    axis = np.linspace(-3.0, 3.0, 60)
    points = np.array([(c, r) for c in axis for r in axis])
    probabilities = model.predict_proba(points)
    on = gaussian_pdf(points, dist) >= dist.density_threshold
    expected = approval_label(points[on])
    assert probabilities[on].tolist() == [[0.0, 1.0] if e else [1.0, 0.0] for e in expected]
    assert on.sum() > 100


def test_oracle_far_out_coin_is_roughly_fair():
    dist = BenchmarkDistribution()
    model = oracle_model(dist, model_seed=0)
    axis = np.linspace(-10.0, 10.0, 150)
    points = np.array([(c, r) for c in axis for r in axis])
    ood = points[gaussian_pdf(points, dist) < dist.density_threshold]
    assert len(ood) >= 10000
    ones = float(model.predict_proba(ood)[:, 1].sum())
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
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
            oracle_model(dist, model_seed=seed)


def test_oracle_reports_the_failing_point_index():
    model = oracle_model(BenchmarkDistribution(), model_seed=0)
    with pytest.raises(ValueError, match="^row 1: feature values must be finite$"):
        model.predict_proba(np.array([[0.0, 0.0], [math.nan, 0.0]]))
    with pytest.raises(ValueError, match="^row 1: feature values must be finite$"):
        ground_truth_for([[0.0, 0.0], [0.0, -math.inf]])
    with pytest.raises(ValueError):
        model.predict_proba(np.zeros((2, 1)))


def test_ground_truth_examples():
    rows = [(0.41, -0.51), (-0.2, 0.3), (0.0, 0.0), (0.0, -0.3), (-0.3, 0.0), (-0.0, -0.0), (-0.3, -0.2)]
    # Zeros, -0.0 too, count as positive.
    expected = [(-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (1.0, 1.0)]
    assert list(map(tuple, ground_truth_for(rows).tolist())) == expected
    with pytest.raises(ValueError, match="expected an \\(n, 2\\) array"):
        ground_truth_for([0.41, -0.51])


def test_ground_truth_boundaries_are_unit_diamond_edges():
    for signs in SIGN_PAIRS:
        (coefficients,) = ground_truth_for([np.multiply(signs, (0.5, 0.25))])
        assert coefficients.tolist() == [-s for s in signs]
        # The line 1 + c*credit + r*risk = 0 joins the diamond's two corners
        # on the quadrant's half-axes.
        for corner in ((signs[0], 0.0), (0.0, signs[1])):
            assert 1.0 + coefficients @ corner == 0.0


def _line_distances(credit: float, risk: float) -> dict[tuple[float, float], float]:
    """Distance to each quadrant's boundary, keyed by its (credit, risk) coefficients."""
    root_two = math.sqrt(2.0)
    return {(-sc, -sr): abs(1.0 - sc * credit - sr * risk) / root_two for sc, sr in SIGN_PAIRS}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="tail points beyond the unit square sit closer to a neighboring quadrant's edge",
)
def test_own_quadrant_edge_is_strictly_nearest_on_distribution():
    dist = BenchmarkDistribution()
    checked = 0
    rows = generate_dataset(4000, RngStream(7), dist).features
    for credit, risk in rows[gaussian_pdf(rows, dist) >= dist.density_threshold].tolist():
        checked += 1
        own = tuple(ground_truth_for([(credit, risk)])[0].tolist())
        distances = _line_distances(credit, risk)
        assert all(distances[own] < d for q, d in distances.items() if q != own)
    assert checked > 0


def test_strict_nearest_edge_holds_exactly_inside_the_unit_square():
    dist = BenchmarkDistribution()
    on_distribution_violations = 0
    rows = generate_dataset(4000, RngStream(7), dist).features
    for (credit, risk), density in zip(rows.tolist(), gaussian_pdf(rows, dist).tolist()):
        low, high = sorted((abs(credit), abs(risk)))
        if low < 1e-9 or abs(high - 1.0) < 1e-9:
            continue
        own = tuple(ground_truth_for([(credit, risk)])[0].tolist())
        distances = _line_distances(credit, risk)
        strictly_nearest = all(distances[own] < d for q, d in distances.items() if q != own)
        assert strictly_nearest == (high < 1.0)
        if not strictly_nearest and density >= dist.density_threshold:
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


def test_a_dataset_leaves_another_type_to_its_own_comparison():
    dataset = Dataset(np.zeros((1, 2)), [0])
    assert dataset == Dataset(np.zeros((1, 2)), [0])
    assert dataset.__eq__((dataset.features, dataset.labels)) is NotImplemented
    assert dataset != (dataset.features, dataset.labels)


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
    # Labels already of the stored type are still copied.
    int_labels = np.array([1, 0])
    assert not np.shares_memory(Dataset(features, int_labels).labels, int_labels)
    assert Dataset(np.empty((0, 2)), []).features.shape == (0, 2)
    with pytest.raises(ValueError, match="row 1: feature values must be finite, got nan"):
        Dataset([[0.0, 0.0], [0.0, float("nan")]], [0, 1])
    # The first bad row is named, whichever fault comes first; within a row, the feature's.
    with pytest.raises(ValueError, match="^row 1: label must be 0 or 1, got 2$"):
        Dataset([[0.0, 0.0], [0.0, 0.0], [float("inf"), 0.0]], [0, 2, 1])
    with pytest.raises(ValueError, match="^row 1: feature values must be finite, got inf$"):
        Dataset([[0.0, 0.0], [float("inf"), 0.0], [0.0, 0.0]], [0, 1, 2])
    with pytest.raises(ValueError, match="^row 0: feature values must be finite, got -inf$"):
        Dataset([[0.0, -math.inf]], [3])
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


def test_read_dataset_csv_reads_the_writers_form_without_the_row_loop(tmp_path, monkeypatch):
    dataset = generate_dataset(200, RngStream(13))
    path = tmp_path / "round_trip.csv"
    write_dataset_csv(dataset, str(path))

    def row_loop(data):
        raise AssertionError("the per-row reader ran")

    monkeypatch.setattr("prolime.datasets._read_rows", row_loop)
    assert read_dataset_csv(str(path)) == dataset


def test_read_dataset_csv_reads_a_file_of_many_chunks(tmp_path):
    features = generate_dataset(10_000, RngStream(13)).features.copy()
    features[-3, 1] = 1e-05  # read with float(), in the last chunk
    dataset = Dataset(features, np.arange(10_000) % 2)
    path = tmp_path / "long.csv"
    write_dataset_csv(dataset, str(path))
    assert path.stat().st_size > 4 * datasets._CHUNK_BYTES
    assert read_dataset_csv(str(path)) == dataset
    # A fault in a later chunk is named on its own line.
    lines = path.read_bytes().split(b"\n")
    lines[8000] = b"0.1,0.2"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DatasetFormatError, match="^line 8001: expected 3 columns, got 2$"):
        read_dataset_csv(str(path))


def test_read_dataset_csv_names_a_blank_line_without_a_warning(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("credit,risk,label\n\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetFormatError, match="^line 2: expected 3 columns, got 0$"):
            read_dataset_csv(str(path))


def test_write_dataset_csv_over_a_longer_file_leaves_no_stale_tail(tmp_path):
    dataset = generate_dataset(3, RngStream(13))
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    reused.write_bytes(b"9" * 100_000)
    write_dataset_csv(dataset, str(fresh))
    write_dataset_csv(dataset, str(reused))
    assert reused.read_bytes() == fresh.read_bytes()


def test_write_dataset_csv_cut_short_by_a_failed_write_holds_only_the_new_prefix(tmp_path, monkeypatch):
    dataset = generate_dataset(50, RngStream(13))
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    write_dataset_csv(dataset, str(fresh))
    reused.write_bytes(b"9" * 100_000)
    real_write = os.write
    # The header is a piece of its own, 18 bytes, so the 100 span two pieces.
    budget = [100]

    def write_then_fail(fd, data):
        if not budget[0]:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        count = real_write(fd, bytes(data[:budget[0]]))
        budget[0] -= count
        return count

    monkeypatch.setattr(os, "write", write_then_fail)
    with pytest.raises(OSError, match="No space left on device"):
        write_dataset_csv(dataset, str(reused))
    monkeypatch.undo()
    assert reused.read_bytes() == fresh.read_bytes()[:100]


def test_dataset_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad_header.csv"
    for header in ("credit,risk", '"credit,risk",label', "credit, risk,label"):
        path.write_text(f"{header}\n0.1,0.2,1\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="^line 1: expected header credit,risk,label$") as info:
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
