"""Proximity kernel, design validation, and the weighted ridge fit."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from prolime.core import (
    BlackBoxModel,
    ConstantModel,
    FeatureVector,
    LocalSurrogate,
)
from prolime.samplers import Neighborhood, RngStream
from prolime.simulation import BenchmarkDistribution, oracle_model
from prolime.surrogate import (
    KernelSpec,
    SingularFitError,
    WeightedDesign,
    fit_weighted_ridge,
    kernel_weight,
    label_neighborhood,
    neighborhood_weights,
)

NAMES = ("credit", "risk")


def _fv(*values: float) -> FeatureVector:
    return FeatureVector(values, NAMES[: len(values)])


def _nbhd(rows) -> Neighborhood:
    return Neighborhood(np.array(rows, dtype=float), _fv(0.0, 0.0))


def test_kernel_spec_requires_positive_width():
    with pytest.raises(ValueError):
        KernelSpec(width=0.0)
    with pytest.raises(ValueError):
        KernelSpec(width=-1.0)


def test_kernel_spec_rejects_a_width_whose_square_underflows():
    with pytest.raises(ValueError, match="kernel width must be at least 1.49"):
        KernelSpec(width=math.nextafter(1.4916681462400413e-154, 0.0))
    tiny = KernelSpec(width=1.4916681462400413e-154)
    x = _fv(0.0, 0.0)
    assert kernel_weight(x, x, tiny) == 1.0
    assert kernel_weight(x, _fv(3.0, 4.0), tiny) == 0.0
    assert neighborhood_weights(x, _nbhd([[0.0, 0.0], [3.0, 4.0]]), tiny).tolist() == [1.0, 0.0]


def test_kernel_is_one_at_zero_distance():
    x = _fv(0.41, -0.51)
    assert kernel_weight(x, x, KernelSpec(width=1.0)) == 1.0


def test_kernel_at_width_distance_is_inverse_e():
    width = 0.75 * math.sqrt(2.0)
    x = _fv(0.0, 0.0)
    z = _fv(width, 0.0)
    assert abs(kernel_weight(x, z, KernelSpec(width=width)) - math.exp(-1.0)) <= 1e-12


def test_kernel_three_four_five_distance():
    weight = kernel_weight(_fv(0.0, 0.0), _fv(3.0, 4.0), KernelSpec(width=5.0))
    assert weight == math.exp(-1.0)


def test_kernel_matches_closed_form_on_random_pairs():
    gen = RngStream(21).generator()
    spec = KernelSpec(width=1.7)
    for _ in range(50):
        x = gen.standard_normal(2)
        z = gen.standard_normal(2)
        expected = math.exp(-float(np.sum((x - z) ** 2)) / (1.7 * 1.7))
        got = kernel_weight(_fv(*x), _fv(*z), spec)
        assert abs(got - expected) <= 1e-15


def test_kernel_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_weight(_fv(0.0, 0.0), _fv(0.0), KernelSpec(width=1.0))


def test_kernel_strictly_decreases_with_distance():
    spec = KernelSpec(width=1.0606601717798214)
    x = _fv(0.0, 0.0)
    distances = np.linspace(0.05, 6.0, 40)
    weights = [kernel_weight(x, _fv(d, 0.0), spec) for d in distances]
    assert all(a > b for a, b in zip(weights, weights[1:]))


def test_neighborhood_weights_match_the_scalar_kernel():
    gen = RngStream(22).generator()
    rows = gen.standard_normal((64, 2))
    nbhd = _nbhd(rows.tolist())
    origin = _fv(0.3, -0.2)
    spec = KernelSpec(width=0.9)
    vector = neighborhood_weights(origin, nbhd, spec)
    scalar = [kernel_weight(origin, _fv(*p), spec) for p in nbhd.points.tolist()]
    assert np.max(np.abs(vector - np.array(scalar))) <= 1e-15
    assert np.all(vector > 0.0) and np.all(vector <= 1.0)


def test_neighborhood_weights_reject_empty_neighborhoods():
    with pytest.raises(ValueError):
        neighborhood_weights(_fv(0.0, 0.0), _nbhd(np.empty((0, 2))), KernelSpec(width=1.0))


def test_weighted_design_validation():
    features = np.zeros((3, 2))
    targets = np.zeros(3)
    weights = np.full(3, 0.5)
    WeightedDesign(features, targets, weights, NAMES)
    with pytest.raises(ValueError):
        WeightedDesign(np.zeros(3), targets, weights, NAMES)
    with pytest.raises(ValueError):
        WeightedDesign(features, np.zeros(2), weights, NAMES)
    with pytest.raises(ValueError):
        WeightedDesign(features, targets, np.full(3, 1.5), NAMES)
    with pytest.raises(ValueError):
        WeightedDesign(features, targets, np.zeros(3), NAMES)
    with pytest.raises(ValueError):
        WeightedDesign(features, targets, weights, ("credit",))
    with pytest.raises(ValueError):
        WeightedDesign(np.full((3, 2), np.nan), targets, weights, NAMES)
    with pytest.raises(ValueError):
        WeightedDesign(np.zeros((0, 2)), np.zeros(0), np.zeros(0), NAMES)


class _FirstCoordinateModel(BlackBoxModel):
    """Class-1 probability read off the first coordinate; order-sensitive."""

    def predict_proba(self, X, feature_names=None):
        p = X[:, 0]
        return np.column_stack((1.0 - p, p))


def test_label_neighborhood_preserves_point_order():
    rows = [(0.1, 0.0), (0.7, 1.0), (0.3, -1.0), (0.9, 2.0)]
    targets = label_neighborhood(_FirstCoordinateModel(), _nbhd(rows), 1)
    assert targets.tolist() == [0.1, 0.7, 0.3, 0.9]
    flipped = label_neighborhood(_FirstCoordinateModel(), _nbhd(rows), 0)
    assert np.max(np.abs(flipped - (1.0 - np.array([0.1, 0.7, 0.3, 0.9])))) <= 1e-15


def test_label_neighborhood_on_the_benchmark_oracle():
    model = oracle_model(BenchmarkDistribution(), model_seed=0)
    inside = _nbhd([(0.41, -0.51), (0.0, 0.0)])
    assert label_neighborhood(model, inside, 1).tolist() == [1.0, 1.0]


def test_label_neighborhood_with_constant_model():
    targets = label_neighborhood(ConstantModel((0.3, 0.7)), _nbhd([(0.0, 1.0)] * 5), 1)
    assert targets.tolist() == [0.7] * 5


def test_label_neighborhood_validation_and_error_index():
    model = _FirstCoordinateModel()
    with pytest.raises(ValueError):
        label_neighborhood(model, _nbhd(np.empty((0, 2))), 1)
    with pytest.raises(ValueError):
        label_neighborhood(model, _nbhd([(0.5, 0.0)]), 2)
    bad = _nbhd([(0.5, 0.0), (7.0, 0.0)])
    with pytest.raises(ValueError, match=r"^row 1: probability of class 1 must lie in \[0, 1\], got 7\.0$"):
        label_neighborhood(model, bad, 1)
    with pytest.raises(ValueError, match=r"returned shape \(1, 2\), expected \(2, 2\)"):
        label_neighborhood(_FixedColumn([0.5]), _nbhd([(0.5, 0.0)] * 2), 1)


class _FixedColumn(BlackBoxModel):
    """Returns the given class-1 column whatever the rows."""

    def __init__(self, column):
        self._column = np.array(column, dtype=float)

    def predict_proba(self, X, feature_names=None):
        return np.column_stack((1.0 - self._column, self._column))


@pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
def test_label_neighborhood_names_the_first_probability_outside_the_unit_interval(bad):
    model = _FixedColumn([0.0, 1.0, bad, 0.5, bad])
    message = f"row 2: probability of class 1 must lie in [0, 1], got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        label_neighborhood(model, _nbhd([(0.0, 0.0)] * 5), 1)


def test_label_neighborhood_passes_the_origin_feature_names():
    seen = []

    class _Records(ConstantModel):
        def predict_proba(self, X, feature_names=None):
            seen.append(feature_names)
            return super().predict_proba(X)

    label_neighborhood(_Records((0.5, 0.5)), _nbhd([(0.0, 0.0)] * 3), 1)
    assert seen == [NAMES]


def _brute_force(features, targets, weights, lam) -> tuple[float, np.ndarray]:
    n, d = features.shape
    design = np.hstack([np.ones((n, 1)), features])
    penalty = lam * np.diag([0.0] + [1.0] * d)
    gram = design.T @ (design * weights[:, None]) + penalty
    moment = design.T @ (weights * targets)
    solution = np.linalg.solve(gram, moment)
    return float(solution[0]), solution[1:]


def test_planted_linear_targets_recovered_exactly():
    gen = RngStream(23).generator()
    features = gen.standard_normal((40, 2))
    targets = 1.0 + 2.0 * features[:, 0] - 3.0 * features[:, 1]
    weights = np.full(40, 1.0)
    surrogate = fit_weighted_ridge(WeightedDesign(features, targets, weights, NAMES), 0.0)
    assert abs(surrogate.intercept - 1.0) <= 1e-8
    assert abs(surrogate.coefficients[0] - 2.0) <= 1e-8
    assert abs(surrogate.coefficients[1] + 3.0) <= 1e-8


def test_huge_ridge_flattens_the_surrogate():
    gen = RngStream(24).generator()
    features = gen.standard_normal((60, 2))
    targets = gen.standard_normal(60)
    weights = gen.uniform(0.05, 1.0, 60)
    surrogate = fit_weighted_ridge(WeightedDesign(features, targets, weights, NAMES), 1e12)
    target_mean = float(weights @ targets) / float(weights.sum())
    assert abs(surrogate.coefficients[0]) <= 1e-6
    assert abs(surrogate.coefficients[1]) <= 1e-6
    assert abs(surrogate.intercept - target_mean) <= 1e-6 * max(1.0, abs(target_mean))


def test_fit_matches_brute_force_normal_equations():
    gen = RngStream(25).generator()
    for lam in (0.0, 0.1, 1.0, 10.0):
        features = gen.standard_normal((50, 3))
        targets = gen.standard_normal(50)
        weights = gen.uniform(0.05, 1.0, 50)
        names = ("a", "b", "c")
        surrogate = fit_weighted_ridge(WeightedDesign(features, targets, weights, names), lam)
        intercept, coefs = _brute_force(features, targets, weights, lam)
        assert abs(surrogate.intercept - intercept) <= 1e-8
        assert np.max(np.abs(np.array(surrogate.coefficients) - coefs)) <= 1e-8


def test_weight_scaling_invariance():
    gen = RngStream(26).generator()
    features = gen.standard_normal((30, 2))
    targets = gen.standard_normal(30)
    weights = gen.uniform(0.1, 1.0, 30)

    baseline = fit_weighted_ridge(WeightedDesign(features, targets, weights, NAMES), 0.0)
    halved = fit_weighted_ridge(WeightedDesign(features, targets, 0.5 * weights, NAMES), 0.0)
    assert halved == baseline

    lam = 2.5
    scale = 0.3
    ridge_base = fit_weighted_ridge(WeightedDesign(features, targets, weights, NAMES), lam)
    ridge_scaled = fit_weighted_ridge(
        WeightedDesign(features, targets, scale * weights, NAMES), scale * lam
    )
    assert abs(ridge_scaled.intercept - ridge_base.intercept) <= 1e-12
    for got, expected in zip(ridge_scaled.coefficients, ridge_base.coefficients):
        assert abs(got - expected) <= 1e-12


def test_row_permutation_invariance():
    gen = RngStream(27).generator()
    features = gen.standard_normal((25, 2))
    targets = gen.standard_normal(25)
    weights = gen.uniform(0.05, 1.0, 25)
    order = gen.permutation(25)
    base = fit_weighted_ridge(WeightedDesign(features, targets, weights, NAMES), 1.0)
    shuffled = fit_weighted_ridge(
        WeightedDesign(features[order], targets[order], weights[order], NAMES), 1.0
    )
    assert abs(shuffled.intercept - base.intercept) <= 1e-10
    for got, expected in zip(shuffled.coefficients, base.coefficients):
        assert abs(got - expected) <= 1e-10


def test_singular_system_without_ridge_raises_advice():
    features = np.array([[1.0, 2.0]] * 3)
    targets = np.array([0.0, 1.0, 0.0])
    weights = np.full(3, 1.0)
    design = WeightedDesign(features, targets, weights, NAMES)
    with pytest.raises(SingularFitError) as info:
        fit_weighted_ridge(design, 0.0)
    assert "ridge_strength" in str(info.value)
    fit_weighted_ridge(design, 1.0)


def test_overflowing_design_names_the_overflow_not_the_ridge():
    features = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308], [-1.7e308, 1.7e308]])
    design = WeightedDesign(features, np.array([0.0, 1.0, 0.0]), np.ones(3), NAMES)
    for ridge in (0.0, 1.0):
        with pytest.raises(SingularFitError, match="too large to fit") as info:
            fit_weighted_ridge(design, ridge)
        assert "ridge_strength" not in str(info.value)


def test_degenerate_feature_column_is_singular_at_zero_ridge():
    features = np.array([[0.0, 3.0], [1.0, 3.0], [2.0, 3.0]])
    targets = np.array([0.0, 0.5, 1.0])
    weights = np.full(3, 1.0)
    with pytest.raises(SingularFitError, match="set ridge_strength above zero"):
        fit_weighted_ridge(WeightedDesign(features, targets, weights, NAMES), 0.0)


def test_negative_ridge_is_rejected():
    design = WeightedDesign(np.eye(2), np.zeros(2), np.ones(2), NAMES)
    with pytest.raises(ValueError):
        fit_weighted_ridge(design, -1.0)


def test_fit_returns_named_surrogate():
    gen = RngStream(28).generator()
    features = gen.standard_normal((10, 2))
    targets = gen.standard_normal(10)
    surrogate = fit_weighted_ridge(
        WeightedDesign(features, targets, np.ones(10), NAMES), 1.0
    )
    assert isinstance(surrogate, LocalSurrogate)
    assert surrogate.feature_names == NAMES
