"""Proximity kernel, labeling, and the weighted ridge fit with its checks."""

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
from prolime.explainer import (
    SingularFitError,
    fit_weighted_ridge,
    label_neighborhood,
    neighborhood_weights,
)

NAMES = ("credit", "risk")


def _fv(*values: float) -> FeatureVector:
    return FeatureVector(values, NAMES[: len(values)])


def _nbhd(rows) -> Neighborhood:
    return Neighborhood(np.array(rows, dtype=float), _fv(0.0, 0.0))


def _named(features, names) -> Neighborhood:
    """The fit reads only the points and the names, so the origin is zero."""
    return Neighborhood(features, FeatureVector((0.0,) * len(names), names))


def test_kernel_width_must_be_positive():
    for width in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="kernel width must be positive and finite"):
            neighborhood_weights(_nbhd([[0.0, 0.0], [3.0, 4.0]]), width)


def test_kernel_width_whose_square_underflows_is_rejected():
    below = math.nextafter(1.4916681462400413e-154, 0.0)
    with pytest.raises(ValueError, match="kernel width must be at least 1.49"):
        neighborhood_weights(_nbhd([[0.0, 0.0], [3.0, 4.0]]), below)
    tiny = 1.4916681462400413e-154
    assert neighborhood_weights(_nbhd([[0.0, 0.0], [3.0, 4.0]]), tiny).tolist() == [1.0, 0.0]


def test_kernel_is_one_at_zero_distance():
    x = _fv(0.41, -0.51)
    assert neighborhood_weights(Neighborhood(np.array([x.values]), x), 1.0).tolist() == [1.0]


def test_kernel_at_width_distance_is_inverse_e():
    width = 0.75 * math.sqrt(2.0)
    assert abs(neighborhood_weights(_nbhd([[width, 0.0]]), width)[0] - math.exp(-1.0)) <= 1e-12


def test_kernel_three_four_five_distance():
    assert neighborhood_weights(_nbhd([[3.0, 4.0]]), 5.0).tolist() == [math.exp(-1.0)]


def test_kernel_matches_closed_form_on_random_pairs():
    gen = RngStream(21).generator()
    for _ in range(50):
        x = gen.standard_normal(2)
        z = gen.standard_normal(2)
        expected = math.exp(-float(np.sum((x - z) ** 2)) / (1.7 * 1.7))
        got = neighborhood_weights(Neighborhood(z[None, :], _fv(*x)), 1.7)[0]
        assert abs(got - expected) <= 1e-15


def test_kernel_weighs_a_point_whose_squared_distance_overflows_zero():
    assert neighborhood_weights(_nbhd([[1e200, 0.0]]), 1.0).tolist() == [0.0]


def test_kernel_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="every neighborhood point must match the origin's dimension"):
        neighborhood_weights(Neighborhood(np.array([[0.0]]), _fv(0.0, 0.0)), 1.0)


def test_kernel_strictly_decreases_with_distance():
    distances = np.linspace(0.05, 6.0, 40)
    weights = neighborhood_weights(_nbhd(np.column_stack([distances, np.zeros(40)])), 1.0606601717798214)
    assert np.all(np.diff(weights) < 0.0)


def test_neighborhood_weights_match_the_scalar_kernel():
    gen = RngStream(22).generator()
    rows = gen.standard_normal((64, 2))
    origin = _fv(0.3, -0.2)
    nbhd = Neighborhood(rows, origin)
    vector = neighborhood_weights(nbhd, 0.9)
    scalar = [math.exp(-((c - 0.3) ** 2 + (r + 0.2) ** 2) / 0.9**2) for c, r in nbhd.points.tolist()]
    assert np.max(np.abs(vector - np.array(scalar))) <= 1e-15
    assert np.all(vector > 0.0) and np.all(vector <= 1.0)


def test_neighborhood_weights_reject_empty_neighborhoods():
    with pytest.raises(ValueError):
        neighborhood_weights(_nbhd(np.empty((0, 2))), 1.0)


def test_fit_validates_targets_weights_and_ridge():
    nbhd = _nbhd([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    targets = np.zeros(3)
    weights = np.full(3, 0.5)
    fit_weighted_ridge(nbhd, targets, weights, 1.0)
    bad_inputs = [
        (np.zeros(2), weights, "features, targets and weights must agree on the row count"),
        (targets, np.full(4, 0.5), "features, targets and weights must agree on the row count"),
        (np.zeros((3, 1)), weights, "features, targets and weights must agree on the row count"),
        (targets, np.array([0.5, -0.1, 0.5]), r"weights must lie in \[0, 1\]"),
        (targets, np.full(3, 1.5), r"weights must lie in \[0, 1\]"),
        (targets, np.zeros(3), "at least one weight must be positive"),
        (np.array([0.0, np.nan, 0.0]), weights, "design entries must be finite"),
        (np.array([0.0, np.inf, 0.0]), weights, "design entries must be finite"),
        (targets, np.array([0.5, np.nan, 0.5]), "design entries must be finite"),
        (targets, np.array([0.5, np.inf, 0.5]), "design entries must be finite"),
    ]
    for bad_targets, bad_weights, message in bad_inputs:
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_weighted_ridge(nbhd, bad_targets, bad_weights, 1.0)
    for ridge in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^ridge_strength must be nonnegative and finite$"):
            fit_weighted_ridge(nbhd, targets, weights, ridge)


class _FirstCoordinateModel(BlackBoxModel):
    """Class-1 probability read off the first coordinate; order-sensitive."""

    def predict_proba(self, X, feature_names=None):
        p = X[:, 0]
        return np.column_stack((1.0 - p, p))


def test_label_neighborhood_preserves_point_order():
    rows = [(0.1, 0.0), (0.7, 1.0), (0.3, -1.0), (0.9, 2.0)]
    targets = label_neighborhood(_FirstCoordinateModel(), _nbhd(rows))
    assert targets.tolist() == [0.1, 0.7, 0.3, 0.9]


def test_label_neighborhood_on_the_benchmark_oracle():
    model = oracle_model(BenchmarkDistribution(), model_seed=0)
    inside = _nbhd([(0.41, -0.51), (0.0, 0.0)])
    assert label_neighborhood(model, inside).tolist() == [1.0, 1.0]


def test_label_neighborhood_with_constant_model():
    targets = label_neighborhood(ConstantModel((0.3, 0.7)), _nbhd([(0.0, 1.0)] * 5))
    assert targets.tolist() == [0.7] * 5


def test_label_neighborhood_validation_and_error_index():
    model = _FirstCoordinateModel()
    with pytest.raises(ValueError):
        label_neighborhood(model, _nbhd(np.empty((0, 2))))
    with pytest.raises(ValueError, match=r"^the explained class 1 \(approval\) is out of range for 1 classes$"):
        label_neighborhood(ConstantModel((1.0,)), _nbhd([(0.5, 0.0)]))
    bad = _nbhd([(0.5, 0.0), (7.0, 0.0)])
    with pytest.raises(ValueError, match=r"^row 1: probability of class 0 must lie in \[0, 1\], got -6\.0$"):
        label_neighborhood(model, bad)
    with pytest.raises(ValueError, match=r"returned shape \(1, 2\), expected \(2, 2\)"):
        label_neighborhood(_FixedColumn([0.5]), _nbhd([(0.5, 0.0)] * 2))


class _FixedColumn(BlackBoxModel):
    """Returns the given class-1 column whatever the rows."""

    def __init__(self, column):
        self._column = np.array(column, dtype=float)

    def predict_proba(self, X, feature_names=None):
        return np.column_stack((1.0 - self._column, self._column))


@pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
def test_label_neighborhood_names_the_first_probability_outside_the_unit_interval(bad):
    # Class 0 answers 1 - bad, which is out of range too and comes first.
    model = _FixedColumn([0.0, 1.0, bad, 0.5, bad])
    message = f"row 2: probability of class 0 must lie in [0, 1], got {1.0 - bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        label_neighborhood(model, _nbhd([(0.0, 0.0)] * 5))


def test_label_neighborhood_checks_every_class_not_only_the_explained_one():
    class _Answers(BlackBoxModel):
        def predict_proba(self, X, feature_names=None):
            return np.array([[0.5, 0.5], [1.5, 0.5]])

    with pytest.raises(ValueError, match=r"^row 1: probability of class 0 must lie in \[0, 1\], got 1\.5$"):
        label_neighborhood(_Answers(), _nbhd([(0.0, 0.0)] * 2))


def test_label_neighborhood_passes_the_origin_feature_names():
    seen = []

    class _Records(ConstantModel):
        def predict_proba(self, X, feature_names=None):
            seen.append(feature_names)
            return super().predict_proba(X)

    label_neighborhood(_Records((0.5, 0.5)), _nbhd([(0.0, 0.0)] * 3))
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
    surrogate = fit_weighted_ridge(_named(features, NAMES), targets, weights, 0.0)
    assert abs(surrogate.intercept - 1.0) <= 1e-8
    assert abs(surrogate.coefficients[0] - 2.0) <= 1e-8
    assert abs(surrogate.coefficients[1] + 3.0) <= 1e-8


def test_huge_ridge_flattens_the_surrogate():
    gen = RngStream(24).generator()
    features = gen.standard_normal((60, 2))
    targets = gen.standard_normal(60)
    weights = gen.uniform(0.05, 1.0, 60)
    surrogate = fit_weighted_ridge(_named(features, NAMES), targets, weights, 1e12)
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
        surrogate = fit_weighted_ridge(_named(features, names), targets, weights, lam)
        intercept, coefs = _brute_force(features, targets, weights, lam)
        assert abs(surrogate.intercept - intercept) <= 1e-8
        assert np.max(np.abs(np.array(surrogate.coefficients) - coefs)) <= 1e-8


def test_weight_scaling_invariance():
    gen = RngStream(26).generator()
    features = gen.standard_normal((30, 2))
    targets = gen.standard_normal(30)
    weights = gen.uniform(0.1, 1.0, 30)

    baseline = fit_weighted_ridge(_named(features, NAMES), targets, weights, 0.0)
    halved = fit_weighted_ridge(_named(features, NAMES), targets, 0.5 * weights, 0.0)
    assert halved == baseline

    lam = 2.5
    scale = 0.3
    ridge_base = fit_weighted_ridge(_named(features, NAMES), targets, weights, lam)
    ridge_scaled = fit_weighted_ridge(_named(features, NAMES), targets, scale * weights, scale * lam)
    assert abs(ridge_scaled.intercept - ridge_base.intercept) <= 1e-12
    for got, expected in zip(ridge_scaled.coefficients, ridge_base.coefficients):
        assert abs(got - expected) <= 1e-12


def test_row_permutation_invariance():
    gen = RngStream(27).generator()
    features = gen.standard_normal((25, 2))
    targets = gen.standard_normal(25)
    weights = gen.uniform(0.05, 1.0, 25)
    order = gen.permutation(25)
    base = fit_weighted_ridge(_named(features, NAMES), targets, weights, 1.0)
    shuffled = fit_weighted_ridge(_named(features[order], NAMES), targets[order], weights[order], 1.0)
    assert abs(shuffled.intercept - base.intercept) <= 1e-10
    for got, expected in zip(shuffled.coefficients, base.coefficients):
        assert abs(got - expected) <= 1e-10


def test_singular_system_without_ridge_raises_advice():
    targets = np.array([0.0, 1.0, 0.0])
    weights = np.full(3, 1.0)
    # Columns that vary but move together: a ridge would regularize them.
    collinear = _named(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), NAMES)
    with pytest.raises(SingularFitError, match="^normal equations are singular; set ridge_strength above zero"):
        fit_weighted_ridge(collinear, targets, weights, 0.0)
    # Rows that are all one point have no spread, with or without a ridge: a
    # ridge fits a zero coefficient for each feature that never varies, and
    # that is no explanation either.
    same_point = _named(np.array([[1.0, 2.0]] * 3), NAMES)
    for ridge in (0.0, 1.0):
        with pytest.raises(SingularFitError, match="^the neighborhood has no spread: all 3 rows are the same point"):
            fit_weighted_ridge(same_point, targets, weights, ridge)


@pytest.mark.parametrize("ridge", [1e-3, 1.0])
def test_fit_of_a_feature_that_never_varies_names_the_lost_spread(ridge):
    targets = np.array([0.0, 1.0, 0.0])
    weights = np.full(3, 1.0)
    one_flat = _named(np.array([[1e17, 0.0], [1e17, 1.0], [1e17, 2.0]]), NAMES)
    with pytest.raises(SingularFitError) as info:
        fit_weighted_ridge(one_flat, targets, weights, ridge)
    assert str(info.value) == (
        "the neighborhood has no spread: all 3 rows have the same credit, so perturbations below "
        "the float spacing of its value (up to 16) were lost to rounding"
    )
    both_flat = _named(np.array([[1e17, 1e17]] * 3), NAMES)
    with pytest.raises(SingularFitError) as info:
        fit_weighted_ridge(both_flat, targets, weights, ridge)
    assert str(info.value) == (
        "the neighborhood has no spread: all 3 rows are the same point, so perturbations below "
        "the float spacing of its coordinates (up to 16) were lost to rounding"
    )


@pytest.mark.parametrize("ridge", [0.0, 1.0])
def test_fit_needs_spread_among_the_rows_of_positive_weight(ridge):
    # Zero-weight rows drop out of the sums: one row of positive weight
    # centers to zeros, and a ridge alone would fit every coefficient 0.
    features = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 5.0]])
    targets = np.array([0.0, 1.0, 0.0])
    with pytest.raises(SingularFitError) as info:
        fit_weighted_ridge(_named(features, NAMES), targets, np.array([1.0, 0.0, 0.0]), ridge)
    assert str(info.value) == (
        "the weighted neighborhood has no spread: the 1 of 3 rows of positive weight do not vary in credit, risk"
    )
    # Two rows of positive weight that vary only in credit.
    features[1, 1] = 0.0
    with pytest.raises(SingularFitError) as info:
        fit_weighted_ridge(_named(features, NAMES), targets, np.array([1.0, 1.0, 0.0]), ridge)
    assert str(info.value).endswith(": the 2 of 3 rows of positive weight do not vary in risk")


def test_fit_of_two_weighted_rows_that_differ_in_every_feature_succeeds():
    features = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 5.0]])
    targets, weights = np.array([0.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0])
    surrogate = fit_weighted_ridge(_named(features, NAMES), targets, weights, 1.0)
    assert all(math.isfinite(value) for value in (surrogate.intercept, *surrogate.coefficients))
    assert surrogate.coefficients != (0.0, 0.0)


def test_overflowing_design_names_the_overflow_not_the_ridge():
    features = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308], [-1.7e308, 1.7e308]])
    nbhd = _named(features, NAMES)
    for ridge in (0.0, 1.0):
        with pytest.raises(SingularFitError, match="too large to fit") as info:
            fit_weighted_ridge(nbhd, np.array([0.0, 1.0, 0.0]), np.ones(3), ridge)
        assert "ridge_strength" not in str(info.value)


def test_degenerate_feature_column_is_singular_at_zero_ridge():
    features = np.array([[0.0, 3.0], [1.0, 3.0], [2.0, 3.0]])
    targets = np.array([0.0, 0.5, 1.0])
    weights = np.full(3, 1.0)
    with pytest.raises(SingularFitError, match="^the neighborhood has no spread: all 3 rows have the same risk"):
        fit_weighted_ridge(_named(features, NAMES), targets, weights, 0.0)


def test_negative_ridge_is_rejected():
    with pytest.raises(ValueError):
        fit_weighted_ridge(_named(np.eye(2), NAMES), np.zeros(2), np.ones(2), -1.0)


def test_fit_returns_named_surrogate():
    gen = RngStream(28).generator()
    features = gen.standard_normal((10, 2))
    targets = gen.standard_normal(10)
    surrogate = fit_weighted_ridge(_named(features, NAMES), targets, np.ones(10), 1.0)
    assert isinstance(surrogate, LocalSurrogate)
    assert surrogate.feature_names == NAMES
