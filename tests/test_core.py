"""Domain types, ranking, and the black-box model contract."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from prolime.core import (
    BlackBoxModel,
    ClassProbabilities,
    ConstantModel,
    Explanation,
    FeatureVector,
    LimeHyperparameters,
    LocalSurrogate,
    NoiseMode,
    default_kernel_width,
)


def test_feature_vector_coerces_and_exposes_values():
    fv = FeatureVector([0.41, -0.51], ["credit", "risk"])
    assert fv.values == (0.41, -0.51)
    assert fv.feature_names == ("credit", "risk")
    assert fv.dim == 2
    assert fv.as_array().tolist() == [0.41, -0.51]


def test_feature_vector_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        FeatureVector((), ())
    with pytest.raises(ValueError):
        FeatureVector((1.0, 2.0), ("only",))
    with pytest.raises(ValueError):
        FeatureVector((float("nan"), 0.0), ("a", "b"))
    with pytest.raises(ValueError):
        FeatureVector((float("inf"), 0.0), ("a", "b"))


def test_class_probabilities_accepts_tolerant_sum():
    assert ClassProbabilities((0.25, 0.75)).p == (0.25, 0.75)
    ClassProbabilities((0.5, 0.5 + 5e-10))
    with pytest.raises(ValueError):
        ClassProbabilities((0.5, 0.5 + 1e-8))
    with pytest.raises(ValueError):
        ClassProbabilities((-0.1, 1.1))
    with pytest.raises(ValueError):
        ClassProbabilities(())


def test_default_kernel_width_scales_with_dimension():
    assert default_kernel_width(2) == 0.75 * math.sqrt(2.0)
    assert default_kernel_width(4) == 1.5
    with pytest.raises(ValueError):
        default_kernel_width(0)


def test_black_box_model_requires_predict_proba():
    assert BlackBoxModel.__abstractmethods__ == frozenset({"predict_proba"})

    class NoBatch(BlackBoxModel):
        n_classes = 2

    with pytest.raises(TypeError, match="predict_proba"):
        NoBatch()


def test_constant_model_predicts_everywhere():
    model = ConstantModel((0.3, 0.7))
    rows = np.array([[5.0, -5.0], [0.0, 1e300], [-1.0, 2.0]])
    assert model.n_classes == 2
    assert model.predict_proba(rows).tolist() == [[0.3, 0.7]] * 3
    assert model.predict_proba(np.empty((0, 2))).shape == (0, 2)
    with pytest.raises(ValueError, match="shape"):
        model.predict_proba(np.zeros(2))


def test_hyperparameter_defaults():
    hyper = LimeHyperparameters()
    assert hyper.neighborhood_size == 1000
    assert hyper.noise_mode is NoiseMode.GAUSSIAN
    assert hyper.kernel_width == 0.75 * math.sqrt(2.0)
    assert hyper.ridge_strength == 1.0


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        LimeHyperparameters(neighborhood_size=1)
    with pytest.raises(ValueError):
        LimeHyperparameters(kernel_width=0.0)
    with pytest.raises(ValueError):
        LimeHyperparameters(ridge_strength=-0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            LimeHyperparameters(kernel_width=bad)
        with pytest.raises(ValueError, match="finite"):
            LimeHyperparameters(ridge_strength=bad)
    # Counts are whole numbers, and every value is a plain Python number.
    with pytest.raises(TypeError):
        LimeHyperparameters(neighborhood_size=2.5)
    hyper = LimeHyperparameters(np.int64(5), kernel_width=np.float32(1), ridge_strength=np.int8(2))
    values = (hyper.neighborhood_size, hyper.kernel_width, hyper.ridge_strength)
    assert [type(v) for v in values] == [int, float, float]
    # The noise mode is cast through its enum.
    assert LimeHyperparameters(noise_mode="lhs").noise_mode is NoiseMode.LATIN_HYPERCUBE
    assert LimeHyperparameters(noise_mode="gaussian") == LimeHyperparameters()
    with pytest.raises(ValueError, match="'uniform' is not a valid NoiseMode"):
        LimeHyperparameters(noise_mode="uniform")


def test_local_surrogate_lookup_and_validation():
    surrogate = LocalSurrogate(0.5, (-0.66, 0.69), ("credit", "risk"))
    assert surrogate.coefficient("credit") == -0.66
    assert surrogate.coefficient("risk") == 0.69
    with pytest.raises(ValueError):
        surrogate.coefficient("income")
    with pytest.raises(ValueError):
        LocalSurrogate(0.0, (1.0,), ("a", "b"))
    with pytest.raises(ValueError):
        LocalSurrogate(float("nan"), (1.0,), ("a",))
    with pytest.raises(ValueError, match="^a surrogate needs at least one coefficient$"):
        LocalSurrogate(0.5, (), ())


def _ranked(surrogate: LocalSurrogate) -> tuple[tuple[str, float], ...]:
    sample = FeatureVector((0.0,) * len(surrogate.coefficients), surrogate.feature_names)
    return Explanation(sample, ClassProbabilities((0.5, 0.5)), surrogate).ranked_features


def test_rank_orders_by_absolute_magnitude():
    surrogate = LocalSurrogate(0.5, (-0.66, 0.69), ("credit", "risk"))
    assert _ranked(surrogate) == (("risk", 0.69), ("credit", -0.66))


def test_rank_breaks_ties_by_feature_index():
    surrogate = LocalSurrogate(0.0, (0.0, 0.0), ("a", "b"))
    assert _ranked(surrogate) == (("a", 0.0), ("b", 0.0))
    surrogate = LocalSurrogate(0.0, (-3.0, 2.0, 2.0), ("a", "b", "c"))
    assert _ranked(surrogate) == (("a", -3.0), ("b", 2.0), ("c", 2.0))


def test_ranking_preserves_coefficient_values():
    surrogate = LocalSurrogate(1.0, (0.25, -0.75, 0.5), ("a", "b", "c"))
    ranked = _ranked(surrogate)
    assert sorted(value for _, value in ranked) == sorted(surrogate.coefficients)
    magnitudes = [abs(value) for _, value in ranked]
    assert magnitudes == sorted(magnitudes, reverse=True)


def _explanation() -> Explanation:
    sample = FeatureVector((0.41, -0.51), ("credit", "risk"))
    predicted = ClassProbabilities((0.0, 1.0))
    surrogate = LocalSurrogate(0.5, (-0.66, 0.69), ("credit", "risk"))
    return Explanation(sample, predicted, surrogate)


def test_explanation_build_ranks_consistently():
    explanation = _explanation()
    assert explanation.ranked_features == (("risk", 0.69), ("credit", -0.66))
    flipped = replace(explanation, surrogate=LocalSurrogate(0.5, (-0.7, 0.69), ("credit", "risk")))
    assert flipped.ranked_features == (("credit", -0.7), ("risk", 0.69))


def test_explanation_serialization_field_order():
    document = _explanation().to_dict()
    assert list(document) == ["sample", "predicted", "coefficients", "ranked"]
    assert document["sample"] == {"credit": 0.41, "risk": -0.51}
    assert document["predicted"] == [0.0, 1.0]
    assert document["coefficients"] == {"credit": -0.66, "risk": 0.69}
    assert document["ranked"] == [["risk", 0.69], ["credit", -0.66]]
    round_trip = json.loads(_explanation().to_json())
    assert round_trip == document
    assert list(round_trip) == ["sample", "predicted", "coefficients", "ranked"]


def test_serialized_reals_keep_full_precision():
    sample = FeatureVector((1.0 / 3.0, -2.0 / 7.0), ("credit", "risk"))
    predicted = ClassProbabilities((0.0, 1.0))
    surrogate = LocalSurrogate(0.1234567890123456, (1.0 / 3.0, -0.51), ("credit", "risk"))
    document = json.loads(Explanation(sample, predicted, surrogate).to_json())
    assert document["sample"]["credit"] == 1.0 / 3.0
    assert document["coefficients"]["credit"] == 1.0 / 3.0
