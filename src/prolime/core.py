"""Shared domain types for local surrogate explanations."""

from __future__ import annotations

import abc
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BlackBoxModel",
    "CenterMode",
    "ClassProbabilities",
    "ConstantModel",
    "Explanation",
    "FeatureVector",
    "LimeHyperparameters",
    "LocalSurrogate",
    "NoiseMode",
    "default_kernel_width",
    "rank_features",
]


class CenterMode(Enum):
    """Where a standard perturbation neighborhood is centered."""

    SAMPLE = "sample"
    MEAN = "mean"


class NoiseMode(Enum):
    """Noise generator used by the standard perturbation sampler."""

    GAUSSIAN = "gaussian"
    LATIN_HYPERCUBE = "lhs"


def default_kernel_width(n_features: int) -> float:
    """Default proximity-kernel width, 0.75 * sqrt(n_features)."""
    if n_features < 1:
        raise ValueError("n_features must be positive")
    return 0.75 * math.sqrt(n_features)


# The smallest width whose square is a normal float. The kernel divides by
# the square, and a square that underflows to 0 or a subnormal gives inf or nan.
_MIN_KERNEL_WIDTH = math.sqrt(sys.float_info.min)


def _require_kernel_width(width: float, what: str) -> None:
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"{what} must be positive and finite, got {width!r}")
    if width < _MIN_KERNEL_WIDTH:
        raise ValueError(
            f"{what} must be at least {_MIN_KERNEL_WIDTH!r}, where its square stops underflowing, "
            f"got {width!r}"
        )


def _by_column(ufunc: np.ufunc, matrix: np.ndarray, operands: Iterable) -> np.ndarray:
    """``ufunc(matrix[:, j], operands[j])`` for each column ``j`` of an
    ``(n, d)`` matrix, as a new C-ordered ``(n, d)`` array.

    Bit for bit what broadcasting ``ufunc(matrix, row)`` or
    ``ufunc(matrix, column[:, None])`` gives, at a fraction of its cost for
    small d: the broadcast loops over the short last axis once per row.
    """
    out = np.empty(matrix.shape)
    for j, operand in enumerate(operands):
        ufunc(matrix[:, j], operand, out=out[:, j])
    return out


def _require_finite(values: Iterable[float], what: str) -> None:
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{what} must be finite, got {value!r}")


@dataclass(frozen=True)
class FeatureVector:
    """An ordered, named point in feature space."""

    values: tuple[float, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "feature_names", tuple(str(n) for n in self.feature_names))
        if len(self.values) == 0:
            raise ValueError("a feature vector needs at least one feature")
        if len(self.values) != len(self.feature_names):
            raise ValueError("values and feature_names must have equal length")
        _require_finite(self.values, "feature values")

    @property
    def dim(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class ClassProbabilities:
    """Per-class probabilities; entries lie in [0, 1] and sum to 1."""

    p: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        if not self.p:
            raise ValueError("at least one class probability is required")
        for value in self.p:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"probability out of range: {value!r}")
        total = math.fsum(self.p)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")


class BlackBoxModel(abc.ABC):
    """Opaque classifier contract: feature rows in, class probabilities out.

    Implementations set ``n_classes`` and implement :meth:`predict_proba`.
    Predictions must be deterministic for identical inputs.
    """

    n_classes: int = 2

    @abc.abstractmethod
    def predict_proba(self, X: np.ndarray, feature_names: Sequence[str] | None = None) -> np.ndarray:
        """Class probabilities of every row of an ``(n, d)`` array, shape
        ``(n, n_classes)``; ``feature_names`` names the ``d`` columns."""
        raise NotImplementedError


class ConstantModel(BlackBoxModel):
    """Returns the same probabilities everywhere; useful as a null reference."""

    def __init__(self, probabilities: Sequence[float]):
        self._output = np.array(ClassProbabilities(tuple(probabilities)).p)
        self.n_classes = len(self._output)

    def predict_proba(self, X: np.ndarray, feature_names: Sequence[str] | None = None) -> np.ndarray:
        rows = np.asarray(X, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"X must be an (n, d) array, got shape {rows.shape}")
        return np.tile(self._output, (rows.shape[0], 1))


@dataclass(frozen=True)
class LimeHyperparameters:
    """Knobs of the explanation pipeline.

    ``kernel_width`` defaults to the two-feature value of
    :func:`default_kernel_width`; pass an explicit width for other
    dimensionalities.
    """

    neighborhood_size: int = 1000
    center_mode: CenterMode = CenterMode.SAMPLE
    noise_mode: NoiseMode = NoiseMode.GAUSSIAN
    kernel_width: float = default_kernel_width(2)
    ridge_strength: float = 1.0
    explained_class: int = 1

    def __post_init__(self) -> None:
        if self.neighborhood_size < 2:
            raise ValueError("neighborhood_size must be at least 2")
        _require_kernel_width(self.kernel_width, "kernel_width")
        if not (math.isfinite(self.ridge_strength) and self.ridge_strength >= 0):
            raise ValueError(f"ridge_strength must be nonnegative and finite, got {self.ridge_strength!r}")
        if self.explained_class < 0:
            raise ValueError("explained_class must be a valid class index")


@dataclass(frozen=True)
class LocalSurrogate:
    """A fitted local linear model: intercept plus one coefficient per feature."""

    intercept: float
    coefficients: tuple[float, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "feature_names", tuple(str(n) for n in self.feature_names))
        if len(self.coefficients) != len(self.feature_names):
            raise ValueError("coefficients and feature_names must have equal length")
        if not self.coefficients:
            raise ValueError("a surrogate needs at least one coefficient")
        _require_finite((self.intercept, *self.coefficients), "surrogate parameters")

    def coefficient(self, name: str) -> float:
        try:
            return self.coefficients[self.feature_names.index(name)]
        except ValueError:
            raise ValueError(f"unknown feature {name!r}") from None


def rank_features(surrogate: LocalSurrogate) -> list[tuple[str, float]]:
    """Order features by absolute coefficient, largest first.

    Ties keep the original feature order.
    """
    order = sorted(
        range(len(surrogate.coefficients)),
        key=lambda j: (-abs(surrogate.coefficients[j]), j),
    )
    return [(surrogate.feature_names[j], surrogate.coefficients[j]) for j in order]


@dataclass(frozen=True)
class Explanation:
    """The packaged result: explained sample, model output, ranked coefficients."""

    sample: FeatureVector
    predicted: ClassProbabilities
    surrogate: LocalSurrogate

    @property
    def ranked_features(self) -> tuple[tuple[str, float], ...]:
        return tuple(rank_features(self.surrogate))

    def to_dict(self) -> dict:
        return {
            "sample": dict(zip(self.sample.feature_names, self.sample.values)),
            "predicted": list(self.predicted.p),
            "coefficients": dict(zip(self.surrogate.feature_names, self.surrogate.coefficients)),
            "ranked": [[name, value] for name, value in self.ranked_features],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
