"""Neighborhood generation: RNG streams, Cholesky, inverse CDF, LHS, samplers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from prolime.core import FeatureVector, NoiseMode
from prolime.samplers import (
    CenterMode,
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

BENCH_COV = ((1.0, -0.9), (-0.9, 1.0))
SQRT_019 = 0.4358898943540673


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def test_rng_stream_validates_range():
    assert RngStream(0).stream_id == 0
    RngStream(2**64 - 1, 2**64 - 1)
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)
    with pytest.raises(TypeError):
        RngStream(1.5)


def test_rng_stream_reproducible_and_distinct():
    a = RngStream(42, 7).generator().random(8)
    b = RngStream(42, 7).generator().random(8)
    c = RngStream(42, 8).generator().random(8)
    d = RngStream(43, 7).generator().random(8)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    assert a.tolist() != d.tolist()


def test_cholesky_identity_and_diagonal():
    assert cholesky(np.eye(3)).tolist() == np.eye(3).tolist()
    assert cholesky([[4.0, 0.0], [0.0, 9.0]]).tolist() == [[2.0, 0.0], [0.0, 3.0]]


def test_cholesky_of_the_benchmark_covariance():
    lower = cholesky(BENCH_COV)
    assert lower[0, 0] == 1.0
    assert lower[0, 1] == 0.0
    assert lower[1, 0] == -0.9
    assert abs(lower[1, 1] - SQRT_019) < 1e-15
    assert abs(lower[1, 1] - 0.43589) < 1e-5
    recomposed = lower @ lower.T
    assert np.max(np.abs(recomposed - np.asarray(BENCH_COV))) <= 1e-12


def test_cholesky_recomposes_random_spd_matrices():
    gen = RngStream(3).generator()
    for n in (1, 2, 4, 7):
        base = gen.standard_normal((n, n))
        matrix = base @ base.T + n * np.eye(n)
        lower = cholesky(matrix)
        assert np.max(np.abs(lower @ lower.T - matrix)) <= 1e-10
        assert np.all(np.diag(lower) > 0)
        assert np.max(np.abs(np.triu(lower, k=1))) == 0.0


def test_cholesky_names_the_failing_minor():
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky([[1.0, 2.0], [2.0, 1.0]])
    assert info.value.minor_order == 2
    assert "order 2" in str(info.value)
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky([[0.0, 0.0], [0.0, 1.0]])
    assert info.value.minor_order == 1
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky([[-1.0]])
    assert info.value.minor_order == 1
    # The first column overflows to inf, and in the 3 x 3 case inf * 0 makes
    # a nan; the failing pivot is named, without a warning.
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky([[1e-300, 1e300], [1e300, 1.0]])
    assert info.value.minor_order == 2
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky([[1e-300, 0.0, 1e300], [0.0, 1.0, 0.0], [1e300, 0.0, 1.0]])
    assert info.value.minor_order == 3


def test_cholesky_rejects_malformed_input():
    with pytest.raises(ValueError):
        cholesky([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        cholesky([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        cholesky([[float("nan"), 0.0], [0.0, 1.0]])


def test_inverse_normal_cdf_center_and_symmetry():
    assert inverse_normal_cdf(0.5) == 0.0
    for u in (0.01, 0.1, 0.3, 0.45, 0.975, 0.999):
        assert abs(inverse_normal_cdf(1.0 - u) + inverse_normal_cdf(u)) < 1e-9


def test_inverse_normal_cdf_reference_quantile():
    z = inverse_normal_cdf(0.975)
    assert abs(z - 1.959964) < 1e-5
    assert abs(z - 1.9599639845400536) < 1e-12


def test_inverse_normal_cdf_meets_cdf_error_contract():
    grid = [
        1e-12, 1e-9, 1e-6, 1e-4, 0.001, 0.0242, 0.0243, 0.1, 0.25, 0.5,
        0.75, 0.9, 0.9757, 0.9758, 0.999, 0.9999, 1.0 - 1e-6, 1.0 - 1e-9,
    ]
    grid.extend(RngStream(17).generator().random(200).tolist())
    for u in grid:
        z = inverse_normal_cdf(u)
        assert abs(_phi(z) - u) <= 1e-9, f"CDF error above contract at u={u!r}"


def test_inverse_normal_cdf_matches_bisection_oracle():
    def bisect(u: float) -> float:
        lo, hi = -40.0, 40.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if _phi(mid) < u:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for u in (0.001, 0.02, 0.2, 0.5, 0.8, 0.975, 0.9999):
        assert abs(inverse_normal_cdf(u) - bisect(u)) < 1e-6


def test_inverse_normal_cdf_rejects_out_of_domain():
    for u in (0.0, 1.0, -0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            inverse_normal_cdf(u)


@pytest.mark.parametrize("n", [4, 16, 100])
def test_latin_hypercube_stratifies_every_feature(n):
    uniforms = latin_hypercube_uniforms(n, 3, RngStream(11).generator())
    assert uniforms.shape == (n, 3)
    assert np.all(uniforms >= 0.0) and np.all(uniforms < 1.0)
    for j in range(3):
        strata = np.floor(uniforms[:, j] * n).astype(int)
        assert sorted(strata.tolist()) == list(range(n))


def test_latin_hypercube_permutes_columns_independently():
    uniforms = latin_hypercube_uniforms(100, 2, RngStream(11).generator())
    left = np.floor(uniforms[:, 0] * 100).astype(int).tolist()
    right = np.floor(uniforms[:, 1] * 100).astype(int).tolist()
    assert left != right


def test_latin_hypercube_is_deterministic_and_validated():
    a = latin_hypercube_uniforms(16, 2, RngStream(9).generator())
    b = latin_hypercube_uniforms(16, 2, RngStream(9).generator())
    assert a.tolist() == b.tolist()
    with pytest.raises(ValueError):
        latin_hypercube_uniforms(0, 2, RngStream(9).generator())
    with pytest.raises(ValueError):
        latin_hypercube_uniforms(4, 0, RngStream(9).generator())


def test_standard_spec_validation():
    with pytest.raises(ValueError):
        StandardSpec(per_feature_scale=(1.0, 0.0))
    with pytest.raises(ValueError):
        StandardSpec(per_feature_scale=(-1.0, 1.0))
    with pytest.raises(ValueError):
        StandardSpec(per_feature_scale=())
    with pytest.raises(ValueError):
        StandardSpec(per_feature_scale=(1.0, 1.0), training_mean=(0.0,))
    with pytest.raises(ValueError, match="positive and finite"):
        StandardSpec(per_feature_scale=(1.0, math.inf))
    with pytest.raises(ValueError, match="training_mean must be finite"):
        StandardSpec(training_mean=(0.0, math.nan))


def test_process_aware_spec_requires_positive_definite_covariance():
    with pytest.raises(NotPositiveDefiniteError):
        ProcessAwareSpec(mean=(0.0, 0.0), covariance=((1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(ValueError):
        ProcessAwareSpec(mean=(0.0, 0.0), covariance=((1.0, 0.0),))
    with pytest.raises(ValueError):
        ProcessAwareSpec(mean=(), covariance=())
    with pytest.raises(ValueError, match="mean must be finite"):
        ProcessAwareSpec(mean=(math.nan, 0.0), covariance=((1.0, 0.0), (0.0, 1.0)))


def test_neighborhood_requires_matching_dimensions():
    origin = FeatureVector((0.0, 0.0), ("credit", "risk"))
    with pytest.raises(ValueError):
        Neighborhood(np.zeros((3, 1)), origin)


def test_neighborhood_holds_a_validated_read_only_copy():
    origin = FeatureVector((0.0, 0.0), ("credit", "risk"))
    for bad in (np.zeros((0, 2)), np.zeros(2), np.array([[0.0, np.nan]]), np.array([[np.inf, 0.0]])):
        with pytest.raises(ValueError):
            Neighborhood(bad, origin)
    rows = np.arange(6.0).reshape(3, 2)
    nbhd = Neighborhood(rows, origin)
    rows[0, 0] = np.nan
    assert nbhd.points.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    with pytest.raises(ValueError):
        nbhd.points[0, 0] = 1.0
    assert nbhd == Neighborhood(nbhd.points, origin)
    assert nbhd != Neighborhood(nbhd.points + 1.0, origin)
    # Another type is left to its own comparison.
    assert nbhd.__eq__((nbhd.points, origin)) is NotImplemented
    assert nbhd != (nbhd.points, origin)


def test_sample_centered_perturbation_statistics():
    origin = FeatureVector((0.41, -0.51), ("credit", "risk"))
    spec = StandardSpec()
    nbhd = draw_neighborhood(origin, spec, 1000, RngStream(0))
    assert len(nbhd.points) == 1000
    assert nbhd.origin == origin
    rows = nbhd.points
    assert abs(rows[:, 0].mean() - 0.41) < 0.1
    assert abs(rows[:, 1].mean() + 0.51) < 0.1
    assert abs(np.corrcoef(rows.T)[0, 1]) < 0.1


def test_gaussian_noise_matches_declared_scales():
    origin = FeatureVector((0.0, 0.0), ("credit", "risk"))
    spec = StandardSpec(per_feature_scale=(0.7, 1.3))
    rows = draw_neighborhood(origin, spec, 10000, RngStream(1)).points
    for j, scale in enumerate((0.7, 1.3)):
        variance = rows[:, j].var()
        assert abs(variance - scale * scale) < 0.1 * scale * scale


def test_vanishing_noise_collapses_onto_the_center():
    origin = FeatureVector((0.41, -0.51), ("credit", "risk"))
    spec = StandardSpec(per_feature_scale=(1e-12, 1e-12))
    rows = draw_neighborhood(origin, spec, 100, RngStream(2)).points
    assert np.max(np.abs(rows - origin.as_array())) < 1e-10


def test_mean_centered_perturbation_centers_on_training_mean():
    origin = FeatureVector((10.0, -10.0), ("credit", "risk"))
    spec = StandardSpec(center_mode=CenterMode.MEAN, training_mean=(0.0, 0.0))
    rows = draw_neighborhood(origin, spec, 5000, RngStream(3)).points
    assert abs(rows[:, 0].mean()) < 0.1
    assert abs(rows[:, 1].mean()) < 0.1


def test_mean_centered_mode_requires_a_training_mean():
    with pytest.raises(ValueError, match="mean-centered sampling requires a training mean"):
        StandardSpec(center_mode=CenterMode.MEAN)
    with pytest.raises(ValueError):
        StandardSpec(center_mode=CenterMode.MEAN, training_mean=(0.0,))


def test_standard_spec_casts_its_modes_through_their_enums():
    origin = FeatureVector((0.41, -0.51), ("credit", "risk"))
    by_name = StandardSpec(center_mode="mean", noise_mode="gaussian", training_mean=(5, 5))
    assert (by_name.center_mode, by_name.noise_mode) == (CenterMode.MEAN, NoiseMode.GAUSSIAN)
    assert by_name == StandardSpec(center_mode=CenterMode.MEAN, training_mean=(5.0, 5.0))
    reference = draw_neighborhood(origin, StandardSpec(CenterMode.MEAN, training_mean=(5.0, 5.0)), 64, RngStream(4))
    assert draw_neighborhood(origin, by_name, 64, RngStream(4)) == reference
    assert StandardSpec(noise_mode="lhs").noise_mode is NoiseMode.LATIN_HYPERCUBE
    with pytest.raises(ValueError, match="mean-centered sampling requires a training mean"):
        StandardSpec(center_mode="mean")
    with pytest.raises(ValueError, match="'median' is not a valid CenterMode"):
        StandardSpec(center_mode="median")
    with pytest.raises(ValueError, match="'uniform' is not a valid NoiseMode"):
        StandardSpec(noise_mode="uniform")


def test_latin_hypercube_noise_keeps_stratified_preimages():
    origin = FeatureVector((0.0, 0.0), ("credit", "risk"))
    spec = StandardSpec(noise_mode=NoiseMode.LATIN_HYPERCUBE)
    n = 500
    rows = draw_neighborhood(origin, spec, n, RngStream(4)).points
    for j in range(2):
        preimages = np.array([_phi(z) for z in rows[:, j]])
        strata = np.floor(preimages * n).astype(int)
        assert sorted(strata.tolist()) == list(range(n))


def test_latin_hypercube_noise_respects_scales():
    origin = FeatureVector((1.0, -1.0), ("credit", "risk"))
    spec = StandardSpec(noise_mode=NoiseMode.LATIN_HYPERCUBE, per_feature_scale=(0.5, 2.0))
    rows = draw_neighborhood(origin, spec, 10000, RngStream(5)).points
    assert abs(rows[:, 0].mean() - 1.0) < 0.05
    assert abs(rows[:, 1].mean() + 1.0) < 0.2
    assert abs(rows[:, 0].var() - 0.25) < 0.025
    assert abs(rows[:, 1].var() - 4.0) < 0.4


def test_draw_neighborhood_with_a_standard_spec_validates_inputs():
    origin = FeatureVector((0.0, 0.0), ("credit", "risk"))
    with pytest.raises(ValueError):
        draw_neighborhood(origin, StandardSpec(per_feature_scale=(1.0,)), 10, RngStream(0))
    with pytest.raises(ValueError):
        draw_neighborhood(origin, StandardSpec(), 0, RngStream(0))
    with pytest.raises(TypeError):
        draw_neighborhood(origin, StandardSpec(), 2.5, RngStream(0))


def test_draw_neighborhood_with_a_standard_spec_is_bitwise_deterministic():
    origin = FeatureVector((0.41, -0.51), ("credit", "risk"))
    for spec in (StandardSpec(), StandardSpec(noise_mode=NoiseMode.LATIN_HYPERCUBE)):
        first = draw_neighborhood(origin, spec, 64, RngStream(6, 2))
        second = draw_neighborhood(origin, spec, 64, RngStream(6, 2))
        assert first == second


def test_process_aware_sampling_matches_the_declared_distribution():
    origin = FeatureVector((0.41, -0.51), ("credit", "risk"))
    spec = ProcessAwareSpec(mean=(0.0, 0.0), covariance=BENCH_COV)
    nbhd = draw_neighborhood(origin, spec, 10000, RngStream(7))
    assert nbhd.origin == origin
    rows = nbhd.points
    corr = np.corrcoef(rows.T)[0, 1]
    assert -0.95 <= corr <= -0.85
    assert abs(rows[:, 0].mean()) < 0.05
    assert abs(rows[:, 1].mean()) < 0.05
    empirical = np.cov(rows.T, ddof=0)
    assert np.max(np.abs(empirical - np.asarray(BENCH_COV))) < 0.05


def test_process_aware_sampling_reuses_the_spec_factor(monkeypatch):
    origin = FeatureVector((0.0, 0.0), ("credit", "risk"))
    spec = ProcessAwareSpec(mean=(0.0, 0.0), covariance=BENCH_COV)
    expected = draw_neighborhood(origin, spec, 64, RngStream(9, 3))

    def no_factorization(matrix):
        raise AssertionError("draw_neighborhood factored the covariance again")

    monkeypatch.setattr("prolime.samplers.cholesky", no_factorization)
    assert draw_neighborhood(origin, spec, 64, RngStream(9, 3)) == expected


def test_process_aware_spec_factor_is_read_only_and_not_part_of_its_value():
    spec = ProcessAwareSpec(mean=(0.0, 0.0), covariance=BENCH_COV)
    assert np.array_equal(spec._lower, cholesky(BENCH_COV))
    with pytest.raises(ValueError):
        spec._lower[0, 0] = 2.0
    assert "_lower" not in repr(spec)
    assert spec.per_feature_scale == (1.0, 1.0)
    assert ProcessAwareSpec(mean=(0.0, 0.0), covariance=((4.0, 0.5), (0.5, 0.25))).per_feature_scale == (2.0, 0.5)
    assert "per_feature_scale" not in repr(spec)
    assert spec == ProcessAwareSpec(mean=(0.0, 0.0), covariance=BENCH_COV)
    assert hash(spec) == hash(ProcessAwareSpec(mean=(0.0, 0.0), covariance=BENCH_COV))


def test_process_aware_sampling_uncorrelated_case():
    origin = FeatureVector((0.0, 0.0), ("credit", "risk"))
    spec = ProcessAwareSpec(mean=(5.0, 5.0), covariance=((1.0, 0.0), (0.0, 1.0)))
    rows = draw_neighborhood(origin, spec, 10000, RngStream(8)).points
    assert abs(np.corrcoef(rows.T)[0, 1]) < 0.05
    assert abs(rows[:, 0].mean() - 5.0) < 0.05
    assert abs(rows[:, 1].mean() - 5.0) < 0.05


def test_process_aware_sampling_validates_and_reproduces():
    origin = FeatureVector((0.0, 0.0), ("credit", "risk"))
    spec = ProcessAwareSpec(mean=(0.0, 0.0), covariance=BENCH_COV)
    with pytest.raises(ValueError):
        draw_neighborhood(origin, spec, 0, RngStream(0))
    with pytest.raises(TypeError):
        draw_neighborhood(origin, spec, 2.5, RngStream(0))
    with pytest.raises(ValueError):
        draw_neighborhood(FeatureVector((0.0,), ("credit",)), spec, 4, RngStream(0))
    first = draw_neighborhood(origin, spec, 64, RngStream(9, 3))
    second = draw_neighborhood(origin, spec, 64, RngStream(9, 3))
    assert first == second
