"""Tests for the generative model: dictionary, phase chain, synthesis."""

import numpy as np
import pytest

from phasedoa.model import (BernoulliGaussianPrior, GroundTruth,
                            PhaseMarkovModel, build_dictionary,
                            default_angle_grid, sample_ground_truth,
                            sample_phase_trajectory, synthesize_observation)


def test_default_grid_endpoints():
    grid = default_angle_grid(50)
    assert grid.shape == (50,)
    np.testing.assert_allclose(grid[0], -np.pi / 2 + np.pi / 50)
    np.testing.assert_allclose(grid[-1], np.pi / 2)


def test_default_grid_m1_is_broadside_complement():
    # i runs 1..m, so a single-atom grid sits at +pi/2, not at 0
    np.testing.assert_allclose(default_angle_grid(1), [np.pi / 2])


def test_default_grid_contains_broadside_for_even_m():
    grid = default_angle_grid(4)
    np.testing.assert_allclose(grid, [-np.pi / 4, 0.0, np.pi / 4, np.pi / 2])


def test_default_grid_rejects_bad_size():
    with pytest.raises(ValueError):
        default_angle_grid(0)


def test_broadside_column_is_all_ones():
    # sin(0) = 0 kills the exponent regardless of N and spacing
    d = build_dictionary(16, 4.0, default_angle_grid(50))
    broadside = np.argmin(np.abs(d.angles))
    assert abs(d.angles[broadside]) < 1e-15
    np.testing.assert_allclose(d.columns[:, broadside], np.ones(16))


def test_endfire_column_hand_values():
    # N=2, delta/lambda = 1/2, phi = pi/2: entries exp(j*pi*n) for n = 1, 2
    d = build_dictionary(2, 0.5, default_angle_grid(4))
    np.testing.assert_allclose(d.columns[:, -1], [-1.0, 1.0], atol=1e-14)


def test_columns_unit_modulus_and_norm():
    d = build_dictionary(64, 4.0, default_angle_grid(50))
    np.testing.assert_allclose(np.abs(d.columns), 1.0, atol=1e-13)
    norms = np.sum(np.abs(d.columns) ** 2, axis=0)
    np.testing.assert_allclose(norms, 64.0, rtol=1e-13)
    assert d.columns.shape[1] == 50
    assert d.n_sensors == 64


def test_dictionary_sensor_index_starts_at_one():
    angle = np.array([np.pi / 6])
    d = build_dictionary(3, 2.0, angle)
    expected = np.exp(2j * np.pi * 2.0 * np.arange(1, 4) * np.sin(np.pi / 6))
    np.testing.assert_allclose(d.columns[:, 0], expected, rtol=1e-14)


def test_dictionary_validation():
    with pytest.raises(ValueError):
        build_dictionary(0, 4.0, default_angle_grid(8))
    with pytest.raises(ValueError):
        build_dictionary(8, np.inf, default_angle_grid(8))
    with pytest.raises(ValueError):
        build_dictionary(8, 4.0, np.array([]))
    with pytest.raises(ValueError):
        build_dictionary(8, 4.0, np.array([2.0]))  # outside [-pi/2, pi/2]


def test_phase_model_validation():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            PhaseMarkovModel(a=0.8, sigma_theta_sq=bad, sigma_1_sq=1.0)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=bad)
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            PhaseMarkovModel(a=bad, sigma_theta_sq=1.0, sigma_1_sq=1.0)


def test_prior_validation():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            BernoulliGaussianPrior(sigma_x_sq=bad, occupancy=0.5)
    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(ValueError, match="occupancy"):
            BernoulliGaussianPrior(sigma_x_sq=1.0, occupancy=bad)
    # every atom shares one occupancy: a per-atom array is rejected by name
    with pytest.raises(ValueError, match="occupancy"):
        BernoulliGaussianPrior(sigma_x_sq=1.0, occupancy=np.full(4, 0.5))
    for edge in (0.0, 1.0):
        assert BernoulliGaussianPrior(1.0, edge).occupancy == edge


class TestPhaseTrajectory:
    def test_stationary_variance(self):
        # start the chain at its stationary law so the time average of
        # theta^2 estimates sigma_theta_sq / (1 - a^2) = 2.7778
        a = 0.8
        model = PhaseMarkovModel(a=a, sigma_theta_sq=1.0,
                                 sigma_1_sq=1.0 / (1 - a * a))
        rng = np.random.default_rng(7)
        theta = sample_phase_trajectory(model, 100_000, rng)
        np.testing.assert_allclose(np.mean(theta ** 2), 1.0 / (1 - a * a),
                                   rtol=0.05)

    def test_lag_one_autocorrelation(self):
        a = 0.8
        model = PhaseMarkovModel(a=a, sigma_theta_sq=1.0,
                                 sigma_1_sq=1.0 / (1 - a * a))
        rng = np.random.default_rng(11)
        theta = sample_phase_trajectory(model, 100_000, rng)
        corr = np.mean(theta[1:] * theta[:-1]) / np.mean(theta ** 2)
        np.testing.assert_allclose(corr, a, rtol=0.05)

    def test_a_zero_is_white(self):
        model = PhaseMarkovModel(a=0.0, sigma_theta_sq=1.0, sigma_1_sq=1.0)
        rng = np.random.default_rng(3)
        theta = sample_phase_trajectory(model, 100_000, rng)
        corr = np.mean(theta[1:] * theta[:-1]) / np.mean(theta ** 2)
        assert abs(corr) < 0.02

    def test_length_and_validation(self):
        model = PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=1.0)
        rng = np.random.default_rng(0)
        assert sample_phase_trajectory(model, 1, rng).shape == (1,)
        with pytest.raises(ValueError):
            sample_phase_trajectory(model, 0, rng)
        # an explosive chain is drawn while a^n stays in the float range
        # (5^256 ~ 1e179) and rejected, naming a, once it overflows
        explosive = PhaseMarkovModel(a=5.0, sigma_theta_sq=1.0,
                                     sigma_1_sq=1.0)
        assert np.all(np.isfinite(sample_phase_trajectory(explosive, 256,
                                                          rng)))
        overflowing = PhaseMarkovModel(a=20.0, sigma_theta_sq=1.0,
                                       sigma_1_sq=1.0)
        with pytest.raises(ValueError, match="AR coefficient a=20"):
            sample_phase_trajectory(overflowing, 256, rng)


class TestGroundTruth:
    def test_k_zero(self):
        prior = BernoulliGaussianPrior(1.0, 0.2)
        truth = sample_ground_truth(prior, 10, 0, np.random.default_rng(0))
        assert truth.support.size == 0
        np.testing.assert_array_equal(truth.z, np.zeros(10))

    def test_full_support(self):
        prior = BernoulliGaussianPrior(1.0, 0.5)
        truth = sample_ground_truth(prior, 6, 6, np.random.default_rng(1))
        np.testing.assert_array_equal(truth.support, np.arange(6))
        assert np.all(truth.z != 0)

    def test_support_sorted_unique(self):
        prior = BernoulliGaussianPrior(1.0, 0.1)
        truth = sample_ground_truth(prior, 50, 5, np.random.default_rng(2))
        assert np.all(np.diff(truth.support) > 0)
        off = np.setdiff1d(np.arange(50), truth.support)
        np.testing.assert_array_equal(truth.z[off], 0)

    def test_amplitude_second_moment(self):
        prior = BernoulliGaussianPrior(2.0, 1.0)
        rng = np.random.default_rng(5)
        draws = [sample_ground_truth(prior, 40, 40, rng).z
                 for _ in range(500)]
        np.testing.assert_allclose(np.mean(np.abs(draws) ** 2), 2.0, rtol=0.05)

    def test_k_out_of_range(self):
        prior = BernoulliGaussianPrior(1.0, 0.5)
        with pytest.raises(ValueError):
            sample_ground_truth(prior, 4, 5, np.random.default_rng(0))


class TestSynthesis:
    def test_noiseless_flat_phase_is_exact(self):
        d = build_dictionary(32, 4.0, default_angle_grid(8))
        z = np.zeros(8, dtype=complex)
        z[3] = 2.0 - 1.0j
        truth = GroundTruth(z=z, support=np.array([3]), theta=np.zeros(32))
        y = synthesize_observation(d, truth, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(y, d.columns @ z, rtol=1e-14)

    def test_phase_enters_multiplicatively(self):
        d = build_dictionary(16, 4.0, default_angle_grid(8))
        z = np.zeros(8, dtype=complex)
        z[0] = 1.0
        theta = np.linspace(-1.0, 3.0, 16)
        truth = GroundTruth(z=z, support=np.array([0]), theta=theta)
        y = synthesize_observation(d, truth, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(y, np.exp(1j * theta) * d.columns[:, 0],
                                   rtol=1e-14)

    def test_noise_power(self):
        d = build_dictionary(20_000, 4.0, np.array([0.1]))
        z = np.zeros(1, dtype=complex)
        truth = GroundTruth(z=z, support=np.array([]), theta=np.zeros(20_000))
        y = synthesize_observation(d, truth, 0.01, np.random.default_rng(9))
        np.testing.assert_allclose(np.mean(np.abs(y) ** 2), 0.01, rtol=0.1)

    def test_determinism(self):
        d = build_dictionary(16, 4.0, default_angle_grid(8))
        prior = BernoulliGaussianPrior(1.0, 0.25)
        ys = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            truth = sample_ground_truth(prior, 8, 2, rng)
            truth.theta = np.zeros(16)
            ys.append(synthesize_observation(d, truth, 0.1, rng))
        np.testing.assert_array_equal(ys[0], ys[1])

    def test_validation(self):
        d = build_dictionary(16, 4.0, default_angle_grid(8))
        truth = GroundTruth(z=np.zeros(8, dtype=complex),
                            support=np.array([]), theta=np.zeros(16))
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                synthesize_observation(d, truth, bad,
                                       np.random.default_rng(0))
        bad = GroundTruth(z=np.zeros(7, dtype=complex),
                          support=np.array([]), theta=np.zeros(16))
        with pytest.raises(ValueError):
            synthesize_observation(d, bad, 0.1, np.random.default_rng(0))
        missing = GroundTruth(z=np.zeros(8, dtype=complex),
                              support=np.array([]))
        with pytest.raises(ValueError):
            synthesize_observation(d, missing, 0.1, np.random.default_rng(0))
