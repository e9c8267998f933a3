"""Tests for the estimator front ends and the shared VBEM loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasedoa
from phasedoa.estimators import (CONVERGENCE_TOL, RELAX_ITERATIONS,
                                 DoaEstimate, _relative_change, beamforming,
                                 extract_support, run_estimator)
from phasedoa.harness import SweepConfig, draw_trial, trial_rng
from phasedoa.model import (BernoulliGaussianPrior, GroundTruth,
                            PhaseMarkovModel, build_dictionary,
                            default_angle_grid, sample_phase_trajectory,
                            synthesize_observation)

MODEL = PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=1e6)


def _instance(rng, n=32, m=8, k=2, noise_var=0.01, spacing=2.2):
    d = build_dictionary(n, spacing, default_angle_grid(m))
    prior = BernoulliGaussianPrior(sigma_x_sq=1.0, occupancy=k / m)
    support = np.sort(rng.choice(m, size=k, replace=False))
    z = np.zeros(m, dtype=complex)
    z[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    theta = sample_phase_trajectory(MODEL, n, rng)
    truth = GroundTruth(z=z, support=support, theta=theta)
    y = synthesize_observation(d, truth, noise_var, rng)
    return d, prior, truth, y


def test_zero_observation_converges_immediately():
    d = build_dictionary(16, 4.0, default_angle_grid(8))
    prior = BernoulliGaussianPrior(1.0, 0.25)
    est = run_estimator("pavbem", np.zeros(16, dtype=complex), d, MODEL,
                        prior)
    assert est.converged
    assert est.iterations_used <= 2
    np.testing.assert_array_equal(est.z_hat, np.zeros(8))


def test_noiseless_single_source_recovery():
    d = build_dictionary(64, 1.5, default_angle_grid(16))
    prior = BernoulliGaussianPrior(1.0, 1 / 16)
    z = np.zeros(16, dtype=complex)
    z[7] = 1.0 - 0.5j
    truth = GroundTruth(z=z, support=np.array([7]), theta=np.zeros(64))
    y = synthesize_observation(d, truth, 0.0, np.random.default_rng(0))
    est = run_estimator("pavbem", y, d, MODEL, prior, noise_var=1e-6)
    idx = extract_support(est, 1)
    assert idx[0] == 7
    corr = np.abs(np.vdot(z, est.z_hat)) / (np.linalg.norm(z)
                                            * np.linalg.norm(est.z_hat))
    assert corr > 0.999


def test_determinism_bitwise():
    rng = np.random.default_rng(8)
    d, prior, _, y = _instance(rng)
    a = run_estimator("pavbem", y, d, MODEL, prior)
    b = run_estimator("pavbem", y, d, MODEL, prior)
    np.testing.assert_array_equal(a.z_hat, b.z_hat)
    np.testing.assert_array_equal(a.spike_probs, b.spike_probs)
    np.testing.assert_array_equal(a.phase_means, b.phase_means)
    assert a.final_noise_var == b.final_noise_var
    assert a.iterations_used == b.iterations_used


def test_variant_collapse_occupancy_one():
    rng = np.random.default_rng(9)
    d, prior, _, y = _instance(rng)
    ones = BernoulliGaussianPrior(sigma_x_sq=1.0, occupancy=1.0)
    a = run_estimator("pavbem", y, d, MODEL, ones)
    b = run_estimator("pavbem_relaxed", y, d, MODEL, prior)
    np.testing.assert_array_equal(a.z_hat, b.z_hat)
    np.testing.assert_array_equal(a.spike_probs, b.spike_probs)
    assert a.final_noise_var == b.final_noise_var


def test_variant_collapse_flat_phase():
    rng = np.random.default_rng(10)
    d, prior, _, y = _instance(rng)
    a = run_estimator("pavbem_relaxed", y, d, None, prior)
    b = run_estimator("prvbem", y, d, MODEL, prior)
    np.testing.assert_array_equal(a.z_hat, b.z_hat)
    np.testing.assert_array_equal(a.phase_means, b.phase_means)
    assert a.iterations_used == b.iterations_used


def test_iteration_cap():
    rng = np.random.default_rng(12)
    d, prior, _, y = _instance(rng)
    est = run_estimator("pavbem", y, d, MODEL, prior, max_iterations=1)
    assert est.iterations_used == 1
    assert not est.converged


class TestBeamforming:
    def test_matched_filter_values(self):
        rng = np.random.default_rng(14)
        d = build_dictionary(24, 4.0, default_angle_grid(6))
        y = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        est = beamforming(y, d)
        np.testing.assert_allclose(est.z_hat, d.columns.conj().T @ y / 24,
                                   rtol=1e-14)
        assert est.iterations_used == 0
        assert est.converged
        assert np.isnan(est.final_noise_var)
        np.testing.assert_array_equal(est.phase_means, np.zeros(24))

    def test_scale_covariance(self):
        rng = np.random.default_rng(15)
        d = build_dictionary(16, 4.0, default_angle_grid(4))
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        a = beamforming(3.0 * y, d)
        b = beamforming(y, d)
        np.testing.assert_allclose(a.z_hat, 3.0 * b.z_hat, rtol=1e-14)

    def test_length_mismatch(self):
        d = build_dictionary(16, 4.0, default_angle_grid(4))
        with pytest.raises(ValueError):
            beamforming(np.zeros(15, dtype=complex), d)


class TestExtractSupport:
    def _estimate(self, z):
        m = len(z)
        return DoaEstimate(z_hat=np.asarray(z, dtype=complex),
                           spike_probs=np.ones(m), phase_means=np.zeros(4),
                           phase_variances=np.zeros(4), converged=True,
                           history=[(0.1, float(m), 0.0)])

    def test_top_k_with_ties(self):
        est = self._estimate([1.0, 2.0, 2.0, 0.5])
        idx = extract_support(est, 2)
        np.testing.assert_array_equal(idx, [1, 2])
        # a three-way tie, and NaN last
        est = self._estimate([1.0, 2.0, 2.0, 0.5, np.nan, 2.0])
        np.testing.assert_array_equal(extract_support(est, 3), [1, 2, 5])
        np.testing.assert_array_equal(extract_support(est, 6),
                                      [1, 2, 5, 0, 3, 4])

    def test_angles_mapped(self):
        est = self._estimate([0.0, 1.0, 0.0, 0.0])
        grid = default_angle_grid(4)
        idx = extract_support(est, 1)
        angles = grid[idx]
        np.testing.assert_array_equal(idx, [1])
        np.testing.assert_allclose(angles, [grid[1]])

    def test_k_bounds(self):
        est = self._estimate([1.0, 2.0])
        with pytest.raises(ValueError):
            extract_support(est, 0)
        with pytest.raises(ValueError):
            extract_support(est, 3)


def test_config_validation():
    d = build_dictionary(16, 4.0, default_angle_grid(4))
    prior = BernoulliGaussianPrior(1.0, 0.5)
    for variant in ("pavbem", "pavbem_relaxed", "prvbem"):
        with pytest.raises(ValueError, match="^max_iterations must be >= 1$"):
            run_estimator(variant, np.ones(16, dtype=complex), d, MODEL,
                          prior, max_iterations=0)


def test_initial_noise_var_validation():
    d = build_dictionary(16, 4.0, default_angle_grid(4))
    prior = BernoulliGaussianPrior(1.0, 0.5)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^noise_var must be positive$"):
            run_estimator("pavbem", np.ones(16, dtype=complex), d, MODEL,
                          prior, noise_var=bad)


def test_observation_length_checked():
    d = build_dictionary(16, 4.0, default_angle_grid(4))
    prior = BernoulliGaussianPrior(1.0, 0.5)
    with pytest.raises(ValueError):
        run_estimator("pavbem", np.ones(15, dtype=complex), d, MODEL, prior)


@pytest.mark.parametrize("variant", ["pavbem", "prvbem", "pavbem_relaxed",
                                     "beamforming"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_nonfinite_observation_rejected(variant, bad):
    rng = np.random.default_rng(15)
    d, prior, _, y = _instance(rng)
    y[3] = bad
    with pytest.raises(ValueError, match="^observation must be finite$"):
        run_estimator(variant, y, d, MODEL, prior)


def test_run_estimator_dispatch():
    rng = np.random.default_rng(16)
    d, prior, _, y = _instance(rng)
    for variant in ("pavbem", "pavbem_relaxed", "prvbem", "beamforming"):
        est = run_estimator(variant, y, d, MODEL, prior, max_iterations=5)
        assert isinstance(est, DoaEstimate)
        assert est.z_hat.shape == (8,)
    with pytest.raises(ValueError):
        run_estimator("music", y, d, MODEL, prior, max_iterations=5)


def test_run_estimator_records_history():
    rng = np.random.default_rng(17)
    d, prior, _, y = _instance(rng)
    for variant in ("pavbem", "pavbem_relaxed", "prvbem"):
        est = run_estimator(variant, y, d, MODEL, prior, max_iterations=4)
        assert not est.converged and est.iterations_used == 4
        assert est.final_noise_var == est.history[-1][0]
        # one entry per iteration, in order: a shorter cap gives a prefix
        for cap in (1, 2, 3):
            short = run_estimator(variant, y, d, MODEL, prior,
                                  max_iterations=cap)
            assert short.history == est.history[:cap]
    est = run_estimator("beamforming", y, d, MODEL, prior, max_iterations=4)
    assert est.history == [] and est.iterations_used == 0


def test_public_api():
    for name in phasedoa.__all__:
        assert hasattr(phasedoa, name), name


@pytest.mark.parametrize("variant", ["pavbem", "pavbem_relaxed", "prvbem"])
@pytest.mark.parametrize("scale", [2.0 ** -20, 2.0 ** 20])
def test_scale_equivariance_bitwise(variant, scale):
    # a power-of-two scale is exact in every operation, so a unit-free
    # estimator returns exactly scale * z_hat after the same iterations
    rng = np.random.default_rng(18)
    d, prior, _, y = _instance(rng)
    base = run_estimator(variant, y, d, MODEL, prior, noise_var=0.01)
    scaled_prior = BernoulliGaussianPrior(prior.sigma_x_sq * scale ** 2,
                                          prior.occupancy)
    est = run_estimator(variant, scale * y, d, MODEL, scaled_prior,
                        noise_var=0.01 * scale ** 2)
    np.testing.assert_array_equal(est.z_hat, scale * base.z_hat)
    np.testing.assert_array_equal(est.spike_probs, base.spike_probs)
    assert est.iterations_used == base.iterations_used
    assert est.converged == base.converged


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-60, 60),
       variant=st.sampled_from(["pavbem", "pavbem_relaxed", "prvbem"]))
def test_scale_equivariance_property(seed, exponent, variant):
    scale = 2.0 ** exponent
    d, prior, _, y = _instance(np.random.default_rng(seed))
    base = run_estimator(variant, y, d, MODEL, prior)
    est = run_estimator(variant, scale * y, d, MODEL,
                        BernoulliGaussianPrior(prior.sigma_x_sq * scale ** 2,
                                               prior.occupancy))
    assert np.all(np.isfinite(est.z_hat))
    assert np.all((est.spike_probs >= 0.0) & (est.spike_probs <= 1.0))
    np.testing.assert_array_equal(est.z_hat, scale * base.z_hat)
    assert est.iterations_used == base.iterations_used


def test_relative_change_ignores_a_common_turn():
    rng = np.random.default_rng(20)
    u = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    # a pure turn of the whole fit is no change
    assert _relative_change(np.exp(0.3j) * u, u) <= 1e-15
    # no turn when old and new are orthogonal
    e0, e1 = np.eye(2, dtype=complex)
    assert _relative_change(e1, e0) == 1.0
    assert _relative_change(np.zeros(2), np.zeros(2)) == 0.0
    assert _relative_change(np.zeros(2), e0) == np.inf


def test_stop_rule_is_relative_change_of_fitted_signal():
    rng = np.random.default_rng(19)
    d, prior, _, y = _instance(rng)
    est = run_estimator("pavbem", y, d, MODEL, prior)
    deltas = [delta for _, _, delta in est.history]
    assert est.converged and est.iterations_used == len(deltas)
    # <z> after t iterations is the estimate of a run capped at t; before
    # the first it is the matched filter, the warm start
    z = [beamforming(y, d).z_hat]
    for t in range(1, 6):
        z.append(run_estimator("pavbem", y, d, MODEL, prior,
                               max_iterations=t).z_hat)
    for t in range(1, 6):
        new, old = d.columns @ z[t], d.columns @ z[t - 1]
        # old turned by the common phase that best aligns it with new
        turn = np.exp(1j * np.angle(np.vdot(old, new)))
        expected = np.max(np.abs(new - turn * old)) / np.max(np.abs(new))
        np.testing.assert_allclose(deltas[t - 1], expected, rtol=1e-12)
    # warm-up ends at RELAX_ITERATIONS or at the first small delta; the run
    # ends at the first small delta after that
    handover = next(t for t, delta in enumerate(deltas, 1)
                    if delta < CONVERGENCE_TOL or t >= RELAX_ITERATIONS)
    stop = next(t for t, delta in enumerate(deltas, 1)
                if t > handover and delta < CONVERGENCE_TOL)
    assert est.iterations_used == stop


@pytest.mark.parametrize("variant", ["pavbem", "pavbem_relaxed", "prvbem"])
def test_global_phase_gauge(variant):
    # y -> j y is z -> j z (or theta -> theta + pi/2) in y = P D z + w; the
    # estimate turns with it, after the same iterations. Not bitwise: the
    # complex products round differently on the turned inputs.
    config = SweepConfig(k_values=(5,), noise_grid=(1e-2,))
    for t in range(10):  # figure-cell draws
        d, model, prior, _, y = draw_trial(config, 5, 1e-2,
                                           trial_rng(1234, 0, 0, t))
        base = run_estimator(variant, y, d, model, prior, noise_var=1e-2)
        est = run_estimator(variant, 1j * y, d, model, prior, noise_var=1e-2)
        assert est.iterations_used == base.iterations_used
        err = np.max(np.abs(est.z_hat - 1j * base.z_hat))
        assert err <= 1e-13 * np.max(np.abs(base.z_hat))
