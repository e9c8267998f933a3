"""Tests for the spike-and-slab coefficient updates and the noise M-step."""

import math

import numpy as np
import pytest

from phasedoa.coefficients import (CoefficientPosterior, _slab, _spike,
                                   estimate_noise_variance, initial_posterior,
                                   phase_corrected_observation, sweep_atoms,
                                   sweep_order)
from phasedoa.model import BernoulliGaussianPrior, build_dictionary, default_angle_grid
from phasedoa.phase import PhasePosterior

from oracles import copy_posterior, update_atom


def _random_setup(rng, n=32, m=8):
    d = build_dictionary(n, 4.0, default_angle_grid(m))
    prior = BernoulliGaussianPrior(sigma_x_sq=1.5,
                                   occupancy=rng.uniform(0.05, 0.9))
    y_bar = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    post = CoefficientPosterior(
        spike_prob=rng.uniform(0.0, 1.0, m),
        cond_mean=rng.standard_normal(m) + 1j * rng.standard_normal(m),
        cond_var=rng.uniform(0.1, 2.0, m))
    return d, prior, y_bar, post


def test_initial_posterior_is_beamformer():
    rng = np.random.default_rng(0)
    d = build_dictionary(16, 4.0, default_angle_grid(6))
    prior = BernoulliGaussianPrior(1.0, 0.3)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    post = initial_posterior(y, d, prior)
    np.testing.assert_allclose(post.cond_mean, d.columns.conj().T @ y / 16,
                               rtol=1e-14)
    np.testing.assert_array_equal(post.spike_prob, np.full(6, 0.3))
    assert isinstance(post.cond_var, float) and post.cond_var == 1.0


def test_phase_corrected_observation():
    y = np.array([1.0 + 1.0j, 2.0, -1.0j, 0.5])
    moments = np.array([1.0, 0.5 * np.exp(1j * 0.3), 0.0, np.exp(-1j * 1.2)])
    post = PhasePosterior(means=np.zeros(4), marginal_variances=np.ones(4),
                          circular_moments=moments)
    y_bar = phase_corrected_observation(y, post)
    np.testing.assert_allclose(y_bar, y * np.conj(moments), rtol=1e-14)
    # the moment modulus never exceeds 1, so correction only shrinks
    assert np.all(np.abs(y_bar) <= np.abs(y) + 1e-15)


def test_update_atom_single_atom_hand_values():
    # one atom, y_bar = d exactly: d^H r = N, so with sigma_x = 1 and
    # sigma^2 = 0.01 the slab mean is N/(N + 0.01) and the slab variance
    # 0.01/(N + 0.01)
    d = build_dictionary(256, 4.0, np.array([0.2]))
    prior = BernoulliGaussianPrior(1.0, 0.5)
    post = CoefficientPosterior(spike_prob=np.zeros(1),
                                cond_mean=np.zeros(1, dtype=complex),
                                cond_var=np.ones(1))
    y_bar = d.columns[:, 0].copy()
    out = update_atom(0, y_bar, post, d, prior, 0.01)
    np.testing.assert_allclose(out.cond_mean[0], 256.0 / 256.01, rtol=1e-12)
    np.testing.assert_allclose(out.cond_var, 0.01 / 256.01, rtol=1e-12)
    assert out.spike_prob[0] > 1.0 - 1e-6


def test_update_atom_respects_degenerate_priors():
    d = build_dictionary(32, 4.0, default_angle_grid(2))
    post = CoefficientPosterior(spike_prob=np.full(2, 0.5),
                                cond_mean=np.zeros(2, dtype=complex),
                                cond_var=np.ones(2))
    y_bar = d.columns[:, 0] * 2.0
    on = BernoulliGaussianPrior(1.0, 1.0)
    off = BernoulliGaussianPrior(1.0, 0.0)
    assert update_atom(0, y_bar, post, d, on, 0.1).spike_prob[0] == 1.0
    assert update_atom(0, y_bar, post, d, off, 0.1).spike_prob[0] == 0.0
    # the sweep fixes every q(s_i = 1) at p, whatever the evidence: data on
    # one atom, none at all, and evidence that overflows the log-odds
    fitted = d.columns @ post.z_mean()
    for prior in (on, off):
        for data in (y_bar, np.zeros(32, dtype=complex),
                     d.columns[:, 1] * 1e200):
            for noise_var in (0.1, np.finfo(float).tiny):
                out = sweep_atoms(data, post, d, prior, noise_var, fitted)
                np.testing.assert_array_equal(out.spike_prob,
                                              np.full(2, prior.occupancy))


def test_update_atom_no_overflow_on_strong_evidence():
    # the log-odds exponent here is around |m|^2/Sigma ~ 1e6; the logistic
    # must saturate without a warning
    d = build_dictionary(64, 4.0, np.array([0.3]))
    prior = BernoulliGaussianPrior(1.0, 0.5)
    post = CoefficientPosterior(spike_prob=np.zeros(1),
                                cond_mean=np.zeros(1, dtype=complex),
                                cond_var=np.ones(1))
    y_bar = d.columns[:, 0] * 100.0
    with np.errstate(over="raise"):
        out = update_atom(0, y_bar, post, d, prior, 1e-4)
    assert out.spike_prob[0] == 1.0


def test_update_atom_validation():
    rng = np.random.default_rng(1)
    d, prior, y_bar, post = _random_setup(rng)
    with pytest.raises(ValueError):
        update_atom(0, y_bar, post, d, prior, 0.0)


def test_sweep_matches_naive_sequential_updates():
    # dual route: sweep_atoms keeps a running residual, update_atom
    # recomputes it from scratch; both must land on the same posterior
    rng = np.random.default_rng(17)
    for _ in range(2):
        d, prior, y_bar, post = _random_setup(rng)
        order = sweep_order(post.z_mean())
        swept = sweep_atoms(y_bar, post, d, prior, 0.1,
                            d.columns @ post.z_mean())
        naive = post
        for i in order:
            naive = update_atom(int(i), y_bar, naive, d, prior, 0.1)
        np.testing.assert_allclose(swept.spike_prob, naive.spike_prob,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(swept.cond_mean, naive.cond_mean,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(swept.cond_var, naive.cond_var, rtol=1e-12)


def _protocol_setup(rng):
    """Protocol dictionary (N=256, M=50, spacing 4): the aliased grid holds
    duplicate columns, the hard case for a Gram-form residual."""
    d = build_dictionary(256, 4.0, default_angle_grid(50))
    prior = BernoulliGaussianPrior(sigma_x_sq=1.0,
                                   occupancy=rng.uniform(0.05, 0.9))
    y_bar = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    post = CoefficientPosterior(
        spike_prob=rng.uniform(0.0, 1.0, 50),
        cond_mean=rng.standard_normal(50) + 1j * rng.standard_normal(50),
        cond_var=rng.uniform(0.1, 2.0, 50))
    return d, prior, y_bar, post


def test_sweep_matches_update_chain_on_protocol_dictionary():
    rng = np.random.default_rng(31)
    d, prior, y_bar, post = _protocol_setup(rng)
    cols = d.columns
    duplicated = np.abs(cols.conj().T @ cols) > 256 * (1 - 1e-9)
    assert np.sum(duplicated) > 50  # some off-diagonal pair coincides
    for noise_var in (0.01, 1.0):
        order = sweep_order(post.z_mean())
        swept = sweep_atoms(y_bar, post, d, prior, noise_var,
                            d.columns @ post.z_mean())
        naive = post
        for i in order:
            naive = update_atom(int(i), y_bar, naive, d, prior, noise_var)
        np.testing.assert_allclose(swept.spike_prob, naive.spike_prob,
                                   rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(swept.cond_mean, naive.cond_mean,
                                   rtol=1e-10)
        np.testing.assert_allclose(swept.cond_var, naive.cond_var,
                                   rtol=1e-10)


def test_sweep_leaves_input_unchanged():
    rng = np.random.default_rng(32)
    d, prior, y_bar, post = _protocol_setup(rng)
    before = copy_posterior(post)
    y_before = y_bar.copy()
    sweep_atoms(y_bar, post, d, prior, 0.1, d.columns @ post.z_mean())
    np.testing.assert_array_equal(post.spike_prob, before.spike_prob)
    np.testing.assert_array_equal(post.cond_mean, before.cond_mean)
    np.testing.assert_array_equal(post.cond_var, before.cond_var)
    np.testing.assert_array_equal(y_bar, y_before)


def test_gram_rows_are_adjoint_products():
    d = build_dictionary(256, 4.0, default_angle_grid(50))
    gram = d.gram
    assert gram is d.gram  # built once per dictionary
    assert gram.shape == (50, 50) and gram.flags.c_contiguous
    adjoint = d.columns.conj().T
    for i in range(50):
        np.testing.assert_allclose(gram[i], adjoint @ d.columns[:, i],
                                   rtol=1e-12, atol=1e-12 * 256)


TINY = np.finfo(float).tiny
NAN = float("nan")


@pytest.mark.parametrize("dhr, sigma_x_sq, noise_var, expected", [
    # slab variance tiny/256 is subnormal, the evidence still finite
    (1 + 1j, 1.0, TINY, (1.0, 0.00390625 + 0.00390625j, 8.691694759794e-311)),
    # evidence |m|^2/Sigma overflows to inf
    (100 + 0j, 1.0, TINY, (1.0, 0.390625 + 0j, 8.691694759794e-311)),
    # slab variance underflows to 0: log 0 = -inf meets inf (or 0/0)
    (1 + 1j, 1e-20, TINY, (NAN, 0.00390625 + 0.00390625j, 0.0)),
    (0j, 1e-20, TINY, (NAN, 0j, 0.0)),
    # |m|^2 overflows in the square
    (1e200 + 1e200j, 1.0, 0.01,
     (1.0, 3.9060974180696066e+197 + 3.9060974180696066e+197j,
      3.906097418069607e-05)),
    (-3e200 + 0j, 1.0, 0.01,
     (1.0, -1.171829225420882e+198 + 0j, 3.906097418069607e-05)),
    (1e200j, 1.0, TINY, (1.0, 3.90625e+197j, 8.691694759794e-311)),
])
def test_atom_update_extremes(dhr, sigma_x_sq, noise_var, expected):
    # expected values are those of the numpy-scalar update this replaced;
    # numpy scalars may warn on the way, Python scalars must not raise
    for value in (complex(dhr), np.complex128(dhr)):
        with np.errstate(all="ignore"):
            gain, var, half_log_ratio = _slab(sigma_x_sq, noise_var, 256)
            mean = gain * value
            spike = _spike(mean, var, half_log_ratio, math.log(0.1 / 0.9))
        np.testing.assert_array_equal([spike, var], [expected[0], expected[2]])
        assert mean == expected[1]


def test_sweep_on_zero_data_shrinks():
    rng = np.random.default_rng(2)
    d, prior, _, _ = _random_setup(rng)
    zero = np.zeros(32, dtype=complex)
    post = initial_posterior(zero, d, prior)
    out = sweep_atoms(zero, post, d, prior, 0.1,
                      d.columns @ post.z_mean())
    np.testing.assert_array_equal(out.cond_mean, np.zeros(8))
    # without evidence the occupancy posterior drops below the prior
    assert np.all(out.spike_prob < prior.occupancy)


def test_sweep_single_atom_equals_update():
    rng = np.random.default_rng(3)
    d, prior, y_bar, post = _random_setup(rng, m=1)
    swept = sweep_atoms(y_bar, post, d, prior, 0.2,
                        d.columns @ post.z_mean())
    direct = update_atom(0, y_bar, post, d, prior, 0.2)
    np.testing.assert_allclose(swept.cond_mean, direct.cond_mean, rtol=1e-12)
    np.testing.assert_allclose(swept.spike_prob, direct.spike_prob, rtol=1e-12)


def test_sweep_validation():
    rng = np.random.default_rng(4)
    d, prior, y_bar, post = _random_setup(rng)
    with pytest.raises(ValueError):
        sweep_atoms(y_bar, post, d, prior, -0.1,
                    d.columns @ post.z_mean())


def test_sweep_order():
    z = np.array([0.5, 2.0, 2.0, 0.1], dtype=complex)
    # descending energy, ties broken toward the lower index
    np.testing.assert_array_equal(sweep_order(z), [1, 2, 0, 3])
    # a three-way tie, and NaN last
    z = np.array([0.5, np.nan, 0.5, 3.0, 0.5, 0.1], dtype=complex)
    np.testing.assert_array_equal(sweep_order(z), [3, 0, 2, 4, 5, 1])


class TestNoiseVariance:
    def test_all_off_posterior_gives_signal_power(self):
        rng = np.random.default_rng(5)
        d = build_dictionary(16, 4.0, default_angle_grid(4))
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        post = CoefficientPosterior(spike_prob=np.zeros(4),
                                    cond_mean=np.ones(4, dtype=complex),
                                    cond_var=np.ones(4))
        value = estimate_noise_variance(y, y.copy(), post,
                                        d.columns @ post.z_mean())
        np.testing.assert_allclose(value, np.vdot(y, y).real / 16, rtol=1e-14)

    def test_zero_everything(self):
        d = build_dictionary(8, 4.0, default_angle_grid(2))
        post = CoefficientPosterior(spike_prob=np.zeros(2),
                                    cond_mean=np.zeros(2, dtype=complex),
                                    cond_var=np.ones(2))
        z = np.zeros(8, dtype=complex)
        assert estimate_noise_variance(z, z, post,
                                       d.columns @ post.z_mean()) == 0.0

    def test_matches_von_mises_monte_carlo(self):
        # oracle: sample z from the spike-and-slab posterior and theta from
        # the Von Mises law matched to each marginal, then average
        # ||y - P D z||^2 / N directly
        rng = np.random.default_rng(29)
        n, m = 16, 4
        d = build_dictionary(n, 4.0, default_angle_grid(m))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        post = CoefficientPosterior(
            spike_prob=rng.uniform(0.2, 0.9, m),
            cond_mean=rng.standard_normal(m) + 1j * rng.standard_normal(m),
            cond_var=rng.uniform(0.05, 0.5, m))
        means = rng.uniform(-np.pi, np.pi, n)
        variances = rng.uniform(0.01, 0.2, n)
        from phasedoa.phase import circular_moment
        moments = circular_moment(means, variances)
        y_bar = y * np.conj(moments)

        closed = estimate_noise_variance(y, y_bar, post,
                                         d.columns @ post.z_mean())

        draws = 20_000
        acc = 0.0
        theta = rng.vonmises(means, 1.0 / variances, size=(draws, n))
        s = rng.random((draws, m)) < post.spike_prob
        x = (post.cond_mean
             + np.sqrt(post.cond_var / 2)
             * (rng.standard_normal((draws, m))
                + 1j * rng.standard_normal((draws, m))))
        z = s * x
        resid = y - np.exp(1j * theta) * (z @ d.columns.T)
        acc = np.mean(np.sum(np.abs(resid) ** 2, axis=1)) / n
        np.testing.assert_allclose(closed, acc, rtol=0.05)

    def test_inconsistent_y_bar_raises(self):
        # y_bar far larger than y drives the closed form negative, which no
        # rounding explains; it must fail even under python -O
        rng = np.random.default_rng(7)
        d = build_dictionary(16, 4.0, default_angle_grid(4))
        post = CoefficientPosterior(spike_prob=np.ones(4),
                                    cond_mean=np.ones(4, dtype=complex),
                                    cond_var=np.ones(4))
        y = 0.01 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        y_bar = 10.0 * (d.columns @ post.z_mean())
        with pytest.raises(FloatingPointError, match="rounding bound"):
            estimate_noise_variance(y, y_bar, post, d.columns @ post.z_mean())

    def test_never_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d, prior, y_bar, post = _random_setup(rng)
            y = y_bar + 0.1 * (rng.standard_normal(32)
                               + 1j * rng.standard_normal(32))
            fitted = d.columns @ post.z_mean()
            assert estimate_noise_variance(y, y_bar, post, fitted) >= 0.0
