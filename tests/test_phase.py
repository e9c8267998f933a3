"""Tests for the phase posterior: chain precision, smoother, circular moments.

The smoother is checked against a dense information-form solve, which is the
reference the Kalman/RTS recursion must reproduce.
"""

import decimal
import re

import numpy as np
import pytest

from phasedoa.model import PhaseMarkovModel, build_dictionary
from phasedoa.phase import (PseudoObservations, bessel_ratio, circular_moment,
                            compute_eta, noninformative_posterior,
                            pseudo_observations, smooth)

from oracles import prior_marginals, prior_precision


def _series_ratio(x):
    """Power-series I_1(x)/I_0(x), the oracle route (no scipy.special).

    Summed in 40-digit decimal arithmetic, so the double it returns is
    correctly rounded; it takes about x terms, so keep x to a few thousand.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        tiny = decimal.Decimal("1e-38")
        x = decimal.Decimal(float(x))
        q = x * x / 4
        s0 = t0 = s1 = t1 = decimal.Decimal(1)
        k = 0
        while t0 >= tiny * s0 or t1 >= tiny * s1:
            k += 1
            t0 *= q / (k * k)
            t1 *= q / (k * (k + 1))
            s0 += t0
            s1 += t1
        return float(x / 2 * s1 / s0)


# bessel_ratio's table: u = x/(x + 8) picks cell floor(256u), so the join
# of cells i-1 and i lies at x = 8i/(256 - i), up to the rounding of u
_JOINS = 8.0 * np.arange(1, 256) / (256 - np.arange(1, 256))


def _cell_joins():
    """The two neighbouring doubles at every join between the cells of
    bessel_ratio's table: the last of cell i-1 and the first of cell i.
    The rounding of u moves them up to a few hundred ulps of x away from
    _JOINS."""
    i = np.arange(1, 256)
    # the doubles within 600 ulps of each nominal join, one row per join
    x = (_JOINS.view(np.int64)[:, None] + np.arange(-600, 601)).view(float)
    cell = np.floor(x / (x + 8.0) * 256)
    first = np.argmax(cell >= i[:, None], axis=1)
    rows = np.arange(i.size)
    below, above = x[rows, first - 1], x[rows, first]
    assert np.all(cell[rows, first - 1] == i - 1)
    assert np.all(cell[rows, first] == i)
    return below, above


def _dense_posterior(model, pseudo):
    """Information-form reference: tridiagonal prior precision plus the
    diagonal pseudo-precision, solved densely."""
    n = pseudo.values.shape[0]
    diagonal, off_diagonal = prior_precision(model, n)
    prec = np.diag(diagonal.astype(float))
    idx = np.arange(n - 1)
    prec[idx, idx + 1] = off_diagonal
    prec[idx + 1, idx] = off_diagonal
    prec += np.diag(pseudo.precisions)
    cov = np.linalg.inv(prec)
    means = cov @ (pseudo.precisions * pseudo.values)
    return means, np.diag(cov)


def _array_smooth(pseudo, model):
    """The array-indexed Kalman/RTS loop that smooth() replaced with scalar
    recursions. Same operations in the same order, so the two must agree
    bit for bit."""
    v = np.asarray(pseudo.values, dtype=float)
    lam = np.asarray(pseudo.precisions, dtype=float)
    n = v.shape[0]
    a = model.a
    st = model.sigma_theta_sq
    mp, pp, mf, pf = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for t in range(n):
        if t == 0:
            mp[t] = 0.0
            pp[t] = model.sigma_1_sq
        else:
            mp[t] = a * mf[t - 1]
            pp[t] = a * a * pf[t - 1] + st
        g = pp[t] * lam[t] / (pp[t] * lam[t] + 1.0)
        mf[t] = mp[t] + g * (v[t] - mp[t])
        pf[t] = (1.0 - g) * pp[t]
    ms, ps = np.empty(n), np.empty(n)
    ms[-1] = mf[-1]
    ps[-1] = pf[-1]
    for t in range(n - 2, -1, -1):
        c = pf[t] * a / pp[t + 1]
        ms[t] = mf[t] + c * (ms[t + 1] - mp[t + 1])
        ps[t] = pf[t] + c * c * (ps[t + 1] - pp[t + 1])
    return ms, ps


def test_prior_precision_hand_values():
    model = PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=1.0)
    diagonal, off_diagonal = prior_precision(model, 3)
    np.testing.assert_allclose(diagonal, [1.64, 1.64, 1.0], rtol=1e-14)
    np.testing.assert_allclose(off_diagonal, [-0.8, -0.8], rtol=1e-14)


def test_prior_precision_diffuse_start():
    model = PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=1e6)
    diagonal, _ = prior_precision(model, 2)
    np.testing.assert_allclose(diagonal, [0.640001, 1.0], rtol=1e-12)


def test_prior_precision_decoupled_when_a_zero():
    model = PhaseMarkovModel(a=0.0, sigma_theta_sq=2.0, sigma_1_sq=4.0)
    diagonal, off_diagonal = prior_precision(model, 4)
    np.testing.assert_allclose(diagonal, [0.25, 0.5, 0.5, 0.5])
    np.testing.assert_array_equal(off_diagonal, np.zeros(3))


def test_prior_precision_needs_chain():
    model = PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=1.0)
    with pytest.raises(ValueError):
        prior_precision(model, 1)


def test_prior_marginals_recursion():
    model = PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=1e6)
    v = prior_marginals(model, 5)
    expected = [1e6]
    for _ in range(4):
        expected.append(0.64 * expected[-1] + 1.0)
    np.testing.assert_allclose(v, expected, rtol=1e-14)


def test_compute_eta_zero_coefficients():
    d = build_dictionary(8, 4.0, np.array([0.1, 0.2]))
    y = np.ones(8, dtype=complex)
    np.testing.assert_array_equal(
        compute_eta(y, d.columns @ np.zeros(2, dtype=complex)), np.zeros(8))


def test_compute_eta_hand_values():
    # N=2, one atom: eta_n = y_n * conj(d_n * z)
    d = build_dictionary(2, 0.5, np.array([np.pi / 2]))
    y = np.array([1.0 + 1.0j, 2.0 - 1.0j])
    z = np.array([0.5 + 0.5j])
    expected = y * np.conj(d.columns[:, 0] * z[0])
    np.testing.assert_allclose(compute_eta(y, d.columns @ z), expected,
                               atol=1e-12)


def test_pseudo_observations_scaling():
    eta = np.array([1.0 + 0.0j, 0.0 + 2.0j, 0.0 + 0.0j])
    pseudo = pseudo_observations(eta, 0.5)
    np.testing.assert_allclose(pseudo.values, [0.0, np.pi / 2, 0.0])
    np.testing.assert_allclose(pseudo.precisions, [4.0, 8.0, 0.0])


class TestSmoother:
    def test_no_observations_returns_prior(self):
        model = PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=1e6)
        n = 12
        pseudo = PseudoObservations(values=np.zeros(n),
                                    precisions=np.zeros(n))
        post = smooth(pseudo, model)
        np.testing.assert_array_equal(post.means, np.zeros(n))
        np.testing.assert_allclose(post.marginal_variances,
                                   prior_marginals(model, n), rtol=1e-12)

    def test_clamped_node_pulls_neighbors(self):
        # a huge precision at the middle node pins it; the neighbors relax
        # toward the conditional means of the chain
        model = PhaseMarkovModel(a=0.8, sigma_theta_sq=0.5, sigma_1_sq=2.0)
        pseudo = PseudoObservations(values=np.array([0.0, 1.3, 0.0]),
                                    precisions=np.array([0.0, 1e12, 0.0]))
        post = smooth(pseudo, model)
        s1, st, a = 2.0, 0.5, 0.8
        np.testing.assert_allclose(post.means[1], 1.3, rtol=1e-9)
        np.testing.assert_allclose(post.means[0],
                                   a * s1 / (a * a * s1 + st) * 1.3, rtol=1e-9)
        np.testing.assert_allclose(post.means[2], a * 1.3, rtol=1e-9)
        np.testing.assert_allclose(post.marginal_variances[0],
                                   1.0 / (1.0 / s1 + a * a / st), rtol=1e-9)
        np.testing.assert_allclose(post.marginal_variances[2], st, rtol=1e-9)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(23)
        model = PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=1e6)
        for _ in range(5):
            n = int(rng.integers(2, 40))
            pseudo = PseudoObservations(
                values=rng.uniform(-np.pi, np.pi, n),
                precisions=rng.uniform(0.0, 20.0, n))
            post = smooth(pseudo, model)
            means, variances = _dense_posterior(model, pseudo)
            # absolute floor scaled to the trajectory: near-zero entries
            # would otherwise fail on pure relative error
            np.testing.assert_allclose(post.means, means, rtol=1e-8,
                                       atol=1e-8 * np.abs(means).max())
            np.testing.assert_allclose(post.marginal_variances, variances,
                                       rtol=1e-8)

    @pytest.mark.parametrize("n", [2, 256])
    def test_bitwise_equal_to_array_recursion(self, n):
        rng = np.random.default_rng(n)
        model = PhaseMarkovModel(a=0.8, sigma_theta_sq=0.3, sigma_1_sq=1e6)
        for draw in range(20):
            precisions = rng.exponential(4.0, n)
            precisions[rng.random(n) < 0.2] = 0.0
            precisions[draw % n] = 0.0  # every draw has a missing sensor
            pseudo = PseudoObservations(values=rng.uniform(-np.pi, np.pi, n),
                                        precisions=precisions)
            post = smooth(pseudo, model)
            means, variances = _array_smooth(pseudo, model)
            assert np.array_equal(post.means, means)
            assert np.array_equal(post.marginal_variances, variances)

    def test_single_node(self):
        model = PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=4.0)
        pseudo = PseudoObservations(values=np.array([1.0]),
                                    precisions=np.array([3.0]))
        post = smooth(pseudo, model)
        np.testing.assert_allclose(post.marginal_variances, [1.0 / 3.25])
        np.testing.assert_allclose(post.means, [3.0 / 3.25])

    def test_empty_chain(self):
        model = PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=4.0)
        empty = PseudoObservations(values=np.zeros(0), precisions=np.zeros(0))
        for post in (smooth(empty, model), noninformative_posterior(empty)):
            assert post.means.shape == post.marginal_variances.shape == (0,)
            assert post.circular_moments.shape == (0,)

    def test_rejects_nonfinite_values(self):
        model = PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=1.0)
        pseudo = PseudoObservations(values=np.array([0.0, np.nan]),
                                    precisions=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            smooth(pseudo, model)

    @pytest.mark.parametrize("a, sigma_theta_sq, sigma_1_sq", [
        (1e300, 1.0, 1e6),   # a*a overflows
        (1e154, 1.0, 1e6),   # a*a finite, the predicted variance overflows
        (0.8, 1e300, 1e6),   # the gain rounds to 1: zero variances
        (0.8, 1.0, 1e300),
    ])
    def test_out_of_range_chain_names_its_parameters(self, a, sigma_theta_sq,
                                                     sigma_1_sq):
        model = PhaseMarkovModel(a=a, sigma_theta_sq=sigma_theta_sq,
                                 sigma_1_sq=sigma_1_sq)
        pseudo = PseudoObservations(values=np.full(32, 0.3),
                                    precisions=np.full(32, 50.0))
        names = re.escape("a=%g, sigma_theta_sq=%g, sigma_1_sq=%g"
                          % (a, sigma_theta_sq, sigma_1_sq))
        with pytest.raises(ValueError, match=names):
            smooth(pseudo, model)

    def test_moments_consistent_with_marginals(self):
        model = PhaseMarkovModel(a=0.8, sigma_theta_sq=1.0, sigma_1_sq=1e6)
        rng = np.random.default_rng(4)
        pseudo = PseudoObservations(values=rng.uniform(-3, 3, 10),
                                    precisions=rng.uniform(0, 5, 10))
        post = smooth(pseudo, model)
        expected = circular_moment(post.means, post.marginal_variances)
        np.testing.assert_array_equal(post.circular_moments, expected)


def test_noninformative_posterior_sensorwise():
    eta = np.array([2.0 + 0.0j, 0.0 + 0.0j, 1.0 + 1.0j])
    pseudo = pseudo_observations(eta, 1.0)
    post = noninformative_posterior(pseudo)
    np.testing.assert_allclose(post.means, np.angle(eta))
    np.testing.assert_allclose(post.marginal_variances[0], 0.25)
    assert post.marginal_variances[1] == np.inf
    assert post.circular_moments[1] == 0.0
    # moment direction follows arg(eta), magnitude the Bessel shrinkage
    np.testing.assert_allclose(np.angle(post.circular_moments[2]), np.pi / 4)
    np.testing.assert_allclose(np.abs(post.circular_moments[2]),
                               bessel_ratio(2 * np.sqrt(2)), rtol=1e-14)


class TestBesselRatio:
    def test_endpoints(self):
        assert bessel_ratio(0.0) == 0.0
        assert bessel_ratio(1e8) >= 1.0 - 1e-7
        assert bessel_ratio(1e8) <= 1.0
        # A(x) = x/2 - x^3/16 + ... and A(x) = 1 - 1/(2x) - 1/(8x^2) - ...
        np.testing.assert_allclose(bessel_ratio(1e-300), 5e-301, rtol=1e-15)
        np.testing.assert_allclose(bessel_ratio(1e8), 1.0 - 0.5e-8,
                                   rtol=1e-15)
        assert bessel_ratio(1e300) == 1.0

    def test_known_values_from_series(self):
        # frozen from the power-series oracle above
        np.testing.assert_allclose(bessel_ratio(0.5), 0.242499612580802,
                                   rtol=1e-12)
        np.testing.assert_allclose(bessel_ratio(1.0), 0.446389965896535,
                                   rtol=1e-12)
        np.testing.assert_allclose(bessel_ratio(2.0), 0.697774657964008,
                                   rtol=1e-12)

    def test_against_series_oracle(self):
        for x in np.linspace(0.0, 50.0, 101):
            np.testing.assert_allclose(bessel_ratio(float(x)),
                                       _series_ratio(float(x)), atol=1e-10)
        # a dense log grid up to the last join, every join and both of its
        # neighbouring doubles
        below, above = _cell_joins()
        x = np.concatenate([[0.0], np.logspace(-300, np.log10(2100), 700),
                            _JOINS, below, above])
        np.testing.assert_allclose(bessel_ratio(x),
                                   [_series_ratio(v) for v in x], rtol=1e-14)

    def test_monotone_and_bounded(self):
        x = np.sort(np.concatenate([np.logspace(-3, 8, 400), _JOINS,
                                    _JOINS * (1 - 1e-9), _JOINS * (1 + 1e-9)]))
        r = bessel_ratio(x)
        assert np.all(np.isfinite(r))
        assert np.all(np.diff(r) > 0)
        assert np.all((r >= 0) & (r < 1))
        assert np.all(bessel_ratio(np.logspace(8, 308, 301)) <= 1)
        # no step at a join between cells beyond a few ulps
        below, above = _cell_joins()
        step = bessel_ratio(above) - bessel_ratio(below)
        assert np.all(np.abs(step) <= 4 * np.spacing(bessel_ratio(below)))

    def test_return_types(self):
        assert type(bessel_ratio(0.5)) is float
        assert type(bessel_ratio(2)) is float
        assert type(bessel_ratio(np.float64(0.5))) is float
        assert type(bessel_ratio(np.array(0.5))) is float
        for shape in ((0,), (3,), (2, 3)):
            out = bessel_ratio(np.full(shape, 0.5))
            assert type(out) is np.ndarray
            assert out.shape == shape and out.dtype == np.float64

    def test_validation(self):
        for bad in (-1.0, np.inf, np.nan, np.array([0.5, np.nan, 2.0]),
                    np.array([0.5, -np.inf]),
                    np.array([[0.5, 1.0], [-1e-300, 2.0]])):
            with pytest.raises(ValueError):
                bessel_ratio(bad)


class TestCircularMoment:
    def test_small_variance_limit(self):
        m = 0.7
        out = circular_moment(m, 1e-12)
        np.testing.assert_allclose(out, np.exp(1j * m), rtol=1e-9)

    def test_huge_variance_washes_out(self):
        assert np.abs(circular_moment(0.7, 1e6)) < 1e-3

    def test_matches_gaussian_expectation_small_variance(self):
        # E exp(j theta) = exp(jm - v/2) exactly; the Von Mises moment
        # tracks it closely once v is small
        for v in (0.001, 0.01, 0.05):
            out = circular_moment(0.3, v)
            exact = np.exp(1j * 0.3 - v / 2)
            assert np.abs(out - exact) < 1e-3

    def test_infinite_variance_gives_zero(self):
        assert circular_moment(1.0, np.inf) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            circular_moment(0.0, 0.0)
        with pytest.raises(ValueError):
            circular_moment(0.0, -1.0)
        with pytest.raises(ValueError):
            circular_moment(0.0, np.array([0.5, np.nan]))
