"""Variational phase posterior q(theta) and circular moments.

The E-step for the phase reduces to a Gaussian chain with tridiagonal prior
precision, observed through per-sensor pseudo-measurements arg(eta_n) with
precision 2|eta_n|/sigma^2. The posterior mean and marginal variances come
out of a standard Kalman filter plus RTS smoother over the AR(1) state.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import i0e, i1e


@dataclass
class PseudoObservations:
    values: np.ndarray      # arg(eta_n) in (-pi, pi]
    precisions: np.ndarray  # 2|eta_n|/sigma^2, zero marks a missing sensor


@dataclass
class PhasePosterior:
    means: np.ndarray
    marginal_variances: np.ndarray
    circular_moments: np.ndarray  # <exp(j*theta_n)>


def prior_precision(model, n):
    """Tridiagonal prior precision of (theta_1, ..., theta_n), as its two
    bands (diagonal, off_diagonal).

    diagonal [1/s1 + a^2/st, (1+a^2)/st, ..., (1+a^2)/st, 1/st],
    off-diagonal -a/st, with s1 = sigma_1_sq and st = sigma_theta_sq.
    """
    if n < 2:
        raise ValueError("chain precision needs n >= 2")
    st = model.sigma_theta_sq
    a = model.a
    diag = np.full(n, (1 + a * a) / st)
    diag[0] = 1 / model.sigma_1_sq + a * a / st
    diag[-1] = 1 / st
    off = np.full(n - 1, -a / st)
    return diag, off


def prior_marginals(model, n):
    """Marginal variances of the unconditioned chain: v_1 = sigma_1_sq,
    v_k = a^2 v_{k-1} + sigma_theta_sq."""
    v = np.empty(n)
    v[0] = model.sigma_1_sq
    a2 = model.a * model.a
    for i in range(1, n):
        v[i] = a2 * v[i - 1] + model.sigma_theta_sq
    return v


def compute_eta(y, fitted):
    """eta_n = y_n * conj(u_n) for the fitted signal u = D <z>; its argument
    and 2|eta|/sigma^2 act as the pseudo-observation and precision for the
    phase chain."""
    return y * np.conj(fitted)


def pseudo_observations(eta, noise_var):
    # arg(0) = 0 by numpy convention; harmless since the precision is 0 there
    return PseudoObservations(values=np.angle(eta),
                              precisions=2 * np.abs(eta) / noise_var)


def smooth(pseudo, model):
    """Posterior means and marginal variances of the phase chain.

    Information form: precision = prior_precision + diag(pseudo.precisions),
    information vector = pseudo.precisions * pseudo.values. Realized as a
    forward Kalman filter over theta_n = a*theta_{n-1} + w_n followed by an
    RTS backward pass; a zero pseudo-precision contributes no update.

    The recursions run on Python floats (per-element numpy indexing costs
    more than the arithmetic); IEEE double arithmetic in the same order
    gives the same bits as the array form.
    """
    v = np.asarray(pseudo.values, dtype=float)
    lam = np.asarray(pseudo.precisions, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("pseudo-observation values must be finite")
    n = v.shape[0]
    a = float(model.a)
    aa = a * a
    st = float(model.sigma_theta_sq)

    mp = [0.0] * n  # predicted mean
    pp = [0.0] * n  # predicted variance
    mf = [0.0] * n  # filtered mean
    pf = [0.0] * n  # filtered variance
    m_pred, p_pred = 0.0, float(model.sigma_1_sq)
    for t, (vt, lt) in enumerate(zip(v.tolist(), lam.tolist())):
        if t:
            m_pred = a * m_filt
            p_pred = aa * p_filt + st
        # gain written as p*lam/(p*lam + 1) so lam = 0 reduces to no update
        g = p_pred * lt / (p_pred * lt + 1.0)
        m_filt = m_pred + g * (vt - m_pred)
        p_filt = (1.0 - g) * p_pred
        mp[t], pp[t], mf[t], pf[t] = m_pred, p_pred, m_filt, p_filt

    # backward pass: entries t+1.. of mf/pf already hold smoothed values
    for t in range(n - 2, -1, -1):
        c = pf[t] * a / pp[t + 1]
        mf[t] += c * (mf[t + 1] - mp[t + 1])
        pf[t] += c * c * (pf[t + 1] - pp[t + 1])
    return _with_moments(np.array(mf), np.array(pf))


def noninformative_posterior(pseudo):
    """Phase posterior when the chain prior is dropped (flat phase prior):
    each sensor stands alone, m_n = arg(eta_n), Sigma_n = 1/precision_n.
    The circular moment needs only the precision, so eta_n = 0 cleanly
    yields a zero moment."""
    lam = np.asarray(pseudo.precisions, dtype=float)
    with np.errstate(divide="ignore"):
        variances = 1.0 / lam  # inf where the pseudo-precision vanishes
    # kept in precision form: circular_moment(values, variances) would take
    # 1/(1/lam), which differs from lam in the last bit for over 10% of doubles
    moments = bessel_ratio(lam) * np.exp(1j * pseudo.values)
    return PhasePosterior(means=np.asarray(pseudo.values, dtype=float),
                          marginal_variances=variances,
                          circular_moments=moments)


def _with_moments(means, variances):
    return PhasePosterior(means=means, marginal_variances=variances,
                          circular_moments=circular_moment(means, variances))


def bessel_ratio(x):
    """I_1(x)/I_0(x) for x >= 0, stable up to at least 1e8.

    Uses the exponentially scaled Bessel functions so neither factor
    overflows (raw I_0 blows up near x = 700).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ValueError("bessel_ratio requires finite x >= 0")
    out = i1e(x) / i0e(x)
    return out if out.ndim else float(out)


def circular_moment(mean, variance):
    """<exp(j*theta)> under the Von Mises matched to N(mean, variance):
    (I_1/I_0)(1/variance) * exp(j*mean)."""
    variance = np.asarray(variance, dtype=float)
    if not np.all(variance > 0):  # also rejects NaN
        raise ValueError("variance must be positive")
    out = bessel_ratio(1.0 / variance) * np.exp(1j * np.asarray(mean, dtype=float))
    return out if out.ndim else complex(out)
