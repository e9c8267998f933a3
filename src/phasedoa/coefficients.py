"""Bernoulli-Gaussian coefficient updates and the noise M-step.

Each atom i keeps a two-point factor q(s_i) plus the slab conditional
q(x_i | s_i = 1) = CN(cond_mean_i, cond_var). Every atom shares the prior's
slab variance and occupancy p, and the posterior variance is one for all
atoms too, because every steering column has d_i^H d_i = N. The posterior
mean of the amplitude is <z_i> = spike_prob_i * cond_mean_i.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class CoefficientPosterior:
    spike_prob: np.ndarray  # q(s_i = 1)
    cond_mean: np.ndarray   # m_{x_i}(s_i = 1), complex
    cond_var: float         # Sigma_x(s_i = 1), shared: every d_i^H d_i = N

    def z_mean(self):
        return self.spike_prob * self.cond_mean


def initial_posterior(y, dictionary, prior):
    """Beamforming warm start: cond_mean = (1/N) d_i^H y, spike = p."""
    n = dictionary.n_sensors
    cond_mean = (dictionary.columns.conj().T @ y) / n
    return CoefficientPosterior(spike_prob=np.full(cond_mean.shape[0],
                                                   prior.occupancy),
                                cond_mean=cond_mean,
                                cond_var=float(prior.sigma_x_sq))


def phase_corrected_observation(y, phase_posterior):
    """ybar_n = y_n * exp(-j m_n) * (I_1/I_0)(1/Sigma_n), i.e. the data
    rotated back by the posterior phase and shrunk by its certainty."""
    return y * np.conj(phase_posterior.circular_moments)


def _slab(sigma_x_sq, noise_var, n):
    """The slab factor that every atom shares, since d_i^H d_i = N:
    (gain, cond_var, half_log_ratio) with gain = sx/(s2 + sx*N), so that
    m(1) = gain * d_i^H r_i, cond_var = Sigma(1) = s2*sx/(s2 + sx*N) and
    half_log_ratio = 0.5*log(Sigma(1)/sx)."""
    denom = noise_var + sigma_x_sq * n
    cond_var = noise_var * sigma_x_sq / denom
    gain = sigma_x_sq / denom
    ratio = cond_var / sigma_x_sq
    return gain, cond_var, 0.5 * (math.log(ratio) if ratio else -math.inf)


def _spike(cond_mean, cond_var, half_log_ratio, logit):
    """q(s_i = 1), the logistic of half_log_ratio + |m|^2/Sigma + logit,
    with logit = log(p/(1 - p)) the prior log-odds, 0 < p < 1.
    Runs on Python scalars; where math would raise, the guards give the
    IEEE results (x/0 = +-inf or nan, x*x overflows to inf).
    """
    # log-domain: the evidence exponent routinely exceeds 700
    energy = (cond_mean.real * cond_mean.real
              + cond_mean.imag * cond_mean.imag)
    if cond_var:
        evidence = energy / cond_var
    else:
        evidence = math.inf if energy else math.nan
    log_odds = half_log_ratio + evidence + logit
    if log_odds >= 0:
        return 1.0 / (1.0 + math.exp(-log_odds))
    e = math.exp(log_odds)
    return e / (1.0 + e)


def sweep_atoms(y_bar, posteriors, dictionary, prior, noise_var, fitted):
    """One Gauss-Seidel pass over all atoms, in sweep_order of the current
    <z>: the atoms that carry the most energy are updated first.

    fitted is the signal D<z> of the input posterior, which the caller
    already holds. Tracks c = D^H r, every atom's correlation with the
    residual r = ybar - D<z>. Atom i sees d_i^H r_i = c_i + N <z_i>, and
    moving <z_i> by delta moves c by -delta * D^H d_i, row i of the cached
    dictionary.gram. One O(NM) product, one _slab and one prior log-odds
    per sweep (every atom shares the slab variance and the occupancy),
    then O(M) per atom. The input posterior is left unchanged.
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    d = dictionary.columns
    gram = dictionary.gram
    n = dictionary.n_sensors
    w = posteriors.z_mean()
    residual = y_bar - fitted
    c = np.conj(np.conj(residual) @ d)  # D^H r without copying D^H
    spike = posteriors.spike_prob.tolist()
    mean = posteriors.cond_mean.tolist()
    gain, cond_var, half_log_ratio = _slab(float(prior.sigma_x_sq),
                                           float(noise_var), n)
    p = prior.occupancy
    # p = 0 or 1 fixes every q(s_i = 1) at p, whatever the evidence
    logit = math.log(p / (1.0 - p)) if 0.0 < p < 1.0 else None
    for i in sweep_order(w).tolist():
        old = spike[i] * mean[i]
        mu = gain * (c.item(i) + n * old)
        s = p if logit is None else _spike(mu, cond_var, half_log_ratio,
                                           logit)
        spike[i], mean[i] = s, mu
        c -= gram[i] * (s * mu - old)
    return CoefficientPosterior(spike_prob=np.array(spike, dtype=float),
                                cond_mean=np.array(mean, dtype=complex),
                                cond_var=cond_var)


def sweep_order(z_means):
    """Atom visitation order of sweep_atoms: descending |<z_i>|, ties
    broken toward the lower index."""
    return np.argsort(-np.abs(z_means), kind="stable")


def estimate_noise_variance(y, y_bar, posteriors, fitted):
    """Closed-form M-step value of sigma^2, i.e. (1/N) E_q ||y - P D z||^2.

    The phase enters through ybar (first cross term); the quadratic term
    uses E|z_i|^2 = q_i (Sigma + |m_i|^2), with the one slab variance Sigma
    that all atoms share (d_i^H d_i = N), and |<z_i>|^2 on the diagonal.
    fitted is the signal D<z> of these posteriors. Returns the raw value;
    the caller applies the floor. A value further below zero than rounding
    explains (1e-9 of the power of y) means y_bar does not belong to y and
    raises FloatingPointError.
    """
    n = y.shape[0]
    w = posteriors.z_mean()
    power = np.vdot(y, y).real
    second_moment = posteriors.spike_prob * (
        posteriors.cond_var + np.abs(posteriors.cond_mean) ** 2)
    total = (power
             - 2.0 * np.vdot(fitted, y_bar).real
             + np.vdot(fitted, fitted).real
             + n * np.sum(second_moment - np.abs(w) ** 2))
    value = total / n
    # up to rounding the expectation cannot be negative
    bound = -1e-9 * power / n
    if not value >= bound:
        raise FloatingPointError(
            "noise variance %.17g is below its rounding bound %.17g; "
            "y_bar is inconsistent with y" % (value, bound))
    return value
