"""Reference implementations that the tests compare the fast paths against.

None of them runs in the package: ``update_atom`` recomputes one atom's
factor from the full residual, where ``coefficients.sweep_atoms`` keeps a
running one; ``prior_precision`` and ``prior_marginals`` give the chain
prior in the dense form that ``phase.smooth`` never builds.
"""

import numpy as np

from phasedoa.coefficients import CoefficientPosterior, _slab, _spike


def copy_posterior(posteriors):
    """An independent copy of a CoefficientPosterior."""
    return CoefficientPosterior(posteriors.spike_prob.copy(),
                                posteriors.cond_mean.copy(),
                                posteriors.cond_var)


def update_atom(i, y_bar, posteriors, dictionary, prior, noise_var):
    """Recompute the factor of atom i against the residual left by all
    other atoms, r_i = ybar - sum_{k != i} <z_k> d_k, and its slab factor
    from the column's own d_i^H d_i. The occupancy p of 0 or 1 fixes
    q(s_i = 1) at p. Returns a new CoefficientPosterior with entry i and
    the slab variance replaced."""
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    d = dictionary.columns
    w = posteriors.z_mean()
    w[i] = 0.0
    residual = y_bar - d @ w
    dhr = np.vdot(d[:, i], residual)
    dd = np.vdot(d[:, i], d[:, i]).real
    gain, var, half_log_ratio = _slab(prior.sigma_x_sq, noise_var, dd)
    mean = gain * dhr
    out = copy_posterior(posteriors)
    p = prior.occupancy
    out.spike_prob[i] = (_spike(mean, var, half_log_ratio,
                                np.log(p / (1.0 - p)))
                         if 0.0 < p < 1.0 else p)
    out.cond_mean[i] = mean
    out.cond_var = var
    return out


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
