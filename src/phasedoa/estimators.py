"""Front-end estimators: paVBEM, its Gaussian relaxation, a prVBEM-style
baseline with a flat phase prior, and conventional beamforming.

All three VBEM variants share one loop. Per outer iteration: (a) update
q(theta) from the current <z> (compute_eta, smooth), (b) form the
phase-corrected ybar and sweep every atom, (c) optionally re-estimate the
noise variance. The relaxed variant clamps every occupancy to 1; the
prVBEM baseline additionally drops the Markov phase prior.
"""

from dataclasses import dataclass

import numpy as np

from . import coefficients as coef
from . import phase as ph
from .model import BernoulliGaussianPrior

_VARIANTS = ("pavbem", "pavbem_relaxed", "prvbem", "beamforming")


@dataclass
class EstimatorConfig:
    variant: str = "pavbem"
    max_iterations: int = 200
    convergence_tol: float = 1e-6   # max-norm change of <z> per outer iteration
    estimate_noise: bool = True
    initial_noise_var: float | None = None  # None: 0.01 * mean |y_n|^2
    relax_iterations: int = 25      # occupancy clamped to 1 for this many
                                    # leading iterations (homotopy warm start)
    order: str = "energy"           # atom sweep order, 'energy' or 'index'

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError("unknown variant %r" % (self.variant,))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if self.relax_iterations < 0:
            raise ValueError("relax_iterations must be >= 0")
        if self.order not in ("energy", "index"):
            raise ValueError("order must be 'energy' or 'index'")


@dataclass
class DoaEstimate:
    z_hat: np.ndarray
    spike_probs: np.ndarray
    phase_means: np.ndarray
    iterations_used: int
    converged: bool
    final_noise_var: float


def pavbem(y, dictionary, phase_model, prior, config=None, trace=None):
    """Full phase-aware VBEM with the Bernoulli-Gaussian prior.

    trace, if given, is called after every outer iteration as
    trace(iteration, info) with info holding noise_var, delta, spike_sum,
    phase_means and phase_variances.
    """
    config = config or EstimatorConfig(variant="pavbem")
    return _vbem(y, dictionary, phase_model, prior, config, trace)


def pavbem_relaxed(y, dictionary, phase_model, sigma_x_sq, config=None,
                   trace=None):
    """Same loop with every p_i fixed at 1: the sparsity prior degenerates
    to a plain Gaussian and z_hat_i = cond_mean_i. Passing phase_model=None
    drops the Markov prior (flat phase), which is exactly the prVBEM
    baseline."""
    config = config or EstimatorConfig(variant="pavbem_relaxed")
    m = dictionary.columns.shape[1]
    prior = BernoulliGaussianPrior(sigma_x_sq=sigma_x_sq, occupancy=np.ones(m))
    return _vbem(y, dictionary, phase_model, prior, config, trace)


def prvbem_baseline(y, dictionary, sigma_x_sq, config=None, trace=None):
    """Non-informative-phase baseline: uniform phase prior (realized as a
    dropped chain prior, so q(theta_n) follows the pseudo-observations
    alone) and Gaussian amplitudes."""
    config = config or EstimatorConfig(variant="prvbem")
    return pavbem_relaxed(y, dictionary, None, sigma_x_sq, config, trace)


def beamforming(y, dictionary):
    """Matched filter z_hat = (1/N) D^H y. No phase handling, no iterations."""
    n = dictionary.n_sensors
    if y.shape[0] != n:
        raise ValueError("observation length does not match sensor count")
    z_hat = (dictionary.columns.conj().T @ y) / n
    m = z_hat.shape[0]
    return DoaEstimate(z_hat=z_hat, spike_probs=np.ones(m),
                       phase_means=np.zeros(n), iterations_used=0,
                       converged=True, final_noise_var=float("nan"))


def extract_support(estimate, k, angles=None):
    """Indices of the k largest |z_hat_i|, ties broken toward the lower
    index; optionally mapped onto the grid angles."""
    m = estimate.z_hat.shape[0]
    if not 1 <= k <= m:
        raise ValueError("k must satisfy 1 <= k <= number of atoms")
    ranked = np.lexsort((np.arange(m), -np.abs(estimate.z_hat)))
    idx = ranked[:k]
    if angles is None:
        return idx, None
    return idx, np.asarray(angles)[idx]


def _vbem(y, dictionary, phase_model, prior, config, trace=None):
    y = np.asarray(y, dtype=complex)
    n = dictionary.n_sensors
    m = dictionary.columns.shape[1]
    if y.shape[0] != n:
        raise ValueError("observation length does not match sensor count")
    if not np.all(np.isfinite(y)):
        raise ValueError("observation must be finite")
    if prior.occupancy.shape[0] != m:
        raise ValueError("occupancy length does not match atom count")

    power = np.vdot(y, y).real / n
    floor = 1e-8 * power
    tiny = np.finfo(float).tiny
    if config.initial_noise_var is not None:
        if config.initial_noise_var <= 0:
            raise ValueError("initial_noise_var must be positive")
        noise_var = config.initial_noise_var
    else:
        noise_var = max(0.01 * power, tiny)

    post = coef.initial_posterior(y, dictionary, prior)
    warm = config.relax_iterations > 0
    if warm:
        # the warm phase runs with occupancy 1, so the first phase update
        # sees the full beamforming energy rather than the p-scaled one
        post.spike_prob[:] = 1.0
    # the relaxed warm-up runs with every occupancy clamped to 1
    warm_prior = BernoulliGaussianPrior(sigma_x_sq=prior.sigma_x_sq,
                                        occupancy=np.ones(m))
    w = post.z_mean()

    phase_post = None
    converged = False
    iterations = 0
    for t in range(1, config.max_iterations + 1):
        iterations = t
        eta = ph.compute_eta(y, dictionary, w)
        pseudo = ph.pseudo_observations(eta, noise_var)
        if phase_model is None:
            phase_post = ph.noninformative_posterior(pseudo)
        else:
            phase_post = ph.smooth(pseudo, phase_model)
        y_bar = coef.phase_corrected_observation(y, phase_post)

        order = coef.sweep_order(w, config.order)
        post = coef.sweep_atoms(y_bar, post, dictionary,
                                warm_prior if warm else prior, noise_var,
                                order)
        w_new = post.z_mean()

        if config.estimate_noise:
            value = coef.estimate_noise_variance(y, y_bar, post, dictionary)
            noise_var = max(value, floor, tiny)

        delta = np.max(np.abs(w_new - w)) if m else 0.0
        w = w_new
        if trace is not None:
            trace(t, {"noise_var": noise_var, "delta": delta,
                      "spike_sum": float(np.sum(post.spike_prob)),
                      "phase_means": phase_post.means,
                      "phase_variances": phase_post.marginal_variances})
        if warm:
            if delta < config.convergence_tol or t >= config.relax_iterations:
                warm = False  # hand over to the sparse updates
        elif delta < config.convergence_tol:
            converged = True
            break

    return DoaEstimate(z_hat=w, spike_probs=post.spike_prob.copy(),
                       phase_means=phase_post.means,
                       iterations_used=iterations, converged=converged,
                       final_noise_var=noise_var)


def run_estimator(variant, y, dictionary, phase_model, prior, config,
                  trace=None):
    """Dispatch helper used by the harness and the CLI. trace is the
    per-iteration hook of pavbem; beamforming has no iterations and never
    calls it."""
    if variant == "beamforming":
        return beamforming(y, dictionary)
    if variant == "pavbem":
        return pavbem(y, dictionary, phase_model, prior, config, trace)
    if variant == "pavbem_relaxed":
        return pavbem_relaxed(y, dictionary, phase_model, prior.sigma_x_sq,
                              config, trace)
    if variant == "prvbem":
        return prvbem_baseline(y, dictionary, prior.sigma_x_sq, config, trace)
    raise ValueError("unknown variant %r" % (variant,))
