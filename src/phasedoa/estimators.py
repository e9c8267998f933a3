"""Front-end estimators: paVBEM, its Gaussian relaxation, a prVBEM-style
baseline with a flat phase prior, and conventional beamforming.

All three VBEM variants share one loop. Per outer iteration: (a) update
q(theta) from the current fitted signal D<z> (compute_eta, smooth), (b)
form the phase-corrected ybar and sweep every atom, (c) re-estimate
the noise variance (the M-step). The loop stops once an iteration
changes the fitted signal by little relative to its own size, a common
phase turn not counted. The variants differ in two switches (_VBEM): the
relaxed variant clamps the occupancy to 1; the prVBEM baseline
additionally drops the Markov phase prior.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import coefficients as coef
from . import phase as ph
from .blas import one_blas_thread
from .model import BernoulliGaussianPrior

# every estimator, in the column order of the sweep tables
VARIANTS = ("beamforming", "prvbem", "pavbem_relaxed", "pavbem")
# VBEM variant -> (Markov phase prior kept, Bernoulli-Gaussian occupancy used)
_VBEM = {"prvbem": (False, False), "pavbem_relaxed": (True, False),
         "pavbem": (True, True)}
MAX_ITERATIONS = 200  # outer iteration cap, run_estimator's default
CONVERGENCE_TOL = 1e-4  # phase-aligned max|D<z> change| / max|D<z>| per
                        # outer iteration; over 100x below the relative
                        # noise amplitude sqrt(sigma^2/power) of the
                        # quietest protocol cell (about 0.02)
RELAX_ITERATIONS = 25   # occupancy clamped to 1 for this many leading
                        # iterations (homotopy warm start)


@dataclass
class DoaEstimate:
    z_hat: np.ndarray
    spike_probs: np.ndarray
    phase_means: np.ndarray  # the final q(theta); beamforming: zeros
    phase_variances: np.ndarray
    converged: bool
    history: list  # one (noise_var, spike_sum, delta) per outer iteration

    @property
    def iterations_used(self):
        return len(self.history)

    @property
    def final_noise_var(self):
        return self.history[-1][0] if self.history else math.nan


def beamforming(y, dictionary):
    """Matched filter z_hat = (1/N) D^H y. No phase handling, no iterations."""
    y = _observation(y, dictionary)
    n = dictionary.n_sensors
    z_hat = (dictionary.columns.conj().T @ y) / n
    m = z_hat.shape[0]
    return DoaEstimate(z_hat=z_hat, spike_probs=np.ones(m),
                       phase_means=np.zeros(n), phase_variances=np.zeros(n),
                       converged=True, history=[])


def _observation(y, dictionary):
    """y as a complex array; ValueError unless one finite sample per sensor."""
    y = np.asarray(y, dtype=complex)
    if y.shape[0] != dictionary.n_sensors:
        raise ValueError("dimension mismatch: observation has %d samples, "
                         "the array %d sensors"
                         % (y.shape[0], dictionary.n_sensors))
    if not np.all(np.isfinite(y)):
        raise ValueError("observation must be finite")
    return y


def extract_support(estimate, k):
    """Indices of the k largest |z_hat_i|, ties broken toward the lower
    index."""
    if not 1 <= k <= estimate.z_hat.shape[0]:
        raise ValueError("k must satisfy 1 <= k <= number of atoms")
    return np.argsort(-np.abs(estimate.z_hat), kind="stable")[:k]


def _vbem(y, dictionary, phase_model, prior, sparse, max_iterations,
          noise_var):
    y = _observation(y, dictionary)
    n = dictionary.n_sensors
    power = np.vdot(y, y).real / n
    floor = 1e-8 * power
    tiny = np.finfo(float).tiny
    if noise_var is None:
        noise_var = max(0.01 * power, tiny)
    elif not 0 < noise_var < math.inf:
        raise ValueError("noise_var must be positive")

    # the occupancy clamped to 1: the whole run of a variant without the
    # occupancy, else the warm-up, so that the first phase update sees the
    # full beamforming energy rather than the p-scaled one
    clamped = BernoulliGaussianPrior(prior.sigma_x_sq, 1.0)
    post = coef.initial_posterior(y, dictionary, clamped)
    warm = True
    w = post.z_mean()
    u = dictionary.columns @ w  # the fitted signal D<z>

    history = []
    converged = False
    for t in range(1, max_iterations + 1):
        eta = ph.compute_eta(y, u)
        pseudo = ph.pseudo_observations(eta, noise_var)
        if phase_model is None:
            phase_post = ph.noninformative_posterior(pseudo)
        else:
            phase_post = ph.smooth(pseudo, phase_model)
        y_bar = coef.phase_corrected_observation(y, phase_post)

        post = coef.sweep_atoms(y_bar, post, dictionary,
                                clamped if warm or not sparse else prior,
                                noise_var, u)
        w = post.z_mean()
        u_new = dictionary.columns @ w
        value = coef.estimate_noise_variance(y, y_bar, post, u_new)
        noise_var = max(value, floor, tiny)

        delta = _relative_change(u_new, u)
        u = u_new
        history.append((noise_var, float(np.sum(post.spike_prob)), delta))
        if warm:
            if delta < CONVERGENCE_TOL or t >= RELAX_ITERATIONS:
                warm = False  # hand over to the sparse updates
        elif delta < CONVERGENCE_TOL:
            converged = True
            break

    return DoaEstimate(z_hat=w, spike_probs=post.spike_prob.copy(),
                       phase_means=phase_post.means,
                       phase_variances=phase_post.marginal_variances,
                       converged=converged, history=history)


def _relative_change(new, old):
    """max|new - e^{j phi} old| / max|new| with phi = arg(old^H new): the
    change of the fitted signal relative to its size, after the common
    phase turn that best aligns old with new. The likelihood is unchanged
    by theta -> theta + phi, z -> z e^{-j phi}, so that turn is not
    counted as change. A small value says only that this one iteration
    moved the fit little: a slow run can still be creeping. It ignores
    the data's units, and mass moving between aliased atoms, which leaves
    D<z> unchanged. No turn when old^H new = 0. A fit that falls to zero
    has not changed only if it was zero before."""
    inner = np.vdot(old, new)
    if inner:
        old = old * (inner / abs(inner))
    change = float(np.max(np.abs(new - old)))
    size = float(np.max(np.abs(new)))
    if size:
        return change / size
    return math.inf if change else 0.0


@one_blas_thread()
def run_estimator(variant, y, dictionary, phase_model, prior,
                  max_iterations=MAX_ITERATIONS, noise_var=None):
    """Run the estimator ``variant`` (one of VARIANTS) on the observation y.

    - pavbem: the full phase-aware VBEM with the Bernoulli-Gaussian prior.
    - pavbem_relaxed: the same loop with the occupancy clamped to 1, so
      the prior is a plain Gaussian and z_hat_i = cond_mean_i.
    - prvbem: the relaxed loop with a flat phase prior (the Markov prior is
      dropped, so q(theta_n) follows the pseudo-observations alone);
      phase_model is not used. phase_model=None drops the Markov prior of
      the other variants too.
    - beamforming: the matched filter; y and dictionary alone are used.

    max_iterations (>= 1) caps the outer iterations of a VBEM variant.
    noise_var is the starting sigma^2; None starts from 0.01 * mean |y_n|^2.
    The estimate's history holds one (noise_var, spike_sum, delta) per
    outer iteration: the sigma^2 after the M-step, the sum of the
    occupancies q(s_i = 1), and the iteration's change of the fitted
    signal relative to its size, after aligning the common phase,
    max|D<z>_new - e^{j phi} D<z>_old| / max|D<z>_new| with
    phi = arg(D<z>_old^H D<z>_new).
    iterations_used is its length and final_noise_var its last sigma^2.
    The first RELAX_ITERATIONS iterations, or fewer if delta falls below
    CONVERGENCE_TOL first, clamp the occupancy to 1 (the warm-up); the
    run stops once delta falls below CONVERGENCE_TOL after it.
    So a cap at or below RELAX_ITERATIONS never uses the occupancy prior,
    unless delta falls below CONVERGENCE_TOL before the cap.

    Every product runs on one BLAS thread (blas.one_blas_thread), so the
    estimate does not depend on the BLAS thread count.
    """
    if variant == "beamforming":
        return beamforming(y, dictionary)
    if variant not in _VBEM:
        raise ValueError("unknown variant %r" % (variant,))
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    chain, sparse = _VBEM[variant]
    return _vbem(y, dictionary, phase_model if chain else None, prior, sparse,
                 max_iterations, noise_var)
