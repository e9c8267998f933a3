"""Seeded Monte Carlo sweeps over noise variance and source count.

Every trial derives its generator from SeedSequence(base_seed, spawn_key=
(k_index, noise_index, trial_index)), a pure function of the indices, so a
sweep gives byte-identical output no matter how many workers run it.
"""

import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .blas import one_blas_thread
from .estimators import MAX_ITERATIONS, VARIANTS, run_estimator
from .io import write_dat
from .model import (BernoulliGaussianPrior, PhaseMarkovModel,
                    build_dictionary, default_angle_grid,
                    sample_ground_truth, sample_phase_trajectory,
                    synthesize_observation)

logger = logging.getLogger(__name__)


def default_noise_grid():
    # 8 log-spaced points over [1e-3, 1]; the figure transition lives here
    return tuple(np.logspace(-3, 0, 8))


@dataclass
class SweepConfig:
    """A sweep's problem, grid, estimator and execution settings."""

    max_iterations: int = MAX_ITERATIONS
    n_sensors: int = 256
    grid_size: int = 50
    spacing_ratio: float = 4.0
    a: float = 0.8
    sigma_theta_sq: float = 1.0
    sigma_1_sq: float = 1e6
    sigma_x_sq: float = 1.0
    phase_noise: bool = True
    k_values: tuple = (2, 5)
    noise_grid: tuple = field(default_factory=default_noise_grid)
    n_trials: int = 50
    algorithms: tuple = VARIANTS
    base_seed: int = 1234
    workers: int = 1
    output_dir: str = "."

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        grid = np.asarray(self.noise_grid, dtype=float)
        if grid.size == 0 or not np.all((grid > 0) & (grid < np.inf)):
            raise ValueError("noise_grid must be nonempty and positive")
        if not self.k_values or min(self.k_values) < 0:
            raise ValueError("k_values must be nonempty and nonnegative")
        if not self.algorithms:
            raise ValueError("algorithms must be nonempty")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.n_sensors < 1:
            raise ValueError("n_sensors must be >= 1")
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        if any(k > self.grid_size for k in self.k_values):
            raise ValueError("k exceeds grid_size")
        for alg in self.algorithms:
            if alg not in VARIANTS:
                raise ValueError("unknown algorithm %r" % (alg,))


@dataclass
class TrialRecord:
    k: int
    noise_var: float
    trial_index: int
    seed_key: tuple
    correlations: dict  # algorithm -> value, NaN where the run failed
    iterations: dict
    runtimes: dict


@dataclass
class SweepResult:
    tables: dict        # k -> ndarray, column 0 sigma^2, then one per algorithm
    failed_counts: dict  # k -> ndarray (n_noise, n_algorithms)
    paths: dict         # k -> written .dat path


def normalized_correlation(z, z_hat):
    """|z^H z_hat| / (||z|| ||z_hat||); 0 by convention if either is zero."""
    nz = np.linalg.norm(z)
    nh = np.linalg.norm(z_hat)
    if nz == 0 or nh == 0:
        logger.warning("normalized_correlation of a zero vector, returning 0")
        return 0.0
    # Cauchy-Schwarz bounds this by 1; rounding can overshoot by ~1e-16
    return min(np.abs(np.vdot(z, z_hat)) / (nz * nh), 1.0)


def trial_rng(base_seed, k_index, noise_index, trial_index):
    seq = np.random.SeedSequence(base_seed,
                                 spawn_key=(k_index, noise_index, trial_index))
    return np.random.default_rng(seq)


def make_problem(config, k):
    """The dictionary, phase model and k-sparse prior of ``config``."""
    dictionary = build_dictionary(config.n_sensors, config.spacing_ratio,
                                  default_angle_grid(config.grid_size))
    model = PhaseMarkovModel(a=config.a, sigma_theta_sq=config.sigma_theta_sq,
                             sigma_1_sq=config.sigma_1_sq)
    prior = BernoulliGaussianPrior(sigma_x_sq=config.sigma_x_sq,
                                   occupancy=k / config.grid_size)
    return dictionary, model, prior


@one_blas_thread()
def draw_trial(config, k, noise_var, rng):
    """make_problem plus one draw from it: (dictionary, model, prior,
    truth, y). The synthesis D z runs on one BLAS thread."""
    dictionary, model, prior = make_problem(config, k)
    truth = sample_ground_truth(prior, config.grid_size, k, rng)
    if config.phase_noise:
        truth.theta = sample_phase_trajectory(model, config.n_sensors, rng)
    else:
        truth.theta = np.zeros(config.n_sensors)
    y = synthesize_observation(dictionary, truth, noise_var, rng)
    return dictionary, model, prior, truth, y


def run_trial(config, k_index, noise_index, trial_index):
    """Synthesize one draw and score every selected algorithm on it.

    An estimator exception or a non-finite output records a NaN
    correlation for that algorithm instead of aborting the sweep.
    """
    k = config.k_values[k_index]
    noise_var = float(np.asarray(config.noise_grid, dtype=float)[noise_index])
    rng = trial_rng(config.base_seed, k_index, noise_index, trial_index)
    dictionary, model, prior, truth, y = draw_trial(config, k, noise_var, rng)

    correlations, iterations, runtimes = {}, {}, {}
    for alg in config.algorithms:
        start = time.perf_counter()
        try:
            est = run_estimator(alg, y, dictionary, model, prior,
                                max_iterations=config.max_iterations,
                                noise_var=noise_var)
            if not np.all(np.isfinite(est.z_hat)):
                raise FloatingPointError("non-finite estimate")
            correlations[alg] = normalized_correlation(truth.z, est.z_hat)
            iterations[alg] = est.iterations_used
        except Exception:
            logger.exception("trial (k=%d, sigma2=%g, t=%d) failed for %s",
                             k, noise_var, trial_index, alg)
            correlations[alg] = float("nan")
            iterations[alg] = 0
        runtimes[alg] = time.perf_counter() - start
    return TrialRecord(k=k, noise_var=noise_var, trial_index=trial_index,
                       seed_key=(config.base_seed, k_index, noise_index,
                                 trial_index),
                       correlations=correlations, iterations=iterations,
                       runtimes=runtimes)


def _trial_task(args):
    return run_trial(*args)


def run_sweep(config):
    """Run every (k, sigma^2, trial) cell and write one table per k.

    The pool returns trials in task order whatever the execution order
    was, so the means (and the files) do not depend on the worker count.
    """
    tasks = [(config, ki, ni, t)
             for ki in range(len(config.k_values))
             for ni in range(len(config.noise_grid))
             for t in range(config.n_trials)]
    if config.workers > 1:
        # imported here, so that simulate and estimate, which never start a
        # pool, do not pay its 10-20 ms import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(_trial_task, tasks, chunksize=1))
    else:
        records = [run_trial(*args) for args in tasks]

    grid = np.asarray(config.noise_grid, dtype=float)
    # records come back in task order (k, sigma^2, trial), a failed run as
    # a NaN; corr[alg, k, sigma^2] holds one cell's trials contiguously, so
    # each sum is the pairwise sum np.mean takes over that cell alone
    corr = np.array([[rec.correlations[alg] for rec in records]
                     for alg in config.algorithms])
    corr = corr.reshape(len(corr), -1, grid.size, config.n_trials)
    failed = np.isnan(corr)
    with np.errstate(invalid="ignore"):  # 0/0 where every run failed
        means = np.where(failed, 0.0, corr).sum(-1) / (~failed).sum(-1)
    tables, failed_counts, paths = {}, {}, {}
    for ki, k in enumerate(config.k_values):
        table = np.column_stack([grid, means[:, ki].T])
        tables[k] = table
        failed_counts[k] = failed[:, ki].sum(-1).T
        path = os.path.join(config.output_dir, "corr_vs_noise_k%d.dat" % k)
        write_dat(table, path, ("sigma_sq",) + tuple(config.algorithms))
        paths[k] = path
    return SweepResult(tables=tables, failed_counts=failed_counts, paths=paths)
