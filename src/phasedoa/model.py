"""Generative model: steering dictionary, sparse sources, Markov phase noise.

The observation is y = P D z + w where P = diag(exp(j*theta)) carries the
phase noise, D is the steering dictionary of a uniform linear array and z is
a sparse complex amplitude vector over the candidate-angle grid.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class SteeringDictionary:
    """Complex steering matrix over a candidate-angle grid.

    columns[n, i] = exp(j * 2pi * (delta/lambda) * (n+1) * sin(angles[i])),
    sensor index running 1..N as in the array convention d_i ending at
    exp(j * 2pi * (delta/lambda) * N * sin(phi)).
    """

    n_sensors: int
    angles: np.ndarray
    columns: np.ndarray

    @cached_property
    def gram(self):
        """Row i is D^H d_i, column i of the Gram matrix D^H D, stored
        contiguously for the atom sweep. Built on first use."""
        return self.columns.T @ self.columns.conj()


@dataclass
class PhaseMarkovModel:
    """AR(1) phase chain: theta_1 ~ N(0, sigma_1_sq),
    theta_n = a * theta_{n-1} + N(0, sigma_theta_sq)."""

    a: float
    sigma_theta_sq: float
    sigma_1_sq: float

    def __post_init__(self):
        if not (0 < self.sigma_theta_sq < np.inf
                and 0 < self.sigma_1_sq < np.inf):
            raise ValueError("phase model variances must lie in (0, inf)")
        if not 0 <= self.a < np.inf:
            raise ValueError("AR coefficient a must lie in [0, inf)")


@dataclass
class BernoulliGaussianPrior:
    """Spike-and-slab prior on the source amplitudes. Every atom shares
    the slab variance and the occupancy."""

    sigma_x_sq: float
    occupancy: float  # p = P(s_i = 1) in [0, 1], the same for every atom

    def __post_init__(self):
        if not 0 < self.sigma_x_sq < np.inf:
            raise ValueError("sigma_x_sq must lie in (0, inf)")
        if np.ndim(self.occupancy) or not 0 <= self.occupancy <= 1:
            raise ValueError("occupancy must be one probability in [0, 1]")
        self.occupancy = float(self.occupancy)


@dataclass
class GroundTruth:
    z: np.ndarray
    support: np.ndarray
    theta: np.ndarray | None = None


def build_dictionary(n_sensors, spacing_ratio, angles):
    """Steering dictionary for a uniform linear array.

    Every column has unit-modulus entries and squared norm d^H d = N.
    """
    if n_sensors < 1:
        raise ValueError("n_sensors must be >= 1")
    if not np.isfinite(spacing_ratio):
        raise ValueError("spacing_ratio must be finite")
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.size == 0:
        raise ValueError("angle grid must be nonempty")
    if np.any(np.abs(angles) > np.pi / 2 + 1e-12):
        raise ValueError("angles must lie in [-pi/2, pi/2]")
    sensors = np.arange(1, n_sensors + 1)
    columns = np.exp(2j * np.pi * spacing_ratio * np.outer(sensors, np.sin(angles)))
    return SteeringDictionary(int(n_sensors), angles, columns)


def default_angle_grid(m):
    """Grid phi_i = -pi/2 + i*pi/m for i = 1..m, covering (-pi/2, pi/2]."""
    if m < 1:
        raise ValueError("grid size must be >= 1")
    return -np.pi / 2 + np.arange(1, m + 1) * (np.pi / m)


def sample_phase_trajectory(model, n, rng):
    """Draw theta_1..theta_n from the AR(1) chain. Phases are not wrapped;
    they only ever enter the model through exp(j*theta). ValueError if the
    chain overflows, which an explosive a (> 1) does once a^n passes the
    float range."""
    if n < 1:
        raise ValueError("trajectory length must be >= 1")
    theta = np.empty(n)
    theta[0] = np.sqrt(model.sigma_1_sq) * rng.standard_normal()
    step = np.sqrt(model.sigma_theta_sq)
    with np.errstate(over="ignore"):
        for i in range(1, n):
            theta[i] = model.a * theta[i - 1] + step * rng.standard_normal()
    if not np.all(np.isfinite(theta)):
        raise ValueError("phase chain overflows: AR coefficient a=%g is too "
                         "large for %d sensors" % (model.a, n))
    return theta


def sample_ground_truth(prior, m, k, rng):
    """Draw a k-sparse amplitude vector over m atoms: support uniform
    without replacement, amplitudes circular complex Gaussian with variance
    sigma_x_sq."""
    if not 0 <= k <= m:
        raise ValueError("k must satisfy 0 <= k <= number of atoms")
    support = np.sort(rng.choice(m, size=k, replace=False))
    z = np.zeros(m, dtype=complex)
    scale = np.sqrt(prior.sigma_x_sq / 2)
    z[support] = scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return GroundTruth(z=z, support=support)


def synthesize_observation(dictionary, truth, noise_var, rng):
    """y_n = exp(j*theta_n) * (D z)_n + w_n, w_n circular complex Gaussian
    with total variance noise_var (variance noise_var/2 per component)."""
    if not 0 <= noise_var < np.inf:
        raise ValueError("noise variance must lie in [0, inf)")
    if truth.z.shape[0] != dictionary.columns.shape[1]:
        raise ValueError("z length does not match dictionary atom count")
    if truth.theta is None or truth.theta.shape[0] != dictionary.n_sensors:
        raise ValueError("theta length does not match sensor count")
    clean = np.exp(1j * truth.theta) * (dictionary.columns @ truth.z)
    n = dictionary.n_sensors
    scale = np.sqrt(noise_var / 2)
    noise = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return clean + noise
