"""Variational Bayes DOA estimation of sparse plane waves under
multiplicative Markov phase noise, with baselines and a seeded Monte Carlo
sweep harness."""

from .coefficients import (CoefficientPosterior, estimate_noise_variance,
                           phase_corrected_observation, sweep_atoms,
                           sweep_order)
from .estimators import (DoaEstimate, beamforming, extract_support,
                         run_estimator)
from .harness import (SweepConfig, SweepResult, TrialRecord,
                      normalized_correlation, run_sweep, run_trial, trial_rng)
from .io import read_dat, write_dat
from .model import (BernoulliGaussianPrior, GroundTruth, PhaseMarkovModel,
                    SteeringDictionary, build_dictionary, default_angle_grid,
                    sample_ground_truth, sample_phase_trajectory,
                    synthesize_observation)
from .phase import (PhasePosterior, PseudoObservations, bessel_ratio,
                    circular_moment, compute_eta, noninformative_posterior,
                    pseudo_observations, smooth)

__version__ = "0.1.0"

__all__ = [
    "BernoulliGaussianPrior", "CoefficientPosterior", "DoaEstimate",
    "GroundTruth", "PhaseMarkovModel", "PhasePosterior", "PseudoObservations",
    "SteeringDictionary", "SweepConfig", "SweepResult", "TrialRecord",
    "beamforming", "bessel_ratio", "build_dictionary", "circular_moment",
    "compute_eta", "default_angle_grid", "estimate_noise_variance",
    "extract_support", "noninformative_posterior", "normalized_correlation",
    "phase_corrected_observation", "pseudo_observations", "read_dat",
    "run_estimator", "run_sweep", "run_trial", "sample_ground_truth",
    "sample_phase_trajectory", "trial_rng", "smooth", "sweep_atoms",
    "sweep_order", "synthesize_observation", "write_dat",
]
