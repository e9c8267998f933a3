"""Variational Bayes DOA estimation of sparse plane waves under
multiplicative Markov phase noise, with baselines and a seeded Monte Carlo
sweep harness.

The package namespace holds the names of the README's library example and
the sweep entry points; every other name is imported from its module.
"""

from .estimators import VARIANTS, DoaEstimate, extract_support, run_estimator
from .harness import SweepConfig, run_sweep
from .model import (BernoulliGaussianPrior, PhaseMarkovModel,
                    build_dictionary, default_angle_grid, sample_ground_truth,
                    sample_phase_trajectory, synthesize_observation)

__version__ = "0.1.0"

__all__ = [
    "BernoulliGaussianPrior", "DoaEstimate", "PhaseMarkovModel",
    "SweepConfig", "VARIANTS", "build_dictionary", "default_angle_grid",
    "extract_support", "run_estimator", "run_sweep", "sample_ground_truth",
    "sample_phase_trajectory", "synthesize_observation",
]
