"""Print one digest of the VBEM estimates over the paper protocol.

    python tools/digest.py

Draws trials 0 and 1 of each of the 16 protocol cells (K in {2, 5} times
the eight default noise levels, ``trial_rng(1234, k_index, noise_index,
trial)``) and runs each VBEM variant on them, started from the cell's
sigma^2, as a sweep does. Prints one sha256 over every observation y and,
per run, ``z_hat``, ``spike_probs``, ``phase_means``, ``phase_variances``
and ``history``, then the total iteration count. ``draw_trial`` and
``run_estimator`` run on one BLAS thread, so the digest does not depend on
the BLAS thread count.

The package is imported from the ``src/`` next to this script, so copying
the script into another checkout digests that checkout: two checkouts
whose estimates agree bit for bit print the same line. It takes a few
seconds.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from phasedoa.estimators import VARIANTS, run_estimator  # noqa: E402
from phasedoa.harness import SweepConfig, draw_trial, trial_rng  # noqa: E402

TRIALS = 2
VBEM = tuple(v for v in VARIANTS if v != "beamforming")


def main():
    config = SweepConfig()
    digest = hashlib.sha256()
    iterations = 0
    for ki, k in enumerate(config.k_values):
        for ni, noise_var in enumerate(config.noise_grid):
            noise_var = float(noise_var)
            for t in range(TRIALS):
                rng = trial_rng(config.base_seed, ki, ni, t)
                d, model, prior, _, y = draw_trial(config, k, noise_var, rng)
                digest.update(y.tobytes())
                for variant in VBEM:
                    est = run_estimator(variant, y, d, model, prior,
                                        max_iterations=config.max_iterations,
                                        noise_var=noise_var)
                    for part in (est.z_hat, est.spike_probs, est.phase_means,
                                 est.phase_variances,
                                 np.array(est.history, dtype=float)):
                        digest.update(np.ascontiguousarray(part).tobytes())
                    iterations += est.iterations_used
    print("sha256 %s iterations %d" % (digest.hexdigest(), iterations))
    return 0


if __name__ == "__main__":
    sys.exit(main())
