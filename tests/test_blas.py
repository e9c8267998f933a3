"""Tests for the one-BLAS-thread scope around the program's products."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from phasedoa import blas, coefficients
from phasedoa.estimators import VARIANTS, run_estimator
from phasedoa.harness import SweepConfig, draw_trial, trial_rng

SRC = Path(__file__).resolve().parents[1] / "src"
# the variables OpenBLAS reads for its thread count
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# two protocol-size trials (K=2 and K=5, sigma^2=1e-2), every variant;
# prints the sha256 of y and of every z_hat
DIGESTS = """
import hashlib
from phasedoa.estimators import VARIANTS, run_estimator
from phasedoa.harness import SweepConfig, draw_trial, trial_rng
config = SweepConfig()
for ki, k in enumerate((2, 5)):
    d, model, prior, _, y = draw_trial(config, k, 1e-2, trial_rng(7, ki, 0, 0))
    print(k, "y", hashlib.sha256(y.tobytes()).hexdigest())
    for variant in VARIANTS:
        est = run_estimator(variant, y, d, model, prior,
                            max_iterations=config.max_iterations,
                            noise_var=1e-2)
        print(k, variant, hashlib.sha256(est.z_hat.tobytes()).hexdigest())
"""


def _digests(threads):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", DIGESTS], env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()


def test_outputs_do_not_depend_on_blas_threads():
    # the variable is read when numpy loads, so each setting gets its own
    # interpreter
    default = _digests(None)
    assert len(default) == 2 * (1 + len(VARIANTS))
    assert _digests("1") == default
    assert _digests("2") == default


def _problem():
    config = SweepConfig(n_sensors=32, grid_size=8)
    d, model, prior, _, y = draw_trial(config, 2, 1e-2, trial_rng(3, 0, 0, 0))
    return d, model, prior, y


def _setters():
    setters = blas._setters()
    if not setters:
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local loaded")
    return setters


@pytest.mark.parametrize("variant, nan_sample, error", [
    ("pavbem", False, None),
    ("music", False, "unknown variant"),
    ("pavbem", True, "observation must be finite"),
])
def test_caller_setting_restored(monkeypatch, variant, nan_sample, error):
    setters = _setters()
    d, model, prior, y = _problem()
    if nan_sample:
        y = y.copy()
        y[3] = np.nan
    inside = []
    sweep_atoms = coefficients.sweep_atoms

    def probe(*args):
        # setting 1 again returns the value in force during the run
        inside.append([setter(1) for setter in setters])
        return sweep_atoms(*args)

    monkeypatch.setattr(coefficients, "sweep_atoms", probe)
    caller = [setter(2) for setter in setters]
    try:
        if error is None:
            run_estimator(variant, y, d, model, prior)
        else:
            with pytest.raises(ValueError, match=error):
                run_estimator(variant, y, d, model, prior)
    finally:
        after = [setter(value) for setter, value in zip(setters, caller)]
    assert after == [2] * len(setters)
    if error is None:
        assert inside and all(v == [1] * len(setters) for v in inside)


def test_caller_setting_restored_after_overlapping_threads():
    # the first thread in saves the caller's value, the last one out
    # restores it, whichever order they leave in
    setters = _setters()
    caller = [setter(2) for setter in setters]
    entered, release = threading.Event(), threading.Event()

    def first():
        with blas.one_blas_thread():
            entered.set()
            release.wait(10)

    worker = threading.Thread(target=first)
    worker.start()
    try:
        entered.wait(10)
        with blas.one_blas_thread():
            release.set()
            worker.join(10)
            inside = [setter(1) for setter in setters]
    finally:
        release.set()
        worker.join(10)
        after = [setter(value) for setter, value in zip(setters, caller)]
    assert inside == [1] * len(setters)
    assert after == [2] * len(setters)


def test_no_openblas_still_estimates(monkeypatch):
    monkeypatch.setattr(blas, "_setters", lambda: ())
    d, model, prior, y = _problem()
    for variant in VARIANTS:
        est = run_estimator(variant, y, d, model, prior)
        assert np.all(np.isfinite(est.z_hat))
