"""Tests for the Monte Carlo sweep harness: seeding, aggregation, files."""

import os

import numpy as np
import pytest

import phasedoa.harness as harness
from phasedoa.harness import (SweepConfig, normalized_correlation, run_sweep,
                              run_trial, trial_rng)
from phasedoa.io import read_dat


def _tiny_config(tmp_path, **kw):
    base = dict(n_sensors=16, grid_size=4, k_values=(1,), noise_grid=(0.1,),
                n_trials=2, algorithms=("beamforming", "prvbem"),
                max_iterations=10, output_dir=str(tmp_path))
    base.update(kw)
    return SweepConfig(**base)


class TestNormalizedCorrelation:
    def test_identical(self):
        z = np.array([1.0 + 1.0j, 2.0])
        assert normalized_correlation(z, z) == 1.0

    def test_scale_and_phase_invariant(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        scaled = 3.7 * np.exp(1j * 1.1) * z
        np.testing.assert_allclose(normalized_correlation(z, scaled), 1.0)

    def test_orthogonal(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        assert normalized_correlation(a, b) == 0.0

    def test_zero_vector_convention(self):
        z = np.array([1.0 + 0.0j])
        assert normalized_correlation(z, np.zeros(1, dtype=complex)) == 0.0
        assert normalized_correlation(np.zeros(1, dtype=complex), z) == 0.0

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            w = z * (1 + 1e-16) + 1e-18
            assert normalized_correlation(z, w) <= 1.0


def test_trial_rng_is_pure():
    a = trial_rng(1234, 0, 1, 2).standard_normal(8)
    b = trial_rng(1234, 0, 1, 2).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = trial_rng(1234, 0, 1, 3).standard_normal(8)
    assert np.any(a != c)
    d = trial_rng(4321, 0, 1, 2).standard_normal(8)
    assert np.any(a != d)


def test_run_trial_deterministic(tmp_path):
    config = _tiny_config(tmp_path)
    a = run_trial(config, 0, 0, 0)
    b = run_trial(config, 0, 0, 0)
    assert a.correlations == b.correlations
    assert not np.isnan(list(a.correlations.values())).any()
    for v in a.correlations.values():
        assert 0.0 <= v <= 1.0


def test_run_trial_marks_failures(tmp_path, monkeypatch):
    real = harness.run_estimator

    def flaky(variant, *args, **kw):
        if variant == "prvbem":
            raise RuntimeError("boom")
        return real(variant, *args, **kw)

    monkeypatch.setattr(harness, "run_estimator", flaky)
    config = _tiny_config(tmp_path)
    rec = run_trial(config, 0, 0, 0)
    assert np.isnan(rec.correlations["prvbem"])
    assert not np.isnan(rec.correlations["beamforming"])


def test_failed_trials_excluded_from_means(tmp_path, monkeypatch):
    real = harness.run_estimator
    calls = {"n": 0}

    def flaky(variant, *args, **kw):
        if variant == "prvbem":
            calls["n"] += 1
            if calls["n"] == 1:  # fail exactly the first prvbem trial
                raise RuntimeError("boom")
        return real(variant, *args, **kw)

    monkeypatch.setattr(harness, "run_estimator", flaky)
    config = _tiny_config(tmp_path)
    result = run_sweep(config)
    assert result.failed_counts[1][0, 1] == 1
    assert np.isfinite(result.tables[1][0, 2])  # mean over the surviving trial


def test_run_sweep_tiny_grid(tmp_path):
    config = _tiny_config(tmp_path, k_values=(1, 2), noise_grid=(0.05, 0.5))
    result = run_sweep(config)
    for k in (1, 2):
        table = result.tables[k]
        assert table.shape == (2, 3)
        np.testing.assert_allclose(table[:, 0], [0.05, 0.5])
        assert np.all((table[:, 1:] >= 0) & (table[:, 1:] <= 1))
        assert os.path.exists(result.paths[k])
        np.testing.assert_array_equal(read_dat(result.paths[k]), table)


def test_parallel_matches_serial_bytes(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial_dir.mkdir()
    parallel_dir.mkdir()
    serial = _tiny_config(serial_dir, n_trials=3, workers=1)
    parallel = _tiny_config(parallel_dir, n_trials=3, workers=2)
    a = run_sweep(serial)
    b = run_sweep(parallel)
    with open(a.paths[1], "rb") as fh:
        serial_bytes = fh.read()
    with open(b.paths[1], "rb") as fh:
        parallel_bytes = fh.read()
    assert serial_bytes == parallel_bytes


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(n_trials=0)
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            SweepConfig(noise_grid=(0.1, bad))
    with pytest.raises(ValueError):
        SweepConfig(noise_grid=())
    with pytest.raises(ValueError):
        SweepConfig(algorithms=("beamforming", "music"))
    with pytest.raises(ValueError, match="k exceeds grid_size"):
        SweepConfig(k_values=(2, 51))
    with pytest.raises(ValueError, match="n_sensors must be >= 1"):
        SweepConfig(n_sensors=0)
    for k_values in ((2, 5), (0,)):
        with pytest.raises(ValueError, match="grid_size must be >= 1"):
            SweepConfig(grid_size=0, k_values=k_values)
    with pytest.raises(ValueError, match="k_values must be nonempty"):
        SweepConfig(k_values=())
    with pytest.raises(ValueError, match="k_values must be nonempty"):
        SweepConfig(k_values=(2, -1))
    with pytest.raises(ValueError, match="algorithms must be nonempty"):
        SweepConfig(algorithms=())
    with pytest.raises(ValueError, match="workers must be >= 1"):
        SweepConfig(workers=0)
    with pytest.raises(ValueError, match="max_iterations"):
        SweepConfig(max_iterations=0)
