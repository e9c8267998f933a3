"""Tests for config parsing and columnar file I/O."""

import dataclasses
import os
import stat

import numpy as np
import pytest

from phasedoa.config import (SCHEMA, ConfigError, coerce, defaults,
                             help_lines, parse_config)
from phasedoa.harness import SweepConfig
from phasedoa.io import (load_ground_truth, load_observation, read_dat,
                         save_ground_truth, save_observation, write_dat)


def test_defaults_cover_schema():
    values = defaults()
    assert set(values) == set(SCHEMA)
    assert values["n_sensors"] == 256
    assert values["grid_size"] == 50
    assert values["spacing_ratio"] == 4.0
    assert values["a"] == 0.8
    assert values["seed"] == 1234


def test_defaults_match_sweep_config():
    values = defaults()
    sweep = SweepConfig()
    for f in dataclasses.fields(SweepConfig):
        if f.name == "base_seed":  # the seed key
            continue
        assert f.name in SCHEMA
        assert values[f.name] == getattr(sweep, f.name), f.name
    assert values["seed"] == sweep.base_seed


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# bench setup\n"
        "n_sensors = 64\n"
        "noise_var = 1e-3   # trailing comment\n"
        "\n"
        "k = 2\n"
        "k = 3\n"  # later assignment wins
        "phase_noise = off\n"
        "algorithms = beamforming, pavbem\n")
    values = parse_config(str(path))
    assert values["n_sensors"] == 64
    assert values["noise_var"] == 1e-3
    assert values["k"] == 3
    assert values["phase_noise"] is False
    assert values["algorithms"] == ("beamforming", "pavbem")
    # untouched keys keep their defaults
    assert values["grid_size"] == 50


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_sensor = 64\n")
    with pytest.raises(ConfigError, match="n_sensor"):
        parse_config(str(path))


def test_parse_config_rejects_bad_syntax(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just a line\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(str(path))


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/run.cfg")


def test_coerce_types():
    assert coerce("n_sensors", "128") == 128
    assert coerce("phase_noise", "yes") is True
    assert coerce("initial_noise_var", "auto") is None
    assert coerce("initial_noise_var", "0.5") == 0.5
    assert coerce("k_values", "2,5") == (2, 5)
    with pytest.raises(ConfigError, match="n_sensors"):
        coerce("n_sensors", "many")
    with pytest.raises(ConfigError, match="unknown config key"):
        coerce("sensors", "5")


def test_help_lines_cover_every_key():
    text = "\n".join(help_lines())
    for key in SCHEMA:
        assert key in text


class TestObservationFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        path = str(tmp_path / "obs.txt")
        save_observation(path, y)
        loaded, theta = load_observation(path)
        np.testing.assert_array_equal(loaded, y)
        assert theta is None

    def test_round_trip_with_theta(self, tmp_path):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        theta = rng.standard_normal(16)
        path = str(tmp_path / "obs.txt")
        save_observation(path, y, theta)
        loaded, loaded_theta = load_observation(path)
        np.testing.assert_array_equal(loaded, y)
        np.testing.assert_array_equal(loaded_theta, theta)

    def test_theta_length_checked(self, tmp_path):
        with pytest.raises(ValueError):
            save_observation(str(tmp_path / "o.txt"),
                             np.ones(4, dtype=complex), np.zeros(3))

    def test_ground_truth_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        z = np.zeros(10, dtype=complex)
        z[[2, 7]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        path = str(tmp_path / "truth.txt")
        save_ground_truth(path, z)
        np.testing.assert_array_equal(load_ground_truth(path), z)

    def test_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="columns"):
            load_observation(str(path))


class TestDatFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        table = rng.standard_normal((5, 3))
        path = str(tmp_path / "table.dat")
        write_dat(table, path, ("sigma_sq", "a", "b"))
        np.testing.assert_array_equal(read_dat(path), table)

    def test_header_names_columns(self, tmp_path):
        path = str(tmp_path / "t.dat")
        write_dat(np.array([[1.0, 2.0]]), path, ("sigma_sq", "pavbem"))
        with open(path) as fh:
            assert fh.readline() == "# sigma_sq pavbem\n"

    def test_no_partial_files_left(self, tmp_path):
        path = str(tmp_path / "t.dat")
        write_dat(np.ones((2, 2)), path, ("x", "y"))
        save_observation(str(tmp_path / "obs.txt"), np.ones(3, dtype=complex),
                         np.zeros(3))
        assert sorted(os.listdir(tmp_path)) == ["obs.txt", "t.dat"]

    def test_mode_follows_umask(self, tmp_path):
        previous = os.umask(0o022)
        try:
            write_dat(np.ones((2, 2)), str(tmp_path / "t.dat"), ("x", "y"))
            save_observation(str(tmp_path / "obs.txt"),
                             np.ones(3, dtype=complex))
        finally:
            os.umask(previous)
        for name in ("t.dat", "obs.txt"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644

    def test_validation(self, tmp_path):
        path = str(tmp_path / "t.dat")
        with pytest.raises(ValueError):
            write_dat(np.empty((0, 2)), path, ("x", "y"))
        with pytest.raises(ValueError):
            write_dat(np.ones((2, 2)), path, ("x",))
