"""End-to-end tests of the command line interface (exit codes, files)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasedoa.cli import main
from phasedoa.config import SCHEMA
from phasedoa.harness import SweepConfig, draw_trial, trial_rng
from phasedoa.io import (load_ground_truth, load_observation,
                         save_observation)

SMALL = ["--set", "n_sensors=32", "--set", "grid_size=8"]
SRC = Path(__file__).resolve().parents[1] / "src"


def _simulate(tmp_path, *extra):
    args = ["simulate", "--output-dir", str(tmp_path)] + SMALL + list(extra)
    assert main(args) == 0
    return str(tmp_path / "observation.txt"), str(tmp_path / "ground_truth.txt")


def test_simulate_is_deterministic(tmp_path, capsys):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    obs_a, _ = _simulate(a_dir, "--seed", "99")
    obs_b, _ = _simulate(b_dir, "--seed", "99")
    with open(obs_a) as fh:
        first = fh.read()
    with open(obs_b) as fh:
        second = fh.read()
    assert first == second
    out = capsys.readouterr().out
    assert "SeedSequence(99" in out  # the child seed is reported


def test_simulate_seed_changes_output(tmp_path):
    obs_a, _ = _simulate(tmp_path / "a", "--seed", "1")
    obs_b, _ = _simulate(tmp_path / "b", "--seed", "2")
    ya, _ = load_observation(obs_a)
    yb, _ = load_observation(obs_b)
    assert np.any(ya != yb)


def test_simulate_writes_both_files(tmp_path):
    obs, truth = _simulate(tmp_path, "--k", "3")
    y, theta = load_observation(obs)
    z = load_ground_truth(truth)
    assert y.shape == (32,)
    assert theta.shape == (32,)
    assert z.shape == (8,)
    assert np.sum(z != 0) == 3


def test_simulate_replays_harness_cell(tmp_path):
    obs, truth = _simulate(tmp_path, "--seed", "5", "--k", "3",
                           "--noise-var", "0.05")
    config = SweepConfig(n_sensors=32, grid_size=8, k_values=(3,),
                         noise_grid=(0.05,), base_seed=5)
    _, _, _, expected, y = draw_trial(config, 3, 0.05, trial_rng(5, 0, 0, 0))
    loaded, theta = load_observation(obs)
    np.testing.assert_array_equal(loaded, y)
    np.testing.assert_array_equal(theta, expected.theta)
    np.testing.assert_array_equal(load_ground_truth(truth), expected.z)


def test_simulate_k_too_large_is_usage_error(tmp_path, capsys):
    args = ["simulate", "--output-dir", str(tmp_path)] + SMALL + ["--k", "9"]
    assert main(args) == 2
    assert "k exceeds grid_size" in capsys.readouterr().err


def test_bad_set_assignment_is_usage_error(tmp_path, capsys):
    assert main(["simulate", "--output-dir", str(tmp_path),
                 "--set", "grid_size"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_settings_do_not_carry_over_between_calls(tmp_path, capsys):
    # the parser is built once per process and serves every call
    args = ["simulate", "--output-dir", str(tmp_path / "a")] + SMALL
    assert main(args + ["--set", "n_trials=0"]) == 2
    assert "n_trials must be >= 1" in capsys.readouterr().err
    _simulate(tmp_path / "b")


def test_unknown_config_key_named(tmp_path, capsys):
    assert main(["simulate", "--output-dir", str(tmp_path),
                 "--set", "grid_sizes=9"]) == 2
    assert "grid_sizes" in capsys.readouterr().err


def test_estimate_beamforming_deterministic(tmp_path, capsys):
    obs, _ = _simulate(tmp_path)
    capsys.readouterr()  # drop the simulate chatter
    reports = []
    for _ in range(2):
        assert main(["estimate", obs, "--variant", "beamforming",
                     "--k", "2"] + SMALL) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "variant: beamforming" in reports[0]
    assert "top-2 atoms" in reports[0]


def test_estimate_recovers_planted_angle(tmp_path, capsys):
    obs, truth = _simulate(tmp_path, "--set", "n_sensors=64",
                           "--set", "grid_size=16",
                           "--set", "spacing_ratio=1.5",
                           "--set", "phase_noise=off",
                           "--set", "noise_var=1e-6", "--k", "1")
    z = load_ground_truth(truth)
    planted = int(np.argmax(np.abs(z)))
    assert main(["estimate", obs, "--variant", "pavbem", "--k", "1",
                 "--set", "n_sensors=64", "--set", "grid_size=16",
                 "--set", "spacing_ratio=1.5", "--set", "k=1"]) == 0
    out = capsys.readouterr().out
    match = re.search(r"^\s+(\d+)\s+[+-]", out, re.MULTILINE)
    assert match is not None
    assert int(match.group(1)) == planted


def test_estimate_loads_no_scipy(tmp_path):
    # a fresh interpreter: import the command line, run one estimate, then
    # list the scipy modules loaded on the way; the process pool's module
    # is not loaded either
    obs, _ = _simulate(tmp_path)
    code = ("import sys\n"
            "from phasedoa.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code, "estimate", obs,
                          "--k", "2"] + SMALL, env=env, capture_output=True,
                         text=True, check=True).stdout
    assert "iterations:" in out
    assert out.splitlines()[-1] == "[]"


def test_estimate_missing_file(tmp_path, capsys):
    assert main(["estimate", str(tmp_path / "nope.txt")] + SMALL) == 1


def test_estimate_dimension_mismatch(tmp_path, capsys):
    obs, _ = _simulate(tmp_path)
    # default config expects 256 sensors, the file holds 32
    assert main(["estimate", obs]) == 1
    assert "dimension mismatch" in capsys.readouterr().err


def test_estimate_unknown_variant(tmp_path, capsys):
    obs, _ = _simulate(tmp_path)
    assert main(["estimate", obs, "--variant", "music"] + SMALL) == 2
    assert "music" in capsys.readouterr().err


def test_estimate_nonfinite_observation(tmp_path, capsys):
    obs, _ = _simulate(tmp_path)
    y, theta = load_observation(obs)
    y[5] = complex(np.nan, 0.0)
    save_observation(obs, y, theta)
    for variant in ("pavbem", "prvbem", "pavbem_relaxed", "beamforming"):
        assert main(["estimate", obs, "--variant", variant] + SMALL) == 1
        assert ("error: observation must be finite"
                in capsys.readouterr().err)


def test_estimate_writes_diagnostics(tmp_path):
    obs, _ = _simulate(tmp_path)
    # a cap within the warm-up (RELAX_ITERATIONS) keeps every occupancy
    # clamped to 1; a longer run reaches the sparse updates
    for cap, sparse in ((5, False), (40, True)):
        diag = tmp_path / ("diag%d.log" % cap)
        assert main(["estimate", obs, "--variant", "pavbem", "--diagnostics",
                     str(diag), "--set", "max_iterations=%d" % cap]
                    + SMALL) == 0
        text = diag.read_text()
        assert text.startswith("iter 1 sigma_sq ")
        # the iterations, then one block of the final phase posterior
        lines = text.splitlines()
        assert lines.count("# m_theta Sigma_theta") == 1
        head = lines.index("# m_theta Sigma_theta")
        assert len(lines) == head + 1 + 32  # n_sensors=32
        assert all(line.startswith("iter ") for line in lines[:head])
        last = lines[head - 1].split()
        assert last[4] == "spike_sum"
        assert (float(last[5]) < 8) == sparse  # grid_size=8


def test_beamforming_writes_no_diagnostics(tmp_path):
    obs, _ = _simulate(tmp_path)
    assert main(["estimate", obs, "--variant", "beamforming", "--diagnostics",
                 str(tmp_path / "diag.log")] + SMALL) == 0
    assert not (tmp_path / "diag.log").exists()


def test_rejected_estimate_writes_no_diagnostics(tmp_path, capsys):
    obs, _ = _simulate(tmp_path)
    diag = ["--diagnostics", str(tmp_path / "diag.log")]
    # default config expects 256 sensors, the file holds 32
    assert main(["estimate", obs] + diag) == 1
    assert "dimension mismatch" in capsys.readouterr().err
    y, theta = load_observation(obs)
    y[5] = complex(np.nan, 0.0)
    save_observation(obs, y, theta)
    assert main(["estimate", obs] + SMALL + diag) == 1
    assert "observation must be finite" in capsys.readouterr().err
    assert not (tmp_path / "diag.log").exists()


def test_sweep_tiny_grid(tmp_path, capsys):
    args = (["sweep", "--output-dir", str(tmp_path)] + SMALL
            + ["--set", "k_values=1,2", "--set", "noise_grid=0.1,0.5",
               "--trials", "2", "--variant", "beamforming"])
    assert main(args) == 0
    out = capsys.readouterr().out.splitlines()
    paths = [tmp_path / ("corr_vs_noise_k%d.dat" % k) for k in (1, 2)]
    tables = [np.loadtxt(str(path), ndmin=2) for path in paths]
    for table in tables:
        assert table.shape == (2, 2)
        np.testing.assert_allclose(table[:, 0], [0.1, 0.5])
    # one line per cell, k-major, with the table's means; then the files
    assert out == (["k=%d sigma2=%s beamforming=%.4f" % (k, sigma2, mean)
                    for k, table in zip((1, 2), tables)
                    for sigma2, mean in zip(("0.1", "0.5"), table[:, 1])]
                   + ["wrote %s" % path for path in paths])


def test_sweep_emits_one_file_per_k(tmp_path):
    args = (["sweep", "--output-dir", str(tmp_path)] + SMALL
            + ["--set", "k_values=1,2", "--set", "noise_grid=0.2",
               "--trials", "1", "--variant", "beamforming"])
    assert main(args) == 0
    assert (tmp_path / "corr_vs_noise_k1.dat").exists()
    assert (tmp_path / "corr_vs_noise_k2.dat").exists()


@pytest.mark.parametrize("command, setting, reason", [
    ("sweep", "max_iterations=0", "max_iterations must be >= 1"),
    ("sweep", "n_trials=0", "n_trials must be >= 1"),
    ("estimate", "max_iterations=0", "max_iterations must be >= 1"),
    ("sweep", "k_values=", "k_values must be nonempty and nonnegative"),
    ("sweep", "k_values=-1", "k_values must be nonempty and nonnegative"),
    ("sweep", "algorithms=", "algorithms must be nonempty"),
    ("sweep", "--workers 0", "workers must be >= 1"),
    ("sweep", "--k x", "bad value for k_values"),
    ("sweep", "--noise-var x", "bad value for noise_grid"),
    ("sweep", "noise_grid=nan", "noise_grid must be nonempty and positive"),
    ("estimate", "--noise-var x", "bad value for initial_noise_var"),
    ("simulate", "n_sensors=0", "n_sensors must be >= 1"),
    ("sweep", "n_sensors=0", "n_sensors must be >= 1"),
    ("sweep", "grid_size=0", "grid_size must be >= 1"),
    ("estimate", "grid_size=0", "grid_size must be >= 1"),
])
def test_invalid_setting_is_usage_error(tmp_path, capsys, command, setting,
                                        reason):
    if command == "estimate":
        obs, _ = _simulate(tmp_path)
        args = ["estimate", obs]
    else:
        args = [command, "--output-dir", str(tmp_path)]
    # a setting is a config assignment or a flag with its value
    extra = setting.split() if setting.startswith("--") else ["--set", setting]
    assert main(args + SMALL + extra) == 2
    assert "config error: " + reason in capsys.readouterr().err


@pytest.mark.parametrize("command, setting", [
    ("estimate", "--order index"),
    ("sweep", "--order index"),
    ("estimate", "--seed 3"),
    ("estimate", "--output-dir x"),
    ("sweep", "--set order=index"),
    ("estimate", "--set estimate_noise=0"),
    ("estimate", "--set relax_iterations=0"),
    ("sweep", "--set convergence_tol=1e-3"),
])
def test_removed_or_unread_setting_is_usage_error(tmp_path, capsys, command,
                                                  setting):
    if command == "estimate":
        obs, _ = _simulate(tmp_path)
        args = ["estimate", obs]
    else:
        args = (["sweep", "--output-dir", str(tmp_path), "--trials", "1",
                 "--variant", "beamforming", "--set", "k_values=1",
                 "--set", "noise_grid=0.1"])
    capsys.readouterr()
    try:
        code = main(args + SMALL + setting.split())
    except SystemExit as exc:  # argparse rejects an unknown flag
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    if setting.startswith("--set"):
        assert "config error: unknown config key" in err
    else:
        assert "unrecognized arguments: " + setting in err


@pytest.mark.parametrize("command, flag, setting", [
    ("estimate", ["--noise-var", "0.02"], "initial_noise_var=0.02"),
    ("sweep", ["--k", "2"], "k_values=2"),
    ("sweep", ["--noise-var", "0.05"], "noise_grid=0.05"),
    ("sweep", ["--variant", "prvbem"], "algorithms=prvbem"),
])
def test_flag_sets_its_config_key(tmp_path, capsys, monkeypatch, command,
                                  flag, setting):
    if command == "estimate":
        obs, _ = _simulate(tmp_path / "obs")
        args = ["estimate", obs, "--k", "2"] + SMALL
    else:
        args = (["sweep", "--output-dir", "."] + SMALL
                + ["--set", "k_values=1,2", "--set", "noise_grid=0.1,0.5",
                   "--trials", "1"])
    runs = []
    for name, extra in (("flag", flag), ("set", ["--set", setting])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        capsys.readouterr()
        assert main(args + extra) == 0
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1]


def test_sweep_unknown_algorithm(tmp_path, capsys):
    args = (["sweep", "--output-dir", str(tmp_path)] + SMALL
            + ["--set", "algorithms=music", "--trials", "1"])
    assert main(args) == 2
    assert "music" in capsys.readouterr().err


def test_help_lists_every_config_key(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in SCHEMA:
        assert key in out
