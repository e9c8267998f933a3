"""Record the observable behaviour of the phasedoa command line.

    python tools/golden.py OUT.json

Runs a fixed list of ``phasedoa`` commands in-process, each in its own
directory under one temporary directory, and writes one JSON entry per
command: the sha256 of its stdout, its last stderr line, its exit code and
the sha256 of every file it wrote. An exception that escapes ``cli.main``
is recorded as the command line would show it: exit code 1 and the
traceback's last line. The package is imported from the
``src/`` next to this script, so copying the script into another checkout
records that checkout. Two records are compared with ``diff`` (the JSON is
written one entry per line, in run order); a refactoring that should keep
behaviour shows no lines but the ones it means to change.

The whole list takes well under a minute.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width

from phasedoa import cli  # noqa: E402

VARIANTS = ("beamforming", "prvbem", "pavbem_relaxed", "pavbem")
OBS = "../simulate-1/observation.txt"  # 256 sensors, k=5, sigma^2=0.01
SMALL = ["--set", "n_sensors=32", "--set", "grid_size=8"]
SMALL_OBS = "../simulate-small/observation.txt"
NOISY_OBS = "../simulate-noisy/observation.txt"  # as OBS, sigma^2=0.139
SWEEP = (["sweep"] + SMALL + ["--set", "k_values=1,2",
                              "--set", "noise_grid=0.1,0.5", "--trials", "2"])


def _calls():
    calls = [("simulate-%d" % seed, ["simulate", "--output-dir", ".",
                                     "--seed", str(seed)])
             for seed in (1, 7, 42)]
    calls.append(("simulate-small", ["simulate", "--output-dir", ".",
                                     "--seed", "3", "--k", "2",
                                     "--noise-var", "0.05"] + SMALL))
    calls.append(("simulate-noisy", ["simulate", "--output-dir", ".",
                                     "--seed", "1", "--noise-var", "0.139"]))
    for v in VARIANTS:
        est = ["estimate", OBS, "--variant", v, "--k", "5"]
        calls += [("estimate-%s" % v, est),
                  ("estimate-%s-noise-var" % v, est + ["--noise-var", "0.02"]),
                  ("estimate-%s-set-initial" % v,
                   est + ["--set", "initial_noise_var=0.02"])]
    for v in ("pavbem", "prvbem"):
        calls.append(("estimate-%s-diagnostics" % v,
                      ["estimate", SMALL_OBS, "--variant", v, "--k", "2",
                       "--diagnostics", "diag.log",
                       "--set", "max_iterations=5"] + SMALL))
    # past RELAX_ITERATIONS (25), so the record covers the sparse updates
    calls.append(("estimate-pavbem-diagnostics-sparse",
                  ["estimate", SMALL_OBS, "--variant", "pavbem", "--k", "2",
                   "--diagnostics", "diag.log",
                   "--set", "max_iterations=40"] + SMALL))
    # the default cap: the run converges before it (at iteration 40)
    calls.append(("estimate-pavbem-diagnostics-converged",
                  ["estimate", SMALL_OBS, "--variant", "pavbem", "--k", "2",
                   "--diagnostics", "diag.log"] + SMALL))
    # paVBEM on NOISY_OBS: it runs to the cap under an unaligned delta and
    # stops at iteration 74 under the aligned one
    calls.append(("estimate-pavbem-aligned-stop",
                  ["estimate", NOISY_OBS, "--variant", "pavbem", "--k", "5",
                   "--noise-var", "0.139", "--diagnostics", "diag.log"]))
    # no iterations, so no file
    calls.append(("estimate-beamforming-diagnostics",
                  ["estimate", SMALL_OBS, "--variant", "beamforming",
                   "--k", "2", "--diagnostics", "diag.log"] + SMALL))
    calls.append(("sweep", SWEEP))
    for name, flag, setting in (("k", ["--k", "2"], "k_values=2"),
                                ("noise-var", ["--noise-var", "0.05"],
                                 "noise_grid=0.05"),
                                ("variant", ["--variant", "prvbem"],
                                 "algorithms=prvbem")):
        calls += [("sweep-flag-%s" % name, SWEEP + flag),
                  ("sweep-set-%s" % name, SWEEP + ["--set", setting])]
    calls += [("sweep-flag-k-list", SWEEP + ["--k", "1,2"]),
              # the pool path: its files must equal those of "sweep"
              ("sweep-workers-2", SWEEP + ["--workers", "2"]),
              # occupancy k/M = 0 and 1 through the sparse updates
              ("sweep-k-edges",
               ["sweep"] + SMALL + ["--set", "k_values=0,8",
                                    "--set", "noise_grid=0.1",
                                    "--trials", "1"])]
    for command in ("", "simulate", "estimate", "sweep"):
        calls.append(("help-%s" % (command or "top"),
                      ([command] if command else []) + ["--help"]))
    small_est = ["estimate", SMALL_OBS, "--k", "2"] + SMALL
    calls += [
        ("reject-sweep-empty-k", SWEEP + ["--set", "k_values="]),
        ("reject-sweep-negative-k", SWEEP + ["--k", "-2"]),
        ("reject-sweep-set-negative-k", SWEEP + ["--set", "k_values=-1"]),
        ("reject-sweep-bad-k", SWEEP + ["--k", "x"]),
        ("reject-sweep-bad-noise-var", SWEEP + ["--noise-var", "x"]),
        ("reject-sweep-empty-noise-grid", SWEEP + ["--set", "noise_grid="]),
        ("reject-sweep-nan-noise-grid", SWEEP + ["--set", "noise_grid=nan"]),
        ("reject-sweep-noise-grid-spec",
         SWEEP + ["--set", "noise_grid_spec=log:1e-3:1:4"]),
        ("reject-sweep-unknown-algorithm", SWEEP + ["--variant", "music"]),
        ("reject-sweep-empty-algorithms", SWEEP + ["--set", "algorithms="]),
        ("reject-sweep-workers-0", SWEEP + ["--workers", "0"]),
        ("reject-sweep-max-iterations", SWEEP + ["--set", "max_iterations=0"]),
        ("reject-sweep-zero-grid-size", SWEEP + ["--set", "grid_size=0"]),
        ("reject-simulate-k-too-large",
         ["simulate", "--output-dir", ".", "--k", "9"] + SMALL),
        ("reject-simulate-negative-k",
         ["simulate", "--output-dir", ".", "--k", "-2"] + SMALL),
        ("reject-simulate-nan-noise-var",
         ["simulate", "--output-dir", ".", "--noise-var", "nan"] + SMALL),
        ("reject-simulate-zero-sensors",
         ["simulate", "--output-dir", "."] + SMALL
         + ["--set", "n_sensors=0"]),
        # 20^256 passes the float range: the phase chain overflows
        ("reject-simulate-overflowing-a",
         ["simulate", "--output-dir", ".", "--set", "a=20"]),
        ("reject-estimate-dimension-mismatch", ["estimate", SMALL_OBS]),
        ("reject-estimate-dimension-mismatch-diagnostics",
         ["estimate", SMALL_OBS, "--diagnostics", "diag.log"]),
        ("reject-estimate-bad-noise-var", small_est + ["--noise-var", "x"]),
        ("reject-estimate-negative-noise-var",
         small_est + ["--noise-var", "-1"]),
        ("reject-estimate-nan-sigma-x-sq",
         small_est + ["--set", "sigma_x_sq=nan"]),
        # a*a overflows in the phase smoother
        ("reject-estimate-overflowing-a", small_est + ["--set", "a=1e300"]),
        ("reject-estimate-unknown-variant",
         small_est + ["--variant", "music"]),
        ("reject-estimate-missing-file", ["estimate", "missing.txt"] + SMALL),
        ("reject-unknown-key", small_est + ["--set", "grid_sizes=9"]),
        ("reject-bad-assignment", small_est + ["--set", "grid_size"]),
        ("reject-estimate-order", small_est + ["--order", "index"]),
        ("reject-sweep-order", SWEEP + ["--order", "index"]),
        ("reject-estimate-seed", small_est + ["--seed", "3"]),
        ("reject-estimate-output-dir", small_est + ["--output-dir", "."]),
        ("reject-set-order", small_est + ["--set", "order=index"]),
        ("reject-set-estimate-noise",
         small_est + ["--set", "estimate_noise=0"]),
        ("reject-set-relax-iterations",
         small_est + ["--set", "relax_iterations=0"]),
        ("reject-set-convergence-tol",
         small_est + ["--set", "convergence_tol=1e-3"]),
        ("ignored-estimate-set-noise-var",
         small_est + ["--set", "noise_var=0.02"]),
        ("ignored-sweep-set-k", SWEEP + ["--set", "k=1"]),
    ]
    return calls


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
        except Exception as exc:
            print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
            code = 1
    lines = err.getvalue().splitlines()
    return {"stdout": _sha(out.getvalue().encode()),
            "stderr": lines[-1] if lines else "", "exit": code}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/golden.py OUT.json", file=sys.stderr)
        return 2
    out_path = Path(argv[0]).resolve()
    here = os.getcwd()
    record = {}
    with tempfile.TemporaryDirectory() as root:
        try:
            for name, call in _calls():
                cwd = Path(root) / name
                cwd.mkdir()
                os.chdir(cwd)
                entry = _run(call)
                entry["files"] = {str(p.relative_to(cwd)): _sha(p.read_bytes())
                                  for p in sorted(cwd.rglob("*"))
                                  if p.is_file()}
                record[name] = entry
        finally:
            os.chdir(here)
    with open(out_path, "w") as fh:
        fh.write("{\n" + ",\n".join(
            "%s: %s" % (json.dumps(name), json.dumps(entry, sort_keys=True))
            for name, entry in record.items()) + "\n}\n")
    print("wrote %d entries to %s" % (len(record), out_path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
