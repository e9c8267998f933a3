"""Benchmark of phasedoa: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload figure_cell --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh interpreter (perfbench/workload.py) whose
environment fixes the BLAS thread count before numpy loads. Set-up is
timed in that interpreter and repeated in a few set-up-only interpreters;
setup_s is the median. JSON info lines (environment, set-up samples,
iteration counts, output checksums) come first; the last line holds the
end-to-end metrics, or with --trace 1 the per-layer metrics. The exit code
is 0 only when the outputs pass every check. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BLAS threads per process for each workload; None keeps the library default
# (README.md says why each workload has its setting)
WORKLOADS = {"figure_cell": None, "protocol_sweep": 1, "estimate_single": 1}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 4
DEADLINE_S = 170


def child_env(threads):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if threads is not None:
        env.update({k: str(threads) for k in BLAS_VARS})
    return env


def run_child(argv, env, deadline):
    """Run workload.py to completion; returns its stdout lines. Its whole
    process group (pool workers included) is killed at the deadline."""
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def stop(signum, frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("stopped by signal %d" % signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("workload did not finish within %d s" % DEADLINE_S)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    lines = out.splitlines()
    if proc.returncode != 0 and not (lines and lines[-1].startswith("{")):
        sys.exit("workload exited with %d" % proc.returncode)
    return proc.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    env = child_env(WORKLOADS[args.workload])
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            _, lines = run_child(argv + ["--setup-only"], env, deadline)
            setups.append(json.loads(lines[-1])["setup_s"])
    code, lines = run_child(argv, env, deadline)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        print(json.dumps({"setup_samples_s": setups}))
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
