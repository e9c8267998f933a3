"""One benchmark workload in a fresh interpreter: set up, time, check.

Started by perfbench/run.py, which chooses the BLAS environment and the
number of set-ups. Prints JSON info lines (environment, iteration counts,
checksums) and, last, one JSON object with the measurements.

    python3 perfbench/workload.py --workload figure_cell --seed 1 \
        --seconds 30 --trace 0 [--setup-only]
"""

import time

T0 = time.perf_counter()  # set-up includes importing the program

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import phasedoa  # noqa: E402
from phasedoa import (cli, coefficients, estimators, harness, model,  # noqa: E402
                      phase)
from phasedoa import io as pio  # noqa: E402

from tracing import VARIANTS, Tracer, replace_everywhere  # noqa: E402

if ROOT / "src" not in Path(phasedoa.__file__).resolve().parents:
    raise SystemExit("phasedoa was imported from %s, not from %s"
                     % (phasedoa.__file__, ROOT / "src"))

MODULES = {"phase": phase, "coefficients": coefficients,
           "estimators": estimators, "model": model, "harness": harness,
           "io": pio, "cli": cli, "phasedoa": phasedoa}
VBEM = ("prvbem", "pavbem_relaxed", "pavbem")
FIGURE_TRIALS = 8      # trials per figure_cell round
ACCURACY_ROUNDS = 10   # sweep rounds that pavbem_corr is taken over
ESTIMATE_FILES = 24    # observation files of estimate_single ...
ROUND_FILES = 8        # ... of which one round estimates this many
ESTIMATE_K = 5
ESTIMATE_NOISE = 1e-2
TAIL = 90              # reported tail percentile ...
TAIL_SAMPLES = 10      # ... keeps at least this many samples beyond it
MIN_SAMPLES = int(np.ceil(TAIL_SAMPLES * 100 / (100 - TAIL)))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def cpu_seconds():
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


class TrialRecorder:
    """Wraps harness.run_trial to keep each trial's wall time and its
    TrialRecord (the program's per-estimator runtimes, iteration counts and
    correlations).

    Pool workers forked from this process append their entries (and, when
    tracing, their spans) to a spool file that the parent reads back.
    """

    def __init__(self, spool):
        self.spool = spool
        self.pid = os.getpid()
        self.entries = []
        self.tracer = None
        self._undo = None

    def install(self, tracer=None):
        self.tracer = tracer
        fn = harness.run_trial
        self._undo = replace_everywhere(MODULES.values(), fn, self._wrap(fn))

    def uninstall(self):
        self._undo()

    def _wrap(self, fn):
        def recorded(*args, **kwargs):
            start = time.perf_counter()
            rec = fn(*args, **kwargs)
            entry = (time.perf_counter() - start, rec)
            if os.getpid() == self.pid:
                self.entries.append(entry)
            else:
                spans = self.tracer.drain() if self.tracer else None
                with open(self.spool / ("%d.pkl" % os.getpid()), "ab") as fh:
                    pickle.dump((entry, spans), fh)
            return rec
        return recorded

    def collect(self):
        """Entries recorded since the last call, this process's and the
        workers'; workers' spans go to the tracer."""
        entries, self.entries = self.entries, []
        for path in sorted(self.spool.glob("*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        entry, spans = pickle.load(fh)
                    except EOFError:
                        break
                    entries.append(entry)
                    if spans is not None:
                        self.tracer.add(spans)
            path.unlink()
        return entries


class Workload:
    """A round is one piece of work, repeated until time is up. Outputs
    that a run produces twice must be byte-identical."""

    def __init__(self):
        self.rounds_done = 0
        self.checksums = {}
        self.errors = []

    def record_checksum(self, key, digest):
        first = self.checksums.setdefault(key, digest)
        if first != digest:
            self.errors.append("%s: output changed between runs" % key)

    def final_check(self):
        """Checks that need extra work after the measured rounds."""


class Sweep(Workload):
    """Round r is run_sweep on fresh draws (base seed seed*1000 + r)."""

    min_rounds = ACCURACY_ROUNDS

    def __init__(self, config, recorder):
        super().__init__()
        self.config = config
        self.recorder = recorder
        self.corr = []

    def round_config(self, r, **changes):
        return dataclasses.replace(
            self.config, base_seed=self.config.base_seed * 1000 + r,
            **changes)

    def warm_up(self):
        # a trial index outside the measured set
        harness.run_trial(self.round_config(0), 0, 0, self.config.n_trials)

    def run_round(self):
        r = self.rounds_done
        out = Path(self.config.output_dir) / ("r%d" % r)
        out.mkdir()
        start = time.perf_counter()
        result = harness.run_sweep(self.round_config(r, output_dir=str(out)))
        wall = time.perf_counter() - start
        self.rounds_done += 1
        entries = self.recorder.collect()
        n_trials = (len(self.config.k_values) * len(self.config.noise_grid)
                    * self.config.n_trials)
        if len(entries) != n_trials:
            raise RuntimeError(
                "recorded %d of %d trials; pool workers must be forked from "
                "the benchmark process" % (len(entries), n_trials))
        self.check_tables(result, "r%d/" % r)
        if r < ACCURACY_ROUNDS:
            self.corr.extend(rec.correlations["pavbem"] for _, rec in entries)
        failed = sum(int(f.sum()) for f in result.failed_counts.values())
        return {"units": n_trials, "wall": wall,
                "latency_ms": {v: [rec.runtimes[v] * 1e3 for _, rec in entries]
                               for v in ("pavbem", "prvbem")},
                "iterations": {v: [rec.iterations[v] for _, rec in entries]
                               for v in VBEM},
                "attempted": n_trials * len(self.config.algorithms),
                "failed": failed,
                "pool_overhead": wall - sum(d for d, _ in entries)
                / self.config.workers}

    def check_tables(self, result, tag):
        grid = np.asarray(self.config.noise_grid, dtype=float)
        for k, path in result.paths.items():
            table = result.tables[k]
            if not (np.all(np.isfinite(table))
                    and np.array_equal(table[:, 0], grid)
                    and np.all((table[:, 1:] >= 0) & (table[:, 1:] <= 1))):
                self.errors.append("%sk=%d: table entry not finite or outside "
                                   "[0, 1]" % (tag, k))
            self.record_checksum(tag + os.path.basename(path),
                                 sha256(Path(path).read_bytes()))
            os.unlink(path)

    @property
    def pavbem_corr(self):
        return float(np.median(self.corr))

    def final_check(self):
        """Round 0 again, in one process: it must write the same bytes
        (for workers > 1 this is the worker-count independence check)."""
        serial_dir = Path(self.config.output_dir) / "serial"
        serial_dir.mkdir()
        result = harness.run_sweep(self.round_config(
            0, workers=1, output_dir=str(serial_dir)))
        self.check_tables(result, "r0/")


class EstimateSingle(Workload):
    """Closed loop, one client: ``phasedoa estimate`` in-process, one
    observation per request, alternating paVBEM and prVBEM. Round r
    estimates ROUND_FILES of the files written at set-up, cycling."""

    min_rounds = ESTIMATE_FILES // ROUND_FILES

    def __init__(self, seed, workdir):
        super().__init__()
        self.files = []
        self.truths = []
        for i in range(ESTIMATE_FILES):
            out = workdir / "out" / str(i)
            code, _ = self.call(["simulate", "--output-dir", str(out),
                                 "--seed", str(seed * ESTIMATE_FILES + i),
                                 "--k", str(ESTIMATE_K),
                                 "--noise-var", repr(ESTIMATE_NOISE)])
            if code != 0:
                raise RuntimeError("simulate exited with %d" % code)
            self.files.append(str(out / "observation.txt"))
            self.truths.append(np.abs(pio.load_ground_truth(
                str(out / "ground_truth.txt"))))
        self.corr = {}

    @staticmethod
    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def estimate(self, path, variant):
        return self.call(["estimate", path, "--variant", variant,
                          "--k", str(ESTIMATE_K)])

    def warm_up(self):
        for variant in ("pavbem", "prvbem"):
            self.estimate(self.files[0], variant)

    def run_round(self):
        first = self.rounds_done * ROUND_FILES
        self.rounds_done += 1
        latencies = {"pavbem": [], "prvbem": []}
        iterations = {"pavbem": [], "prvbem": []}
        failed = 0
        start = time.perf_counter()
        for i in range(first, first + ROUND_FILES):
            i %= ESTIMATE_FILES
            for variant in ("pavbem", "prvbem"):
                t = time.perf_counter()
                code, out = self.estimate(self.files[i], variant)
                latencies[variant].append((time.perf_counter() - t) * 1e3)
                if code != 0:
                    failed += 1
                    continue
                self.record_checksum("obs%d/%s" % (i, variant),
                                     sha256(out.encode()))
                iterations[variant].append(self.check_output(i, variant, out))
        wall = time.perf_counter() - start
        n = 2 * ROUND_FILES
        return {"units": n, "wall": wall, "latency_ms": latencies,
                "iterations": iterations, "attempted": n, "failed": failed,
                "pool_overhead": 0.0}

    def check_output(self, i, variant, out):
        """Parse one estimate's stdout; returns its iteration count."""
        fields = dict(line.split(": ", 1) for line in out.splitlines()
                      if ": " in line and not line.startswith(" "))
        iterations = int(fields["iterations"].split()[0])
        z_hat = np.array([float(v) for v in fields["|z_hat|"].split()])
        truth = self.truths[i]
        if (fields["variant"] != variant or z_hat.shape != truth.shape
                or not np.all(np.isfinite(z_hat)) or np.any(z_hat < 0)):
            self.errors.append("obs%d/%s: malformed estimate" % (i, variant))
        else:
            self.corr[(i, variant)] = float(
                z_hat @ truth / (np.linalg.norm(z_hat) * np.linalg.norm(truth)))
        return iterations

    @property
    def pavbem_corr(self):
        return float(np.median([self.corr[(i, "pavbem")]
                                for i in range(ESTIMATE_FILES)]))


def make_workload(name, seed, workdir, recorder):
    # every file is written fresh: on ext4, truncating or renaming over a
    # file written moments ago waits for its data to reach the disk
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if name == "figure_cell":
        return Sweep(harness.SweepConfig(
            k_values=(5,), noise_grid=(1e-2,), n_trials=FIGURE_TRIALS,
            workers=1, base_seed=seed, output_dir=str(out)), recorder)
    if name == "protocol_sweep":
        return Sweep(harness.SweepConfig(
            n_trials=1, workers=2, base_seed=seed, output_dir=str(out)),
            recorder)
    if name == "estimate_single":
        return EstimateSingle(seed, workdir)
    raise SystemExit("unknown workload %r" % (name,))


def measure(work, seconds, min_samples=0, min_rounds=1):
    """Repeat rounds until ``seconds`` have passed, ``min_rounds`` rounds
    are done and every latency series has ``min_samples`` samples."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        cpu0 = cpu_seconds()
        rounds.append(work.run_round())
        rounds[-1]["cpu"] = cpu_seconds() - cpu0
        enough = len(rounds) >= min_rounds and all(
            len(pooled(rounds, "latency_ms", v)) >= min_samples
            for v in rounds[0]["latency_ms"])
        if time.perf_counter() - t0 >= seconds and enough:
            break
    return {"rounds": rounds,
            "units": sum(r["units"] for r in rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "rate": statistics.median(r["units"] / r["wall"] for r in rounds),
            "cpu": statistics.median(r["cpu"] / r["units"] for r in rounds)}


def pooled(rounds, key, variant):
    return [x for r in rounds for x in r[key][variant]]


def end_to_end(work, seg):
    p50, p90 = {}, {}
    for v in ("pavbem", "prvbem"):
        p50[v], p90[v] = np.percentile(pooled(seg["rounds"], "latency_ms", v),
                                       [50, TAIL])
    return {
        "trials_per_s": (seg["rate"], "1/s"),
        "cpu_s_per_trial": (seg["cpu"], "s"),
        "pavbem_ms_p50": (p50["pavbem"], "ms"),
        "pavbem_ms_p90": (p90["pavbem"], "ms"),
        "prvbem_ms_p50": (p50["prvbem"], "ms"),
        "prvbem_ms_p90": (p90["prvbem"], "ms"),
        "pavbem_corr": (work.pavbem_corr, "corr"),
        "ok_frac": (1 - seg["failed"] / seg["attempted"], "frac"),
    }


def per_layer(plain, traced, layers, outcomes):
    units = traced["units"]

    def s(*names):
        return sum(layers[n][1] for n in names) / units

    smooth = layers["phase.smooth"]
    sweep = layers["coefficients.sweep_atoms"]
    estimator_names = [n for n in layers if n.startswith("estimators.")]
    metrics = {
        "phase.smooth.calls": (smooth[0] / units, "calls/trial"),
        "phase.smooth.self_s": (smooth[2] / units, "s/trial"),
        "phase.smooth.us_per_call": (1e6 * smooth[2] / max(smooth[0], 1),
                                     "us"),
        "coefficients.sweep_atoms.calls": (sweep[0] / units, "calls/trial"),
        "coefficients.sweep_atoms.s": (sweep[1] / units, "s/trial"),
        "coefficients.sweep_atoms.us_per_call":
            (1e6 * sweep[1] / max(sweep[0], 1), "us"),
        "estimators.self_s": (sum(layers[n][2] for n in estimator_names)
                              / units, "s/trial"),
        "model.build_dictionary.calls":
            (layers["model.build_dictionary"][0] / units, "calls/trial"),
        "model.synthesis_s": (s("model.sample_ground_truth",
                                "model.sample_phase_trajectory",
                                "model.synthesize_observation"), "s/trial"),
        "harness.pool_overhead_s": (sum(r["pool_overhead"]
                                        for r in traced["rounds"]) / units,
                                    "s/trial"),
        "cli.self_ms": (1e3 * layers["cli.main"][2] / units, "ms/trial"),
        "tracing.untraced_trials_per_s": (plain["rate"], "1/s"),
        "tracing.traced_trials_per_s": (traced["rate"], "1/s"),
        "tracing.overhead_frac": (1 - traced["rate"] / plain["rate"], "frac"),
    }
    for n in ("phase.bessel_ratio", "phase.noninformative_posterior",
              "phase.compute_eta", "phase.pseudo_observations",
              "coefficients.estimate_noise_variance",
              "coefficients.phase_corrected_observation",
              "coefficients.sweep_order", "coefficients.initial_posterior",
              "model.build_dictionary", "harness.run_trial",
              "harness.write_dat", "io.load_observation"):
        metrics[n + ".s"] = (s(n), "s/trial")
    vbem = [o for o in outcomes if VARIANTS[o[0]] in VBEM]
    for v in VBEM:
        its = [o[1] for o in vbem if VARIANTS[o[0]] == v]
        metrics["estimators.%s.iterations_mean" % v] = (
            float(np.mean(its)) if its else 0.0, "iterations")
    metrics["estimators.converged_frac"] = (
        float(np.mean([o[2] for o in vbem])) if vbem else 0.0, "frac")
    return metrics


def iteration_report(rounds, max_iterations, errors):
    """Per-variant iteration counts; a count outside [1, cap] is an error."""
    report = {}
    for v in rounds[0]["iterations"]:
        its = pooled(rounds, "iterations", v)
        if not its:
            continue
        if min(its) < 1 or max(its) > max_iterations:
            errors.append("%s: iteration count outside [1, %d]"
                          % (v, max_iterations))
        report[v] = {"mean": float(np.mean(its)), "min": int(min(its)),
                     "max": int(max(its)),
                     "capped_frac": float(np.mean(np.array(its)
                                                  == max_iterations))}
    return report


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_against_earlier_runs(key, checksums, errors):
    """Runs of the same sources, seed and BLAS setting must write the same
    outputs wherever they overlap; the store keeps the union."""
    store_path = ROOT / ".bench_out" / "checksums.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    earlier = store.get(key, {})
    differ = sorted(k for k in checksums.keys() & earlier.keys()
                    if checksums[k] != earlier[k])
    if differ:
        errors.append("%s differ from an earlier run (%s)"
                      % (", ".join(differ), key))
        return
    store[key] = {**earlier, **checksums}
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)


def blas_setting():
    return os.environ.get("OPENBLAS_NUM_THREADS", "default")


def environment():
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": blas_setting()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = ROOT / ".bench_out" / args.workload
    spool = workdir / "spool"
    shutil.rmtree(spool, ignore_errors=True)
    spool.mkdir(parents=True)
    recorder = TrialRecorder(spool)
    work = make_workload(args.workload, args.seed, workdir, recorder)
    work.warm_up()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(json.dumps({"environment": environment()}))

    recorder.install()
    if args.trace:
        plain = measure(work, args.seconds / 2)
        recorder.uninstall()
        tracer = Tracer()
        untrace = tracer.install(MODULES)
        recorder.install(tracer)
        traced = measure(work, args.seconds / 2)
        recorder.uninstall()
        untrace()
        layers, outcomes = tracer.summary()
        tracer.save(workdir / "spans.npz")
        metrics = per_layer(plain, traced, layers, outcomes)
        segments = [plain, traced]
    else:
        seg = measure(work, args.seconds, MIN_SAMPLES, work.min_rounds)
        recorder.uninstall()
        metrics = end_to_end(work, seg)
        metrics["setup_s"] = (setup_s, "s")
        segments = [seg]
    work.final_check()

    rounds = [r for seg in segments for r in seg["rounds"]]
    print(json.dumps({"iterations": iteration_report(
        rounds, harness.SweepConfig.max_iterations, work.errors)}))
    key = "%s seed=%d blas_threads=%s src=%s" % (
        args.workload, args.seed, blas_setting(), source_digest()[:16])
    check_against_earlier_runs(key, work.checksums, work.errors)
    print(json.dumps({"checksums": {"blas_threads": blas_setting(),
                                    "outputs": work.checksums}}))
    for err in work.errors:
        print("check failed: " + err, file=sys.stderr)
    print(json.dumps({
        "correct": not work.errors,
        "attempted": sum(seg["attempted"] for seg in segments),
        "failed": sum(seg["failed"] for seg in segments),
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()}}))
    return 0 if not work.errors else 1


if __name__ == "__main__":
    sys.exit(main())
