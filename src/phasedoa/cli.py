"""Command line front end: simulate data, estimate one observation, or run
a full sweep. One binary, flat config files, flags win over file values.

One registry (SCHEMA) drives parsing, defaults, type coercion and the help
listing of the config keys; unknown keys are rejected by name.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage error.
"""

import argparse
import contextlib
import dataclasses
import functools
import os
import sys

import numpy as np

from . import io as pio
from .estimators import beamforming, extract_support, run_estimator
from .harness import (SweepConfig, draw_trial, make_problem, run_sweep,
                      trial_rng)


class ConfigError(Exception):
    """Bad configuration key or value; main maps this to exit code 2."""


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % (text,))


def _parse_noise_var(text):
    if text.strip().lower() in ("auto", "none"):
        return None
    value = float(text)
    if not 0 < value < np.inf:
        raise ValueError("must be auto, none or in (0, inf), got %r" % text)
    return value


def _list_of(parse):
    """A parser of comma separated values, each read by ``parse``."""
    return lambda text: tuple(parse(v) for v in text.split(",") if v.strip())


# key -> (parser, help)
SCHEMA = {
    "n_sensors": (int, "array size N"),
    "grid_size": (int, "number of candidate angles M"),
    "spacing_ratio": (float, "sensor spacing over wavelength"),
    "a": (float, "AR coefficient of the phase chain"),
    "sigma_theta_sq": (float, "phase innovation variance"),
    "sigma_1_sq": (float, "initial phase variance"),
    "sigma_x_sq": (float, "slab variance of source amplitudes"),
    "k": (int, "number of planted sources"),
    "noise_var": (float, "additive noise variance sigma^2"),
    "seed": (int, "base seed for all randomness"),
    "phase_noise": (_parse_bool, "synthesize with phase noise"),
    "variant": (str, "estimator: pavbem, pavbem_relaxed, prvbem, beamforming"),
    "max_iterations": (int, "outer iteration cap"),
    "initial_noise_var": (_parse_noise_var,
                          "starting sigma^2, 'auto' scales from the data"),
    "k_values": (_list_of(int), "source counts swept"),
    "noise_grid": (_list_of(float), "sigma^2 grid, comma separated"),
    "n_trials": (int, "Monte Carlo trials per cell"),
    "algorithms": (_list_of(str.strip),
                   "algorithms run by the sweep, in order"),
    "workers": (int, "parallel trial workers"),
    "output_dir": (str, "directory for output files"),
}

# defaults of the keys that SweepConfig lacks
_OWN_DEFAULTS = {"seed": SweepConfig.base_seed, "k": 5, "noise_var": 0.01,
                 "variant": "pavbem", "initial_noise_var": None}


def _defaults():
    sweep = SweepConfig()
    return {key: _OWN_DEFAULTS[key] if key in _OWN_DEFAULTS
            else getattr(sweep, key) for key in SCHEMA}


def _coerce(key, text):
    if key not in SCHEMA:
        raise ConfigError("unknown config key: %s" % key)
    try:
        return SCHEMA[key][0](text)
    except (ValueError, TypeError) as exc:
        raise ConfigError("bad value for %s: %s" % (key, exc)) from exc


def _assignment(line, error):
    """The (key, value) of one 'key = value' line of a config file or
    --set; ConfigError(error) if the line has no '='."""
    if "=" not in line:
        raise ConfigError(error)
    key, text = (part.strip() for part in line.split("=", 1))
    return key, _coerce(key, text)


def _load_values(args):
    """The defaults, then the --config file, then the --set assignments,
    then the flags: later assignments win. In the file '#' starts a
    comment and blank lines are skipped."""
    values = _defaults()
    if args.config:
        try:
            with open(args.config) as fh:
                lines = [raw.split("#", 1)[0].strip() for raw in fh]
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s"
                              % (args.config, exc)) from exc
        values.update(_assignment(line, "%s:%d: expected key = value"
                                  % (args.config, lineno))
                      for lineno, line in enumerate(lines, 1) if line)
    values.update(_assignment(line, "--set expects KEY=VALUE, got %r" % line)
                  for line in args.assignments)
    # every flag stores its text under the config key it sets
    values.update((key, _coerce(key, text))
                  for key, text in vars(args).items()
                  if key in SCHEMA and text is not None)
    return values


def _help_lines():
    """One line per config key for the --help epilog."""
    out = []
    for key, default in _defaults().items():
        if isinstance(default, tuple):
            shown = ",".join(str(v) for v in default) if default else "(empty)"
        elif default is None:
            shown = "auto"
        else:
            shown = str(default)
        out.append("  %-18s %s (default: %s)" % (key, SCHEMA[key][1], shown))
    return out


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, and building it costs about a millisecond."""
    epilog = "config keys (file or --set KEY=VALUE):\n" + "\n".join(
        _help_lines())
    parser = argparse.ArgumentParser(
        prog="phasedoa",
        description="Sparse DOA estimation under Markov phase noise",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def option(p, flag, key, help=None, **kwargs):
        """A flag that stores its text under the config key ``key``."""
        p.add_argument(flag, dest=key, help=help, **kwargs)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", dest="assignments", action="append",
                       default=[], metavar="KEY=VALUE",
                       help="override any config key (repeatable)")

    def outputs(p):
        option(p, "--seed", "seed", "base seed")
        option(p, "--output-dir", "output_dir", "directory for output files")

    sim = sub.add_parser("simulate", help="synthesize one observation")
    common(sim)
    outputs(sim)
    option(sim, "--k", "k", "number of planted sources")
    option(sim, "--noise-var", "noise_var", "additive noise variance")

    est = sub.add_parser("estimate", help="run one estimator on a file")
    common(est)
    est.add_argument("observation", help="columnar observation file")
    option(est, "--variant", "variant",
           "pavbem, pavbem_relaxed, prvbem or beamforming")
    option(est, "--k", "k", "support size to report")
    option(est, "--noise-var", "initial_noise_var", "initial sigma^2",
           metavar="NOISE_VAR")
    est.add_argument("--diagnostics", metavar="PATH",
                     help="append per-iteration diagnostics to PATH")

    swp = sub.add_parser("sweep", help="Monte Carlo noise sweep")
    common(swp)
    outputs(swp)
    option(swp, "--trials", "n_trials", "trials per cell")
    option(swp, "--workers", "workers", "parallel trial workers")
    option(swp, "--k", "k_values", "source counts, comma separated",
           metavar="K")
    option(swp, "--noise-var", "noise_grid", "sigma^2 values, comma separated",
           metavar="NOISE_VAR")
    option(swp, "--variant", "algorithms", "algorithms, comma separated",
           metavar="VARIANT")
    return parser


@contextlib.contextmanager
def _settings_checks():
    """Wraps the steps of a command that read the settings alone, before
    any file is read or trial is run: a value that their owner rejects
    (a ValueError) is a usage error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sweep_config(values, **changes):
    """The SweepConfig of every config key that names one of its fields;
    changes win."""
    fields = {f.name: values[f.name] for f in dataclasses.fields(SweepConfig)
              if f.name in values}
    fields.update(base_seed=values["seed"], **changes)
    return SweepConfig(**fields)


def _cmd_simulate(args):
    values = _load_values(args)
    k = values["k"]
    with _settings_checks():
        config = _sweep_config(values, k_values=(k,))
        # the draw of harness cell (0, 0, 0), so a sweep can be replayed
        rng = trial_rng(values["seed"], 0, 0, 0)
        _, _, _, truth, y = draw_trial(config, k, values["noise_var"], rng)

    out = values["output_dir"]
    os.makedirs(out, exist_ok=True)
    obs_path = os.path.join(out, "observation.txt")
    truth_path = os.path.join(out, "ground_truth.txt")
    pio.save_observation(obs_path, y, truth.theta)
    pio.save_ground_truth(truth_path, truth.z)
    print("child seed: SeedSequence(%d, spawn_key=(0, 0, 0))" % values["seed"])
    print("wrote %s (%d sensors)" % (obs_path, values["n_sensors"]))
    print("wrote %s (%d atoms, %d active)"
          % (truth_path, values["grid_size"], len(truth.support)))
    return 0


def _cmd_estimate(args):
    values = _load_values(args)
    variant, k = values["variant"], values["k"]
    with _settings_checks():
        config = _sweep_config(values, k_values=(k,), algorithms=(variant,))
        dictionary, model, prior = make_problem(config, k)
        # extract_support's check of k, on the estimate of a silent array
        extract_support(beamforming(np.zeros(config.n_sensors), dictionary), k)
    try:
        y, _ = pio.load_observation(args.observation)
    except OSError as exc:
        print("cannot read %s: %s" % (args.observation, exc), file=sys.stderr)
        return 1
    est = run_estimator(variant, y, dictionary, model, prior,
                        max_iterations=config.max_iterations,
                        noise_var=values["initial_noise_var"])
    if args.diagnostics and est.history:  # beamforming has no iterations
        with open(args.diagnostics, "a") as fh:
            for t, entry in enumerate(est.history, 1):
                fh.write("iter %d sigma_sq %.17g spike_sum %.17g delta %.17g\n"
                         % ((t,) + entry))
            fh.write("# m_theta Sigma_theta\n")
            for m, v in zip(est.phase_means, est.phase_variances):
                fh.write("%.17g %.17g\n" % (m, v))

    idx = extract_support(est, k)
    print("variant: %s" % variant)
    print("iterations: %d (converged: %s)"
          % (est.iterations_used, est.converged))
    if np.isfinite(est.final_noise_var):
        print("final sigma^2: %.6g" % est.final_noise_var)
    print("top-%d atoms (index, angle deg, |z_hat|):" % k)
    for i, ang in zip(idx, dictionary.angles[idx]):
        print("  %3d  %+8.3f  %.5f"
              % (i, np.degrees(ang), np.abs(est.z_hat[i])))
    print("|z_hat|: " + " ".join("%.4f" % v for v in np.abs(est.z_hat)))
    return 0


def _cmd_sweep(args):
    values = _load_values(args)
    with _settings_checks():
        sweep = _sweep_config(values)
        trial_rng(sweep.base_seed, 0, 0, 0)  # as every trial reads the seed
        for k in sweep.k_values:
            make_problem(sweep, k)
    os.makedirs(sweep.output_dir, exist_ok=True)
    result = run_sweep(sweep)
    for k, table in result.tables.items():
        for row, fails in zip(table, result.failed_counts[k]):
            cells = " ".join("%s=%.4f" % (a, v)
                             for a, v in zip(sweep.algorithms, row[1:]))
            line = "k=%d sigma2=%.3g %s" % (k, row[0], cells)
            if fails.any():
                line += "  failed: " + "/".join(str(f) for f in fails)
            print(line)
    for k, path in result.paths.items():
        print("wrote %s" % path)
    for k, fails in result.failed_counts.items():
        total = int(fails.sum())
        if total:
            print("k=%d: %d failed trials excluded from means" % (k, total))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        return _cmd_sweep(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
