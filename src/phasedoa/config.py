"""Config keys and flat key=value configuration files.

One registry drives parsing, defaults, type coercion and the CLI help
listing. Unknown keys are rejected by name.
"""

from .harness import SweepConfig


class ConfigError(Exception):
    """Bad configuration key or value; the CLI maps this to exit code 2."""


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % (text,))


def _parse_optional_float(text):
    if text.strip().lower() in ("auto", "none"):
        return None
    return float(text)


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
    "initial_noise_var": (_parse_optional_float,
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


def defaults():
    sweep = SweepConfig()
    return {key: _OWN_DEFAULTS[key] if key in _OWN_DEFAULTS
            else getattr(sweep, key) for key in SCHEMA}


def coerce(key, text):
    if key not in SCHEMA:
        raise ConfigError("unknown config key: %s" % key)
    parser = SCHEMA[key][0]
    try:
        return parser(text)
    except (ValueError, TypeError) as exc:
        raise ConfigError("bad value for %s: %s" % (key, exc)) from exc


def parse_config(path):
    """Read a flat key=value file. '#' starts a comment, blank lines are
    skipped, later assignments win."""
    values = defaults()
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value" % (path, lineno))
        key, text = (part.strip() for part in line.split("=", 1))
        values[key] = coerce(key, text)
    return values


def help_lines():
    """One line per config key for the CLI --help epilog."""
    out = []
    for key, default in defaults().items():
        if isinstance(default, tuple):
            shown = ",".join(str(v) for v in default) if default else "(empty)"
        elif default is None:
            shown = "auto"
        else:
            shown = str(default)
        out.append("  %-18s %s (default: %s)" % (key, SCHEMA[key][1], shown))
    return out
