"""Span recording around the layer functions of phasedoa, from outside.

Wrappers replace module attributes of the package, so every caller that
looks a function up through a module (``ph.smooth``, a name imported with
``from .model import build_dictionary``, ...) goes through them. Each span
keeps its name, start, end and the span that was open when it began; self
time is a span's duration minus the time its direct children cover.

Pool workers forked from the traced process inherit the wrappers. A
fork handler clears their copy of the parent's spans; the benchmark drains
a worker's spans after each trial and hands them to the parent, which adds
them as a separate block (worker roots have parent -1).
"""

import os
from array import array
from time import perf_counter

import numpy as np

VARIANTS = ("beamforming", "prvbem", "pavbem_relaxed", "pavbem")

# layer name -> (module, attribute); estimators.<variant> all come from
# estimators.run_estimator, named by its first argument
LAYERS = {
    "phase.smooth": ("phase", "smooth"),
    "phase.bessel_ratio": ("phase", "bessel_ratio"),
    "phase.noninformative_posterior": ("phase", "noninformative_posterior"),
    "phase.compute_eta": ("phase", "compute_eta"),
    "phase.pseudo_observations": ("phase", "pseudo_observations"),
    "coefficients.sweep_atoms": ("coefficients", "sweep_atoms"),
    "coefficients.estimate_noise_variance":
        ("coefficients", "estimate_noise_variance"),
    "coefficients.phase_corrected_observation":
        ("coefficients", "phase_corrected_observation"),
    "coefficients.sweep_order": ("coefficients", "sweep_order"),
    "coefficients.initial_posterior": ("coefficients", "initial_posterior"),
    "model.build_dictionary": ("model", "build_dictionary"),
    "model.sample_ground_truth": ("model", "sample_ground_truth"),
    "model.sample_phase_trajectory": ("model", "sample_phase_trajectory"),
    "model.synthesize_observation": ("model", "synthesize_observation"),
    "harness.run_trial": ("harness", "run_trial"),
    "harness.write_dat": ("harness", "write_dat"),
    "io.load_observation": ("io", "load_observation"),
    "cli.main": ("cli", "main"),
}
NAMES = tuple(LAYERS) + tuple("estimators." + v for v in VARIANTS)


def replace_everywhere(modules, original, replacement):
    """Point every attribute of ``modules`` bound to ``original`` at
    ``replacement``; returns a function that undoes it."""
    bound = [(m, attr) for m in modules for attr, value in vars(m).items()
             if value is original]
    if not bound:
        raise RuntimeError("%r is bound in no module" % (original,))
    for m, attr in bound:
        setattr(m, attr, replacement)

    def undo():
        for m, attr in bound:
            setattr(m, attr, original)
    return undo


class Tracer:
    def __init__(self):
        self.blocks = []
        self._clear()
        os.register_at_fork(after_in_child=self._forked)

    def _clear(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.outcomes = []  # (variant index, iterations, converged)

    def _forked(self):
        self.blocks = []
        self._clear()

    def install(self, modules):
        """Wrap every layer of ``modules`` (a dict of phasedoa modules by
        short name); returns a function that removes the wrappers."""
        everything = list(modules.values())
        undo = []
        for name, (mod, attr) in LAYERS.items():
            fn = getattr(modules[mod], attr)
            undo.append(replace_everywhere(everything, fn,
                                           self._wrap(name, fn)))
        run_estimator = modules["estimators"].run_estimator
        undo.append(replace_everywhere(everything, run_estimator,
                                       self._wrap_estimator(run_estimator)))

        def uninstall():
            for u in reversed(undo):
                u()
        return uninstall

    def _open(self, code):
        i = len(self.start)
        self.name.append(code)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        code = NAMES.index(name)

        def traced(*args, **kwargs):
            i = self._open(code)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return traced

    def _wrap_estimator(self, fn):
        first = NAMES.index("estimators." + VARIANTS[0])

        def traced(variant, *args, **kwargs):
            v = VARIANTS.index(variant)
            i = self._open(first + v)
            try:
                est = fn(variant, *args, **kwargs)
            finally:
                self._close(i)
            self.outcomes.append((v, est.iterations_used, est.converged))
            return est
        return traced

    def drain(self):
        """Spans recorded in this process since the last drain, as a
        picklable chunk; only valid when no span is open."""
        if self.stack:
            raise RuntimeError("drain with open spans")
        chunk = (self.name, self.parent, self.start, self.end, self.outcomes)
        self._clear()
        return chunk

    def add(self, chunk):
        self.blocks.append(chunk)

    def summary(self):
        """Per layer name: calls, total seconds and self seconds, plus the
        estimator outcomes, over every block and this process's spans."""
        blocks = self.blocks + [self.drain()]
        n = len(NAMES)
        calls, total, own = np.zeros(n), np.zeros(n), np.zeros(n)
        outcomes = []
        for name, parent, start, end, outs in blocks:
            name = np.frombuffer(name, dtype=np.int32)
            parent = np.frombuffer(parent, dtype=np.int32)
            dur = np.frombuffer(end) - np.frombuffer(start)
            has_parent = parent >= 0
            covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=dur.size)
            calls += np.bincount(name, minlength=n)
            total += np.bincount(name, weights=dur, minlength=n)
            own += np.bincount(name, weights=dur - covered, minlength=n)
            outcomes.extend(outs)
        self.blocks = blocks
        return ({nm: (calls[i], total[i], own[i])
                 for i, nm in enumerate(NAMES)}, outcomes)

    def save(self, path):
        """Write every span (one row per span, block by block) to ``path``."""
        rows = [np.column_stack([np.full(len(b[0]), k),
                                 np.frombuffer(b[0], dtype=np.int32),
                                 np.frombuffer(b[1], dtype=np.int32),
                                 np.frombuffer(b[2]), np.frombuffer(b[3])])
                for k, b in enumerate(self.blocks) if len(b[0])]
        np.savez_compressed(path, names=np.array(NAMES),
                            spans=np.concatenate(rows) if rows
                            else np.empty((0, 5)),
                            columns=np.array(["block", "name", "parent",
                                              "start", "end"]))
