"""Per-layer tracing of one tipwave run, installed from outside the package.

Every traced function is replaced by a wrapper that records its call
count and its self time: its duration minus the time covered by the
traced functions it called. The self times of all wrappers therefore sum
to the duration of the outermost traced call (``run_scenario``).

Modules import each other's functions by name (``systems`` imports
``kernel_step``, ``scenarios`` imports ``eval_f``, ``eval_d`` and
``fit_decay_rate``), so a wrapper is installed in the namespace that
makes the call, not only where the function is defined.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute path, bucket, call-count key). A bucket collects self
# time; the count key collects calls. Targets that a later version of the
# package no longer has are reported in ``Tracer.missing``.
TARGETS = (
    ("tipwave.systems", "kernel_step", "kernel", "kernel"),
    ("tipwave.wave_core", "BoundaryTraces.sample", "traces", "traces"),
    ("tipwave.wave_core", "BoundaryTraces.rate", "traces", "traces"),
    ("tipwave.systems", "EsoLoop.step", "systems.step", "systems.step"),
    ("tipwave.systems", "ObserverLoop.step", "systems.step", "systems.step"),
    ("tipwave.systems", "control_eso", "systems.control", "systems.control"),
    ("tipwave.systems", "control_observer", "systems.control", "systems.control"),
    ("tipwave.systems", "EsoLoop.boundary_states", "systems.other", "systems.other"),
    ("tipwave.systems", "ObserverLoop.boundary_states", "systems.other", "systems.other"),
    ("tipwave.systems", "EsoLoop.energies", "systems.other", "systems.other"),
    ("tipwave.systems", "ObserverLoop.energies", "systems.other", "systems.other"),
    ("tipwave.scenarios", "boundary_ode_states", "systems.other", "systems.other"),
    ("tipwave.systems", "field_energy", "energy", "energy"),
    ("tipwave.systems", "ObserverLoop.error_field", "energy", "energy.error_field"),
    ("tipwave.energy", "EnergyTrace.append", "energy", "energy.append"),
    ("tipwave.scenarios", "fit_decay_rate", "energy.fit", "energy.fit"),
    ("tipwave.scenarios", "eval_f", "signals", "signals"),
    ("tipwave.scenarios", "eval_d", "signals", "signals"),
    ("tipwave.scenarios", "run_scenario", "scenarios", "scenarios"),
    ("tipwave.scenarios", "_SnapshotWriter.__init__", "io", "io"),
    ("tipwave.scenarios", "_SnapshotWriter.write", "io", "io"),
    ("tipwave.scenarios", "_SnapshotWriter.close", "io", "io"),
    ("tipwave.energy", "EnergyTrace.write_csv", "io", "io"),
    ("tipwave.spectral", "Spectrum.write_csv", "io", "io"),
    ("tipwave.scenarios", "_write_summary", "io", "io"),
    ("tipwave.spectral", "compute_spectrum", "spectral", "spectral"),
    ("tipwave.spectral", "refine_root", "spectral.refine", "spectral.refine"),
    ("tipwave.spectral", "count_zeros_in_box", "spectral.winding", "spectral.winding"),
)

# Counted but not timed: called so often that a timing wrapper would
# dominate the spectral layer's self time.
COUNTED = (
    ("tipwave.spectral", "CharFamily.scaled", "spectral.char_evals"),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    fn = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, fn


class Tracer:
    """Self time per bucket, calls per key, and a few work counters."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.node_updates = 0
        self.eigenvalues = 0
        self.converged = 0
        self.step_ns: list[int] = []
        self.missing: list[str] = []
        self._child_ns = [0]  # stack: time covered by traced children

    def install(self) -> None:
        for module_name, path, bucket, key in TARGETS:
            try:
                owner, name, fn = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, name, self._timed(fn, bucket, key))
        for module_name, path, key in COUNTED:
            try:
                owner, name, fn = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, name, self._counted(fn, key))

    def _timed(self, fn, bucket: str, key: str):
        clock = time.perf_counter_ns
        stack = self._child_ns
        self_ns, calls = self.self_ns, self.calls
        is_step = bucket == "systems.step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                self_ns[bucket] += dur - child
                calls[key] += 1
                if is_step:
                    self.step_ns.append(dur)
            self._observe(key, args, result)
            return result

        return wrapper

    def _counted(self, fn, key: str):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, key: str, args, result) -> None:
        if key == "kernel":
            self.node_updates += args[0].curr.shape[0]
        elif key == "spectral":
            self.eigenvalues += len(result.eigenvalues)
            self.converged += sum(1 for e in result.eigenvalues if e.converged)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced run whose wall time was ``wall_s``."""
        s = {bucket: ns * 1e-9 for bucket, ns in self.self_ns.items()}
        c = self.calls
        steps = sorted(self.step_ns)

        def pct(q: float) -> float:
            return steps[min(len(steps) - 1, int(q * len(steps)))] * 1e-3 if steps else 0.0

        nodes = self.node_updates
        return {
            "kernel.calls": c["kernel"],
            "kernel.node_updates": nodes,
            "kernel.bytes_computed": 24 * nodes,
            "kernel.self_s": s.get("kernel", 0.0),
            "kernel.ns_per_node": self.self_ns["kernel"] / nodes if nodes else 0.0,
            "traces.calls": c["traces"],
            "traces.self_s": s.get("traces", 0.0),
            "systems.step_calls": c["systems.step"],
            "systems.step_self_s": s.get("systems.step", 0.0),
            "systems.control_self_s": s.get("systems.control", 0.0),
            "systems.other_self_s": s.get("systems.other", 0.0),
            "systems.step_us_p50": pct(0.50),
            "systems.step_us_p99": pct(0.99),
            "energy.calls": c["energy"],
            "energy.self_s": s.get("energy", 0.0),
            "energy.fit_self_s": s.get("energy.fit", 0.0),
            "signals.calls": c["signals"],
            "signals.self_s": s.get("signals", 0.0),
            "io.self_s": s.get("io", 0.0),
            "scenarios.self_s": s.get("scenarios", 0.0),
            "spectral.eigenvalues": self.eigenvalues,
            "spectral.converged_ratio": (self.converged / self.eigenvalues
                                         if self.eigenvalues else 0.0),
            "spectral.char_evals": c["spectral.char_evals"],
            "spectral.refine_calls": c["spectral.refine"],
            "spectral.refine_self_s": s.get("spectral.refine", 0.0),
            "spectral.winding_calls": c["spectral.winding"],
            "spectral.winding_self_s": s.get("spectral.winding", 0.0),
            "spectral.self_s": s.get("spectral", 0.0),
            "trace.accounted_ratio": sum(s.values()) / wall_s,
        }
