"""Scenario configuration, dispatch, and CSV artifact emission.

Configs are flat ``key = value`` text ('#' starts a comment). A
``preset`` key expands a named bundle of values first; explicit keys
then override it. Initial profiles are polynomial coefficient lists in
ascending powers, evaluated exactly on the grid nodes.

A ``ScenarioConfig`` is frozen and checks itself on construction, in
code as from text, so ``run_scenario`` only ever sees a valid one. A
time-domain run's spectral summary covers the blocks its loop names in
``families``.

Outputs per run directory:

    snapshots_<field>.csv    t,x,value         (every ``stride`` steps)
    energy_<field>_<tag>.csv t,E,tag           (every step)
    boundary_states.csv      t,eta,psi         (every step)
    spectrum_<family>.csv    n,seed_re,seed_im,refined_re,refined_im,residual
    summary.txt              fitted rates, abscissae, extrema, PASS/FAIL

Identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import spectral
from .energy import EnergyRecorder, EnergyTrace, NoFitError, fit_decay_rate, float_column
from .signals import DisturbanceSpec
from .systems import EsoLoop, ObserverLoop, SingleFieldLoop
from .wave_core import LEFT_DIRICHLET_ZERO, RIGHT_TIP_MASS, Grid, SystemParams

if TYPE_CHECKING:
    from array import array

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "serialize_config",
           "run_scenario", "ScenarioResult", "PRESETS", "MODES"]

MODES = ("open_plant", "observer_loop", "eso_loop", "spectrum")

_EARLY_WINDOW = 2.0  # time units used as the "startup" reference for boundedness
# least records per write of the per-record CSVs; a run writes them every
# chunk, the least multiple of its energy recorder's block that holds this many
RECORD_CHUNK = 256


class ConfigError(ValueError):
    """Carries every violation found in a config's text or values."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _build(make, violations: list[str]):
    """``make()``, or None with its ValueError message added to ``violations``."""
    try:
        return make()
    except ValueError as exc:
        violations.append(str(exc))
        return None


@dataclass(frozen=True)
class ScenarioConfig:
    """One run's settings, checked on construction: a config that breaks
    any rule raises one ConfigError listing every violation."""

    mode: str = ""
    m: float = 5.0
    alpha: float = 2.0
    a: float = 2.0
    beta: float = 1.5
    gamma: float = 1.5
    n_cells: int = 100
    r: float = 0.5
    horizon: float = 40.0
    u0: tuple[float, ...] = (0.0,)
    ut0: tuple[float, ...] = (0.0,)
    v0: tuple[float, ...] = (0.0,)
    vt0: tuple[float, ...] = (0.0,)
    q0: tuple[float, ...] = (0.0,)
    qt0: tuple[float, ...] = (0.0,)
    uhat0: tuple[float, ...] = (0.0,)
    uhatt0: tuple[float, ...] = (0.0,)
    d_kind: str = "zero"
    d_amplitude: float = 1.0
    d_frequency: float = 2.0
    d_rate: float = 1.0
    d_constant: float = 1.0
    d_table: tuple[tuple[float, float], ...] = ()
    f_kind: str = "zero"
    f_gain: float = 1.0
    out_dir: str = "out"
    stride: int = 20
    family: str = "A"
    n_max: int = 100
    spectral_summary: bool = True
    threshold_plant_energy_ratio: float | None = None
    threshold_bounded_factor: float | None = None

    def __post_init__(self):
        # the rules below compare values, so a value of the wrong type, or
        # a number that is not finite, stops here
        violations = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _CODECS[f.type][2](value):
                violations.append(f"{f.name} must be {f.type}, got {value!r}")
            elif "float" in f.type and value is not None and not all(
                    -math.inf < x < math.inf for x in np.ravel(value)):
                violations.append(f"{f.name} must be finite, got {value!r}")
        if violations:
            raise ConfigError(violations)
        for f in dataclasses.fields(self):
            if f.type == "tuple[float, ...]" and not getattr(self, f.name):
                violations.append(f"{f.name} needs at least one coefficient, got ()")
        if self.mode == "":
            violations.append("mode is required (or give a preset)")
        elif self.mode not in MODES:
            violations.append(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not self.horizon > 0:
            violations.append(f"horizon must be positive, got {self.horizon}")
        if self.threshold_bounded_factor is not None and self.horizon <= _EARLY_WINDOW:
            violations.append(
                f"threshold_bounded_factor needs horizon > {_EARLY_WINDOW} (its early "
                f"window), got {self.horizon}")
        if self.stride < 1:
            violations.append(f"stride must be >= 1, got {self.stride}")
        if self.family not in spectral.FAMILY_TAGS:
            violations.append(f"unknown family {self.family!r}")
        if self.n_max < 0:
            violations.append(f"n_max must be >= 0, got {self.n_max}")
        # the rest is checked by the objects the run builds from the config
        params = _build(self.params, violations)
        grid = _build(self.grid, violations)
        if grid is not None and self.mode in MODES and self.mode != "spectrum":
            if self.horizon > 0 and round(self.horizon / grid.dt) < 1:
                violations.append(f"horizon {self.horizon!r} is under half a step (dt = "
                                  f"{grid.dt!r}): the run would take no step")
            # finite coefficients can still overflow on the nodes; that is
            # reported here, not warned about while it happens
            try:
                with np.errstate(all="ignore"):
                    for f in dataclasses.fields(self):
                        coeffs = getattr(self, f.name)
                        if (f.type == "tuple[float, ...]" and coeffs
                                and not np.isfinite(_poly_on_grid(coeffs, grid)).all()):
                            violations.append(f"{f.name} = {coeffs!r} is not finite on the grid")
            except MemoryError:
                violations.append(f"n_cells = {self.n_cells} is too large: the grid's "
                                  f"{grid.n_nodes} nodes cannot be allocated")
        _build(self.disturbance, violations)
        if params is not None and self.mode == "spectrum" and self.family in spectral.FAMILY_TAGS:
            _build(lambda: spectral.CharFamily(self.family, params), violations)
        if violations:
            raise ConfigError(violations)

    @property
    def warnings(self) -> list[str]:
        """Broken stability hypotheses a time-domain run still goes ahead
        with (a spectrum run's family checks its own on construction)."""
        return [] if self.mode == "spectrum" else self.params().hypothesis_warnings()

    def params(self) -> SystemParams:
        return SystemParams(m=self.m, alpha=self.alpha, a=self.a,
                            beta=self.beta, gamma=self.gamma)

    def grid(self) -> Grid:
        return Grid(n_cells=self.n_cells, r=self.r)

    def disturbance(self) -> DisturbanceSpec:
        return DisturbanceSpec(
            d_kind=self.d_kind, amplitude=self.d_amplitude,
            frequency=self.d_frequency, rate=self.d_rate,
            constant=self.d_constant, table=self.d_table,
            f_kind=self.f_kind, f_gain=self.f_gain)


# reference experiment: m=5, alpha=a=2, beta=gamma=1.5, dt=1/200,
# dx=1/100, cubic initial profiles, tip-sine uncertainty, cos(2t)
# disturbance.
PRESETS: dict[str, dict[str, str]] = {
    "reproduce_sec4": {
        "mode": "eso_loop", "m": "5", "alpha": "2", "a": "2",
        "beta": "1.5", "gamma": "1.5", "n_cells": "100", "r": "0.5",
        "horizon": "40", "u0": "0 0 -3 1", "ut0": "0", "v0": "0 0 0 -2",
        "vt0": "0", "q0": "0", "qt0": "0",
        "f_kind": "sin_of_tip", "d_kind": "cosine",
        "d_amplitude": "1", "d_frequency": "2", "stride": "20",
    },
    # stationary pair under a unit constant disturbance: the observer
    # loop holds it, demonstrating the loss of stabilization.
    "counterexample_sec3": {
        "mode": "observer_loop", "m": "5", "alpha": "2", "a": "2",
        "beta": "1.5", "gamma": "1.5", "n_cells": "100", "r": "0.5",
        "horizon": "20", "u0": "0 1", "ut0": "0",
        "uhat0": "-0.6666666666666666", "uhatt0": "0",
        "f_kind": "zero", "d_kind": "constant", "d_constant": "1",
        "stride": "20",
    },
}


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text.lower() == "true"


def _parse_pair(token: str) -> tuple[float, float]:
    t, v = token.split(":")
    return float(t), float(v)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# (parse, format, type check) per ScenarioConfig annotation; a format
# that returns None leaves its key out of the text (an unset threshold,
# an empty table)
_CODECS = {
    "float": (float, repr, _is_real),
    "float | None": (float, lambda value: None if value is None else repr(value),
                     lambda value: value is None or _is_real(value)),
    "int": (int, str, _is_int),
    "str": (str, str, lambda value: isinstance(value, str)),
    "bool": (_parse_bool, lambda flag: "true" if flag else "false",
             lambda value: isinstance(value, bool)),
    "tuple[float, ...]": (lambda text: tuple(float(tok) for tok in text.split()),
                          lambda coeffs: " ".join(repr(c) for c in coeffs),
                          lambda value: isinstance(value, tuple) and all(map(_is_real, value))),
    "tuple[tuple[float, float], ...]": (
        lambda text: tuple(_parse_pair(tok) for tok in text.split()),
        lambda pairs: " ".join(f"{t!r}:{v!r}" for t, v in pairs) or None,
        lambda value: isinstance(value, tuple) and all(
            isinstance(pair, tuple) and len(pair) == 2 and all(map(_is_real, pair))
            for pair in value)),
}
_KEY_CODECS = {f.name: _CODECS[f.type] for f in dataclasses.fields(ScenarioConfig)}


def _parse_lines(text: str) -> list[tuple[str, str]]:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError([f"line {lineno}: expected 'key = value', got {raw!r}"])
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def parse_config(text: str, overrides: list[str] | None = None) -> ScenarioConfig:
    """Parse a config; decode and rule violations are raised together."""
    pairs = _parse_lines(text)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError([f"override {item!r} is not key=value"])
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))

    # presets expand first, wherever they appear; explicit keys override
    expanded: list[tuple[str, str]] = []
    violations: list[str] = []
    explicit: list[tuple[str, str]] = []
    for key, value in pairs:
        if key == "preset" or (key == "mode" and value in PRESETS):
            if value not in PRESETS:
                violations.append(f"unknown preset {value!r}")
                continue
            expanded.extend(PRESETS[value].items())
        else:
            explicit.append((key, value))
    expanded.extend(explicit)

    values = {}
    for key, value in expanded:
        if key not in _KEY_CODECS:
            violations.append(f"unknown key {key!r}")
            continue
        parse = _KEY_CODECS[key][0]
        try:
            values[key] = parse(value)
        except ValueError as exc:
            violations.append(f"bad value for {key!r}: {exc}")
    try:
        cfg = ScenarioConfig(**values)
    except ConfigError as exc:
        violations += exc.violations
    if violations:
        raise ConfigError(violations)
    return cfg


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical flat text; parse(serialize(cfg)) == cfg."""
    texts = ((key, to_text(getattr(cfg, key))) for key, (_, to_text, _) in _KEY_CODECS.items())
    return "".join(f"{key} = {text}\n" for key, text in texts if text is not None)


def _poly_on_grid(coeffs, grid: Grid):
    """The profile at the grid's nodes by Horner's rule, with the operand
    order of ``numpy.polynomial.polynomial.polyval``, so the same bits,
    and without importing ``numpy.polynomial``."""
    x = grid.nodes()
    c = np.asarray(coeffs, dtype=float).tolist()
    value = c[-1] + x * 0
    for coeff in reversed(c[:-1]):
        value = coeff + value * x
    return value


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    out_dir: str
    energy_traces: dict[str, EnergyTrace]
    boundary: dict[str, array]
    fitted_rates: dict[str, float]
    abscissae: dict[str, float]
    threshold_failures: list[str]
    summary_path: str
    warnings: list[str] = field(default_factory=list)  # summary.txt's warning lines


class _RecordWriter:
    """Every CSV a time-domain run streams, written as the run goes:
    ``snapshots_<name>.csv`` of each field in ``names``, ``energy_<key>.csv``
    of each trace and ``boundary_states.csv``, each opened on ``stack`` with
    its header. ``textfmt`` writes every line: the snapshots a batch at a
    time, the last batch when ``stack`` closes, before the files do. Each
    ``write`` adds the records the traces hold and the files do not, their
    times, energies and boundary states formatted in one pass, and moves
    the ``pending`` rows to the ``boundary`` columns. Unbuffered: one write
    a file."""

    def __init__(self, stack: contextlib.ExitStack, out: str, names, x,
                 traces: dict[str, EnergyTrace]):
        from . import textfmt  # imported here: a spectrum run never loads it

        self.textfmt, self.traces, self.pending = textfmt, traces, []
        self.boundary = {key: float_column() for key in ("t", "eta", "psi")}
        self.tags = [trace.space_tag.encode().ljust(textfmt.VALUE_WIDTH, b"\0")
                     for trace in traces.values()]
        files = [*((f"snapshots_{name}.csv", "t,x,value") for name in names),
                 *((f"energy_{key}.csv", EnergyTrace.CSV_HEADER) for key in traces),
                 ("boundary_states.csv", "t,eta,psi")]
        handles = [stack.enter_context(open(os.path.join(out, name), "wb", buffering=0))
                   for name, _ in files]
        for fh, (_, header) in zip(handles, files):
            fh.write(f"{header}\n".encode())
        self.snapshots = textfmt.SnapshotBatches(handles[:len(names)], x)
        stack.callback(self.snapshots.flush)
        self.record_files = handles[len(names):]

    def snapshot(self, t: float, rows) -> None:
        self.snapshots.add(t, rows)

    def write(self) -> None:
        start, rows = len(self.boundary["t"]), self.pending
        for column, values in zip(self.boundary.values(), zip(*rows)):
            column.fromlist(list(values))
        rows.clear()
        end = len(self.boundary["t"])
        columns = [*self.boundary.values(), *(trace.values for trace in self.traces.values())]
        t, eta, psi, *energies = self.textfmt.texts(*(c[start:end] for c in columns))
        # t,E,tag in each energy file and t,eta,psi in the boundary file: one layout
        texts = self.textfmt.lines((end - start,), t, b",", [*energies, eta], b",",
                                   [*self.tags, psi], b"\n")
        for fh, text in zip(self.record_files, texts):
            fh.write(text)


def run_scenario(config: ScenarioConfig, out_dir: str | None = None) -> ScenarioResult:
    """Run one scenario and write its artifact set. A spectrum whose
    contour sweep fails or leaves a branch without a root raises
    ``spectral.ContourError`` before the output directory is created; a
    time-domain run records it in ``warnings`` and skips the spectral
    summary."""
    out = out_dir if out_dir is not None else config.out_dir
    if config.mode == "spectrum":
        return _run_spectrum(config, out)
    os.makedirs(out, exist_ok=True)
    return _run_time_domain(config, out)


def _run_spectrum(config: ScenarioConfig, out: str) -> ScenarioResult:
    family = spectral.CharFamily(config.family, config.params())
    spectrum = spectral.compute_spectrum(family, n_max=config.n_max)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spectrum_{config.family}.csv")
    spectrum.write_csv(path)
    abscissa = spectral.spectral_abscissa(spectrum)
    worst = max(e.residual for e in spectrum.eigenvalues)
    lines = [f"mode = spectrum", f"family = {config.family}",
             f"n_max = {config.n_max}",
             f"eigenvalues = {len(spectrum.eigenvalues)}",
             f"abscissa = {abscissa!r}",
             f"max_residual = {worst!r}"]
    summary_path = _write_summary(out, config, lines)
    return ScenarioResult(config=config, out_dir=out, energy_traces={},
                          boundary={}, fitted_rates={},
                          abscissae={config.family: abscissa},
                          threshold_failures=[], summary_path=summary_path)


def _build_loop(config: ScenarioConfig):
    grid, params = config.grid(), config.params()
    spec = config.disturbance()
    u0 = _poly_on_grid(config.u0, grid)
    ut0 = _poly_on_grid(config.ut0, grid)
    if config.mode == "open_plant":
        return SingleFieldLoop(grid, params, u0, ut0,
                               LEFT_DIRICHLET_ZERO, RIGHT_TIP_MASS, spec)
    if config.mode == "observer_loop":
        return ObserverLoop(grid, params, u0, ut0,
                            _poly_on_grid(config.uhat0, grid),
                            _poly_on_grid(config.uhatt0, grid), spec)
    return EsoLoop(grid, params, u0, ut0,
                   _poly_on_grid(config.v0, grid), _poly_on_grid(config.vt0, grid),
                   _poly_on_grid(config.q0, grid), _poly_on_grid(config.qt0, grid), spec)


def _run_time_domain(config: ScenarioConfig, out: str) -> ScenarioResult:
    grid, loop = config.grid(), _build_loop(config)
    n_steps = int(round(config.horizon / grid.dt))

    traces = {f"{name}_{tag}": EnergyTrace(space_tag=tag) for name, tag in loop.energy_rows}
    recorder = EnergyRecorder(traces.values(), loop.levels.prev, loop.params, grid)
    # a whole number of blocks a chunk, so that only the run's last block is partial
    chunk = -(-RECORD_CHUNK // recorder.size) * recorder.size

    with contextlib.ExitStack() as stack:  # closes the output files however the run ends
        records = _RecordWriter(stack, out, loop.names, grid.nodes(), traces)
        step, states_now, levels = loop.step, loop.boundary_states, loop.levels
        push, pending = recorder.push, records.pending.append
        for k in range(n_steps + 1):
            if k:
                step()
            t = loop.t  # record k's state at k*dt: the initial data, then each step's result
            eta, psi, etas = states_now()
            push(t, levels.curr, etas)
            pending((t, eta, psi))
            if k % config.stride == 0 or k == n_steps:
                records.snapshot(t, loop.fields().values())
            if (k + 1) % chunk == 0 or k == n_steps:
                recorder.flush()
                records.write()

    fitted = {}
    for key, trace in traces.items():
        try:
            fitted[key], _ = fit_decay_rate(trace)
        except NoFitError:
            pass

    abscissae: dict[str, float] = {}
    warnings = config.warnings
    if config.spectral_summary and loop.families:
        try:
            fams = [spectral.CharFamily(tag, loop.params) for tag in loop.families]
            for f in fams:
                abscissae[f.tag] = spectral.spectral_abscissa(
                    spectral.compute_spectrum(f, n_max=40))
            abscissae["combined"] = max(abscissae.values())
        except spectral.HypothesisError:
            pass  # counterexample configs may violate the hypotheses
        except spectral.ContourError as exc:
            abscissae.clear()
            warnings.append(f"spectral summary skipped: {exc}")

    failures = _check_thresholds(config, traces, records.boundary)
    lines = _summary_lines(config, traces, records.boundary, fitted, abscissae, warnings, failures)
    summary_path = _write_summary(out, config, lines)
    return ScenarioResult(config=config, out_dir=out, energy_traces=traces,
                          boundary=records.boundary, fitted_rates=fitted,
                          abscissae=abscissae, threshold_failures=failures,
                          summary_path=summary_path, warnings=warnings)


def _check_thresholds(config, traces, boundary) -> list[str]:
    failures = []
    if config.threshold_plant_energy_ratio is not None and "u_H1" in traces:
        e = traces["u_H1"].values
        ratio = e[-1] / e[0] if e[0] > 0 else (math.inf if e[-1] > 0 else 0.0)
        if not ratio <= config.threshold_plant_energy_ratio:
            failures.append(
                f"plant energy ratio {ratio!r} exceeds "
                f"{config.threshold_plant_energy_ratio!r}")
    if config.threshold_bounded_factor is not None:
        ts = np.asarray(boundary["t"])
        early = ts <= _EARLY_WINDOW
        pooled_all, pooled_early = [], []
        for key, trace in traces.items():
            if key == "u_H1":
                continue
            vals = np.asarray(trace.values)
            pooled_all.append(vals.max())
            pooled_early.append(vals[early].max())
        psi = np.abs(np.asarray(boundary["psi"]))
        pooled_all.append(psi.max())
        pooled_early.append(psi[early].max())
        sup_all, sup_early = float(max(pooled_all)), float(max(pooled_early))
        if not sup_all <= config.threshold_bounded_factor * sup_early:
            failures.append(
                f"boundedness: sup {sup_all!r} exceeds "
                f"{config.threshold_bounded_factor!r} x early max {sup_early!r}")
    return failures


def _summary_lines(config, traces, boundary, fitted, abscissae, warnings, failures):
    lines = [f"mode = {config.mode}"]
    for key in sorted(traces):
        trace = traces[key]
        lines.append(f"energy {key}: initial = {trace.values[0]!r}, "
                     f"final = {trace.values[-1]!r}, max = {max(trace.values)!r}")
    for key in sorted(fitted):
        lines.append(f"fitted energy rate {key} = {fitted[key]!r} "
                     f"(state rate {fitted[key] / 2!r})")
    if boundary["t"]:
        eta = np.abs(np.asarray(boundary["eta"]))
        psi = np.abs(np.asarray(boundary["psi"]))
        lines.append(f"max |eta| = {float(eta.max())!r}, final |eta| = {float(eta[-1])!r}")
        lines.append(f"max |psi| = {float(psi.max())!r}, final |psi| = {float(psi[-1])!r}")
    for tag in sorted(abscissae):
        lines.append(f"spectral abscissa {tag} = {abscissae[tag]!r}")
    for msg in warnings:
        lines.append(f"warning: {msg}")
    if failures:
        for msg in failures:
            lines.append(f"FAIL: {msg}")
    else:
        lines.append("thresholds: PASS" if (config.threshold_plant_energy_ratio is not None
                                            or config.threshold_bounded_factor is not None)
                     else "thresholds: none configured")
    return lines


def _write_summary(out, config, lines) -> str:
    path = os.path.join(out, "summary.txt")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(["# scenario summary", serialize_config(config), *lines, ""]))
    return path
