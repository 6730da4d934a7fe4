"""Discrete state-space energies and exponential decay-rate fitting.

Each tag names the squared norm of one of the state spaces the
stability analysis works in:

    H1    integral(|f'|^2 + |g|^2) + |eta|^2 / m            (plant)
    H2    integral(|f'|^2 + |g|^2) + beta |f(0)|^2 + |eta|^2 / m
    H     integral(|f'|^2 + |g|^2) + |eta|^2 / (m + alpha a)
    Hbb   integral(|f'|^2 + |g|^2)
    Hbb1  integral(|f'|^2 + |g|^2) + beta |f(0)|^2

The displacement f is taken as the average of the two stored levels and
the velocity g as their backward difference, which collocates both at
the half step t - dt/2 and keeps the estimator second-order accurate
(a conservative run drifts by O(dx^2)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .wave_core import FieldHistory, Grid, SystemParams

__all__ = ["EnergyTrace", "NoFitError", "energy", "energies", "fit_decay_rate",
           "envelope_samples", "fit_envelope_rate"]

SPACE_TAGS = ("H1", "H2", "H", "Hbb", "Hbb1")


class NoFitError(RuntimeError):
    """Raised when a decay fit has no usable samples."""


@dataclass
class EnergyTrace:
    """Time series of one named energy, suitable for decay fitting."""

    space_tag: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, t: float, value: float) -> None:
        if self.times and t <= self.times[-1]:
            raise ValueError(f"times must be strictly increasing, got {t}")
        if value < 0.0:
            raise ValueError(f"energy must be nonnegative, got {value}")
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,E,tag\n")
            for t, v in zip(self.times, self.values):
                fh.write(f"{float(t)!r},{float(v)!r},{self.space_tag}\n")


def energies(space_tags, field_hist: FieldHistory, etas,
             params: SystemParams, grid: Grid) -> list[float]:
    """Discrete energies of the rows of a stacked field history, in one pass.

    Row i is measured in ``space_tags[i]`` with boundary-dynamics state
    ``etas[i]`` (0 where the tag has none). f' is differenced centrally
    at interior nodes and one-sided at the ends; the integral is a
    trapezoid over the nodes.
    """
    for tag in space_tags:
        if tag not in SPACE_TAGS:
            raise ValueError(f"unknown space tag {tag!r}; expected one of {SPACE_TAGS}")
    dx, dt = grid.dx, grid.dt
    f = 0.5 * (field_hist.curr + field_hist.prev)
    g = (field_hist.curr - field_hist.prev) / dt
    fp = np.empty_like(f)
    # central differences over the rows as one line; the row ends are
    # overwritten by the one-sided differences below
    ff, fpf = f.reshape(-1), fp.reshape(-1)
    fpf[1:-1] = (ff[2:] - ff[:-2]) / (2.0 * dx)
    fp[:, 0] = (-3.0 * f[:, 0] + 4.0 * f[:, 1] - f[:, 2]) / (2.0 * dx)
    fp[:, -1] = (3.0 * f[:, -1] - 4.0 * f[:, -2] + f[:, -3]) / (2.0 * dx)
    totals = np.trapezoid(fp * fp + g * g, dx=dx, axis=-1).tolist()
    out = []
    for tag, eta, total, f0 in zip(space_tags, etas, totals, f[:, 0].tolist()):
        if tag == "H1":
            total += eta * eta / params.m
        elif tag == "H2":
            total += params.beta * f0 * f0 + eta * eta / params.m
        elif tag == "H":
            total += eta * eta / (params.m + params.alpha * params.a)
        elif tag == "Hbb1":
            total += params.beta * f0 * f0
        out.append(float(total))
    return out


def energy(space_tag: str, field_hist: FieldHistory, eta: float,
           params: SystemParams, grid: Grid) -> float:
    """Discrete energy of one field's two completed levels (see ``energies``)."""
    row = FieldHistory(field_hist.prev[None], field_hist.curr[None])
    return energies((space_tag,), row, (eta,), params, grid)[0]


def fit_decay_rate(trace: EnergyTrace, window: float = 0.5,
                   t_skip: float = 2.0) -> tuple[float, float]:
    """Least-squares line through (t, ln E) over the tail of a trace.

    ``window`` is the fraction of the time span kept at the tail; the
    first ``t_skip`` time units are always dropped (startup transient).
    Returns (rate, log_amplitude): E ~ exp(log_amplitude + rate * t).
    The energy is quadratic in the state, so the state decays at rate/2.
    """
    if not 0.0 < window <= 1.0:
        raise ValueError(f"window must lie in (0, 1], got {window}")
    t = np.asarray(trace.times, dtype=float)
    e = np.asarray(trace.values, dtype=float)
    keep = e > 1e-300
    t, e = t[keep], e[keep]
    if t.size == 0:
        raise NoFitError("all samples excluded (energy below 1e-300)")
    t_start = max(t_skip, t[0] + (1.0 - window) * (t[-1] - t[0]))
    sel = t >= t_start
    if sel.sum() < 20:
        raise NoFitError(f"need >= 20 samples in window, have {int(sel.sum())}")
    return _fit_log_linear(t[sel], e[sel])


def envelope_samples(times, values, width: float):
    """Windowed maxima of |values|: (window centers, maxima) arrays.

    A boundary trace like u_x(1, t) oscillates through zero, so its log
    cannot be fitted directly; the maximum over consecutive windows of
    about one oscillation period tracks the decaying envelope instead.
    """
    t = np.asarray(times, dtype=float)
    v = np.abs(np.asarray(values, dtype=float))
    if t.size != v.size or t.size == 0:
        raise ValueError("times and values must be equal-length and nonempty")
    centers, maxima = [], []
    left = t[0]
    while left + width <= t[-1] + 1e-12:
        sel = (t >= left) & (t < left + width)
        if sel.any():
            centers.append(left + 0.5 * width)
            maxima.append(float(v[sel].max()))
        left += width
    return np.asarray(centers), np.asarray(maxima)


def fit_envelope_rate(times, values, width: float,
                      t_start: float, t_end: float) -> tuple[float, float]:
    """Exponential rate of an oscillatory signal's envelope.

    Windowed maxima over [t_start, t_end] are fitted log-linearly; this
    is a state-level rate (the signal itself is not quadratic). Needs at
    least four windows.
    """
    centers, maxima = envelope_samples(times, values, width)
    sel = (centers >= t_start) & (centers <= t_end) & (maxima > 1e-300)
    if sel.sum() < 4:
        raise NoFitError(f"need >= 4 envelope windows, have {int(sel.sum())}")
    return _fit_log_linear(centers[sel], maxima[sel])


def _fit_log_linear(t, values) -> tuple[float, float]:
    """Least-squares line through (t, ln values): (slope, intercept)."""
    design = np.vstack([t, np.ones(t.size)]).T
    (rate, log_amp), *_ = np.linalg.lstsq(design, np.log(values), rcond=None)
    return float(rate), float(log_amp)
