"""Declarative disturbance and internal-uncertainty signals.

The boundary input splits into an external disturbance d(t) and an
internal uncertainty f evaluated on the tip displacement u(1, t); both
are described by a small declarative spec so scenario configs can
serialize them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

__all__ = ["DisturbanceSpec", "eval_d", "eval_f"]

D_KINDS = ("zero", "constant", "cosine", "exp_decay", "table")
F_KINDS = ("zero", "sin_of_tip", "lipschitz_linear")


@dataclass(frozen=True)
class DisturbanceSpec:
    """External disturbance d(t) plus tip-based uncertainty f(u(1,t)).

    table entries are (t, value) pairs, piecewise-linearly interpolated
    on their time span; outside it the end values are held (clamped).
    """

    d_kind: str = "zero"
    amplitude: float = 1.0
    frequency: float = 2.0
    rate: float = 1.0
    constant: float = 1.0
    table: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    f_kind: str = "zero"
    f_gain: float = 1.0

    def __post_init__(self):
        if self.d_kind not in D_KINDS:
            raise ValueError(f"unknown d_kind {self.d_kind!r}; expected one of {D_KINDS}")
        if self.f_kind not in F_KINDS:
            raise ValueError(f"unknown f_kind {self.f_kind!r}; expected one of {F_KINDS}")
        if self.d_kind == "table":
            if len(self.table) < 2:
                raise ValueError("table disturbance needs at least two (t, value) points")
            ts = [t for t, _ in self.table]
            if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
                raise ValueError("table times must be strictly increasing")


def eval_d(spec: DisturbanceSpec, t: float) -> float:
    """Disturbance value at time t >= 0."""
    if spec.d_kind == "zero":
        return 0.0
    if spec.d_kind == "constant":
        return spec.constant
    if spec.d_kind == "cosine":
        return spec.amplitude * math.cos(spec.frequency * t)
    if spec.d_kind == "exp_decay":
        return spec.amplitude * math.exp(-spec.rate * t)
    ts = [p[0] for p in spec.table]
    vs = [p[1] for p in spec.table]
    if t < ts[0] or t > ts[-1]:
        # no t in the message, so a run past the domain warns once, not every step
        warnings.warn(f"time outside table domain [{ts[0]}, {ts[-1]}]; clamping")
        return vs[0] if t < ts[0] else vs[-1]
    for (t0, v0), (t1, v1) in zip(spec.table, spec.table[1:]):
        if t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return vs[-1]


def eval_f(spec: DisturbanceSpec, tip_value: float) -> float:
    """Internal-uncertainty value for the current tip displacement.

    Every built-in kind satisfies the global Lipschitz requirement;
    zero and sin_of_tip additionally vanish at the origin.
    """
    if spec.f_kind == "zero":
        return 0.0
    if spec.f_kind == "sin_of_tip":
        return math.sin(tip_value)
    return spec.f_gain * tip_value
