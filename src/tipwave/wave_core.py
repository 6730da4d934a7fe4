"""Finite-difference core for scalar wave fields u_tt = u_xx on [0, 1].

A loop's fields are stored as rows of one (n_fields, n_nodes) array per
time level and advanced together by an explicit leapfrog scheme on a
uniform grid,

    u_j^{n+1} = 2 u_j^n - u_j^{n-1} + r^2 (u_{j+1}^n - 2 u_j^n + u_{j-1}^n),

with the Courant ratio r = dt/dx <= 1. Boundary nodes are closed by
ghost-node elimination so that the interior stencil and the boundary
relation hold simultaneously:

* pinned end            u(0, t) = 0
* tip mass              u_x(1, t) + m u_tt(1, t) = S(t)
* Robin end             u_x(0, t) = gamma u_t(0, t) + beta u(0, t) + ext(t)
* pinned trace          u(1, t) = value(t)

The tip-mass closure uses a centered second difference in time for the
boundary acceleration; the Robin closure uses a centered first
difference, which keeps the whole scheme second order. One-sided
3-point stencils (exact on quadratics) supply the boundary slopes that
feed the control laws, and backward differences of sampled boundary
values supply their time derivatives.

Each row is closed at both ends by its own pair of boundary kinds:
LEFT_DIRICHLET_ZERO or LEFT_ROBIN at x = 0, RIGHT_TIP_MASS or
RIGHT_DIRICHLET_VALUE at x = 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

LEFT_DIRICHLET_ZERO = 0
LEFT_ROBIN = 1
RIGHT_TIP_MASS = 0
RIGHT_DIRICHLET_VALUE = 1

# node columns read by the closures (0, 1, N-1, N; 0, N)
_CLOSURE_NODES = np.array([0, 1, -2, -1])
_END_NODES = np.array([0, -1])

__all__ = [
    "SystemParams",
    "STABILITY_HYPOTHESES",
    "Grid",
    "FieldHistory",
    "WarmupError",
    "StructuralError",
    "LEFT_DIRICHLET_ZERO",
    "LEFT_ROBIN",
    "RIGHT_TIP_MASS",
    "RIGHT_DIRICHLET_VALUE",
    "leapfrog_step",
    "backward_time_derivative",
    "slope_left",
    "slope_right",
    "second_order_backstep",
]


class StructuralError(ValueError):
    """Raised when array shapes or grid parameters are inconsistent."""


class WarmupError(RuntimeError):
    """Raised when a backward time difference lacks history."""


# The stability hypotheses of the decay results, each "lhs != rhs":
# (report key, lhs, rhs, whether it holds, the spectral families whose
# asymptotics need it).
STABILITY_HYPOTHESES = (
    ("gamma_not_one", "gamma", "1", lambda p: p.gamma != 1.0, ("A2", "Abb")),
    ("m_not_a", "m", "a", lambda p: p.m != p.a, ("A",)),
    ("m_not_a_gamma", "m", "a*gamma", lambda p: p.m != p.a * p.gamma, ()),
)


@dataclass(frozen=True)
class SystemParams:
    """Physical and gain constants of the plant/observer pair.

    m      tip mass at the controlled end
    alpha  velocity gain of the stabilizing feedback
    a      angular-velocity gain of the stabilizing feedback
    beta   position gain of the observer's Robin injection
    gamma  velocity gain of the observer's Robin injection
    """

    m: float = 5.0
    alpha: float = 2.0
    a: float = 2.0
    beta: float = 1.5
    gamma: float = 1.5

    def __post_init__(self):
        bad = [f"{name} must be positive, got {getattr(self, name)}"
               for name in ("m", "alpha", "a", "beta", "gamma")
               if not getattr(self, name) > 0.0]
        if bad:
            raise ValueError("; ".join(bad))

    def hypothesis_report(self) -> dict[str, bool]:
        """Tri-valued stability hypotheses, reported rather than enforced.

        The failure scenarios (constant-disturbance counterexample) must
        stay expressible, so violations never raise here.
        """
        return {key: holds(self) for key, _, _, holds, _ in STABILITY_HYPOTHESES}

    def hypothesis_warnings(self) -> list[str]:
        return [f"{lhs} = {rhs} violates the stability hypotheses"
                for _, lhs, rhs, holds, _ in STABILITY_HYPOTHESES if not holds(self)]


@dataclass(frozen=True)
class Grid:
    """Uniform grid: node j sits at x = j*dx, j = 0..n_cells."""

    n_cells: int
    r: float = 0.5

    def __post_init__(self):
        if self.n_cells < 3:
            raise StructuralError(f"grid too coarse: n_cells={self.n_cells} < 3")
        if not 0.0 < self.r <= 1.0:
            raise StructuralError(f"Courant ratio must satisfy 0 < r <= 1, got {self.r}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @property
    def dt(self) -> float:
        return self.r * self.dx

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def nodes(self) -> NDArray[np.float64]:
        return np.linspace(0.0, 1.0, self.n_cells + 1)


class FieldHistory:
    """Three consecutive time levels of one field, or of a stack of fields.

    ``prev`` and ``curr`` hold the two completed levels; ``new`` is the
    level under construction. A level is either one row of nodes or an
    (n_fields, n_nodes) stack of rows. ``rotate`` cycles the three buffers
    without copying, so no level ever aliases another. The levels carry no
    clock: a loop's time is its step count times dt.
    """

    __slots__ = ("prev", "curr", "new")

    def __init__(self, prev: NDArray, curr: NDArray):
        prev = np.asarray(prev, dtype=float)
        curr = np.asarray(curr, dtype=float)
        if prev.shape != curr.shape or prev.ndim not in (1, 2):
            raise StructuralError(
                f"levels must be equal 1-d or 2-d arrays, got {prev.shape} and {curr.shape}")
        self.prev = prev.copy()
        self.curr = curr.copy()
        self.new = np.empty_like(curr)

    @property
    def n_nodes(self) -> int:
        return self.curr.shape[-1]

    def rotate(self) -> None:
        """Promote the finished new level; recycle the oldest buffer."""
        self.prev, self.curr, self.new = self.curr, self.new, self.prev


def leapfrog_step(levels: FieldHistory, grid: Grid, params: SystemParams,
                  left_kinds: Sequence[int], exts: Sequence[float],
                  right_kinds: Sequence[int], right_inputs: Sequence[float]) -> FieldHistory:
    """Fill the new level of the first ``len(left_kinds)`` stacked rows.

    One interior update covers all of them. Then, in row order, row i is
    closed at x = 0 by ``left_kinds[i]`` (Robin input ``exts[i]``) and at
    x = 1 by ``right_kinds[i]``, whose tip input or pinned value is
    ``right_inputs[i]``. Later rows are left untouched.
    """
    if levels.n_nodes != grid.n_nodes:
        raise StructuralError(f"field has {levels.n_nodes} nodes, grid expects {grid.n_nodes}")
    r, dx, dt = grid.r, grid.dx, grid.dt
    gamma, beta, m = params.gamma, params.beta, params.m
    r2 = r * r
    k = len(left_kinds)
    p, c, out = levels.prev[:k], levels.curr[:k], levels.new[:k]
    # The rows are contiguous, so the stencil runs over them as one line;
    # the values it leaves at the row ends are overwritten by the closures.
    pf, cf, outf = p.reshape(-1), c.reshape(-1), out.reshape(-1)
    outf[1:-1] = 2.0 * cf[1:-1] - pf[1:-1] + r2 * (cf[2:] - 2.0 * cf[1:-1] + cf[:-2])
    rows = zip(c.take(_CLOSURE_NODES, axis=1).tolist(), p.take(_END_NODES, axis=1).tolist(),
               left_kinds, exts, right_kinds, right_inputs)
    for i, ((c0, c1, cm, cn), (p0, pn), left, ext, right, s) in enumerate(rows):
        if left == LEFT_ROBIN:
            out[i, 0] = (2.0 * (c1 - c0) + (2.0 * c0 - p0) / r2
                         + (gamma / r) * p0 - 2.0 * dx * beta * c0
                         - 2.0 * dx * ext) / (1.0 / r2 + gamma / r)
        else:
            out[i, 0] = 0.0
        if right == RIGHT_TIP_MASS:
            out[i, -1] = 2.0 * cn - pn + dt * dt * (s - (cn - cm) / dx) / (m + 0.5 * dx)
        else:
            out[i, -1] = s
    return levels


def slope_left(values, dx: float) -> float:
    """One-sided second-order u_x(0); exact on quadratics."""
    if len(values) < 3:
        raise StructuralError("grid too coarse for one-sided slopes")
    return (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dx)


def slope_right(values, dx: float) -> float:
    """One-sided second-order u_x(1); exact on quadratics."""
    if len(values) < 3:
        raise StructuralError("grid too coarse for one-sided slopes")
    return (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dx)


def backward_time_derivative(samples, order: int, dt: float) -> float:
    """First or second backward difference of a sampled boundary trace."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if len(samples) < order + 1:
        raise WarmupError(f"need {order + 1} samples, have {len(samples)}")
    if order == 1:
        return (samples[-1] - samples[-2]) / dt
    return (samples[-1] - 2.0 * samples[-2] + samples[-3]) / (dt * dt)


def second_order_backstep(positions: NDArray, velocities: NDArray, grid: Grid,
                          params: SystemParams, left_kinds: Sequence[int], exts: Sequence[float],
                          right_kinds: Sequence[int], right_inputs: Sequence[float]) -> NDArray:
    """Build the t = -dt level of stacked rows from their initial positions
    and velocities.

    Uses u(-dt) = u(0) - dt u_t(0) + (dt^2/2) u_tt(0) with the
    acceleration taken from the same ghost-eliminated relations the
    stepper uses, so the first step is second-order accurate. Rows are
    closed as in ``leapfrog_step``, with the inputs at t = 0.
    """
    p = np.asarray(positions, dtype=float)
    w = np.asarray(velocities, dtype=float)
    if not p.shape == w.shape == (len(left_kinds), grid.n_nodes):
        raise StructuralError(f"initial positions {p.shape} and velocities {w.shape} must "
                              f"be {len(left_kinds)} rows of {grid.n_nodes} nodes")
    dx, dt, r = grid.dx, grid.dt, grid.r
    r2 = r * r
    delta = np.zeros_like(p)
    delta[:, 1:-1] = r2 * (p[:, 2:] - 2.0 * p[:, 1:-1] + p[:, :-2])
    prev = p - dt * w + 0.5 * delta
    for row, pi, wi, left, ext, right, s in zip(prev, p, w, left_kinds, exts,
                                                right_kinds, right_inputs):
        if left == LEFT_DIRICHLET_ZERO:
            row[0] = 0.0
        elif left == LEFT_ROBIN:
            accel = (2.0 * pi[1] - 2.0 * pi[0]
                     - 2.0 * dx * (params.gamma * wi[0] + params.beta * pi[0] + ext)) / (dx * dx)
            row[0] = pi[0] - dt * wi[0] + 0.5 * dt * dt * accel
        if right == RIGHT_TIP_MASS:
            tip = dt * dt * (s - (pi[-1] - pi[-2]) / dx) / (params.m + 0.5 * dx)
            row[-1] = pi[-1] - dt * wi[-1] + 0.5 * tip
        elif right == RIGHT_DIRICHLET_VALUE:
            row[-1] = s
    return prev
