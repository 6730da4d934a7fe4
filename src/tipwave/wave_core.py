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

On a few hundred nodes a step's cost is mostly fixed Python and NumPy
call overhead, so a loop builds one ``StepPlan`` for its levels when it
is constructed and steps through it: the plan holds the closures'
constants, the interior update's scratch lines and views of the level
buffers, and re-derives none of them per step. It also back-steps the
first level, so it is the only code that writes a loop's levels.
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
    "StepPlan",
    "backward_time_derivative",
    "slope_left",
    "slope_right",
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
        problems = []
        if self.n_cells < 3:
            problems.append(f"grid too coarse: n_cells={self.n_cells} < 3")
        if not 0.0 < self.r <= 1.0:
            problems.append(f"Courant ratio must satisfy 0 < r <= 1, got {self.r}")
        if problems:
            raise StructuralError("; ".join(problems))

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


class StepPlan:
    """One loop's leapfrog step, prepared once for its levels.

    Built from the levels, the grid, the params and the boundary kinds of
    the first ``len(left_kinds)`` rows, it holds everything a step re-uses:
    the closures' scalar constants, two scratch lines for the interior
    stencil, and the flat ``[1:-1]``, ``[2:]`` and ``[:-2]`` views of the
    stepped rows of each of the three level buffers. The views are keyed
    by buffer, so they follow ``FieldHistory.rotate``. For the loop that
    steps through it, it also holds the flat positions of the nodes the
    one-sided slopes read and a buffer of the rows' shape for the blow-up
    guard. Every expression keeps the operand order of the closures it
    implements; the constants are left-to-right prefixes of them, so a
    planned step or back-step gives the same bits as the closures written out in full.
    """

    def __init__(self, levels: FieldHistory, grid: Grid, params: SystemParams,
                 left_kinds: Sequence[int], right_kinds: Sequence[int]):
        k = len(left_kinds)
        if levels.n_nodes != grid.n_nodes:
            raise StructuralError(f"field has {levels.n_nodes} nodes, grid expects {grid.n_nodes}")
        if levels.curr.ndim != 2 or not 0 < k == len(right_kinds) <= len(levels.curr):
            raise StructuralError(f"cannot step {k} rows of levels of shape {levels.curr.shape}")
        r, dx, dt = grid.r, grid.dx, grid.dt
        gamma, beta, m = params.gamma, params.beta, params.m
        self.levels = levels
        self.left_kinds, self.right_kinds = tuple(left_kinds), tuple(right_kinds)
        self.dx, self.dt = dx, dt
        self.gamma, self.beta = gamma, beta
        self.r2 = r * r
        self.gamma_r = gamma / r
        self.two_dx_beta = 2.0 * dx * beta
        self.two_dx = 2.0 * dx
        self.robin_denom = 1.0 / self.r2 + gamma / r
        self.dt2 = dt * dt
        self.tip_mass = m + 0.5 * dx
        n = grid.n_nodes
        # flat positions, in each row, of the nodes the closures read from the
        # current and the previous level, and of those the slopes read
        starts = np.arange(k)[:, None] * n
        self.closure_index = starts + [0, 1, n - 2, n - 1]
        self.end_index = starts + [0, n - 1]
        self.edge_index = starts + [0, 1, 2, n - 3, n - 2, n - 1]
        self.scratch = (np.empty(k * n - 2), np.empty(k * n - 2))
        self.magnitudes = np.empty((k, n))
        self._cut_views()

    def _cut_views(self) -> None:
        # The rows are contiguous, so the stencil runs over them as one line;
        # the values it leaves at the row ends are overwritten by the closures.
        k = len(self.left_kinds)
        self.views = {}
        for buf in (self.levels.prev, self.levels.curr, self.levels.new):
            line = buf[:k].reshape(-1)
            self.views[id(buf)] = (line[1:-1], line[2:], line[:-2])

    def __setstate__(self, state) -> None:
        """A copied or unpickled plan cuts its views from its own levels:
        copied views would not alias the copied buffers."""
        self.__dict__.update(state)
        self._cut_views()

    def step(self, exts: Sequence[float], right_inputs: Sequence[float]) -> None:
        """Fill the new level of the planned rows: row i is closed at x = 0
        with Robin input ``exts[i]`` and at x = 1 with tip input or pinned
        value ``right_inputs[i]``. Later rows are left untouched."""
        levels, views = self.levels, self.views
        prev, curr, new = levels.prev, levels.curr, levels.new
        c_mid, c_right, c_left = views[id(curr)]
        twice, lap = self.scratch
        # 2 u^n - u^{n-1} + r^2 (u_{j+1} - 2 u_j + u_{j-1}), with 2 u_j formed once
        np.multiply(2.0, c_mid, out=twice)
        np.subtract(c_right, twice, out=lap)
        np.add(lap, c_left, out=lap)
        np.multiply(self.r2, lap, out=lap)
        np.subtract(twice, views[id(prev)][0], out=twice)
        np.add(twice, lap, out=views[id(new)][0])
        r2, gamma_r, two_dx_beta, two_dx = self.r2, self.gamma_r, self.two_dx_beta, self.two_dx
        robin_denom, dt2, dx, tip_mass = self.robin_denom, self.dt2, self.dx, self.tip_mass
        rows = zip(curr.take(self.closure_index).tolist(), prev.take(self.end_index).tolist(),
                   self.left_kinds, exts, self.right_kinds, right_inputs)
        for i, ((c0, c1, cm, cn), (p0, pn), left, ext, right, s) in enumerate(rows):
            if left == LEFT_ROBIN:
                new[i, 0] = (2.0 * (c1 - c0) + (2.0 * c0 - p0) / r2
                             + gamma_r * p0 - two_dx_beta * c0
                             - two_dx * ext) / robin_denom
            else:
                new[i, 0] = 0.0
            if right == RIGHT_TIP_MASS:
                new[i, -1] = 2.0 * cn - pn + dt2 * (s - (cn - cm) / dx) / tip_mass
            else:
                new[i, -1] = s

    def backstep(self, velocities: NDArray, exts: Sequence[float],
                 right_inputs: Sequence[float]) -> None:
        """Fill the planned rows of the previous level, at t = -dt, from the
        current level at t = 0 and the rows' initial velocities, by
        u(-dt) = u(0) - dt u_t(0) + (dt^2/2) u_tt(0) with u_tt(0) from the
        ghost-eliminated relations ``step`` closes the rows with, fed the
        inputs at t = 0, so the first step is second-order accurate."""
        p = self.levels.curr[:len(self.left_kinds)]
        w = np.asarray(velocities, dtype=float)
        if w.shape != p.shape:
            raise StructuralError(f"initial velocities {w.shape} must be {p.shape}")
        dx, dt, gamma, beta = self.dx, self.dt, self.gamma, self.beta
        prev = self.levels.prev[:len(p)]
        # the end nodes are closed below
        prev[:, 1:-1] = (p[:, 1:-1] - dt * w[:, 1:-1]
                         + 0.5 * (self.r2 * (p[:, 2:] - 2.0 * p[:, 1:-1] + p[:, :-2])))
        for row, pi, wi, left, ext, right, s in zip(prev, p, w, self.left_kinds, exts,
                                                    self.right_kinds, right_inputs):
            if left == LEFT_ROBIN:
                accel = (2.0 * pi[1] - 2.0 * pi[0]
                         - self.two_dx * (gamma * wi[0] + beta * pi[0] + ext)) / (dx * dx)
                row[0] = pi[0] - dt * wi[0] + 0.5 * dt * dt * accel
            else:
                row[0] = 0.0
            if right == RIGHT_TIP_MASS:
                tip = self.dt2 * (s - (pi[-1] - pi[-2]) / dx) / self.tip_mass
                row[-1] = pi[-1] - dt * wi[-1] + 0.5 * tip
            else:
                row[-1] = s


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
