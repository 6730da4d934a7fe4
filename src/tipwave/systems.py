"""Coupled closed-loop systems and their boundary control laws.

Three drivers share one interface (``step()``, ``t``, ``fields()``,
``boundary_states()``) and one stepper: each stores its fields as rows
of one stacked array per time level, closed by its ``left_kinds`` and
``right_kinds``, and holds the ``DisturbanceSpec`` it runs under, so
``step()`` takes no inputs. Each writes its levels only through the
``wave_core.StepPlan`` it builds once from its grid, params and kinds,
with the inputs of its ``_inputs()``. No loop measures its energies:
``boundary_states()`` returns (eta, psi, etas), the tip states and one
boundary-dynamics state per row, all from the latest samples and with
no state kept between calls, and an ``energy.EnergyRecorder`` takes each
level with those etas, in the spaces of ``energy_rows``.

* ``SingleFieldLoop``  one wave field with any boundary pair (open
  plant, or either error system of the estimator analysis);
* ``ObserverLoop``     plant + boundary-injected observer, closed by
  the estimated-state feedback U = -alpha*u^_t(1) - a*u^_xt(1);
* ``EsoLoop``          plant + disturbance estimator pair (v, q), where
  q(1, t) is pinned to the output mismatch v(1, t) - u(1, t) and the
  control cancels the estimated total disturbance q_x(1) + m q_tt(1).

Each loop samples the few boundary values its control laws read once
per step and keeps the last three samples. The control evaluated at
step n uses samples up to t_n only (one-step explicit lag), and returns
0 until it has enough samples to difference. Time derivatives are
backward differences of the samples, O(dt) at t_n, so ``ObserverLoop``
and ``EsoLoop`` are first order in dt; q_tt(1) comes from differencing
the pinned q(1) samples, never from a one-sided spatial second
derivative. The boundary slopes are one-sided second-order differences
over three nodes, exact on quadratics. Each sample reads its level's
edge nodes through the plan and is built in one pass over the rows
read, which the loop then hands the next step. The control laws take
each quantity's history, so a closed loop transposes its samples once a
step for its inputs; the tip states difference the last two samples
where they are kept.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from numpy.typing import NDArray

from .signals import DisturbanceSpec, eval_d, eval_f
from .wave_core import (
    LEFT_DIRICHLET_ZERO,
    LEFT_ROBIN,
    RIGHT_DIRICHLET_VALUE,
    RIGHT_TIP_MASS,
    FieldHistory,
    Grid,
    StepPlan,
    StructuralError,
    SystemParams,
)

__all__ = [
    "BlowUpError",
    "control_observer",
    "control_eso",
    "SingleFieldLoop",
    "ObserverLoop",
    "EsoLoop",
]

BLOWUP_LIMIT = 1e12
# a level whose sum of squares is at most this holds no value above the
# limit, with the halving to spare for the rounding of the sum
_GUARD_SQUARES = BLOWUP_LIMIT ** 2 / 2
NO_DISTURBANCE = DisturbanceSpec()


class BlowUpError(RuntimeError):
    """A field value exceeded the blow-up guard at level ``step_index``,
    whose time is ``t`` = step_index * dt."""

    def __init__(self, field_name: str, step_index: int, t: float, value: float):
        self.field_name = field_name
        self.step_index = step_index
        self.t = t
        self.value = value
        super().__init__(
            f"field {field_name!r} blew up at step {step_index} (t={t:.6g}): "
            f"|value| = {value:.3e} > {BLOWUP_LIMIT:.0e}")


def control_observer(uhat1, uhatx1, dt: float, params: SystemParams) -> float:
    """Estimated-state feedback from the observer's tip value and tip
    slope samples (oldest first)."""
    if len(uhat1) < 2:
        return 0.0
    return (-params.alpha * ((uhat1[-1] - uhat1[-2]) / dt)
            - params.a * ((uhatx1[-1] - uhatx1[-2]) / dt))


def control_eso(v1, vx1, q1, qx1, dt: float, params: SystemParams) -> float:
    """Disturbance-cancelling feedback from the estimators' tip value and
    tip slope samples (oldest first).

    The q_x(1) + m q_tt(1) part cancels the estimated total disturbance;
    the v - q differences estimate the plant's tip velocity and angular
    velocity.
    """
    if len(v1) < 3 or len(q1) < 3:
        return 0.0
    return (qx1[-1] + params.m * ((q1[-1] - 2.0 * q1[-2] + q1[-3]) / (dt * dt))
            - params.alpha * ((v1[-1] - v1[-2]) / dt - (q1[-1] - q1[-2]) / dt)
            - params.a * ((vx1[-1] - vx1[-2]) / dt - (qx1[-1] - qx1[-2]) / dt))


def _rate(history, dt: float, i: int) -> float:
    """Backward first difference of entry ``i`` of the last two boundary
    samples; 0.0 while ``history`` holds a single sample."""
    if len(history) < 2:
        return 0.0
    return (history[-1][i] - history[-2][i]) / dt


class _StackedLoop:
    """Rows of fields stepped together; subclasses name and close them.

    ``names`` lists the stepped rows in step order; a stack may carry
    further rows derived from them (the observer-error row).
    ``energy_rows`` pairs each row of the stack, in order, with the space
    its energy is measured in. ``families`` tags the spectral blocks
    (``spectral.CharFamily``) whose union is the loop generator's
    spectrum; it is empty for a loop that is not closed. At the start and
    after every step the loop samples the stepped rows' boundaries: each
    row's tip value u(1), then each row's tip slope u_x(1), then the
    plant's measured slope u_x(0). The last three samples are kept,
    enough for a backward second difference, oldest first, in
    ``_history``. The back-step and every step take a loop's boundary
    inputs from ``_inputs()`` and write the rows that follow from the
    stepped ones with ``_couple(level)``. ``_edges`` holds the edge rows
    the loop read of its previous and current levels, for the next step.
    """

    names: tuple[str, ...]
    energy_rows: tuple[tuple[str, str], ...]
    families: tuple[str, ...]

    def __init__(self, grid: Grid, params: SystemParams, spec: DisturbanceSpec,
                 positions, velocities):
        self.grid = grid
        self.params = params
        self.spec = spec
        curr = np.zeros((len(self.energy_rows), grid.n_nodes))
        curr[:len(self.names)] = self._initial_rows("position", positions)
        self.levels = FieldHistory(curr, curr)
        self.plan = StepPlan(self.levels, grid, params, self.left_kinds, self.right_kinds)
        self._history: deque[tuple[float, ...]] = deque(maxlen=3)
        curr_edges = self._sample()
        self.step_index = 0
        # the controls are 0 in warm-up, so these are the first step's inputs at t = 0
        self.plan.backstep(self._initial_rows("velocity", velocities), *self._inputs())
        self._couple(self.levels.prev)
        self._edges = (self.plan.read_edges(self.levels.prev), curr_edges)

    def _initial_rows(self, kind: str, rows) -> NDArray[np.float64]:
        """The stepped rows' initial positions or velocities, stacked."""
        rows = [np.asarray(row, dtype=float) for row in rows]
        for name, row in zip(self.names, rows):
            if row.shape != (self.grid.n_nodes,):
                raise StructuralError(f"initial {kind} of {name} has {row.size} values, "
                                      f"grid expects {self.grid.n_nodes}")
        return np.array(rows)

    @property
    def t(self) -> float:
        """Time of the current level, at which ``step`` evaluates f and d."""
        return self.step_index * self.plan.dt

    def fields(self) -> dict[str, NDArray[np.float64]]:
        """Current level of each stepped field (views: copy to keep)."""
        return dict(zip(self.names, self.levels.curr))

    def _sample(self) -> list[list[float]]:
        # each row's u(1) and u_x(1), then the plant's u_x(0); returns the edge rows read
        plan = self.plan
        two_dx = plan.two_dx
        rows = plan.read_edges(self.levels.curr)
        tips, slopes = [], []
        for _, _, _, a, b, c in rows:
            tips.append(c)
            slopes.append((3.0 * c - 4.0 * b + a) / two_dx)
        c0, c1, c2 = rows[0][:3]
        slopes.append((-3.0 * c0 + 4.0 * c1 - c2) / two_dx)
        self._history.append(tuple(tips + slopes))
        return rows

    def _couple(self, level: NDArray[np.float64]) -> None:
        """Write the rows of ``level`` that follow from its stepped rows."""

    def step(self) -> None:
        """Advance one dt with the inputs evaluated at time t, then guard
        the new level, promote it and sample its boundaries. The guard is
        one ``np.vdot`` (which, unlike ``np.dot``, overflows without a
        warning); only a level it does not clear is searched row by row."""
        plan, levels = self.plan, self.levels
        prev_edges, curr_edges = self._edges
        plan.step(*self._inputs(), prev_edges, curr_edges)
        new = levels.new
        self._couple(new)
        line = plan.views[id(new)][0]
        if not np.vdot(line, line) <= _GUARD_SQUARES:
            for name, row in zip(self.names, new):
                peak = float(np.max(np.abs(row)))
                if not peak <= BLOWUP_LIMIT:
                    raise BlowUpError(name, self.step_index + 1,
                                      (self.step_index + 1) * plan.dt, peak)
        self.step_index += 1
        levels.rotate()
        self._edges = (curr_edges, self._sample())


class SingleFieldLoop(_StackedLoop):
    """One wave field u under a fixed boundary pair.

    left_kind:  LEFT_DIRICHLET_ZERO or LEFT_ROBIN (homogeneous)
    right_kind: RIGHT_TIP_MASS or RIGHT_DIRICHLET_VALUE

    The right end receives f(u(1, t)) + d(t) from ``spec``: the tip
    force, or the pinned value.
    """

    names = ("u",)
    energy_rows = (("u", "H1"),)
    families = ()

    def __init__(self, grid: Grid, params: SystemParams, position, velocity,
                 left_kind: int, right_kind: int, spec: DisturbanceSpec = NO_DISTURBANCE):
        self.left_kinds, self.right_kinds = (left_kind,), (right_kind,)
        super().__init__(grid, params, spec, (position,), (velocity,))

    def _inputs(self) -> tuple[tuple[float], tuple[float]]:
        return (0.0,), (eval_f(self.spec, self._history[-1][0]) + eval_d(self.spec, self.t),)

    def boundary_states(self) -> tuple[float, float, tuple[float]]:
        """(eta, eta, (eta,)) with eta = m * u_t(1), the plant's tip momentum."""
        eta = self.params.m * _rate(self._history, self.plan.dt, 0)
        return eta, eta, (eta,)


class ObserverLoop(_StackedLoop):
    """Plant + Luenberger observer under estimated-state feedback.

    The plant keeps its pinned left end; the observer's left end is the
    Robin injection fed by the measured plant slope u_x(0, t). Both tip
    ends receive the same control, the plant additionally the
    disturbance. A third row carries the observer error uhat - u.
    """

    names = ("u", "uhat")
    energy_rows = (("u", "H1"), ("uhat", "H2"), ("err", "H2"))
    families = ("A", "A2")  # state feedback + observer error
    left_kinds = (LEFT_DIRICHLET_ZERO, LEFT_ROBIN)
    right_kinds = (RIGHT_TIP_MASS, RIGHT_TIP_MASS)

    def __init__(self, grid: Grid, params: SystemParams,
                 u0, ut0, uhat0, uhatt0, spec: DisturbanceSpec = NO_DISTURBANCE):
        super().__init__(grid, params, spec, (u0, uhat0), (ut0, uhatt0))
        self._couple(self.levels.curr)

    def _inputs(self) -> tuple[tuple[float, float], tuple[float, float]]:
        u1, uhat1, _, uhatx1, ux0 = zip(*self._history)
        control = control_observer(uhat1, uhatx1, self.plan.dt, self.params)
        disturbance = eval_f(self.spec, u1[-1]) + eval_d(self.spec, self.t)
        return (0.0, ux0[-1]), (control + disturbance, control)

    def _couple(self, level: NDArray[np.float64]) -> None:
        """The observer error row, uhat - u."""
        np.subtract(level[1], level[0], out=level[2])

    def boundary_states(self) -> tuple[float, float, tuple[float, float, float]]:
        """(eta, psi, etas): the boundary-dynamics states of plant and
        observer, and the rows' etas, the error row's m * (uhat_t - u_t)(1)."""
        p, history, dt = self.params, self._history, self.plan.dt
        shared = p.a * history[-1][3]
        rate_u, rate_uhat = _rate(history, dt, 0), _rate(history, dt, 1)
        eta, psi = p.m * rate_u + shared, p.m * rate_uhat + shared
        return eta, psi, (eta, psi, p.m * (rate_uhat - rate_u))


class EsoLoop(_StackedLoop):
    """Plant + extended-state-observer pair under disturbance cancellation.

    Step order matters and is fixed: control from samples at t_n, then u,
    then v (Robin fed by the measured plant slope), then q, whose right
    node is pinned to the fresh levels' mismatch v - u so the coupling
    identity holds exactly at every sample time.
    """

    names = ("u", "v", "q")
    energy_rows = (("u", "H1"), ("v", "Hbb1"), ("q", "Hbb1"))
    families = ("A", "Abb")  # state feedback + estimation error
    left_kinds = (LEFT_DIRICHLET_ZERO, LEFT_ROBIN, LEFT_ROBIN)
    right_kinds = (RIGHT_TIP_MASS, RIGHT_TIP_MASS, RIGHT_DIRICHLET_VALUE)

    def __init__(self, grid: Grid, params: SystemParams,
                 u0, ut0, v0, vt0, q0, qt0, spec: DisturbanceSpec = NO_DISTURBANCE):
        super().__init__(grid, params, spec, (u0, v0, q0), (ut0, vt0, qt0))

    def _inputs(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        u1, v1, q1, _, vx1, qx1, ux0 = zip(*self._history)
        control = control_eso(v1, vx1, q1, qx1, self.plan.dt, self.params)
        tip = control + eval_f(self.spec, u1[-1]) + eval_d(self.spec, self.t)
        # q's pinned tip is a placeholder here, set from the closed u, v rows
        return (0.0, ux0[-1], 0.0), (tip, control, 0.0)

    def _couple(self, level: NDArray[np.float64]) -> None:
        """Pin q's tip to the mismatch v - u of the closed rows."""
        plan = self.plan
        line = plan.views[id(level)][0]
        # each row's tip sits at the last flat position of its closure record
        (_, _, _, u), (_, _, _, v), (_, _, _, q) = plan.closures
        line[q] = line[v] - line[u]

    def boundary_states(self) -> tuple[float, float, tuple[float, float, float]]:
        """(eta, psi, etas): tip-dynamics states of the closed loop, and the
        rows' etas; the estimators' spaces have none."""
        p, history, dt = self.params, self._history, self.plan.dt
        last = history[-1]
        slope_gap = p.a * (last[4] - last[5])
        eta = p.m * _rate(history, dt, 0) + slope_gap
        psi = eta - p.m * _rate(history, dt, 2)
        return eta, psi, (eta, 0.0, 0.0)
