import copy
import pickle
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tipwave import DisturbanceSpec, EsoLoop, Grid, ObserverLoop, SingleFieldLoop, SystemParams
from tipwave.energy import EnergyRecorder, EnergyTrace, energies
from tipwave.signals import D_KINDS, F_KINDS, eval_d, eval_f
from tipwave.systems import (
    _GUARD_SQUARES,
    BLOWUP_LIMIT,
    NO_DISTURBANCE,
    BlowUpError,
    control_eso,
    control_observer,
)
from tipwave.wave_core import (
    LEFT_DIRICHLET_ZERO,
    LEFT_ROBIN,
    RIGHT_DIRICHLET_VALUE,
    RIGHT_TIP_MASS,
    FieldHistory,
    StepPlan,
    StructuralError,
)
from test_wave_core import backward_time_derivative, composed_step, slope_left, slope_right

# f = sin(u(1, t)), d = cos(2t): the reference experiment's inputs
SEC4_INPUTS = DisturbanceSpec(d_kind="cosine", frequency=2.0, f_kind="sin_of_tip")


def push_tip_samples(loop, tips):
    """Append boundary samples that differ from the latest one only in
    the plant's tip value u(1)."""
    latest = loop._history[-1]
    for tip in tips:
        loop._history.append((tip,) + latest[1:])


class TestControlObserver:
    def test_stationary_traces_zero_control(self, params):
        assert control_observer([2.0] * 3, [1.0] * 3, 0.01, params) == 0.0

    def test_linear_tip_trace(self, params):
        dt = 0.01
        control = control_observer([0.0, dt, 2 * dt], [0.0] * 3, dt, params)
        assert control == pytest.approx(-2.0, rel=1e-12)

    def test_both_terms_sum(self, params):
        dt = 0.01
        ramp = [0.0, dt, 2 * dt]
        # independent scalar arithmetic: -alpha*1 - a*1
        assert control_observer(ramp, ramp, dt, params) == pytest.approx(
            -params.alpha - params.a, rel=1e-12)

    def test_warmup_returns_zero(self, params):
        assert control_observer([1.0], [1.0], 0.01, params) == 0.0


class TestControlEso:
    def test_all_zero(self, params):
        zeros = [0.0] * 3
        assert control_eso(zeros, zeros, zeros, zeros, 0.01, params) == 0.0

    def test_quadratic_tip_trace_gives_mass_term(self, params):
        dt = 0.01
        zeros = [0.0] * 3
        q1 = [0.0, dt ** 2, 4 * dt ** 2]
        # m * q_tt with q(1,t) = t^2 -> 2m = 10, plus -alpha*(0 - q_t)
        q_t = (4 * dt ** 2 - dt ** 2) / dt
        expected = params.m * 2.0 + params.alpha * q_t
        assert control_eso(zeros, zeros, q1, zeros, dt, params) == pytest.approx(
            expected, rel=1e-10)

    def test_single_velocity_term(self, params):
        dt = 0.01
        zeros = [0.0] * 3
        v1 = [0.0, dt, 2 * dt]
        assert control_eso(v1, zeros, zeros, zeros, dt, params) == pytest.approx(
            -2.0, rel=1e-12)

    def test_warmup(self, params):
        ramp, zeros = [0.0, 1.0], [0.0, 0.0]
        assert control_eso(ramp, zeros, ramp, zeros, 0.01, params) == 0.0


# The control laws as compositions of ``backward_time_derivative``: the
# reference their written-out differences must match bit for bit.
def reference_control_observer(uhat1, uhatx1, dt, params):
    if len(uhat1) < 2:
        return 0.0
    return (-params.alpha * backward_time_derivative(uhat1, 1, dt)
            - params.a * backward_time_derivative(uhatx1, 1, dt))


def reference_control_eso(v1, vx1, q1, qx1, dt, params):
    if len(v1) < 3 or len(q1) < 3:
        return 0.0
    return (qx1[-1] + params.m * backward_time_derivative(q1, 2, dt)
            - params.alpha * (backward_time_derivative(v1, 1, dt)
                              - backward_time_derivative(q1, 1, dt))
            - params.a * (backward_time_derivative(vx1, 1, dt)
                          - backward_time_derivative(qx1, 1, dt)))


GAINS = st.floats(0.05, 20.0)


@st.composite
def sample_triples(draw, count):
    """``count`` sample histories of one common length (1 to 3), oldest first."""
    length = draw(st.integers(1, 3))
    value = st.floats(-1e3, 1e3)
    return [tuple(draw(st.lists(value, min_size=length, max_size=length)))
            for _ in range(count)]


class TestControlMatchesReference:
    @given(samples=sample_triples(2), dt=st.floats(1e-4, 1.0), alpha=GAINS, a=GAINS)
    @settings(max_examples=200, deadline=None)
    def test_observer(self, samples, dt, alpha, a):
        params = SystemParams(alpha=alpha, a=a)
        got = control_observer(*samples, dt, params)
        assert got.hex() == reference_control_observer(*samples, dt, params).hex()

    @given(samples=sample_triples(4), dt=st.floats(1e-4, 1.0), m=GAINS, alpha=GAINS,
           a=GAINS)
    @settings(max_examples=200, deadline=None)
    def test_eso(self, samples, dt, m, alpha, a):
        params = SystemParams(m=m, alpha=alpha, a=a)
        got = control_eso(*samples, dt, params)
        assert got.hex() == reference_control_eso(*samples, dt, params).hex()


class TestBoundaryStates:
    def test_zero_state(self, grid, params):
        x = grid.nodes()
        loop = EsoLoop(grid, params, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x)
        assert loop.boundary_states() == (0.0, 0.0, (0.0, 0.0, 0.0))

    def test_linear_tip_velocity(self, grid, params):
        x = grid.nodes()
        loop = EsoLoop(grid, params, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x)
        dt = grid.dt
        push_tip_samples(loop, [0.0, dt, 2 * dt])  # u_t(1) = 1
        eta, psi, etas = loop.boundary_states()
        assert (eta, psi) == pytest.approx((5.0, 5.0), rel=1e-12)
        assert etas == (eta, 0.0, 0.0)

    def test_plant_driver_reports_tip_momentum(self, grid, params):
        x = grid.nodes()
        loop = SingleFieldLoop(grid, params, 0 * x, 0 * x,
                               LEFT_DIRICHLET_ZERO, RIGHT_TIP_MASS)
        push_tip_samples(loop, [0.0, grid.dt])
        eta, psi, etas = loop.boundary_states()
        assert eta == psi == pytest.approx(params.m, rel=1e-12)
        assert etas == (eta,)

    def test_samples_match_fields(self, grid, params):
        """Each step's boundary sample is read off the fields it follows."""
        x = grid.nodes()
        loop = EsoLoop(grid, params, x ** 3 - 3 * x ** 2, 0 * x, -2 * x ** 3,
                       0 * x, 0 * x, 0 * x, SEC4_INPUTS)
        for _ in range(20):
            loop.step()
            rows = list(loop.fields().values())
            assert loop._history[-1] == (
                *[row[-1] for row in rows],
                *[slope_right(row, grid.dx) for row in rows],
                slope_left(rows[0], grid.dx))
        assert len(loop._history) == 3


class TestObserverLoop:
    def test_zero_data_stays_zero(self, grid, params):
        x = grid.nodes()
        loop = ObserverLoop(grid, params, 0 * x, 0 * x, 0 * x, 0 * x)
        for _ in range(50):
            loop.step()
        assert not loop.fields()["u"].any() and not loop.fields()["uhat"].any()

    def test_constant_disturbance_stationary_pair(self, grid, params):
        """u = x, uhat = -1/beta is held by the loop under F = 1."""
        x = grid.nodes()
        unit = DisturbanceSpec(d_kind="constant", constant=1.0)
        loop = ObserverLoop(grid, params, x, 0 * x,
                            -np.ones_like(x) / params.beta, 0 * x, unit)
        tags = [tag for _, tag in loop.energy_rows]
        e0 = energies(tags, loop.levels.prev, loop.levels.curr,
                      loop.boundary_states()[2], params, grid)[0]  # u_H1
        for _ in range(int(round(20.0 / grid.dt))):
            loop.step()
        np.testing.assert_allclose(loop.fields()["u"], x, atol=1e-10)
        np.testing.assert_allclose(loop.fields()["uhat"], -1.0 / params.beta, atol=1e-10)
        e1 = energies(tags, loop.levels.prev, loop.levels.curr,
                      loop.boundary_states()[2], params, grid)[0]
        assert abs(e1 - e0) <= 0.05 * e0

    def test_error_energy_decays(self, grid, params):
        x = grid.nodes()
        loop = ObserverLoop(grid, params, x ** 3 - 3 * x ** 2, 0 * x,
                            -2 * x ** 3, 0 * x)
        tags = [tag for _, tag in loop.energy_rows]
        e0 = energies(tags, loop.levels.prev, loop.levels.curr,
                      loop.boundary_states()[2], params, grid)[2]  # err_H2
        for _ in range(int(round(30.0 / grid.dt))):
            loop.step()
        e1 = energies(tags, loop.levels.prev, loop.levels.curr,
                      loop.boundary_states()[2], params, grid)[2]
        assert e1 < 0.5 * e0


class TestErrorSystemDissipation:
    @staticmethod
    def worst_rise(n_cells, params):
        grid = Grid(n_cells=n_cells, r=0.5)
        x = grid.nodes()
        loop = SingleFieldLoop(grid, params, np.sin(np.pi * x) + 0.3 * x ** 2,
                               np.zeros_like(x), LEFT_ROBIN, RIGHT_TIP_MASS)
        trace = EnergyTrace("H2")
        recorder = EnergyRecorder([trace], loop.levels.prev, params, grid)
        for k in range(int(round(5.0 / grid.dt)) + 1):
            if k:
                loop.step()
            recorder.push(loop.t, loop.levels.curr, loop.boundary_states()[2])
        recorder.flush()
        e = trace.values
        return max(0.0, *(now - before for before, now in zip(e, e[1:]))), grid.dx

    def test_h2_energy_nonincreasing_up_to_dx2(self, params):
        """Homogeneous Robin + tip-mass system: H2 energy only dissipates;
        any measured rise is discretization noise that shrinks with dx."""
        rise_coarse, dx_coarse = self.worst_rise(50, params)
        rise_fine, dx_fine = self.worst_rise(100, params)
        assert rise_coarse <= 10.0 * dx_coarse ** 2
        assert rise_fine <= 10.0 * dx_fine ** 2
        assert rise_fine < 0.5 * rise_coarse


class TestEsoLoop:
    def test_zero_data_stays_zero(self, grid, params):
        x = grid.nodes()
        loop = EsoLoop(grid, params, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x)
        for _ in range(50):
            loop.step()
        for values in loop.fields().values():
            assert not values.any()

    def test_coupling_identity_exact(self, grid, params):
        x = grid.nodes()
        loop = EsoLoop(grid, params, x ** 3 - 3 * x ** 2, 0 * x, -2 * x ** 3,
                       0 * x, 0 * x, 0 * x, SEC4_INPUTS)
        for _ in range(200):
            loop.step()
            fields = loop.fields()
            assert fields["q"][-1] == fields["v"][-1] - fields["u"][-1]

    def test_estimation_error_system_ignores_disturbance(self, grid, params):
        """The pinned-end error system is autonomous: two runs agree bitwise."""
        x = grid.nodes()
        runs = []
        for _ in range(2):
            loop = SingleFieldLoop(grid, params, 3 * x ** 3 - 3 * x ** 2,
                                   0 * x, LEFT_ROBIN, RIGHT_DIRICHLET_VALUE)
            for _ in range(300):
                loop.step()
            runs.append(loop.fields()["u"].copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_reconstructed_error_nearly_disturbance_free(self, grid, params):
        """q - v + u from the loop tracks the autonomous error system for
        any disturbance, up to the O(dx^2) coupling residue."""
        x = grid.nodes()
        recon = {}
        for name, spec in (("cos", DisturbanceSpec(d_kind="cosine", frequency=2.0)),
                           ("exp", DisturbanceSpec(d_kind="exp_decay", rate=1.0))):
            loop = EsoLoop(grid, params, x ** 3 - 3 * x ** 2, 0 * x,
                           -2 * x ** 3, 0 * x, 0 * x, 0 * x, spec)
            for _ in range(int(round(4.0 / grid.dt))):
                loop.step()
            fields = loop.fields()
            recon[name] = fields["q"] - fields["v"] + fields["u"]
        gap = np.max(np.abs(recon["cos"] - recon["exp"]))
        assert gap <= 50.0 * grid.dx ** 2

    def test_conservative_plant_energy(self, params):
        """Gains off, no control or input: H1 energy drifts only O(dx^2)."""
        grid = Grid(n_cells=100, r=0.5)
        x = grid.nodes()
        loop = SingleFieldLoop(grid, params, x ** 3 - 3 * x ** 2, 0 * x,
                               LEFT_DIRICHLET_ZERO, RIGHT_TIP_MASS)
        e0, = energies(("H1",), loop.levels.prev, loop.levels.curr,
                       loop.boundary_states()[2], params, grid)
        for _ in range(int(round(10.0 / grid.dt))):
            loop.step()
        e1, = energies(("H1",), loop.levels.prev, loop.levels.curr,
                       loop.boundary_states()[2], params, grid)
        assert abs(e1 - e0) / e0 < 1e-3


@pytest.mark.parametrize("make", [
    lambda grid, params, z: SingleFieldLoop(grid, params, z, z, LEFT_ROBIN, RIGHT_TIP_MASS),
    lambda grid, params, z: ObserverLoop(grid, params, z, z, z, z),
    lambda grid, params, z: EsoLoop(grid, params, z, z, z, z, z, z),
], ids=["single", "observer", "eso"])
def test_time_is_step_count_times_dt(grid, params, make):
    """The loop's time is the recorded time k*dt, with no drift from
    adding dt step by step."""
    loop = make(grid, params, np.zeros(grid.n_nodes))
    for _ in range(8000):
        loop.step()
    assert loop.step_index == 8000
    assert loop.t == loop.step_index * loop.grid.dt == 8000 * grid.dt


@pytest.mark.parametrize("make", [
    lambda grid, params, x: SingleFieldLoop(grid, params, x ** 3 - 3 * x ** 2, 0 * x,
                                            LEFT_ROBIN, RIGHT_TIP_MASS, SEC4_INPUTS),
    lambda grid, params, x: ObserverLoop(grid, params, x ** 3 - 3 * x ** 2, 0 * x,
                                         -2 * x ** 3, 0 * x, SEC4_INPUTS),
    lambda grid, params, x: EsoLoop(grid, params, x ** 3 - 3 * x ** 2, 0 * x, -2 * x ** 3,
                                    0 * x, 0 * x, 0 * x, SEC4_INPUTS),
], ids=["single", "observer", "eso"])
def test_plan_matches_module_step(grid, params, make):
    """A loop stepped through its plan equals a twin whose every step runs
    the composed closures row by row with the same inputs, bit for bit:
    the plan's cached views follow the rotating level buffers."""
    x = grid.nodes()
    planned, twin = make(grid, params, x), make(grid, params, x)

    def module_step(exts, right_inputs, prev_edges, curr_edges):
        composed_step(twin.levels, grid, params, twin.left_kinds, exts,
                      twin.right_kinds, right_inputs)

    twin.plan.step = module_step
    for _ in range(60):
        planned.step()
        twin.step()
    assert planned.levels.prev.tobytes() == twin.levels.prev.tobytes()
    assert planned.levels.curr.tobytes() == twin.levels.curr.tobytes()
    assert list(planned._history) == list(twin._history)
    assert planned.levels.curr[:, -1].any()


LOOP_CASES = pytest.mark.parametrize("make", [
    *[lambda grid, params, x, kinds=kinds: SingleFieldLoop(
        grid, params, x ** 3 - 3 * x ** 2, np.sin(np.pi * x), *kinds, SEC4_INPUTS)
      for kinds in [(LEFT_DIRICHLET_ZERO, RIGHT_TIP_MASS), (LEFT_ROBIN, RIGHT_TIP_MASS),
                    (LEFT_ROBIN, RIGHT_DIRICHLET_VALUE),
                    (LEFT_DIRICHLET_ZERO, RIGHT_DIRICHLET_VALUE)]],
    lambda grid, params, x: ObserverLoop(grid, params, x ** 3 - 3 * x ** 2, np.sin(np.pi * x),
                                         -2 * x ** 3, x * x, SEC4_INPUTS),
    lambda grid, params, x: EsoLoop(grid, params, x ** 3 - 3 * x ** 2, np.sin(np.pi * x),
                                    -2 * x ** 3, x * x, 0.5 * x, -x, SEC4_INPUTS),
], ids=["single-pinned-tip", "single-robin-tip", "single-robin-pinned",
        "single-pinned-pinned", "observer", "eso"])


@LOOP_CASES
def test_steps_close_from_the_samples_edge_read(grid, params, make):
    """The edge rows a loop hands its next step are those of a fresh read
    of the previous and current levels, bit for bit: after construction
    (the back-step, and the ESO's coupling of q's tip, rewrite the
    previous level) and after each of 50 steps."""
    loop = make(grid, params, grid.nodes())
    index = loop.plan.edge_index
    for step in range(51):
        if step:
            loop.step()
        prev_edges, curr_edges = loop._edges
        assert np.array(prev_edges).tobytes() == loop.levels.prev.take(index).tobytes()
        assert np.array(curr_edges).tobytes() == loop.levels.curr.take(index).tobytes()


@LOOP_CASES
def test_one_edge_read_per_level(grid, params, make, monkeypatch):
    """A loop built and stepped N times reads N + 2 levels' edges: the
    current and the back-stepped level on construction, then each new
    level once, by its boundary sample."""
    reads = []
    read_edges = StepPlan.read_edges
    monkeypatch.setattr(StepPlan, "read_edges",
                        lambda plan, level: reads.append(level) or read_edges(plan, level))
    loop = make(grid, params, grid.nodes())
    n_steps = 30
    for _ in range(n_steps):
        loop.step()
    assert len(reads) == n_steps + 2


# The boundary bookkeeping as the loops wrote it over the transposed sample
# history: ``_rate``, ``control_observer`` and ``control_eso`` kept verbatim
# as the byte oracle of ``boundary_states`` and ``_inputs``.

def oracle_rate(samples, dt):
    if len(samples) < 2:
        return 0.0
    return (samples[-1] - samples[-2]) / dt


def oracle_control_observer(uhat1, uhatx1, dt, params):
    if len(uhat1) < 2:
        return 0.0
    return (-params.alpha * ((uhat1[-1] - uhat1[-2]) / dt)
            - params.a * ((uhatx1[-1] - uhatx1[-2]) / dt))


def oracle_control_eso(v1, vx1, q1, qx1, dt, params):
    if len(v1) < 3 or len(q1) < 3:
        return 0.0
    return (qx1[-1] + params.m * ((q1[-1] - 2.0 * q1[-2] + q1[-3]) / (dt * dt))
            - params.alpha * ((v1[-1] - v1[-2]) / dt - (q1[-1] - q1[-2]) / dt)
            - params.a * ((vx1[-1] - vx1[-2]) / dt - (qx1[-1] - qx1[-2]) / dt))


def oracle_bookkeeping(loop):
    """(boundary states with their etas, inputs) of ``loop``, from its
    sample history."""
    series = list(zip(*loop._history))
    p, spec, dt = loop.params, loop.spec, loop.plan.dt
    t = loop.step_index * dt
    if isinstance(loop, EsoLoop):
        u1, v1, q1, _, vx1, qx1, ux0 = series
        slope_gap = p.a * (vx1[-1] - qx1[-1])
        eta = p.m * oracle_rate(u1, dt) + slope_gap
        control = oracle_control_eso(v1, vx1, q1, qx1, dt, p)
        tip = control + eval_f(spec, u1[-1]) + eval_d(spec, t)
        return ((eta, eta - p.m * oracle_rate(q1, dt), (eta, 0.0, 0.0)),
                ((0.0, ux0[-1], 0.0), (tip, control, 0.0)))
    if isinstance(loop, ObserverLoop):
        u1, uhat1, _, uhatx1, ux0 = series
        shared = p.a * uhatx1[-1]
        states = (p.m * oracle_rate(u1, dt) + shared, p.m * oracle_rate(uhat1, dt) + shared)
        control = oracle_control_observer(uhat1, uhatx1, dt, p)
        disturbance = eval_f(spec, u1[-1]) + eval_d(spec, t)
        return ((*states, (*states, p.m * (oracle_rate(uhat1, dt) - oracle_rate(u1, dt)))),
                ((0.0, ux0[-1]), (control + disturbance, control)))
    eta = p.m * oracle_rate(series[0], dt)
    return (eta, eta, (eta,)), ((0.0,), (eval_f(spec, series[0][-1]) + eval_d(spec, t),))


def nested_hex(values):
    return [nested_hex(v) for v in values] if isinstance(values, tuple) else values.hex()


@LOOP_CASES
def test_boundary_bookkeeping_matches_oracle(grid, params, make):
    """Each loop's ``boundary_states()``, its etas included, and
    ``_inputs()`` equal the oracle's, bit for bit: on construction,
    through the warm-up steps whose controls are 0 and after each of 40
    steps. ``boundary_states()`` is called twice a level and keeps no
    state, so both calls give the oracle's bits."""
    loop = make(grid, params, grid.nodes())
    for step in range(41):
        if step:
            loop.step()
        expected = nested_hex(oracle_bookkeeping(loop))
        for _ in range(2):
            assert nested_hex((loop.boundary_states(), loop._inputs())) == expected


# ----------------------------------------------------------------------
# The loops' construction and steps as they were written before the plan
# made every level: ``second_order_backstep``, ``_tip_input``, the stacked
# constructor taking both levels, ``_finish_step``, and each loop's own
# t = 0 inputs and step body, kept verbatim as the byte oracle of
# ``StepPlan.backstep`` and ``_StackedLoop``.
# ----------------------------------------------------------------------

def second_order_backstep(positions, velocities, grid, params, left_kinds, exts,
                          right_kinds, right_inputs):
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


def _tip_input(spec, tip, t):
    """f(u(1, t)) + d(t): what the plant's tip receives besides the control."""
    return eval_f(spec, tip) + eval_d(spec, t)


def oracle_stacked_init(self, grid, params, spec, prev, curr):
    self.grid = grid
    self.params = params
    self.spec = spec
    self.levels = FieldHistory(prev, curr)
    self.plan = StepPlan(self.levels, grid, params, self.left_kinds, self.right_kinds)
    self._history = deque(maxlen=3)
    self._sample()
    self.step_index = 0
    self.magnitudes = np.empty((len(self.names), grid.n_nodes))


def read_both(self):
    """Fresh edge rows of the previous and the current level."""
    return self.plan.read_edges(self.levels.prev), self.plan.read_edges(self.levels.curr)


def oracle_finish_step(self):
    """Guard the new level, promote it and sample its boundaries."""
    new = self.levels.new[:len(self.names)]
    if not np.abs(new, out=self.magnitudes).max() <= BLOWUP_LIMIT:
        for name, row in zip(self.names, new):
            peak = float(np.max(np.abs(row)))
            if not peak <= BLOWUP_LIMIT:
                raise BlowUpError(name, self.step_index + 1,
                                  (self.step_index + 1) * self.plan.dt, peak)
    self.step_index += 1
    self.levels.rotate()
    self._sample()


class OracleSingleFieldLoop(SingleFieldLoop):
    def __init__(self, grid, params, position, velocity, left_kind, right_kind,
                 spec=NO_DISTURBANCE):
        self.left_kinds, self.right_kinds = (left_kind,), (right_kind,)
        curr = np.array([position], dtype=float)
        prev = second_order_backstep(curr, np.array([velocity], dtype=float), grid, params,
                                     self.left_kinds, (0.0,), self.right_kinds,
                                     (_tip_input(spec, float(curr[0, -1]), 0.0),))
        oracle_stacked_init(self, grid, params, spec, prev, curr)

    def step(self):
        s = _tip_input(self.spec, self._history[-1][0], self.t)
        self.plan.step((0.0,), (s,), *read_both(self))
        oracle_finish_step(self)


class OracleObserverLoop(ObserverLoop):
    def __init__(self, grid, params, u0, ut0, uhat0, uhatt0, spec=NO_DISTURBANCE):
        curr = np.array([u0, uhat0], dtype=float)
        # warm-up control is 0, so the back-step sees S_u = F(0), S_obs = 0
        prev = second_order_backstep(curr, np.array([ut0, uhatt0], dtype=float), grid, params,
                                     self.left_kinds, (0.0, slope_left(curr[0], grid.dx)),
                                     self.right_kinds,
                                     (_tip_input(spec, float(curr[0, -1]), 0.0), 0.0))
        oracle_stacked_init(self, grid, params, spec, np.vstack([prev, prev[1] - prev[0]]),
                            np.vstack([curr, curr[1] - curr[0]]))

    def step(self):
        u1, uhat1, _, uhatx1, ux0 = list(zip(*self._history))
        control = control_observer(uhat1, uhatx1, self.plan.dt, self.params)
        disturbance = _tip_input(self.spec, u1[-1], self.t)
        self.plan.step((0.0, ux0[-1]), (control + disturbance, control), *read_both(self))
        new = self.levels.new
        np.subtract(new[1], new[0], out=new[2])
        oracle_finish_step(self)


class OracleEsoLoop(EsoLoop):
    def __init__(self, grid, params, u0, ut0, v0, vt0, q0, qt0, spec=NO_DISTURBANCE):
        curr = np.array([u0, v0, q0], dtype=float)
        # q's pinned tip is a placeholder here, set from the closed u, v rows
        prev = second_order_backstep(curr, np.array([ut0, vt0, qt0], dtype=float), grid, params,
                                     self.left_kinds, (0.0, slope_left(curr[0], grid.dx), 0.0),
                                     self.right_kinds,
                                     (_tip_input(spec, float(curr[0, -1]), 0.0), 0.0, 0.0))
        prev[2, -1] = prev[1, -1] - prev[0, -1]
        oracle_stacked_init(self, grid, params, spec, prev, curr)

    def step(self):
        u1, v1, q1, _, vx1, qx1, ux0 = list(zip(*self._history))
        control = control_eso(v1, vx1, q1, qx1, self.plan.dt, self.params)
        tip = control + eval_f(self.spec, u1[-1]) + eval_d(self.spec, self.t)
        # q's pinned tip is a placeholder here, set from the closed u, v rows
        self.plan.step((0.0, ux0[-1], 0.0), (tip, control, 0.0), *read_both(self))
        new = self.levels.new
        new[2, -1] = new[1, -1] - new[0, -1]
        oracle_finish_step(self)


LOOPS_AND_ORACLES = {
    "single": (SingleFieldLoop, OracleSingleFieldLoop),
    "observer": (ObserverLoop, OracleObserverLoop),
    "eso": (EsoLoop, OracleEsoLoop),
}


def cubic_rows(coeffs, grid):
    """One row per coefficient list, evaluated on the grid as a config's
    initial profile is."""
    return [np.polynomial.polynomial.polyval(grid.nodes(), c) for c in coeffs]


def loop_args(kind, rows, kinds, spec):
    """Constructor arguments after (grid, params) of a loop of ``kind``
    from six rows: positions and velocities alternate."""
    if kind == "single":
        return (rows[0], rows[1], *kinds, spec)
    if kind == "observer":
        return (*rows[:4], spec)
    return (*rows, spec)


VALUES = st.floats(-3.0, 3.0)
SIGNED_ZERO_INPUTS = DisturbanceSpec(d_kind="constant", constant=-0.0,
                                     f_kind="lipschitz_linear", f_gain=-1.0)


@st.composite
def disturbance_specs(draw):
    return DisturbanceSpec(d_kind=draw(st.sampled_from(D_KINDS)), amplitude=draw(VALUES),
                           frequency=draw(VALUES), rate=draw(VALUES),
                           constant=draw(VALUES | st.just(-0.0)),
                           table=((0.0, draw(VALUES)), (1.5, draw(VALUES))),
                           f_kind=draw(st.sampled_from(F_KINDS)), f_gain=draw(VALUES))


ORACLE_CUBICS = [[0.0, 1.0, -0.5, 0.25], [0.0] * 4, [1.0, 0.0, 0.0, -1.0],
                 [0.0, 0.0, 2.0, 0.0], [-0.0] * 4, [0.5, -1.0, 0.0, 0.0]]


@given(kind=st.sampled_from(sorted(LOOPS_AND_ORACLES)), n_cells=st.integers(3, 30),
       r=st.floats(0.05, 1.0), params=st.builds(SystemParams, *[st.floats(0.1, 10.0)] * 5),
       coeffs=st.lists(st.lists(VALUES, min_size=4, max_size=4), min_size=6, max_size=6),
       kinds=st.tuples(st.sampled_from([LEFT_DIRICHLET_ZERO, LEFT_ROBIN]),
                       st.sampled_from([RIGHT_TIP_MASS, RIGHT_DIRICHLET_VALUE])),
       spec=disturbance_specs())
@example(kind="single", n_cells=10, r=0.5, params=SystemParams(), coeffs=ORACLE_CUBICS,
         kinds=(LEFT_ROBIN, RIGHT_TIP_MASS), spec=SIGNED_ZERO_INPUTS)
@example(kind="observer", n_cells=10, r=0.5, params=SystemParams(), coeffs=ORACLE_CUBICS,
         kinds=(0, 0), spec=SIGNED_ZERO_INPUTS)
@example(kind="eso", n_cells=10, r=0.5, params=SystemParams(), coeffs=ORACLE_CUBICS,
         kinds=(0, 0), spec=SIGNED_ZERO_INPUTS)
@settings(max_examples=150, deadline=None)
def test_construction_and_steps_match_oracle(kind, n_cells, r, params, coeffs, kinds, spec):
    """Each loop's levels and boundary samples equal, bit for bit, those of
    the oracle's hand-built back-step and step bodies, after construction
    and after each of three steps."""
    grid = Grid(n_cells=n_cells, r=r)
    args = loop_args(kind, cubic_rows(coeffs, grid), kinds, spec)
    make, make_oracle = LOOPS_AND_ORACLES[kind]
    loop, oracle = make(grid, params, *args), make_oracle(grid, params, *args)
    for step in range(4):
        if step:
            loop.step()
            oracle.step()
        assert loop.levels.prev.tobytes() == oracle.levels.prev.tobytes()
        assert loop.levels.curr.tobytes() == oracle.levels.curr.tobytes()
        assert list(loop._history) == list(oracle._history)


def test_backstep_takes_the_first_steps_tip_input(grid, params):
    """The back-step closes the plant's tip with the input of the first
    step, 0.0 + f(u0(1)) + d(0), where the hand-built one took f + d. The
    two differ only when f + d is -0.0, and then change only the sign of
    the zero at the t = -dt tip when u0 is -0.0 at its last two nodes and
    u_t0 is +0.0 at the tip; a config's polynomial profile is never -0.0
    at x = 1."""
    z = np.zeros(grid.n_nodes)
    u0 = np.full(grid.n_nodes, -0.0)
    spec = DisturbanceSpec(d_kind="constant", constant=-0.0, f_kind="sin_of_tip")
    for make, make_oracle, args in (
            (ObserverLoop, OracleObserverLoop, (u0, z, z, z, spec)),
            (EsoLoop, OracleEsoLoop, (u0, z, z, z, z, z, spec))):
        loop, oracle = make(grid, params, *args), make_oracle(grid, params, *args)
        assert loop._inputs()[1][0].hex() == (0.0 + spec.constant).hex() == "0x0.0p+0"
        assert oracle.levels.prev[0, -1].hex() == "-0x0.0p+0"
        assert loop.levels.prev[0, -1].hex() == "0x0.0p+0"
        oracle.levels.prev[0, -1] = 0.0
        assert loop.levels.prev.tobytes() == oracle.levels.prev.tobytes()
        assert loop.levels.curr.tobytes() == oracle.levels.curr.tobytes()
        for _ in range(3):
            loop.step()
            oracle.step()
        assert loop.levels.prev.tobytes() == oracle.levels.prev.tobytes()
        assert loop.levels.curr.tobytes() == oracle.levels.curr.tobytes()


@pytest.mark.parametrize("make, message", [
    (lambda g, p, n: SingleFieldLoop(g, p, np.zeros(n + 1), np.zeros(n + 2), LEFT_ROBIN,
                                     RIGHT_TIP_MASS), "initial velocity of u has 12 values"),
    (lambda g, p, n: ObserverLoop(g, p, np.zeros(n + 1), np.zeros(n + 1), np.zeros(n + 1),
                                  np.zeros(n)), "initial velocity of uhat has 10 values"),
    (lambda g, p, n: EsoLoop(g, p, np.zeros(n + 1), np.zeros(n), np.zeros(n + 1),
                             np.zeros(n + 1), np.zeros(n + 1), np.zeros(n + 1)),
     "initial velocity of u has 10 values"),
    (lambda g, p, n: EsoLoop(g, p, np.zeros(n + 1), np.zeros(n + 1), np.zeros(n + 1),
                             np.zeros(n + 1), np.zeros((2, n + 1)), np.zeros(n + 1)),
     "initial position of q has 22 values"),
], ids=["single", "observer", "eso", "eso-2d"])
def test_rows_of_another_length_name_the_field(params, make, message):
    """A row of the wrong length is a StructuralError that names the field
    and the node counts, whichever row it is."""
    with pytest.raises(StructuralError, match=f"^{message}, grid expects 11$"):
        make(Grid(10), params, 10)


def test_unknown_boundary_kinds_name_the_row(grid, params):
    """A boundary kind outside the two of its end is a StructuralError that
    names the row and the kind, for a plan built by hand or by a loop."""
    rows = FieldHistory(np.zeros((2, grid.n_nodes)), np.zeros((2, grid.n_nodes)))
    with pytest.raises(StructuralError, match="^row 1: unknown left boundary kind 2$"):
        StepPlan(rows, grid, params, [LEFT_ROBIN, 2], [RIGHT_TIP_MASS] * 2)
    with pytest.raises(StructuralError, match="^row 0: unknown right boundary kind 5$"):
        StepPlan(rows, grid, params, [LEFT_ROBIN] * 2, [5, RIGHT_DIRICHLET_VALUE])
    x = grid.nodes()
    with pytest.raises(StructuralError, match="^row 0: unknown left boundary kind 2$"):
        SingleFieldLoop(grid, params, 0 * x, 0 * x, 2, 5)
    with pytest.raises(StructuralError, match="^row 0: unknown right boundary kind 5$"):
        SingleFieldLoop(grid, params, 0 * x, 0 * x, LEFT_DIRICHLET_ZERO, 5)


def test_open_plant_second_order_in_time_and_space(params):
    """The open plant (pinned end, tip mass, f = d = 0) from sec4's u0:
    u(1, t = 1) converges at order 2 as dx and dt halve together."""
    tips = []
    for n in (100, 200, 400, 800):
        grid = Grid(n_cells=n, r=0.5)
        x = grid.nodes()
        loop = SingleFieldLoop(grid, params, x ** 3 - 3 * x ** 2, 0 * x,
                               LEFT_DIRICHLET_ZERO, RIGHT_TIP_MASS)
        for _ in range(2 * n):
            loop.step()
        assert loop.t == pytest.approx(1.0)
        tips.append(loop.fields()["u"][-1])
    gaps = np.abs(np.diff(tips))
    orders = np.log2(gaps[:-1] / gaps[1:])
    assert np.all(orders >= 1.8), orders


def test_open_plant_second_order_on_compatible_data(params):
    """The open plant (pinned end, tip mass, f = d = 0) from data that
    satisfy the boundary conditions' compatibility conditions at both
    ends: u0 = (x^3 - 33x)/32 has u0(0) = u0''(0) = 0 and, with m = 5,
    m u0''(1) + u0'(1) = 0. The whole field at t = 4 converges at order
    2 in the max norm, each grid against the next on their common nodes
    (sec4's incompatible u0 gives about 1.3 here)."""
    assert params.m == 5.0
    fields = []
    for n in (100, 200, 400, 800):
        grid = Grid(n_cells=n, r=0.5)
        x = grid.nodes()
        loop = SingleFieldLoop(grid, params, (x ** 3 - 33 * x) / 32, 0 * x,
                               LEFT_DIRICHLET_ZERO, RIGHT_TIP_MASS)
        for _ in range(8 * n):
            loop.step()
        assert loop.t == pytest.approx(4.0)
        fields.append(loop.fields()["u"].copy())
    gaps = np.array([np.max(np.abs(fine[::2] - coarse))
                     for coarse, fine in zip(fields, fields[1:])])
    orders = np.log2(gaps[:-1] / gaps[1:])
    assert np.all(orders >= 1.9), (gaps, orders)
    assert gaps[-1] < 2.2e-7, gaps


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda loop: pickle.loads(pickle.dumps(loop))],
                         ids=["deepcopy", "pickle"])
def test_copied_loop_steps_like_original(grid, params, clone):
    x = grid.nodes()
    loop = EsoLoop(grid, params, x ** 3 - 3 * x ** 2, 0 * x, -2 * x ** 3, 0 * x, 0 * x, 0 * x,
                   SEC4_INPUTS)
    loop.step()
    twin = clone(loop)
    for _ in range(10):
        loop.step()
        twin.step()
    assert twin.levels.curr.tobytes() == loop.levels.curr.tobytes()
    assert list(twin._history) == list(loop._history)


@pytest.mark.parametrize("n_cells", [100, 1600])
def test_interior_stores_start_aligned(params, n_cells):
    """Every pass of the interior update stores from a 64-byte boundary:
    each level buffer's line from its element 1, and both scratch lines,
    after construction and as the buffers rotate, in a loop of each class
    and a SingleFieldLoop of each boundary pair."""
    grid = Grid(n_cells=n_cells, r=0.5)
    z = np.sin(grid.nodes())
    loops = [*(SingleFieldLoop(grid, params, z, z, left, right)
               for left in (LEFT_DIRICHLET_ZERO, LEFT_ROBIN)
               for right in (RIGHT_TIP_MASS, RIGHT_DIRICHLET_VALUE)),
             ObserverLoop(grid, params, z, z, z, z), EsoLoop(grid, params, z, z, z, z, z, z)]
    for loop in loops:
        for _ in range(2):
            levels = (loop.levels.prev, loop.levels.curr, loop.levels.new)
            offsets = [level.reshape(-1)[1:].ctypes.data % 64 for level in levels]
            offsets += [line.ctypes.data % 64 for line in loop.plan.scratch]
            assert offsets == [0] * 5, (type(loop).__name__, loop.left_kinds, loop.right_kinds)
            for _ in range(3):
                loop.step()


class TestBlowUpGuard:
    def test_blow_up_reports_step_index(self, grid, params):
        x = grid.nodes()
        huge = DisturbanceSpec(d_kind="constant", constant=1e15)
        loop = SingleFieldLoop(grid, params, 8e11 * x, 0 * x,
                               LEFT_DIRICHLET_ZERO, RIGHT_TIP_MASS, huge)
        with pytest.raises(BlowUpError) as err:
            for _ in range(2000):
                loop.step()
        assert err.value.step_index >= 1
        assert err.value.value > 1e12
        # the time of the level that blew up, not of the one the step started from
        assert err.value.t == err.value.step_index * grid.dt
        assert f"at step {err.value.step_index} (t={err.value.t:.6g})" in str(err.value)

    def test_names_first_bad_field_in_row_order(self, grid, params):
        x = grid.nodes()
        loop = EsoLoop(grid, params, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x)
        loop.levels.curr[1:] = 2e12  # v and q rows
        with pytest.raises(BlowUpError) as err:
            loop.step()
        assert err.value.field_name == "v" and err.value.step_index == 1

    def test_guard_without_warnings(self, grid, params):
        """The one-vdot guard raises on a huge row and on NaN, and lets a
        level whose sum of squares it does not clear step on when no value
        is above the limit; nothing on the way warns."""
        x = grid.nodes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loop = EsoLoop(grid, params, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x)
            loop.levels.curr[2] = 1e200  # q, whose square overflows
            with pytest.raises(BlowUpError) as err:
                loop.step()
            assert (err.value.field_name, err.value.step_index) == ("q", 1)
            assert err.value.value >= 1e200

            loop = EsoLoop(grid, params, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x)
            loop.levels.curr[1, 50] = np.nan
            with pytest.raises(BlowUpError) as err:
                loop.step()
            assert (err.value.field_name, err.value.step_index) == ("v", 1)
            assert np.isnan(err.value.value)

            loop = SingleFieldLoop(grid, params, 0 * x + 9.9e11, 0 * x,
                                   LEFT_DIRICHLET_ZERO, RIGHT_TIP_MASS)
            for _ in range(50):
                loop.step()
                line = loop.levels.curr.reshape(-1)
                assert np.vdot(line, line) > _GUARD_SQUARES
                assert np.abs(line).max() <= BLOWUP_LIMIT
            assert loop.step_index == 50
