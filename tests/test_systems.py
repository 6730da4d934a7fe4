import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tipwave import DisturbanceSpec, EsoLoop, Grid, ObserverLoop, SingleFieldLoop, SystemParams
from tipwave.systems import BlowUpError, control_eso, control_observer
from tipwave.wave_core import (
    LEFT_DIRICHLET_ZERO,
    LEFT_ROBIN,
    RIGHT_DIRICHLET_VALUE,
    RIGHT_TIP_MASS,
    backward_time_derivative,
    leapfrog_step,
    slope_left,
    slope_right,
)

# f = sin(u(1, t)), d = cos(2t): the reference experiment's inputs
SEC4_INPUTS = DisturbanceSpec(d_kind="cosine", frequency=2.0, f_kind="sin_of_tip")


def push_tip_samples(loop, tips):
    """Append boundary samples that differ from the latest one only in
    the plant's tip value u(1)."""
    latest = loop._history[-1]
    loop._history.extend((tip,) + latest[1:] for tip in tips)


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
        assert loop.boundary_states() == (0.0, 0.0)

    def test_linear_tip_velocity(self, grid, params):
        x = grid.nodes()
        loop = EsoLoop(grid, params, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x)
        dt = grid.dt
        push_tip_samples(loop, [0.0, dt, 2 * dt])  # u_t(1) = 1
        assert loop.boundary_states() == pytest.approx((5.0, 5.0), rel=1e-12)

    def test_plant_driver_reports_tip_momentum(self, grid, params):
        x = grid.nodes()
        loop = SingleFieldLoop(grid, params, 0 * x, 0 * x,
                               LEFT_DIRICHLET_ZERO, RIGHT_TIP_MASS)
        push_tip_samples(loop, [0.0, grid.dt])
        eta, psi = loop.boundary_states()
        assert eta == psi == pytest.approx(params.m, rel=1e-12)

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
        e0 = loop.energies()["u_H1"]
        for _ in range(int(round(20.0 / grid.dt))):
            loop.step()
        np.testing.assert_allclose(loop.fields()["u"], x, atol=1e-10)
        np.testing.assert_allclose(loop.fields()["uhat"], -1.0 / params.beta, atol=1e-10)
        e1 = loop.energies()["u_H1"]
        assert abs(e1 - e0) <= 0.05 * e0

    def test_error_energy_decays(self, grid, params):
        x = grid.nodes()
        loop = ObserverLoop(grid, params, x ** 3 - 3 * x ** 2, 0 * x,
                            -2 * x ** 3, 0 * x)
        e0 = loop.energies()["err_H2"]
        for _ in range(int(round(30.0 / grid.dt))):
            loop.step()
        assert loop.energies()["err_H2"] < 0.5 * e0


class TestErrorSystemDissipation:
    @staticmethod
    def worst_rise(n_cells, params):
        grid = Grid(n_cells=n_cells, r=0.5)
        x = grid.nodes()
        loop = SingleFieldLoop(grid, params, np.sin(np.pi * x) + 0.3 * x ** 2,
                               np.zeros_like(x), LEFT_ROBIN, RIGHT_TIP_MASS)
        prev_e = loop.energy("H2")
        worst = 0.0
        for _ in range(int(round(5.0 / grid.dt))):
            loop.step()
            e = loop.energy("H2")
            worst = max(worst, e - prev_e)
            prev_e = e
        return worst, grid.dx

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
        e0 = loop.energy("H1")
        for _ in range(int(round(10.0 / grid.dt))):
            loop.step()
        assert abs(loop.energy("H1") - e0) / e0 < 1e-3


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
    """A loop stepped through its plan equals a twin whose every step calls
    ``leapfrog_step`` with the same inputs, bit for bit: the plan's cached
    views follow the rotating level buffers."""
    x = grid.nodes()
    planned, twin = make(grid, params, x), make(grid, params, x)

    def module_step(exts, right_inputs):
        leapfrog_step(twin.levels, grid, params, twin.left_kinds, exts,
                      twin.right_kinds, right_inputs)

    twin.plan.step = module_step
    for _ in range(60):
        planned.step()
        twin.step()
    assert planned.levels.prev.tobytes() == twin.levels.prev.tobytes()
    assert planned.levels.curr.tobytes() == twin.levels.curr.tobytes()
    assert list(planned._history) == list(twin._history)
    assert planned.levels.curr[:, -1].any()


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

    def test_names_first_bad_field_in_row_order(self, grid, params):
        x = grid.nodes()
        loop = EsoLoop(grid, params, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x, 0 * x)
        loop.levels.curr[1:] = 2e12  # v and q rows
        with pytest.raises(BlowUpError) as err:
            loop.step()
        assert err.value.field_name == "v" and err.value.step_index == 1
