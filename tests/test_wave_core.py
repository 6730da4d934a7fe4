import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tipwave import FieldHistory, Grid, SingleFieldLoop, SystemParams, default_backend_name
from tipwave.wave_core import (
    LEFT_DIRICHLET_ZERO,
    LEFT_ROBIN,
    RIGHT_DIRICHLET_VALUE,
    RIGHT_TIP_MASS,
    STABILITY_HYPOTHESES,
    StepPlan,
    StructuralError,
)


# ----------------------------------------------------------------------
# Reference implementation: one field, one operation at a time. The
# sympy tests below check these closures against the symbolic ghost-node
# elimination; a stacked ``StepPlan.step`` must match them bit for bit.
# ----------------------------------------------------------------------

def _check(field, grid):
    if field.n_nodes != grid.n_nodes:
        raise StructuralError(
            f"field has {field.n_nodes} nodes, grid expects {grid.n_nodes}")


def step_interior(field, grid):
    """Fill the new level at interior nodes j = 1..n_cells-1."""
    _check(field, grid)
    r2 = grid.r * grid.r
    p, c, out = field.prev, field.curr, field.new
    out[1:-1] = 2.0 * c[1:-1] - p[1:-1] + r2 * (c[2:] - 2.0 * c[1:-1] + c[:-2])
    return field


def apply_dirichlet_zero_left(field):
    field.new[0] = 0.0
    return field


def apply_tip_mass_right(field, boundary_input, disturbance, params, grid):
    """Close the tip-mass end: u_x(1) + m u_tt(1) = U + F.

    Eliminating the ghost node between the interior stencil at j = N and
    the centered boundary relation gives the scalar update

        u_N^{n+1} = 2 u_N^n - u_N^{n-1}
                    + dt^2 (S - (u_N^n - u_{N-1}^n)/dx) / (m + dx/2).
    """
    _check(field, grid)
    if not params.m > 0.0:
        raise ValueError(f"tip mass must be positive, got {params.m}")
    dx, dt = grid.dx, grid.dt
    c, p = field.curr, field.prev
    s = boundary_input + disturbance
    field.new[-1] = (2.0 * c[-1] - p[-1]
                     + dt * dt * (s - (c[-1] - c[-2]) / dx) / (params.m + 0.5 * dx))
    return field


def apply_robin_left(field, external_input, params, grid):
    """Close the Robin end: u_x(0) = gamma u_t(0) + beta u(0) + ext.

    The centered time derivative makes the eliminated relation linear in
    the unknown node value, with coefficient 1/r^2 + gamma/r > 0.
    """
    _check(field, grid)
    dx, r = grid.dx, grid.r
    gamma, beta = params.gamma, params.beta
    r2 = r * r
    denom = 1.0 / r2 + gamma / r
    c, p = field.curr, field.prev
    field.new[0] = (2.0 * (c[1] - c[0]) + (2.0 * c[0] - p[0]) / r2
                    + (gamma / r) * p[0] - 2.0 * dx * beta * c[0]
                    - 2.0 * dx * external_input) / denom
    return field


def apply_dirichlet_trace_right(field, value):
    field.new[-1] = value
    return field


def composed_step(levels, grid, params, lefts, exts, rights, right_inputs):
    """Fill the new level of the first ``len(lefts)`` stacked rows, each by
    the closures above on a copy of that row alone."""
    for i, (left, ext, right, s) in enumerate(zip(lefts, exts, rights, right_inputs)):
        row = FieldHistory(levels.prev[i], levels.curr[i])
        step_interior(row, grid)
        if left == LEFT_ROBIN:
            apply_robin_left(row, ext, params, grid)
        else:
            apply_dirichlet_zero_left(row)
        if right == RIGHT_TIP_MASS:
            apply_tip_mass_right(row, s, 0.0, params, grid)
        else:
            apply_dirichlet_trace_right(row, s)
        levels.new[i] = row.new


class WarmupError(RuntimeError):
    """Raised when a backward time difference lacks history."""


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


def hypothesis_report(params) -> dict[str, bool]:
    """Tri-valued stability hypotheses, reported rather than enforced.

    The failure scenarios (constant-disturbance counterexample) must
    stay expressible, so violations never raise here.
    """
    return {key: holds(params) for key, _, _, holds, _ in STABILITY_HYPOTHESES}


def make_field(grid, curr, prev=None):
    prev = curr if prev is None else prev
    return FieldHistory(prev, curr)


class TestTypes:
    def test_params_positive(self):
        with pytest.raises(ValueError):
            SystemParams(m=-1)
        with pytest.raises(ValueError):
            SystemParams(beta=0.0)
        with pytest.raises(ValueError, match="^m must be positive, got -1; "
                                             "beta must be positive, got 0.0$"):
            SystemParams(m=-1, beta=0.0)

    def test_hypothesis_report_is_not_fatal(self):
        p = SystemParams(m=2.0, a=2.0, gamma=1.0)
        report = hypothesis_report(p)
        assert report == {"gamma_not_one": False, "m_not_a": False,
                          "m_not_a_gamma": False}
        assert p.hypothesis_warnings() == [
            "gamma = 1 violates the stability hypotheses",
            "m = a violates the stability hypotheses",
            "m = a*gamma violates the stability hypotheses"]
        assert hypothesis_report(SystemParams()) == {
            "gamma_not_one": True, "m_not_a": True, "m_not_a_gamma": True}

    def test_grid_invariants(self):
        g = Grid(n_cells=200, r=0.5)
        assert g.dx == 1.0 / 200
        assert g.dt == 0.5 / 200
        with pytest.raises(StructuralError):
            Grid(n_cells=100, r=1.5)
        with pytest.raises(StructuralError):
            Grid(n_cells=100, r=0.0)
        with pytest.raises(StructuralError):
            Grid(n_cells=2)

    def test_field_history_shape_mismatch(self):
        with pytest.raises(StructuralError):
            FieldHistory(np.zeros(5), np.zeros(6))

    def test_rotation_does_not_alias(self):
        f = FieldHistory(np.zeros(8), np.ones(8))
        buffers = {id(f.prev), id(f.curr), id(f.new)}
        assert len(buffers) == 3
        f.new[:] = 2.0
        f.rotate()
        assert {id(f.prev), id(f.curr), id(f.new)} == buffers
        assert f.curr[0] == 2.0 and f.prev[0] == 1.0


class TestInterior:
    def test_zero_field_stays_zero(self, grid):
        f = make_field(grid, np.zeros(grid.n_nodes))
        step_interior(f, grid)
        assert not f.new[1:-1].any()

    def test_sine_stencil_matches_scalar_reimplementation(self):
        grid = Grid(n_cells=50, r=1.0)
        x = grid.nodes()
        u = np.sin(np.pi * x)
        f = make_field(grid, u, prev=u)
        step_interior(f, grid)
        # independent oracle: plain-loop stencil arithmetic
        r2 = grid.r ** 2
        expect = np.empty_like(u)
        for j in range(1, grid.n_cells):
            expect[j] = 2 * u[j] - u[j] + r2 * (u[j + 1] - 2 * u[j] + u[j - 1])
        np.testing.assert_array_equal(f.new[1:-1], expect[1:-1])
        # closed form: 2 cos(pi dx) sin(pi x_j) - sin(pi x_j) at r=1
        closed = 2 * np.cos(np.pi * grid.dx) * np.sin(np.pi * x) - np.sin(np.pi * x)
        np.testing.assert_allclose(f.new[1:-1], closed[1:-1], atol=1e-13)

    def test_unit_courant_transports_pulse_exactly(self):
        grid = Grid(n_cells=200, r=1.0)
        x = grid.nodes()
        phi = np.exp(-((x - 0.5) / 0.05) ** 2) * ((x > 0.3) & (x < 0.7))
        # d'Alembert right-mover: u(x,t) = phi(x - t); u^{n-1} = shift back
        curr = phi.copy()
        prev = np.roll(phi, -1)  # phi(x + dx) = phi sampled one cell left in time
        f = FieldHistory(prev, curr)
        for _ in range(20):
            step_interior(f, grid)
            f.new[0] = 0.0
            f.new[-1] = 0.0
            f.rotate()
        np.testing.assert_allclose(f.curr[21:-1], phi[1:-21], rtol=0, atol=5e-15)

    def test_shape_mismatch_raises(self, grid):
        f = FieldHistory(np.zeros(12), np.zeros(12))
        with pytest.raises(StructuralError):
            step_interior(f, grid)


class TestDirichletLeft:
    def test_pins_zero_and_is_idempotent(self, grid):
        f = make_field(grid, np.random.default_rng(0).normal(size=grid.n_nodes))
        f.new[:] = 7.0
        apply_dirichlet_zero_left(f)
        assert f.new[0] == 0.0
        apply_dirichlet_zero_left(f)
        assert f.new[0] == 0.0

    def test_zero_field_stays_zero(self, grid):
        f = make_field(grid, np.zeros(grid.n_nodes))
        step_interior(f, grid)
        apply_dirichlet_zero_left(f)
        assert f.new[0] == 0.0


class TestTipMass:
    def test_zero_field_zero_input(self, grid, params):
        f = make_field(grid, np.zeros(grid.n_nodes))
        step_interior(f, grid)
        apply_tip_mass_right(f, 0.0, 0.0, params, grid)
        assert f.new[-1] == 0.0

    def test_one_step_from_rest_matches_symbolic_elimination(self, grid, params):
        """Ghost-node elimination solved independently with sympy."""
        c = 2.7
        f = make_field(grid, np.zeros(grid.n_nodes))
        step_interior(f, grid)
        apply_tip_mass_right(f, c, 0.0, params, grid)

        uN1, ghost = sympy.symbols("uN1 ghost")
        dx, dt, m = sympy.Rational(1, 100), sympy.Rational(1, 200), sympy.Integer(5)
        r2 = (dt / dx) ** 2
        # interior stencil at j=N with the ghost; all current/previous values 0
        eq1 = sympy.Eq(uN1, r2 * ghost)
        # centered tip-mass relation m u_tt(1) = -u_x(1) + c
        eq2 = sympy.Eq(m * uN1 / dt ** 2, -ghost / (2 * dx) + c)
        sol = sympy.solve([eq1, eq2], [uN1, ghost])
        expected = float(sol[uN1])
        assert f.new[-1] == pytest.approx(expected, rel=1e-13)
        # closed form after elimination: c dt^2 / (m + dx/2)
        assert f.new[-1] == pytest.approx(
            c * grid.dt ** 2 / (params.m + grid.dx / 2), rel=1e-13)

    def test_rejects_nonpositive_mass(self, grid):
        f = make_field(grid, np.zeros(grid.n_nodes))
        bad = SystemParams()
        object.__setattr__(bad, "m", -1.0)
        with pytest.raises(ValueError):
            apply_tip_mass_right(f, 0.0, 0.0, bad, grid)


class TestRobinLeft:
    def test_zero_input_keeps_zero(self, grid, params):
        f = make_field(grid, np.zeros(grid.n_nodes))
        step_interior(f, grid)
        apply_robin_left(f, 0.0, params, grid)
        assert f.new[0] == 0.0

    def test_unit_input_matches_symbolic_elimination(self, grid, params):
        f = make_field(grid, np.zeros(grid.n_nodes))
        step_interior(f, grid)
        apply_robin_left(f, 1.0, params, grid)

        v1, ghost = sympy.symbols("v1 ghost")
        dx, dt = sympy.Rational(1, 100), sympy.Rational(1, 200)
        gamma = sympy.Rational(3, 2)
        r2 = (dt / dx) ** 2
        eq1 = sympy.Eq(v1, r2 * ghost)  # interior stencil at j=0, zero data
        # boundary relation: (v_1 - ghost)/(2dx) = gamma v_t(0) + beta*0 + 1
        eq2 = sympy.Eq(-ghost / (2 * dx), gamma * v1 / (2 * dt) + 1)
        sol = sympy.solve([eq1, eq2], [v1, ghost])
        assert f.new[0] == pytest.approx(float(sol[v1]), rel=1e-13)
        # closed form: -2 dx r^2 / (1 + gamma r)
        assert f.new[0] == pytest.approx(
            -2 * grid.dx * grid.r ** 2 / (1 + params.gamma * grid.r), rel=1e-13)


class TestDirichletTraceRight:
    def test_pins_exact_value(self, grid):
        f = make_field(grid, np.zeros(grid.n_nodes))
        step_interior(f, grid)
        apply_dirichlet_trace_right(f, 0.0)
        assert f.new[-1] == 0.0
        apply_dirichlet_trace_right(f, 3.25)
        assert f.new[-1] == 3.25

    def test_constant_value_persists(self, grid, params):
        f = make_field(grid, np.zeros(grid.n_nodes))
        for _ in range(5):
            step_interior(f, grid)
            apply_robin_left(f, 0.0, params, grid)
            apply_dirichlet_trace_right(f, 0.7)
            f.rotate()
        assert f.curr[-1] == 0.7


def boundary_sample(grid, params, position):
    """The (u(1), u_x(1), u_x(0)) sample a one-field loop takes of its
    initial level."""
    loop = SingleFieldLoop(grid, params, position, 0 * position, LEFT_ROBIN, RIGHT_TIP_MASS)
    return loop._history[-1]


class TestTraces:
    def test_linear_slopes_exact(self, grid, params):
        _, slope1, slope0 = boundary_sample(grid, params, grid.nodes())
        assert slope0 == pytest.approx(1.0, abs=1e-13)
        assert slope1 == pytest.approx(1.0, abs=1e-13)

    def test_quadratic_slopes_exact(self, grid, params):
        _, slope1, slope0 = boundary_sample(grid, params, grid.nodes() ** 2)
        assert slope0 == pytest.approx(0.0, abs=1e-12)
        assert slope1 == pytest.approx(2.0, abs=1e-12)

    def test_zero_field_zero_traces(self, grid, params):
        assert boundary_sample(grid, params, np.zeros(grid.n_nodes)) == (0.0, 0.0, 0.0)

    def test_coarse_grid_rejected(self):
        with pytest.raises(StructuralError):
            slope_left(np.zeros(2), 0.5)
        with pytest.raises(StructuralError):
            slope_right(np.zeros(2), 0.5)


class TestBackwardDerivatives:
    def test_linear_first_derivative_exact(self):
        dt = 0.02
        samples = [0.0, dt, 2 * dt]
        assert backward_time_derivative(samples, 1, dt) == pytest.approx(1.0, rel=1e-14)

    def test_quadratic_second_derivative_exact(self):
        dt = 0.02
        samples = [(k * dt) ** 2 for k in range(3)]
        assert backward_time_derivative(samples, 2, dt) == pytest.approx(2.0, rel=1e-12)

    def test_constant_samples_zero(self):
        assert backward_time_derivative([4.0, 4.0, 4.0], 1, 0.1) == 0.0
        assert backward_time_derivative([4.0, 4.0, 4.0], 2, 0.1) == 0.0

    def test_underfilled_buffer_warmup(self):
        with pytest.raises(WarmupError):
            backward_time_derivative([1.0], 1, 0.1)
        with pytest.raises(WarmupError):
            backward_time_derivative([1.0, 2.0], 2, 0.1)
        grid = Grid(n_cells=4, r=0.4)  # dx = 0.25, dt = 0.1
        loop = SingleFieldLoop(grid, SystemParams(), np.zeros(5) + 1.0, np.zeros(5),
                               LEFT_ROBIN, RIGHT_TIP_MASS)
        assert loop.boundary_states() == (0.0, 0.0, (0.0,))  # warm-up substitution

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            backward_time_derivative([0.0, 1.0, 2.0], 3, 0.1)


class TestLinearity:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_full_step_commutes_with_negation(self, seed):
        grid = Grid(n_cells=20, r=0.5)
        params = SystemParams()
        rng = np.random.default_rng(seed)
        curr = rng.uniform(-1, 1, grid.n_nodes)
        prev = rng.uniform(-1, 1, grid.n_nodes)

        def advance(c, p):
            f = FieldHistory(p, c)
            step_interior(f, grid)
            apply_robin_left(f, 0.0, params, grid)
            apply_tip_mass_right(f, 0.0, 0.0, params, grid)
            return f.new.copy()

        np.testing.assert_array_equal(advance(-curr, -prev), -advance(curr, prev))


BC_CASES = [
    (LEFT_DIRICHLET_ZERO, RIGHT_TIP_MASS),
    (LEFT_ROBIN, RIGHT_TIP_MASS),
    (LEFT_ROBIN, RIGHT_DIRICHLET_VALUE),
    (LEFT_DIRICHLET_ZERO, RIGHT_DIRICHLET_VALUE),
]


class TestStackedStep:
    @given(data=st.data(), n_rows=st.integers(1, 3), n_cells=st.integers(3, 40),
           r=st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_composed_closures(self, data, n_rows, n_cells, r):
        """One stacked step equals step_interior + apply_* on each row."""
        grid = Grid(n_cells=n_cells, r=r)
        params = SystemParams(m=3.0, alpha=1.7, a=2.4, beta=0.9, gamma=2.1)
        values = arrays(np.float64, (n_rows, grid.n_nodes),
                        elements=st.floats(-2.0, 2.0))
        prev, curr = data.draw(values), data.draw(values)
        lefts = data.draw(st.lists(st.sampled_from([LEFT_DIRICHLET_ZERO, LEFT_ROBIN]),
                                   min_size=n_rows, max_size=n_rows))
        rights = data.draw(st.lists(st.sampled_from([RIGHT_TIP_MASS, RIGHT_DIRICHLET_VALUE]),
                                    min_size=n_rows, max_size=n_rows))
        inputs = st.lists(st.floats(-3.0, 3.0), min_size=n_rows, max_size=n_rows)
        exts, rins = data.draw(inputs), data.draw(inputs)

        stacked = FieldHistory(prev, curr)
        plan = StepPlan(stacked, grid, params, lefts, rights)
        plan.step(exts, rins, plan.read_edges(stacked.prev), plan.read_edges(stacked.curr))
        composed = FieldHistory(prev, curr)
        composed_step(composed, grid, params, lefts, exts, rights, rins)
        np.testing.assert_array_equal(stacked.new, composed.new)

    @pytest.mark.parametrize("left,right", BC_CASES)
    def test_fused_kernel_matches_composed_ops(self, left, right):
        """Fixed cases: one row of each boundary pair, ten random levels each."""
        grid = Grid(n_cells=37, r=0.8)
        params = SystemParams(m=3.0, alpha=1.7, a=2.4, beta=0.9, gamma=2.1)
        rng = np.random.default_rng(1234)
        for trial in range(10):
            curr = rng.uniform(-2, 2, grid.n_nodes)
            prev = rng.uniform(-2, 2, grid.n_nodes)
            ext, rin = rng.uniform(-3, 3, 2)

            fused = FieldHistory(prev[None, :], curr[None, :])
            plan = StepPlan(fused, grid, params, [left], [right])
            plan.step([ext], [rin], plan.read_edges(fused.prev), plan.read_edges(fused.curr))
            composed = FieldHistory(prev[None, :], curr[None, :])
            composed_step(composed, grid, params, [left], [ext], [right], [rin])
            np.testing.assert_array_equal(fused.new, composed.new)

    @pytest.mark.parametrize("left,right", BC_CASES)
    def test_steps_on_its_own_across_rotations(self, left, right):
        """A plan driven without a loop, through a back-step, steps and hand
        rotations, and one hand write, fills every new level as the
        composed closures do, from the edge rows read of the previous and
        the current level before each step."""
        grid = Grid(n_cells=37, r=0.8)
        params = SystemParams(m=3.0, alpha=1.7, a=2.4, beta=0.9, gamma=2.1)
        rng = np.random.default_rng(7)
        other_left = LEFT_ROBIN if left == LEFT_DIRICHLET_ZERO else LEFT_DIRICHLET_ZERO
        other_right = RIGHT_DIRICHLET_VALUE if right == RIGHT_TIP_MASS else RIGHT_TIP_MASS
        lefts, rights = [left, other_left], [right, other_right]
        rows = rng.uniform(-2, 2, (2, grid.n_nodes))
        levels = FieldHistory(rows, rows)
        plan = StepPlan(levels, grid, params, lefts, rights)
        plan.backstep(rng.uniform(-2, 2, (2, grid.n_nodes)), *rng.uniform(-3, 3, (2, 2)))
        twin = FieldHistory(levels.prev, levels.curr)
        for k in range(7):
            exts, inputs = rng.uniform(-3, 3, (2, 2))
            plan.step(exts, inputs, plan.read_edges(levels.prev), plan.read_edges(levels.curr))
            composed_step(twin, grid, params, lefts, exts, rights, inputs)
            assert levels.new.tobytes() == twin.new.tobytes()
            levels.rotate()
            twin.rotate()
            if k == 3:
                for level in (levels.curr, twin.curr):
                    level[:, [0, 1, -2, -1]] += 0.5

    def test_one_stepper_named_python(self):
        """The benchmark records this name with every run."""
        assert default_backend_name() == "python"

    def test_plan_rejects_bad_shapes(self, grid, params):
        rows = FieldHistory(np.zeros((2, grid.n_nodes)), np.zeros((2, grid.n_nodes)))
        with pytest.raises(StructuralError, match="cannot step 3 rows"):
            StepPlan(rows, grid, params, [LEFT_ROBIN] * 3, [RIGHT_TIP_MASS] * 3)
        with pytest.raises(StructuralError, match="nodes, grid expects"):
            StepPlan(rows, Grid(n_cells=50), params, [LEFT_ROBIN], [RIGHT_TIP_MASS])

    def test_leaves_unstepped_rows_alone(self, grid, params):
        levels = FieldHistory(np.ones((3, grid.n_nodes)), np.ones((3, grid.n_nodes)))
        levels.new[:] = 7.0
        plan = StepPlan(levels, grid, params, [LEFT_ROBIN] * 2, [RIGHT_TIP_MASS] * 2)
        plan.step([0.0] * 2, [0.0] * 2, plan.read_edges(levels.prev), plan.read_edges(levels.curr))
        assert (levels.new[2] == 7.0).all() and not (levels.new[:2] == 7.0).any()


def backstep_row(p, w, grid, params, left, ext0, right, s0):
    """One row's t = -dt level, one operation at a time: the reference a
    stacked ``StepPlan.backstep`` must match bit for bit."""
    dx, dt, r2 = grid.dx, grid.dt, grid.r * grid.r
    delta = np.zeros_like(p)
    delta[1:-1] = r2 * (p[2:] - 2.0 * p[1:-1] + p[:-2])
    prev = p - dt * w + 0.5 * delta
    if left == LEFT_DIRICHLET_ZERO:
        prev[0] = 0.0
    else:
        accel = (2.0 * p[1] - 2.0 * p[0]
                 - 2.0 * dx * (params.gamma * w[0] + params.beta * p[0] + ext0)) / (dx * dx)
        prev[0] = p[0] - dt * w[0] + 0.5 * dt * dt * accel
    if right == RIGHT_TIP_MASS:
        tip = dt * dt * (s0 - (p[-1] - p[-2]) / dx) / (params.m + 0.5 * dx)
        prev[-1] = p[-1] - dt * w[-1] + 0.5 * tip
    else:
        prev[-1] = s0
    return prev


def backstep(positions, velocities, grid, params, lefts, exts, rights, inputs):
    """The t = -dt level of stacked rows, back-stepped through a plan."""
    levels = FieldHistory(positions, positions)
    StepPlan(levels, grid, params, lefts, rights).backstep(velocities, exts, inputs)
    return levels.prev


class TestBackstep:
    def test_rest_start_is_position(self):
        grid = Grid(n_cells=40, r=0.5)
        params = SystemParams()
        x = grid.nodes()
        prev = backstep(x[None], np.zeros((1, grid.n_nodes)), grid, params,
                        [LEFT_DIRICHLET_ZERO], [0.0], [RIGHT_TIP_MASS], [1.0])
        # u = x is stationary under boundary input 1: zero acceleration
        np.testing.assert_allclose(prev[0], x, atol=1e-15)

    def test_velocity_enters_linearly(self):
        grid = Grid(n_cells=40, r=0.5)
        params = SystemParams()
        x = grid.nodes()[None]
        w = np.sin(np.pi * x)
        a = backstep(x, w, grid, params, [LEFT_ROBIN], [0.0], [RIGHT_TIP_MASS], [0.0])
        b = backstep(x, np.zeros_like(x), grid, params, [LEFT_ROBIN], [0.0],
                     [RIGHT_TIP_MASS], [0.0])
        np.testing.assert_allclose(a - b, -grid.dt * w, atol=1e-12)

    @pytest.mark.parametrize("left,right", BC_CASES)
    def test_stacked_matches_row_by_row(self, left, right):
        """Each row of a stacked back-step, here the middle one between rows
        of the other kinds, equals that row's back-step on its own."""
        grid = Grid(n_cells=37, r=0.8)
        params = SystemParams(m=3.0, alpha=1.7, a=2.4, beta=0.9, gamma=2.1)
        rng = np.random.default_rng(99)
        p, w = rng.uniform(-2, 2, (2, 3, grid.n_nodes))
        exts, inputs = rng.uniform(-3, 3, (2, 3))
        other_left = LEFT_ROBIN if left == LEFT_DIRICHLET_ZERO else LEFT_DIRICHLET_ZERO
        other_right = RIGHT_DIRICHLET_VALUE if right == RIGHT_TIP_MASS else RIGHT_TIP_MASS
        lefts, rights = [other_left, left, other_left], [other_right, right, other_right]
        stacked = backstep(p, w, grid, params, lefts, exts, rights, inputs)
        for i in range(3):
            expected = backstep_row(p[i], w[i], grid, params, lefts[i], exts[i],
                                    rights[i], inputs[i])
            np.testing.assert_array_equal(stacked[i], expected)

    def test_fills_only_planned_rows(self, grid, params):
        levels = FieldHistory(np.full((3, grid.n_nodes), 7.0), np.ones((3, grid.n_nodes)))
        plan = StepPlan(levels, grid, params, [LEFT_ROBIN] * 2, [RIGHT_TIP_MASS] * 2)
        plan.backstep(np.zeros((2, grid.n_nodes)), [0.0] * 2, [0.0] * 2)
        assert (levels.prev[2] == 7.0).all() and not (levels.prev[:2] == 7.0).any()

    def test_rejects_velocities_of_another_shape(self, grid, params):
        levels = FieldHistory(np.zeros((2, grid.n_nodes)), np.zeros((2, grid.n_nodes)))
        plan = StepPlan(levels, grid, params, [LEFT_ROBIN] * 2, [RIGHT_TIP_MASS] * 2)
        with pytest.raises(StructuralError,
                           match=r"^initial velocities \(2, 100\) must be \(2, 101\)$"):
            plan.backstep(np.zeros((2, grid.n_nodes - 1)), [0.0] * 2, [0.0] * 2)
