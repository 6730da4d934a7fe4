"""The stepping implementation must match the composed closures bit for bit."""

import numpy as np
import pytest

from tipwave import FieldHistory, Grid, SystemParams, default_backend_name
from tipwave.wave_core import (
    LEFT_DIRICHLET_ZERO,
    LEFT_ROBIN,
    RIGHT_DIRICHLET_VALUE,
    RIGHT_TIP_MASS,
    leapfrog_step,
)
from test_wave_core import (
    apply_dirichlet_trace_right,
    apply_dirichlet_zero_left,
    apply_robin_left,
    apply_tip_mass_right,
    step_interior,
)

BC_CASES = [
    (LEFT_DIRICHLET_ZERO, RIGHT_TIP_MASS),
    (LEFT_ROBIN, RIGHT_TIP_MASS),
    (LEFT_ROBIN, RIGHT_DIRICHLET_VALUE),
    (LEFT_DIRICHLET_ZERO, RIGHT_DIRICHLET_VALUE),
]


@pytest.mark.parametrize("backend", [default_backend_name()])
@pytest.mark.parametrize("left,right", BC_CASES)
def test_fused_kernel_matches_composed_ops(backend, left, right):
    grid = Grid(n_cells=37, r=0.8)
    params = SystemParams(m=3.0, alpha=1.7, a=2.4, beta=0.9, gamma=2.1)
    rng = np.random.default_rng(1234)
    for trial in range(10):
        curr = rng.uniform(-2, 2, grid.n_nodes)
        prev = rng.uniform(-2, 2, grid.n_nodes)
        ext, rin = rng.uniform(-3, 3, 2)

        fused = FieldHistory(prev[None, :], curr[None, :])
        leapfrog_step(fused, grid, params, [left], [ext], [right], [rin])

        composed = FieldHistory(prev, curr)
        step_interior(composed, grid)
        if left == LEFT_ROBIN:
            apply_robin_left(composed, ext, params, grid)
        else:
            apply_dirichlet_zero_left(composed)
        if right == RIGHT_TIP_MASS:
            apply_tip_mass_right(composed, rin, 0.0, params, grid)
        else:
            apply_dirichlet_trace_right(composed, rin)

        np.testing.assert_array_equal(fused.new[0], composed.new)
