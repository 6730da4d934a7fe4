"""Eigenmodes through the stepper: the root finder and the stepper check
each other.

A root L of a family's characteristic equation, with its eigenfunction
phi, gives the exact solution Re(e^{Lt} phi(x)) of the block's boundary
problem. Started from u0 = Re phi and u_t0 = Re L phi (both scaled by
max |phi|), the block's loop must reproduce it to second order in dx at
a fixed Courant ratio: an exact reference, with no self-convergence.

    A2   Robin end + free tip mass:  SingleFieldLoop(LEFT_ROBIN, RIGHT_TIP_MASS)
    Abb  Robin end + pinned end:     SingleFieldLoop(LEFT_ROBIN, RIGHT_DIRICHLET_VALUE)

The slowest mode of each family (A2 branch 0, Abb branch 1) carries the
family's abscissa.
"""

import functools
import math

import numpy as np
import pytest

from tipwave import CharFamily, Grid, SingleFieldLoop, SystemParams, compute_spectrum
from tipwave.wave_core import LEFT_ROBIN, RIGHT_DIRICHLET_VALUE, RIGHT_TIP_MASS

RIGHT_KINDS = {"A2": RIGHT_TIP_MASS, "Abb": RIGHT_DIRICHLET_VALUE}
MODES = [("A2", 0), ("A2", 1), ("A2", 3), ("Abb", 1), ("Abb", 2), ("Abb", 3)]
LEVELS = (100, 200, 400, 800)
HORIZON = 2.0


@functools.lru_cache(maxsize=None)
def mode_error(tag: str, branch: int, n_cells: int) -> float:
    """Max-norm error at t = HORIZON of branch ``branch``'s mode (its root
    in the upper half-plane), stepped at r = 0.5 on ``n_cells`` cells."""
    family = CharFamily(tag, SystemParams())
    lam = next(e.refined for e in compute_spectrum(family, n_max=3).eigenvalues
               if e.n == branch and e.refined.imag > 0)
    grid = Grid(n_cells=n_cells, r=0.5)
    phi, _ = family.eigenfunction(lam, grid.nodes())
    phi = phi / np.abs(phi).max()
    loop = SingleFieldLoop(grid, family.params, phi.real, (lam * phi).real,
                           LEFT_ROBIN, RIGHT_KINDS[tag])
    for _ in range(int(round(HORIZON / grid.dt))):
        loop.step()
    assert loop.t == pytest.approx(HORIZON)
    return float(np.abs(loop.fields()["u"] - (np.exp(lam * loop.t) * phi).real).max())


@pytest.mark.parametrize("tag,branch", MODES)
def test_mode_converges_at_second_order(tag, branch):
    errors = [mode_error(tag, branch, n) for n in LEVELS]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert min(orders) >= 1.9, (errors, orders)


@pytest.mark.parametrize("tag,branch,bound", [
    ("A2", 0, 2e-7),  # measured 1.09e-7
    ("Abb", 1, 1.8e-5),  # measured 9.10e-6
])
def test_slowest_mode_error_at_n200(tag, branch, bound):
    assert mode_error(tag, branch, 200) < bound
