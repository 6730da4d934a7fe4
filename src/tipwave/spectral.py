"""Spectra of the three stability-determining generators.

Each closed-loop generator is block-triangular over two wave operators,
so exponential decay is governed by three scalar characteristic
equations, one per family tag:

    A2   e^{2L} [(1+g)L + b] (1 + mL) = [(1-g)L - b] (1 - mL)
         (observer-error system: Robin end + free tip mass)
    A    e^{2L} [1 + al + (a+m)L] + (1 - al) + (a-m)L = 0
         (state-feedback loop: pinned end + damped tip mass)
    Abb  L cosh L + (gL + b) sinh L = 0
         (estimation-error system: Robin end + pinned end)

with L the eigenvalue, g/b the Robin gains, al/a the feedback gains and
m the tip mass. Every family satisfies e^{2L} -> const as |L| grows,
which gives the asymptotic branch ladder

    L_n = (1/2) ln(ratio) + (n + offset) * pi * i + O(1/n);

large-|n| branches are refined by Newton from those seeds, while
low-|n| eigenvalues (which can sit far from the ladder) are located by
an argument-principle rectangle sweep. For Abb, L = 0 solves the raw
equation but its eigenfunction sinh(0 * (x-1)) vanishes identically, so
the origin is excluded as a spurious factor.

Roots are polished on an overflow-safe rescaling of the characteristic
function and their residuals are reported relative to the local term
magnitude: at |L| ~ 300 the raw residual of an exact root already sits
near 1e-10 from double-precision cancellation alone, so an absolute raw
threshold would be meaningless there.

Each CharFamily builds its evaluators once, in pure Python scalars, with
the gain constants (1 +- g, a +- m, ...) folded in: ``_scaled`` gives
the rescaled value and its magnitude scale (the contour sweep calls it
once per point), and ``newton_quotient`` gives a Newton step from one
exponential shared by value and derivative. Every value has the bits of
the formulas as written above; no NumPy runs per point.

The sweep (the root count of Delves and Lyness, with bisection) does
each piece of contour work once. When a box is split, only its first
half is counted: winding numbers add over a partition, so the second
half holds the rest. Each edge's phase change is kept in a memo keyed
by its exact endpoints, so the side a half shares with its parent, and
the split line that siblings share in opposite directions, are sampled
once; the memo lives for one ``compute_spectrum`` call, or for one
sweep outside it. The boxes and the Newton starting points are those
of a sweep that counts every box on its own, so every root keeps its
bits.

``compute_spectrum`` builds each root's Eigenvalue once, where the root
is found (``_eigenvalue``), and checks that every branch |n| <= n_max
holds a root: it raises ContourError naming any branch that holds none,
so a root that slips between the sweep and the ladder is reported, not
dropped. The sweep's top edge lies mid-gap on a half-offset ladder.

The three equations have real coefficients, so each spectrum is closed
under conjugation, and the lower half-plane is mirrored from the upper
one without evaluating anything: a mirrored root takes its twin's
residual. That residual has the bits an evaluation at the conjugate
would give, because every operation of the evaluators (cmath.exp,
complex +, - and *, abs, the real division, the Re L > 300 guard)
commutes exactly with conjugation in IEEE arithmetic. Only signed zeros
can break the symmetry of the value, on the real axis, and mirrors
exist only for Im L > 1e-9; a hypothesis test pins both facts.

The same symmetry makes the CSV cheap: ``Spectrum.write_csv`` formats
each conjugate pair once, and the upper row reuses its lower twin's
texts with two signs stripped. Each root is one ``Eigenvalue``, a
slotted, unfrozen record, which is about half the cost of a frozen one
to build.

An edge long enough to need more than _MAX_CONTOUR_INSERTS samples
raises ContourError before it is sampled. Family A's box reaches out
to Re L ~ 1 / (a - m), so that is what happens as m approaches a.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .wave_core import STABILITY_HYPOTHESES, SystemParams

__all__ = [
    "HypothesisError",
    "ContourError",
    "CharFamily",
    "Eigenvalue",
    "Spectrum",
    "refine_root",
    "count_zeros_in_box",
    "compute_spectrum",
    "spectral_abscissa",
]

FAMILY_TAGS = ("A2", "A", "Abb")
RESIDUAL_TOL = 1e-10
DEDUPE_RADIUS = 1e-6
SPURIOUS_RADIUS = 1e-8
NEWTON_MAX_ITER = 50
N_LOW = 8  # branches |n| <= N_LOW are found by the argument-principle sweep


class HypothesisError(ValueError):
    """A family's spectral hypotheses are violated by the parameters."""


class ContourError(RuntimeError):
    """Argument-principle contour could not be evaluated reliably, or the
    enumeration left a branch |n| <= n_max without a root."""


def _overflow(lam: complex):
    return OverflowError(f"characteristic function not evaluated at Re={lam.real}")


def _a2_evaluators(p: SystemParams):
    gp, gm, b, m = 1 + p.gamma, 1 - p.gamma, p.beta, p.m
    exp = cmath.exp

    def scaled(lam):
        if lam.real > 300.0:
            raise _overflow(lam)
        e2 = exp(2 * lam)
        t1 = e2 * (gp * lam + b) * (1 + m * lam)
        t2 = (gm * lam - b) * (1 - m * lam)
        return t1 - t2, 1.0 + abs(t1) + abs(t2)

    def newton_quotient(lam):
        if lam.real > 300.0:
            raise _overflow(lam)
        e2 = exp(2 * lam)
        cp, mp = gp * lam + b, 1 + m * lam
        cm, mm = gm * lam - b, 1 - m * lam
        deriv = e2 * (2 * (cp * mp) + (gp * mp + m * cp)) - (gm * mm - m * cm)
        if deriv == 0:
            return None
        return (e2 * cp * mp - cm * mm) / deriv

    return scaled, newton_quotient


def _a_evaluators(p: SystemParams):
    ap, am, sp, sm = 1 + p.alpha, 1 - p.alpha, p.a + p.m, p.a - p.m
    exp = cmath.exp

    def scaled(lam):
        if lam.real > 300.0:
            raise _overflow(lam)
        t1 = exp(2 * lam) * (ap + sp * lam)
        t2 = am + sm * lam
        return t1 + t2, 1.0 + abs(t1) + abs(t2)

    def newton_quotient(lam):
        if lam.real > 300.0:
            raise _overflow(lam)
        e2 = exp(2 * lam)
        lead = ap + sp * lam
        deriv = e2 * (2 * lead + sp) + sm
        if deriv == 0:
            return None
        return (e2 * lead + (am + sm * lam)) / deriv

    return scaled, newton_quotient


def _abb_evaluators(p: SystemParams):
    g, b = p.gamma, p.beta
    exp = cmath.exp

    def scaled(lam):
        if lam.real > 300.0:
            raise _overflow(lam)
        e2 = exp(2 * lam)
        t1 = lam * (e2 + 1)
        t2 = (g * lam + b) * (e2 - 1)
        return t1 + t2, 1.0 + abs(t1) + abs(t2)

    def newton_quotient(lam):
        if lam.real > 300.0:
            raise _overflow(lam)
        two_lam = 2 * lam
        e2 = exp(two_lam)
        ep, em, c = e2 + 1, e2 - 1, g * lam + b
        deriv = ep + two_lam * e2 + g * em + 2 * c * e2
        if deriv == 0:
            return None
        return (lam * ep + c * em) / deriv

    return scaled, newton_quotient


_EVALUATORS = {"A2": _a2_evaluators, "A": _a_evaluators, "Abb": _abb_evaluators}


class CharFamily:
    """One characteristic-equation family with its asymptotic data.

    The constructor builds the family's two evaluators once, with the
    parameter constants folded in (each the float the written formula
    computes first): ``scaled`` and the fused Newton quotient
    ``newton_quotient(lam)``, value / derivative of the scaled function
    from one exponential, or None where the derivative is 0. Both take a
    complex and raise OverflowError beyond Re L = 300. The ladder
    constants are computed once too.
    """

    def __init__(self, tag: str, params: SystemParams):
        if tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family {tag!r}; expected one of {FAMILY_TAGS}")
        self.tag = tag
        self.params = params
        self.check_hypotheses()
        self._scaled, self.newton_quotient = _EVALUATORS[tag](params)
        p = params
        if tag == "A":
            self._asymptote = 0.5 * math.log(abs(p.m - p.a) / (p.m + p.a))
            self._offset = 0.0 if p.m > p.a else 0.5
        else:
            self._asymptote = 0.5 * math.log(abs(p.gamma - 1) / (p.gamma + 1))
            self._offset = 0.0 if p.gamma > 1 else (0.5 if tag == "A2" else -0.5)

    def check_hypotheses(self) -> None:
        for _, lhs, rhs, holds, families in STABILITY_HYPOTHESES:
            if self.tag in families and not holds(self.params):
                raise HypothesisError(f"family {self.tag} requires {lhs} != {rhs}")

    # -- characteristic function ---------------------------------------

    def scaled(self, lam: complex) -> tuple[complex, float]:
        """(value, magnitude scale) of an overflow-safe rescaling.

        A2/A are evaluated as written (their exponential decays in the
        left half-plane); Abb is multiplied by 2 e^L, which removes the
        cosh/sinh growth for Re L < 0 without moving any zero.
        """
        return self._scaled(complex(lam))

    def normalized_residual(self, lam: complex) -> float:
        value, scale = self.scaled(lam)
        return abs(value) / scale

    # -- asymptotics ----------------------------------------------------

    def asymptote_real(self) -> float:
        """Common limit of the branch real parts, (1/2) ln(ratio)."""
        return self._asymptote

    def branch_offset(self) -> float:
        """Fractional ladder offset: branch n sits near (n + offset) pi i."""
        return self._offset

    def seed(self, n: int) -> complex:
        """Asymptotic seed for branch n (exact up to the O(1/n) tail)."""
        return complex(self._asymptote, (n + self._offset) * math.pi)

    def branch_index(self, lam: complex) -> int:
        return round(lam.imag / math.pi - self._offset)

    def sweep_left_edge(self) -> float:
        """Left boundary of the rectangle that contains every eigenvalue.

        Besides the asymptote, the trailing (exponential-free) part of
        each characteristic function has a real zero that attracts one
        eigenvalue; the edge clears both with margin.
        """
        p = self.params
        edge = min(-4.0, 2.0 * self.asymptote_real() - 3.0)
        if self.tag in ("A2", "Abb") and p.gamma > 1:
            edge = min(edge, p.beta / (1 - p.gamma) - 2.0)
        if self.tag == "A":
            trail_zero = (p.alpha - 1) / (p.a - p.m)
            if trail_zero < 0:
                edge = min(edge, trail_zero - 2.0)
        return edge

    # -- eigenfunctions ---------------------------------------------------

    def eigenfunction(self, lam: complex, x) -> tuple:
        """Closed-form eigenfunction value and derivative at x.

        Accepts scalar or array x; the normalization is the one whose
        scaled trace vector has the explicit large-n limit.
        """
        p = self.params
        lam = complex(lam)
        x = np.asarray(x, dtype=float)
        if self.tag == "A2":
            cplus = (1 + p.gamma) * lam + p.beta
            cminus = (1 - p.gamma) * lam - p.beta
            f = cplus * np.exp(lam * x) + cminus * np.exp(-lam * x)
            fp = lam * (cplus * np.exp(lam * x) - cminus * np.exp(-lam * x))
        elif self.tag == "A":
            f = np.exp(lam * x) - np.exp(-lam * x)
            fp = lam * (np.exp(lam * x) + np.exp(-lam * x))
        else:
            f = np.sinh(lam * (x - 1))
            fp = lam * np.cosh(lam * (x - 1))
        if f.ndim == 0:
            return complex(f), complex(fp)
        return f, fp


@dataclass(slots=True)
class Eigenvalue:
    """One refined eigenvalue with its seed and normalized residual.

    A plain slotted record: it compares and prints by its fields, and it
    is neither frozen nor hashable, which makes it about twice as cheap to
    build as a frozen one (a spectrum builds one per root).
    """

    n: int
    seed: complex
    refined: complex
    residual: float
    converged: bool = True


@dataclass
class Spectrum:
    """Refined eigenvalues of one family, ordered by imaginary part."""

    family: CharFamily
    n_max: int
    eigenvalues: list[Eigenvalue] = field(default_factory=list)

    def write_csv(self, path) -> None:
        """One row per eigenvalue, every float in ``repr``, written row by row.

        A family's seeds share one real part (the ladder asymptote), so
        seed_re is formatted only when it differs from the previous row's;
        zeros are formatted every time, since 0.0 == -0.0 but the two
        print differently (NaN differs from everything, itself included).

        A conjugate pair is formatted once. A lower-half row (Im seed < 0,
        Im refined < 0) waits on a stack, the row nearest the axis on top,
        with the text its twin's line would end in. A row with Im seed > 0,
        Im refined > 0, Re refined != 0 and residual != 0 first drops the
        waiting rows whose twin would lie below it (rows come by rising Im,
        so those twins never come); if the top row then holds its
        conjugate seed, its conjugate refined value and its residual, the
        row ends in that text, which is the top row's four value texts
        with the leading '-' of seed_im and refined_im stripped. The text
        is exact: nonzero floats that compare equal have the same bits,
        repr(-y) is '-' + repr(y) for y > 0, == rejects NaN, and the
        guards keep +-0.0 (equal, yet printed apart) out of the reused
        columns. Rows pair by value, so a half-offset ladder, whose lower
        half lists one row more, pairs too. Only the rows still waiting for
        a twin are held.
        """
        with open(path, "w", newline="") as fh:
            fh.write("n,seed_re,seed_im,refined_re,refined_im,residual\n")
            last, seed_re = None, ""
            waiting, tails = [], []  # lower-half rows, and their twins' line endings
            for e in self.eigenvalues:
                x = e.seed.real
                if x != last or x == 0.0:
                    last, seed_re = x, repr(x)
                s, z, r = e.seed, e.refined, e.residual
                if s.imag > 0 and z.imag > 0 and z.real != 0 and r != 0:
                    while waiting and -waiting[-1].refined.imag < z.imag:
                        waiting.pop()
                        tails.pop()
                    if waiting:
                        w = waiting[-1]
                        if w.refined == z.conjugate() and w.seed == s.conjugate() \
                                and w.residual == r:
                            waiting.pop()
                            fh.write(f"{e.n},{seed_re}{tails.pop()}")
                            continue
                seed_im, res_text = repr(s.imag), repr(r)
                re_text, im_text = repr(z.real), repr(z.imag)
                if s.imag < 0 and z.imag < 0:
                    waiting.append(e)
                    tails.append(f",{seed_im[1:]},{re_text},{im_text[1:]},{res_text}\n")
                fh.write(f"{e.n},{seed_re},{seed_im},{re_text},{im_text},{res_text}\n")


# ----------------------------------------------------------------------
# Newton refinement
# ----------------------------------------------------------------------

def _newton(family: CharFamily, start: complex) -> tuple[complex, bool]:
    z = complex(start)
    quotient = family.newton_quotient
    try:
        for _ in range(NEWTON_MAX_ITER):
            step = quotient(z)
            if step is None:
                return z, False
            z -= step
            if abs(step) <= 1e-14 * (1.0 + abs(z)):
                return z, True
        return z, family.normalized_residual(z) <= RESIDUAL_TOL
    except OverflowError:
        # iterate escaped the evaluable region: report non-convergence
        return complex(start), False


def refine_root(family: CharFamily, seed: complex, n: int | None = None, *,
                edges: _EdgeMemo | None = None) -> Eigenvalue:
    """Newton-refine one asymptotic seed; ``n`` defaults to the seed's branch.

    If Newton drifts to a different branch (further than pi/2 from the
    seed), the strip around the seed is re-searched by the argument
    principle, through the contour memo ``edges``, and the nearest zero
    found is used instead. A root that fails the tolerance is flagged.
    """
    seed = complex(seed)
    z, ok = _newton(family, seed)
    if not ok or abs(z - seed) > math.pi / 2:
        relocated = _relocate_near(family, seed, edges)
        if relocated is not None:
            z, ok = relocated, True
    return _eigenvalue(family, z, seed, ok, family.branch_index(seed) if n is None else n)


def _eigenvalue(family: CharFamily, z: complex, seed: complex | None = None,
                ok: bool = True, n: int | None = None,
                residual: float | None = None) -> Eigenvalue:
    """Every Eigenvalue is built here: ``n`` defaults to z's branch, ``seed``
    to that branch's ladder seed, ``residual`` to the normalized residual
    at z; converged is ``ok`` and residual <= RESIDUAL_TOL. A mirrored root
    passes its twin's residual, which is bit-identical (see the module
    docstring) and costs no evaluation."""
    n = family.branch_index(z) if n is None else n
    res = family.normalized_residual(z) if residual is None else residual
    return Eigenvalue(n=n, seed=family.seed(n) if seed is None else seed, refined=z,
                      residual=res, converged=ok and res <= RESIDUAL_TOL)


def _relocate_near(family: CharFamily, seed: complex, edges: _EdgeMemo | None) -> complex | None:
    xlo = min(family.sweep_left_edge(), seed.real - 2.0)
    box = (xlo, 0.5, seed.imag - math.pi / 2, seed.imag + math.pi / 2)
    try:
        roots = _sweep_box(family, *box, edges=edges)
    except (ContourError, RecursionError):
        return None
    if not roots:
        return None
    return min(roots, key=lambda z: abs(z - seed))


# ----------------------------------------------------------------------
# Argument-principle machinery
# ----------------------------------------------------------------------

_MAX_CONTOUR_INSERTS = 200_000  # refinement midpoints per contour, and initial samples per edge
_MIN_CONTOUR_MAG = 1e-9
_AXIS_BAND = 0.2  # the nominal sample spacing: an edge this near the real axis checks f/f'


class _LongEdge(ContourError):
    """An edge that would need more than _MAX_CONTOUR_INSERTS initial samples."""


class _EdgeMemo(dict):
    """The contour work of one ``compute_spectrum`` call (or of one sweep
    outside it), so that no edge is sampled twice.

    Maps an edge's exact endpoints (z0, z1) to (phase change, refinement
    inserts), or to None when a zero came too close to the edge. A
    reversed edge (z1, z0) reads the same entry with the phase negated.
    ``padded`` tells whether the last count made through the memo needed
    an outward-nudged contour.
    """

    padded = False


def _reach(quotient, z: complex) -> float:
    """|f/f'| at z, about the distance to the nearest zero (inf where f' = 0)."""
    q = quotient(z)
    return math.inf if q is None else abs(q)


def _edge_phase(scaled, z0: complex, z1: complex, budget: int,
                quotient=None) -> tuple[float, int] | None:
    """(phase change, refinement inserts) of the scaled function along z0 -> z1.

    The edge starts from max(16, |edge| / 0.2) evenly spaced samples; a
    midpoint is inserted wherever one step turns the phase by more than
    1.4. Two zeros near the edge within one step turn it by about 2 pi,
    which reads as no turn at all; so with ``quotient``, the family's
    Newton quotient f/f', a midpoint is also inserted wherever a step is
    longer than 1.4 |f/f'| at either end. Returns None when a sample lies
    within _MIN_CONTOUR_MAG (relative) of a zero or the ratio of two
    neighbours leaves the float range, and raises ContourError when the
    inserts reach ``budget``, or, before any sample is taken, when the edge
    would start from more than _MAX_CONTOUR_INSERTS samples.
    """
    phase = cmath.phase
    dz = z1 - z0
    if not abs(dz) / 0.2 < _MAX_CONTOUR_INSERTS:  # an infinite or NaN length too
        raise _LongEdge(f"contour edge {z0} -> {z1} needs more than "
                        f"{_MAX_CONTOUR_INSERTS} samples")
    n0 = max(16, int(abs(dz) / 0.2))
    pts = np.linspace(0.0, 1.0, n0 + 1).tolist()
    vals: list[complex] = []
    for t in pts:
        z = z0 + dz * t
        value, scale = scaled(z)
        if abs(value) / scale < _MIN_CONTOUR_MAG:
            return None
        vals.append(value)
    reach = [_reach(quotient, z0 + dz * t) for t in pts] if quotient else None
    length = abs(dz)
    total = 0.0
    inserts = 0
    i = 0
    while i < len(vals) - 1:
        try:
            dphi = phase(vals[i + 1] / vals[i])
        except (OverflowError, ZeroDivisionError):
            return None  # a ratio out of float range: too close to a zero to track
        if abs(dphi) > 1.4 or (reach and (pts[i + 1] - pts[i]) * length
                               > 1.4 * min(reach[i], reach[i + 1])):
            inserts += 1
            if inserts >= budget:
                raise ContourError("contour refinement budget exhausted")
            tm = 0.5 * (pts[i] + pts[i + 1])
            z = z0 + dz * tm
            value, scale = scaled(z)
            if abs(value) / scale < _MIN_CONTOUR_MAG:
                return None
            pts.insert(i + 1, tm)
            vals.insert(i + 1, value)
            if reach:
                reach.insert(i + 1, _reach(quotient, z))
            continue
        total += dphi
        i += 1
    return total, inserts


def _winding(family: CharFamily, xlo, xhi, ylo, yhi, edges: _EdgeMemo) -> float:
    """Total phase change / 2 pi of the scaled characteristic function
    around the rectangle, by adaptive phase tracking (``_edge_phase``).

    An edge already in ``edges``, in either direction, is not sampled
    again. An edge costs in proportion to its length. _MAX_CONTOUR_INSERTS
    caps an edge's initial samples, and the refinement midpoints summed
    over the contour's four edges, whether sampled now or read from the
    memo. A horizontal edge within _AXIS_BAND of the real axis, such as
    the sweep's bottom edge 1e-4 below it, passes next to the real zeros,
    where two of them can fall within one step: it also refines by the
    Newton quotient.
    """
    corners = [complex(xlo, ylo), complex(xhi, ylo), complex(xhi, yhi),
               complex(xlo, yhi), complex(xlo, ylo)]
    total = 0.0
    budget = _MAX_CONTOUR_INSERTS
    for z0, z1 in zip(corners[:-1], corners[1:]):
        if (z0, z1) in edges:
            work = edges[z0, z1]
        elif (z1, z0) in edges:
            work = edges[z1, z0]
            if work is not None:
                work = (-work[0], work[1])
        else:
            near_axis = z0.imag == z1.imag and abs(z0.imag) < _AXIS_BAND
            work = edges[z0, z1] = _edge_phase(family._scaled, z0, z1, budget,
                                               family.newton_quotient if near_axis else None)
        if work is None:
            raise ContourError(f"zero too close to contour on {z0} -> {z1}")
        budget -= work[1]
        if budget <= 0:
            raise ContourError("contour refinement budget exhausted")
        total += work[0]
    return total / (2 * math.pi)


def count_zeros_in_box(family: CharFamily, corner_lo: complex,
                       corner_hi: complex, *, edges: _EdgeMemo | None = None) -> int:
    """Number of characteristic zeros inside an axis-aligned rectangle.

    If a zero sits (numerically) on the contour the box is nudged
    outward a few times before giving up; the error then names the last
    attempt's cause. A sweep passes its ``edges``
    memo, so that edges it has sampled before are reused, and reads
    ``edges.padded`` afterwards to learn whether the count is the box's
    own or includes a margin around it. An edge too long to sample is not
    nudged, since that only lengthens it.
    """
    xlo, xhi = sorted((corner_lo.real, corner_hi.real))
    ylo, yhi = sorted((corner_lo.imag, corner_hi.imag))
    if edges is None:
        edges = _EdgeMemo()
    pad = 0.0
    for attempt in range(4):
        try:
            cnt = _winding(family, xlo - pad, xhi + pad, ylo - pad, yhi + pad, edges)
        except _LongEdge:
            raise
        except ContourError as exc:
            reason = exc
            pad = (pad + 1e-3) * 1.7
            continue
        n = round(cnt)
        if abs(cnt - n) >= 0.25:
            raise ContourError(f"winding {cnt} too far from an integer")
        edges.padded = pad > 0.0
        return n
    raise ContourError(f"could not separate contour from zeros: {reason}")


def _split(xlo, xhi, ylo, yhi):
    """The two halves of a box, across its longer side; the offset keeps
    the split line off symmetric root locations."""
    if xhi - xlo >= yhi - ylo:
        xm = 0.5 * (xlo + xhi) + 0.0012345 * (xhi - xlo)
        return (xlo, xm, ylo, yhi), (xm, xhi, ylo, yhi)
    ym = 0.5 * (ylo + yhi) + 0.0012345 * (yhi - ylo)
    return (xlo, xhi, ylo, ym), (xlo, xhi, ym, yhi)


def _count(family: CharFamily, xlo, xhi, ylo, yhi, edges: _EdgeMemo) -> tuple[int, bool]:
    """(zeros in the box, whether counted on the box's own contour)."""
    n = count_zeros_in_box(family, complex(xlo, ylo), complex(xhi, yhi), edges=edges)
    return n, not edges.padded


def _sweep_box(family: CharFamily, xlo, xhi, ylo, yhi, depth: int = 0,
               count: tuple[int, bool] | None = None,
               edges: _EdgeMemo | None = None) -> list[complex]:
    """All zeros in a rectangle by recursive bisection + Newton polish.

    Only the first half of a split is counted. Winding numbers add over a
    partition, so the second half holds the box's count minus the first
    half's, and ``count`` hands that difference down. The second half is
    counted on its own when either count came from an outward-nudged
    contour (the margin lies in neither half) or the difference is
    negative; a negative count raises ContourError.

    One ``edges`` memo serves the whole sweep: a half's outer side equals
    its parent's side, and the split line is shared, reversed, with the
    sibling's subtree, so each edge is sampled once.
    """
    if edges is None:
        edges = _EdgeMemo()
    zeros, exact = _count(family, xlo, xhi, ylo, yhi, edges) if count is None else count
    if zeros < 0:
        raise ContourError(f"negative zero count {zeros} in [{xlo}, {xhi}] x [{ylo}, {yhi}]")
    if zeros == 0:
        return []
    if zeros == 1:
        z, ok = _newton(family, complex((xlo + xhi) / 2, (ylo + yhi) / 2))
        if (ok and xlo - 1e-9 <= z.real <= xhi + 1e-9
                and ylo - 1e-9 <= z.imag <= yhi + 1e-9):
            return [z]
    if depth >= 60:
        raise ContourError("box bisection failed to isolate zeros (multiple root?)")
    first, second = _split(xlo, xhi, ylo, yhi)
    first_count = _count(family, *first, edges)
    roots = _sweep_box(family, *first, depth + 1, first_count, edges)
    rest = zeros - first_count[0]
    second_count = (rest, True) if exact and first_count[1] and rest >= 0 else None
    roots += _sweep_box(family, *second, depth + 1, second_count, edges)
    return roots


# ----------------------------------------------------------------------
# Full-spectrum enumeration
# ----------------------------------------------------------------------

def compute_spectrum(family: CharFamily, n_max: int = 100) -> Spectrum:
    """Enumerate all eigenvalues with branch index |n| <= n_max.

    Branches beyond N_LOW are Newton-refined from their asymptotic
    seeds; the low-|n| region, where eigenvalues need not follow the
    ladder (extra real roots, displaced central pairs), is swept by the
    argument principle up to a top edge mid-gap between branches N_LOW
    and N_LOW + 1 of a half-offset ladder (at 0.74 of the gap on an
    integer ladder). Conjugate roots are mirrored from the upper
    half-plane; a mirror takes its twin's residual, which conjugate
    symmetry makes bit-identical to an evaluation at the mirror (a test
    pins it). The mirror of branch n is branch -n - 2 offset, so a ladder
    offset by -1/2 is seeded up to branch n_max + 1 to reach branch
    -n_max.

    The roots are then sorted by (imag, real) and deduplicated: a root
    within DEDUPE_RADIUS of an already kept one is dropped. Each root is
    checked only against the window of kept roots at most DEDUPE_RADIUS
    below it in imaginary part, the only ones that can be that close. On
    the ladders, about pi apart in imaginary part, that window holds only
    copies of the same root, so the dedupe is linear in the number of
    roots (``_dedupe``).

    Every branch |n| <= n_max must then hold at least one root (a branch
    can hold two, such as the extra real roots of strip 0); if one holds
    none, ContourError names it, since the enumeration missed a root.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    n_low = min(N_LOW, n_max)
    offset = family.branch_offset()
    edge_im = (n_low + (0.74 if offset == 0.0 else offset + 0.5)) * math.pi
    # the sweep below and every relocation sweep of refine_root share one
    # edge memo, which is freed before the roots are mirrored and deduped
    edges = _EdgeMemo()
    swept = _sweep_box(family, family.sweep_left_edge(), 0.5, -1e-4, edge_im, edges=edges)
    # Abb's origin zero is spurious: its eigenfunction vanishes identically
    swept = [_eigenvalue(family, z) for z in swept
             if not (abs(z) < SPURIOUS_RADIUS and family.tag == "Abb")]

    # seeds below the swept box's top edge (all n < n_low) are skipped
    ladder = []
    n_top = n_max + 1 if offset < 0 else n_max
    for n in range(n_low, n_top + 1):
        seed = family.seed(n)
        if seed.imag <= edge_im:
            continue
        eig = refine_root(family, seed, n, edges=edges)
        if family.branch_index(eig.refined) != eig.n:  # Newton moved to another branch
            eig = _eigenvalue(family, eig.refined, seed, eig.converged)
        ladder.append(eig)
    del edges

    # conjugate closure, then dedupe: a swept root's mirror is seeded from
    # its own branch, a ladder root's mirror from the conjugate seed, and
    # each mirror keeps its twin's residual
    eigenvalues = swept + ladder + [
        _eigenvalue(family, e.refined.conjugate(), residual=e.residual)
        for e in swept if e.refined.imag > 1e-9] + [
        _eigenvalue(family, e.refined.conjugate(), e.seed.conjugate(), e.converged,
                    residual=e.residual)
        for e in ladder if e.refined.imag > 1e-9]
    eigenvalues.sort(key=lambda e: (e.refined.imag, e.refined.real))
    eigenvalues = [e for e in _dedupe(eigenvalues) if abs(e.n) <= n_max]
    _check_branches(family, n_max, eigenvalues)
    return Spectrum(family=family, n_max=n_max, eigenvalues=eigenvalues)


def _check_branches(family: CharFamily, n_max: int, eigenvalues) -> None:
    """Raise ContourError unless every branch |n| <= n_max has a root."""
    missing = sorted(set(range(-n_max, n_max + 1)).difference(e.n for e in eigenvalues),
                     key=lambda n: (abs(n), n))
    if missing:
        shown = ", ".join(map(str, missing[:10])) + (", ..." if len(missing) > 10 else "")
        raise ContourError(f"family {family.tag}: no root on {len(missing)} of the "
                           f"branches |n| <= {n_max}: {shown}")


def _dedupe(roots):
    """Keep each root unless an earlier kept one lies within DEDUPE_RADIUS.

    ``roots`` must be sorted by imaginary part, so the kept list is too.
    The scan walks it backwards and stops at the first kept root more
    than DEDUPE_RADIUS below in imaginary part: |z - w| >= |Im(z - w)|,
    so none before it can be within the radius. The result equals the
    pairwise check against every kept root, in the same order.
    """
    unique = []
    for e in roots:
        z = e.refined
        duplicate = False
        for kept in reversed(unique):
            if z.imag - kept.refined.imag > DEDUPE_RADIUS:
                break
            if abs(z - kept.refined) <= DEDUPE_RADIUS:
                duplicate = True
                break
        if not duplicate:
            unique.append(e)
    return unique


def spectral_abscissa(spectrum: Spectrum) -> float:
    """Largest real part over the refined eigenvalues.

    Under the spectrum-determined growth condition this is the decay
    rate of the loop's state (the energy decays at twice the rate).
    """
    if not spectrum.eigenvalues:
        raise ValueError("empty spectrum")
    flagged = [e for e in spectrum.eigenvalues if not e.converged]
    if flagged:
        warnings.warn(f"{len(flagged)} eigenvalue(s) failed refinement; "
                      "abscissa computed from the converged ones")
    vals = [e.refined.real for e in spectrum.eigenvalues if e.converged]
    if not vals:
        raise ValueError("no converged eigenvalues")
    return max(vals)

