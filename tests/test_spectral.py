import cmath
import dataclasses
import io
import math
import re
import time
from collections import Counter, namedtuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tipwave import EsoLoop, ObserverLoop, SingleFieldLoop, SystemParams
from tipwave import spectral
from tipwave.spectral import (
    DEDUPE_RADIUS,
    CharFamily,
    ContourError,
    Eigenvalue,
    HypothesisError,
    _dedupe,
    compute_spectrum,
    count_zeros_in_box,
    refine_root,
    spectral_abscissa,
)

# abscissae at the reference gains, frozen from the package's own full
# sweep (|n| <= 100) and cross-checked by the argument principle
SWEPT_ABSCISSA = {"A2": -0.0228969413, "A": -0.4026362488, "Abb": -0.6720560519}


def strip_interval(k: int) -> tuple[float, float]:
    """Horizontal strip k: Im in [(k - 1/2) pi, (k + 1/2) pi)."""
    return (k - 0.5) * math.pi, (k + 0.5) * math.pi


def verify_strip_counts(spectrum, k_max: int) -> list[tuple[int, int, int]]:
    """(k, argument-principle count, enumerated count) per strip |k| <= k_max.

    The Abb origin zero is spurious (excluded from the enumeration) and
    is subtracted from the contour count of strip 0.
    """
    family = spectrum.family
    xlo = family.sweep_left_edge()
    out = []
    for k in range(-k_max, k_max + 1):
        lo, hi = strip_interval(k)
        counted = count_zeros_in_box(family, complex(xlo, lo), complex(0.5, hi))
        if k == 0 and family.tag == "Abb":
            counted -= 1
        enumerated = [e for e in spectrum.eigenvalues if lo <= e.refined.imag < hi]
        out.append((k, counted, len(enumerated)))
    return out


@pytest.fixture(scope="module", params=["A2", "A", "Abb"])
def family(request):
    return CharFamily(request.param, SystemParams())


@pytest.fixture(scope="module")
def spectra():
    p = SystemParams()
    return {tag: compute_spectrum(CharFamily(tag, p), n_max=100)
            for tag in ("A2", "A", "Abb")}


class TestResidual:
    """The scaled characteristic function, the value the sweep and the
    residuals use (A2 and A as written, Abb times 2 e^L)."""

    def test_observer_error_family_at_origin(self):
        fam = CharFamily("A2", SystemParams())
        # LHS - RHS at 0: beta - (-beta) = 2 beta = 3.0
        assert fam.scaled(0.0)[0] == pytest.approx(3.0, rel=1e-14)

    def test_state_feedback_family_at_origin(self):
        # (1+alpha) + (1-alpha) + (a-m)*0 = 2; the trailing term carries
        # the eigenvalue factor (dropping it would put a root in the
        # right half-plane, contradicting exponential stability)
        fam = CharFamily("A", SystemParams())
        assert fam.scaled(0.0)[0] == pytest.approx(2.0, rel=1e-14)

    def test_pinned_error_family_at_i_pi(self):
        # the raw value -i pi times 2 e^{i pi} = -2
        fam = CharFamily("Abb", SystemParams())
        value, _ = fam.scaled(1j * math.pi)
        assert value == pytest.approx(2j * math.pi, abs=1e-12)

    def test_origin_is_raw_zero_for_pinned_family(self):
        fam = CharFamily("Abb", SystemParams())
        assert fam.scaled(0.0)[0] == 0.0

    def test_scaled_form_is_overflow_safe(self, family):
        value, scale = family.scaled(complex(-250.0, 4.0))
        assert np.isfinite(abs(value)) and np.isfinite(scale)
        # raw cosh/sinh overflow around |Re| ~ 710 for the pinned family
        value, scale = family.scaled(complex(-600.0, 1.0))
        assert np.isfinite(scale)


def written_scaled(tag, p, lam):
    """``CharFamily.scaled`` as written before its constants were folded."""
    e2 = cmath.exp(2 * lam)
    if tag == "A2":
        t1 = e2 * ((1 + p.gamma) * lam + p.beta) * (1 + p.m * lam)
        t2 = ((1 - p.gamma) * lam - p.beta) * (1 - p.m * lam)
        return t1 - t2, 1.0 + abs(t1) + abs(t2)
    if tag == "A":
        t1 = e2 * ((1 + p.alpha) + (p.a + p.m) * lam)
        t2 = (1 - p.alpha) + (p.a - p.m) * lam
        return t1 + t2, 1.0 + abs(t1) + abs(t2)
    t1 = lam * (e2 + 1)
    t2 = (p.gamma * lam + p.beta) * (e2 - 1)
    return t1 + t2, 1.0 + abs(t1) + abs(t2)


def scaled_derivative(tag, p, lam):
    """The derivative that Newton divided by before the fused quotient."""
    e2 = cmath.exp(2 * lam)
    if tag == "A2":
        lead = ((1 + p.gamma) * lam + p.beta) * (1 + p.m * lam)
        dlead = (1 + p.gamma) * (1 + p.m * lam) + p.m * ((1 + p.gamma) * lam + p.beta)
        dtrail = (1 - p.gamma) * (1 - p.m * lam) - p.m * ((1 - p.gamma) * lam - p.beta)
        return e2 * (2 * lead + dlead) - dtrail
    if tag == "A":
        lead = (1 + p.alpha) + (p.a + p.m) * lam
        return e2 * (2 * lead + (p.a + p.m)) + (p.a - p.m)
    return ((e2 + 1) + 2 * lam * e2 + p.gamma * (e2 - 1)
            + 2 * (p.gamma * lam + p.beta) * e2)


def hex_parts(z):
    return z.real.hex(), z.imag.hex()


GAINS = st.one_of(st.floats(0.01, 100.0), st.sampled_from([0.5, 1.0, 1.5, 2.0, 5.0]))
LAMBDAS = st.builds(complex,
                    st.one_of(st.floats(-800.0, 300.0), st.sampled_from([0.0, -0.0, 300.0])),
                    st.one_of(st.floats(-1e4, 1e4), st.sampled_from([0.0, -0.0, math.pi])))


class TestEvaluators:
    @given(st.sampled_from(["A2", "A", "Abb"]), GAINS, GAINS, GAINS, GAINS, GAINS, LAMBDAS)
    @settings(max_examples=1000, deadline=None)
    def test_same_bits_as_written_formulas(self, tag, m, alpha, a, beta, gamma, lam):
        """Folded constants and the fused quotient keep every bit."""
        p = SystemParams(m=m, alpha=alpha, a=a, beta=beta, gamma=gamma)
        assume(p.gamma != 1.0 and p.m != p.a)
        fam = CharFamily(tag, p)
        value, scale = written_scaled(tag, p, lam)
        got_value, got_scale = fam.scaled(lam)
        assert hex_parts(got_value) == hex_parts(value)
        assert got_scale.hex() == scale.hex()
        d = scaled_derivative(tag, p, lam)
        quotient = fam.newton_quotient(lam)
        if d == 0:
            assert quotient is None
        else:
            assert hex_parts(quotient) == hex_parts(value / d)

    @given(st.sampled_from(["A2", "A", "Abb"]), GAINS, GAINS, GAINS, GAINS, GAINS, LAMBDAS)
    @settings(max_examples=1000, deadline=None)
    def test_conjugate_symmetry(self, tag, m, alpha, a, beta, gamma, lam):
        """The evaluators commute with conjugation bit for bit, so a mirrored
        root may take its twin's residual. On the real axis the value's
        signed zeros can differ (mirrors need Im > 1e-9); the residual cannot."""
        p = SystemParams(m=m, alpha=alpha, a=a, beta=beta, gamma=gamma)
        assume(p.gamma != 1.0 and p.m != p.a)
        fam = CharFamily(tag, p)
        res = fam.normalized_residual(lam)
        assert fam.normalized_residual(lam.conjugate()).hex() == res.hex()
        if abs(lam.imag) > 1e-9:
            value, scale = fam.scaled(lam)
            got_value, got_scale = fam.scaled(lam.conjugate())
            assert hex_parts(got_value) == hex_parts(value.conjugate())
            assert got_scale.hex() == scale.hex()

    def test_overflow_beyond_re_300(self, family):
        lam = complex(300.5, 1.0)
        with pytest.raises(OverflowError, match="Re=300.5"):
            family.scaled(lam)
        with pytest.raises(OverflowError, match="Re=300.5"):
            family.newton_quotient(lam)


class TestSeeds:
    def test_observer_error_seed(self):
        fam = CharFamily("A2", SystemParams())
        seed = fam.seed(10)
        assert seed.real == pytest.approx(-0.804719, abs=1e-6)
        assert seed.imag == pytest.approx(10 * math.pi, rel=1e-14)

    def test_state_feedback_seed(self):
        fam = CharFamily("A", SystemParams())
        seed = fam.seed(0)
        assert seed == pytest.approx(complex(-0.423649, 0.0), abs=1e-6)
        assert seed.real == pytest.approx(0.5 * math.log(3.0 / 7.0), rel=1e-12)

    def test_pinned_error_seed_branch_rule(self):
        fam = CharFamily("Abb", SystemParams())  # gamma > 1: integer ladder
        seed = fam.seed(3)
        assert seed == pytest.approx(complex(-0.804719, 3 * math.pi), abs=1e-6)
        low = CharFamily("Abb", SystemParams(gamma=0.5))
        assert low.seed(3).imag == pytest.approx(2.5 * math.pi, rel=1e-12)

    def test_half_offset_ladders(self):
        assert CharFamily("A2", SystemParams(gamma=0.5)).branch_offset() == 0.5
        assert CharFamily("A", SystemParams(m=1.0)).branch_offset() == 0.5

    def test_hypothesis_violations(self):
        with pytest.raises(HypothesisError, match="^family A2 requires gamma != 1$"):
            CharFamily("A2", SystemParams(gamma=1.0))
        with pytest.raises(HypothesisError, match="^family Abb requires gamma != 1$"):
            CharFamily("Abb", SystemParams(gamma=1.0))
        with pytest.raises(HypothesisError, match="^family A requires m != a$"):
            CharFamily("A", SystemParams(m=2.0, a=2.0))
        with pytest.raises(ValueError):
            CharFamily("B", SystemParams())


class TestRefine:
    def test_residual_tolerance(self, family):
        eig = refine_root(family, family.seed(10))
        assert eig.converged and eig.residual <= 1e-10

    def test_conjugate_symmetry(self, family):
        up = refine_root(family, family.seed(12))
        down = refine_root(family, family.seed(12).conjugate())
        assert abs(down.refined - up.refined.conjugate()) < 1e-13

    def test_seed_distance_shrinks_like_inverse_n(self, family):
        base = refine_root(family, family.seed(10))
        c10 = 10 * abs(base.refined - base.seed)
        for n in (20, 40, 80):
            eig = refine_root(family, family.seed(n))
            assert abs(eig.refined - eig.seed) <= 1.5 * c10 / n


class TestCounting:
    def test_right_half_plane_empty(self, family):
        assert count_zeros_in_box(family, complex(0.05, -10.0), complex(5.0, 10.0)) == 0

    def test_tiny_box_around_refined_root_is_simple(self, family):
        eig = refine_root(family, family.seed(5))
        z = eig.refined
        assert count_zeros_in_box(family, z - (0.1 + 0.1j), z + (0.1 + 0.1j)) == 1

    def test_count_matches_enumeration_in_box(self, spectra):
        spec = spectra["A"]
        fam = spec.family
        # upper member of the displaced central pair + the first ladder root
        box_lo, box_hi = complex(-1.0, 0.05), complex(0.0, 4.0)
        inside = [e for e in spec.eigenvalues
                  if box_lo.real < e.refined.real < box_hi.real
                  and box_lo.imag < e.refined.imag < box_hi.imag]
        assert count_zeros_in_box(fam, box_lo, box_hi) == len(inside) == 2

    def test_ratio_out_of_range_counts_on_padded_contour(self):
        """A subnormal corner takes a sample ratio out of float range; the
        edge is treated like one that passes too close to a zero, and the
        count falls to the nudged contour instead of raising OverflowError."""
        fam = CharFamily("A2", SystemParams())
        edges = spectral._EdgeMemo()
        assert count_zeros_in_box(fam, complex(0.0, 5e-324), complex(3.0, 1.0),
                                  edges=edges) == 0
        assert edges.padded

    @pytest.mark.parametrize("z0", [complex(-5e4, -1e-4), complex(-math.inf, -1e-4),
                                    complex(math.nan, -1e-4)], ids=["5e4", "inf", "nan"])
    def test_edge_too_long_raises_before_sampling(self, z0):
        """An edge of length 5e4 would start from 250,001 samples, past
        _MAX_CONTOUR_INSERTS: it raises before any sample, as does an edge
        of infinite or NaN length. One of length 3.9e4 is sampled."""
        calls = [0]

        def constant(z):
            calls[0] += 1
            return 1 + 0j, 1.0

        with pytest.raises(ContourError, match="^contour edge .* needs more than 200000 "
                                               "samples$"):
            spectral._edge_phase(constant, z0, complex(0.5, -1e-4), 10)
        assert calls[0] == 0
        assert spectral._edge_phase(constant, -3.9e4 + 0j, 0.5 + 0j, 10) == (0.0, 0)
        assert calls[0] == int(39000.5 / 0.2) + 1

    @pytest.mark.parametrize("m", [2.00002, 2.000000001])
    def test_sweep_edge_too_long_is_contour_error(self, m):
        """Family A's sweep box reaches its trailing real zero, at Re L
        about 1 / (a - m): -5e4 at m = a + 2e-5, -1e9 at m = a + 1e-9. Its
        bottom edge is not sampled, nor nudged outward: the enumeration
        stops at once with the edge's ContourError."""
        fam = CharFamily("A", SystemParams(m=m))
        assert fam.sweep_left_edge() < -4e4
        start = time.perf_counter()
        with pytest.raises(ContourError, match="needs more than 200000 samples$"):
            compute_spectrum(fam, n_max=5)
        assert time.perf_counter() - start < 1.0


# The sweep as it was before each split's second half was counted by
# subtraction and each edge sampled once, kept verbatim as the oracle:
# every box is counted on its own, every edge of its contour sampled.

def oracle_winding(family, xlo, xhi, ylo, yhi) -> float:
    corners = [complex(xlo, ylo), complex(xhi, ylo), complex(xhi, yhi),
               complex(xlo, yhi), complex(xlo, ylo)]
    total = 0.0
    budget = 200_000
    scaled, phase = family._scaled, cmath.phase
    for z0, z1 in zip(corners[:-1], corners[1:]):
        dz = z1 - z0
        n0 = max(16, int(abs(dz) / 0.2))
        pts = np.linspace(0.0, 1.0, n0 + 1).tolist()
        # a horizontal edge near the real axis also steps no further than
        # 1.4 |f/f'| from either end
        near_axis = z0.imag == z1.imag and abs(z0.imag) < 0.2
        vals = []
        for t in pts:
            z = z0 + dz * t
            value, scale = scaled(z)
            if abs(value) / scale < 1e-9:
                raise ContourError(f"zero too close to contour on {z0} -> {z1}")
            vals.append(value)
        i = 0
        while i < len(vals) - 1:
            dphi = phase(vals[i + 1] / vals[i])
            ends = (z0 + dz * pts[i], z0 + dz * pts[i + 1])
            quotients = [family.newton_quotient(z) for z in ends] if near_axis else []
            if abs(dphi) > 1.4 or any(q is not None and (pts[i + 1] - pts[i]) * abs(dz)
                                      > 1.4 * abs(q) for q in quotients):
                budget -= 1
                if budget <= 0:
                    raise ContourError("contour refinement budget exhausted")
                tm = 0.5 * (pts[i] + pts[i + 1])
                z = z0 + dz * tm
                value, scale = scaled(z)
                if abs(value) / scale < 1e-9:
                    raise ContourError(f"zero too close to contour on {z0} -> {z1}")
                pts.insert(i + 1, tm)
                vals.insert(i + 1, value)
                continue
            total += dphi
            i += 1
    return total / (2 * math.pi)


def oracle_count_zeros_in_box(family, corner_lo, corner_hi) -> int:
    xlo, xhi = sorted((corner_lo.real, corner_hi.real))
    ylo, yhi = sorted((corner_lo.imag, corner_hi.imag))
    pad = 0.0
    for attempt in range(4):
        try:
            cnt = oracle_winding(family, xlo - pad, xhi + pad, ylo - pad, yhi + pad)
        except ContourError as exc:
            reason = exc
            pad = (pad + 1e-3) * 1.7
            continue
        n = round(cnt)
        if abs(cnt - n) >= 0.25:
            raise ContourError(f"winding {cnt} too far from an integer")
        return n
    raise ContourError(f"could not separate contour from zeros: {reason}")


def oracle_sweep_box(family, xlo, xhi, ylo, yhi, depth=0, **_):
    if depth > 60:
        raise ContourError("box bisection failed to isolate zeros (multiple root?)")
    count = oracle_count_zeros_in_box(family, complex(xlo, ylo), complex(xhi, yhi))
    if count == 0:
        return []
    if count == 1:
        z, ok = spectral._newton(family, complex((xlo + xhi) / 2, (ylo + yhi) / 2))
        if (ok and xlo - 1e-9 <= z.real <= xhi + 1e-9
                and ylo - 1e-9 <= z.imag <= yhi + 1e-9):
            return [z]
    roots = []
    if xhi - xlo >= yhi - ylo:
        xm = 0.5 * (xlo + xhi) + 0.0012345 * (xhi - xlo)
        roots += oracle_sweep_box(family, xlo, xm, ylo, yhi, depth + 1)
        roots += oracle_sweep_box(family, xm, xhi, ylo, yhi, depth + 1)
    else:
        ym = 0.5 * (ylo + yhi) + 0.0012345 * (yhi - ylo)
        roots += oracle_sweep_box(family, xlo, xhi, ylo, ym, depth + 1)
        roots += oracle_sweep_box(family, xlo, xhi, ym, yhi, depth + 1)
    return roots


def spectrum_bits(family, n_max, compute=compute_spectrum):
    """Every eigenvalue in float.hex, or the ContourError message."""
    try:
        spec = compute(family, n_max=n_max)
    except ContourError as exc:
        return f"ContourError: {exc}"
    return [(e.n, hex_parts(e.seed), hex_parts(e.refined), e.residual.hex(), e.converged)
            for e in spec.eigenvalues]


SWEEP_GAINS = st.floats(0.1, 8.0)


def assert_same_as_oracle(family, n_max):
    got = spectrum_bits(family, n_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_sweep_box", oracle_sweep_box)
        assert got == spectrum_bits(family, n_max)


def lands_on_neighbour(refine):
    """refine_root, except that Newton for branch 15 starts from branch 14's seed."""
    def patched(family, seed, n=None, **kw):
        return refine(family, family.seed(14) if n == 15 else seed, n, **kw)
    return patched


class TestSweep:
    @given(st.sampled_from(["A2", "A", "Abb"]), SWEEP_GAINS, SWEEP_GAINS, SWEEP_GAINS,
           SWEEP_GAINS, SWEEP_GAINS, st.integers(0, 40))
    # two real roots 0.13 apart, 1e-4 above the bottom edge of the sweep box
    @example("A", 6.75, 4.875, 0.5, 1.0, 2.0, 2)
    @settings(max_examples=100, deadline=None)
    def test_same_bits_as_counting_every_box(self, tag, m, alpha, a, beta, gamma, n_max):
        """Subtraction and the edge memo leave every root, residual, flag
        and error message as a sweep that counts every box gives them."""
        # nearer the hypothesis boundaries a sweep takes seconds
        assume(abs(gamma - 1) >= 0.02 and abs(m - a) >= 0.05)
        assert_same_as_oracle(
            CharFamily(tag, SystemParams(m=m, alpha=alpha, a=a, beta=beta, gamma=gamma)), n_max)

    @pytest.mark.parametrize("tag,params", [
        ("Abb", SystemParams(gamma=1.0001)),  # the contour cannot be separated
        ("A2", SystemParams(gamma=0.9999)),  # branch 8 sits just above the mid-gap edge
        ("A2", SystemParams(gamma=1.01)),
        ("A", SystemParams(m=2.01)),
    ])
    def test_same_bits_near_boundaries(self, tag, params):
        assert_same_as_oracle(CharFamily(tag, params), 40)

    @given(st.sampled_from(["A2", "A", "Abb"]), st.floats(-8.0, 0.4), st.floats(0.05, 9.0),
           st.floats(-3.0, 30.0), st.floats(0.05, 9.0))
    @settings(max_examples=150, deadline=None)
    def test_halves_add_up(self, tag, xlo, width, ylo, height):
        """The count of a box is the sum of the counts of the sweep's two halves."""
        fam = CharFamily(tag, SystemParams())
        box = (xlo, xlo + width, ylo, ylo + height)
        counts = []
        for xl, xh, yl, yh in (box, *spectral._split(*box)):
            edges = spectral._EdgeMemo()
            counts.append(count_zeros_in_box(fam, complex(xl, yl), complex(xh, yh),
                                             edges=edges))
            assume(not edges.padded)  # a nudged contour holds a margin outside the box
        assert counts[0] == counts[1] + counts[2]

    @pytest.mark.parametrize("tag", ["A2", "A", "Abb"])
    def test_each_box_and_edge_once(self, tag, monkeypatch):
        """At the default gains: no box is counted twice, no second half is
        counted after its sibling's clean count, and no edge is sampled
        twice in either direction."""
        fam = CharFamily(tag, SystemParams())
        boxes, points, counting = [], [], [False]
        count, scaled = spectral.count_zeros_in_box, fam._scaled

        def logged_count(family, lo, hi, **kw):
            boxes.append((lo.real, hi.real, lo.imag, hi.imag))
            counting[0] = True
            try:
                n = count(family, lo, hi, **kw)
            finally:
                counting[0] = False
            assert not kw["edges"].padded  # every count here is the box's own
            return n

        def logged_scaled(lam):
            if counting[0]:
                points.append(lam)
            return scaled(lam)

        monkeypatch.setattr(spectral, "count_zeros_in_box", logged_count)
        monkeypatch.setattr(fam, "_scaled", logged_scaled)
        compute_spectrum(fam, n_max=100)

        assert len(set(boxes)) == len(boxes) > 1
        counted = set(boxes)
        split = list(counted)
        while split:
            first, second = spectral._split(*split.pop())
            if first in counted:  # the sweep split this box
                assert second not in counted
                split.append(second)

        # an edge sampled again, in either direction, revisits its points up
        # to rounding; only the box corners may be evaluated twice
        corners = {complex(x, y) for xlo, xhi, ylo, yhi in boxes
                   for x in (xlo, xhi) for y in (ylo, yhi)}
        seen = Counter((round(z.real, 9), round(z.imag, 9)) for z in points)
        twice = [p for p, k in seen.items() if k > 1]
        assert all(min(abs(complex(*p) - c) for c in corners) < 1e-8 for p in twice)


# The enumeration as it was before every root became one Eigenvalue
# record built in one place, kept verbatim as the oracle: 5-tuples through
# compute_spectrum, a tuple dedupe, and refine_root's two returns. Its top
# edge sits at 0.74 of the gap on every ladder, so it is the oracle of the
# integer (offset 0) ladders only.

def oracle_refine_root(family, seed, n=None, *, edges=None):
    seed = complex(seed)
    if n is None:
        n = family.branch_index(seed)
    z, ok = spectral._newton(family, seed)
    if not ok or abs(z - seed) > math.pi / 2:
        relocated = spectral._relocate_near(family, seed, edges)
        if relocated is not None:
            z, ok = relocated, True
        elif not ok:
            return spectral.Eigenvalue(n=n, seed=seed, refined=z,
                                       residual=family.normalized_residual(z), converged=False)
    res = family.normalized_residual(z)
    return spectral.Eigenvalue(n=n, seed=seed, refined=z, residual=res,
                               converged=res <= spectral.RESIDUAL_TOL)


def oracle_dedupe(roots):
    unique = []
    for item in roots:
        z = item[0]
        duplicate = False
        for kept in reversed(unique):
            if z.imag - kept[0].imag > DEDUPE_RADIUS:
                break
            if abs(z - kept[0]) <= DEDUPE_RADIUS:
                duplicate = True
                break
        if not duplicate:
            unique.append(item)
    return unique


def oracle_compute_spectrum(family, n_max=100):
    n_low = min(spectral.N_LOW, n_max)
    # (root, residual, converged, seed, the Eigenvalue refine_root built)
    roots = []

    edge_im = (n_low + 0.74) * math.pi
    edges = spectral._EdgeMemo()
    swept = spectral._sweep_box(family, family.sweep_left_edge(), 0.5, -1e-4, edge_im,
                                edges=edges)
    for z in swept:
        if abs(z) < spectral.SPURIOUS_RADIUS and family.tag == "Abb":
            continue  # spurious origin zero: eigenfunction vanishes identically
        roots.append((z, family.normalized_residual(z), True, None, None))

    # seeds below the swept box's top edge (all n < n_low) are skipped
    n_top = n_max + 1 if family.branch_offset() < 0 else n_max
    for n in range(n_low, n_top + 1):
        seed = family.seed(n)
        if seed.imag <= edge_im:
            continue
        eig = oracle_refine_root(family, seed, n, edges=edges)
        roots.append((eig.refined, eig.residual, eig.converged, seed, eig))
    del edges

    # conjugate closure, then dedupe
    mirrored = []
    for z, res, ok, seed, _ in roots:
        if z.imag > 1e-9:
            zc = z.conjugate()
            mirrored.append((zc, family.normalized_residual(zc), ok,
                             None if seed is None else seed.conjugate(), None))
    roots += mirrored

    roots.sort(key=lambda item: (item[0].imag, item[0].real))
    eigenvalues = []
    for z, res, ok, seed, eig in oracle_dedupe(roots):
        n = family.branch_index(z)
        if abs(n) > n_max:
            continue
        # a ladder root keeps refine_root's Eigenvalue unless Newton moved
        # it to another branch (its converged flag is already res <= RESIDUAL_TOL)
        if eig is None or eig.n != n:
            eig = spectral.Eigenvalue(n=n, seed=family.seed(n) if seed is None else seed,
                                      refined=z, residual=res,
                                      converged=ok and res <= spectral.RESIDUAL_TOL)
        eigenvalues.append(eig)
    spectral._check_branches(family, n_max, eigenvalues)
    return spectral.Spectrum(family=family, n_max=n_max, eigenvalues=eigenvalues)


def assert_same_as_oracle_records(family, n_max):
    assert (spectrum_bits(family, n_max)
            == spectrum_bits(family, n_max, compute=oracle_compute_spectrum))


def reindexed(refine):
    """refine_root, except that branch 15's root is labelled branch 16, so
    the enumeration must move it back to its own branch."""
    def patched(family, seed, n=None, **kw):
        return refine(family, seed, 16, **kw) if n == 15 else refine(family, seed, n, **kw)
    return patched


class TestRecords:
    @given(st.sampled_from(["A2", "A", "Abb"]), SWEEP_GAINS, SWEEP_GAINS, SWEEP_GAINS,
           st.floats(1.02, 8.0), st.floats(0.05, 6.0), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_same_bits_as_tuple_records(self, tag, alpha, a, beta, gamma, m_minus_a, n_max):
        """One Eigenvalue per root, built where the root is found, keeps
        every root, seed, residual, flag and error message of the integer
        ladders (gamma > 1, m > a)."""
        p = SystemParams(m=a + m_minus_a, alpha=alpha, a=a, beta=beta, gamma=gamma)
        assert CharFamily(tag, p).branch_offset() == 0.0
        assert_same_as_oracle_records(CharFamily(tag, p), n_max)

    @pytest.mark.parametrize("tag,params", [
        # A2's and A's branch-0 pairs lie off the real axis: the mirror's seed
        # is its own branch's, imaginary part +0.0, not the conjugate's -0.0
        ("A2", SystemParams()),
        ("A", SystemParams()),
        ("Abb", SystemParams()),
        ("Abb", SystemParams(gamma=1.0001)),  # the contour cannot be separated
        ("A2", SystemParams(gamma=1.01)),
        ("A", SystemParams(m=2.01)),
    ])
    def test_same_bits_at_points(self, tag, params):
        assert_same_as_oracle_records(CharFamily(tag, params), 40)

    @pytest.mark.parametrize("patch", [reindexed, lands_on_neighbour])
    @pytest.mark.parametrize("tag", ["A2", "A", "Abb"])
    def test_same_bits_when_newton_changes_branch(self, tag, patch, monkeypatch):
        """A ladder root that lies on another branch than its label, kept
        (reindexed) or a duplicate of its neighbour (lands_on_neighbour)."""
        monkeypatch.setattr(spectral, "refine_root", patch(spectral.refine_root))
        monkeypatch.setitem(globals(), "oracle_refine_root", patch(oracle_refine_root))
        assert_same_as_oracle_records(CharFamily(tag, SystemParams()), 20)


def reevaluating(eigenvalue):
    """``_eigenvalue`` ignoring a passed residual: every record, a mirror
    too, evaluates its own, as the enumeration did before mirrors took
    their twin's."""
    def patched(family, z, seed=None, ok=True, n=None, residual=None):
        return eigenvalue(family, z, seed, ok, n)
    return patched


class TestMirrors:
    @pytest.mark.parametrize("tag", ["A2", "A", "Abb"])
    def test_mirror_takes_twins_residual(self, tag, monkeypatch):
        """A mirrored root costs no normalized_residual call, and the
        records keep every bit of an enumeration that evaluates each mirror."""
        calls = [0]
        residual = CharFamily.normalized_residual

        def counted(self, lam):
            calls[0] += 1
            return residual(self, lam)

        monkeypatch.setattr(CharFamily, "normalized_residual", counted)
        fam = CharFamily(tag, SystemParams())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_eigenvalue", reevaluating(spectral._eigenvalue))
            evaluated = spectrum_bits(fam, 100)
        evaluated_calls, calls[0] = calls[0], 0
        spec = compute_spectrum(fam, n_max=100)
        mirrored = sum(e.refined.imag < -1e-9 for e in spec.eigenvalues)
        assert mirrored >= 100
        assert calls[0] == evaluated_calls - mirrored
        assert spectrum_bits(fam, 100) == evaluated


def oracle_write_csv(spectrum, path):
    """``Spectrum.write_csv`` as it was before the seed column was
    formatted once per run of equal values, kept verbatim as the oracle."""
    with open(path, "w", newline="") as fh:
        fh.write("n,seed_re,seed_im,refined_re,refined_im,residual\n")
        for e in spectrum.eigenvalues:
            fh.write(f"{e.n},{e.seed.real!r},{e.seed.imag!r},"
                     f"{e.refined.real!r},{e.refined.imag!r},{e.residual!r}\n")


NAN, INF = float("nan"), float("inf")
# runs of one value, value changes mid-file, and runs of +0.0, -0.0 and NaN
# (0.0 == -0.0 and NaN != NaN, yet each must print as itself)
SEED_COLUMN = ([-0.8047189562170501] * 3 + [0.0] * 2 + [-0.0] * 3 + [0.0, -0.0, 0.0]
               + [NAN] * 3 + [-NAN, 0.0, NAN, -0.0] + [-0.4236489301936017] * 2
               + [INF, INF, -INF, 5e-324, 5e-324, -0.8047189562170501])


def csv_spectrum(seed_column):
    eigenvalues = [spectral.Eigenvalue(n=k, seed=complex(x, k * math.pi),
                                       refined=complex(-0.4 - 1e-3 * k, k * 3.1),
                                       residual=1e-13 * k, converged=k % 2 == 0)
                   for k, x in enumerate(seed_column)]
    return spectral.Spectrum(family=CharFamily("A", SystemParams()),
                             n_max=len(eigenvalues), eigenvalues=eigenvalues)


class CountedFloat(float):
    """A float that counts its ``repr`` calls in ``CountedFloat.reprs``."""

    reprs = 0

    def __repr__(self):
        CountedFloat.reprs += 1
        return float.__repr__(self)


SPECIAL = [0.0, -0.0, NAN, INF, -INF, 5e-324, -5e-324, 1.0, -0.8047189562170501]
csv_floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True))


@st.composite
def csv_rows(draw):
    """(n, seed, refined, residual) rows: conjugate pairs, near-twins that
    differ from a pair only in the seed or only in the residual, and
    unpaired rows, with +-0.0, NaN and infinities anywhere. The rows come
    either lower half first, as a spectrum lists them, or in any order."""
    lower, upper = [], []
    for kind in draw(st.lists(st.sampled_from(["pair", "seed", "residual", "single"]),
                              max_size=12)):
        seed = complex(draw(csv_floats), draw(csv_floats))
        refined = complex(draw(csv_floats), draw(csv_floats))
        residual = draw(csv_floats)
        if kind == "single":
            upper.append((seed, refined, residual))
            continue
        lower.append((seed.conjugate(), refined.conjugate(), residual))
        if kind == "seed":
            seed = complex(draw(csv_floats), seed.imag) if draw(st.booleans()) \
                else complex(seed.real, draw(csv_floats))
        elif kind == "residual":
            residual = draw(csv_floats)
        upper.append((seed, refined, residual))
    rows = lower + upper
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return [(k - len(lower), *row) for k, row in enumerate(rows)]


def rows_spectrum(rows, residual=float):
    eigenvalues = [spectral.Eigenvalue(n=n, seed=seed, refined=refined,
                                       residual=residual(res), converged=n % 2 == 0)
                   for n, seed, refined, res in rows]
    return spectral.Spectrum(family=CharFamily("A", SystemParams()),
                             n_max=len(eigenvalues), eigenvalues=eigenvalues)


def assert_csv_as_oracle(spec, folder):
    spec.write_csv(folder / "got.csv")
    oracle_write_csv(spec, folder / "want.csv")
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()


class TestCsv:
    """Every row's bytes are the oracle's, with each run of one seed_re
    value formatted once and each conjugate pair formatted once: a row
    reuses the texts of an earlier row that holds its conjugate seed and
    refined value and its residual."""

    def test_same_bytes_as_one_repr_per_float(self, tmp_path):
        spec = csv_spectrum(SEED_COLUMN)
        spec.write_csv(tmp_path / "got.csv")
        oracle_write_csv(spec, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        column = [line.split(b",")[1] for line in got.splitlines()[1:]]
        assert column[3:10] == [b"0.0", b"0.0", b"-0.0", b"-0.0", b"-0.0", b"0.0", b"-0.0"]
        assert column[11:15] == [b"nan"] * 4

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, NAN, INF, -0.8047189562170501]),
                              st.floats(allow_nan=True)), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_on_any_column(self, tmp_path_factory, seed_column):
        folder = tmp_path_factory.mktemp("csv")
        spec = csv_spectrum(seed_column)
        spec.write_csv(folder / "got.csv")
        oracle_write_csv(spec, folder / "want.csv")
        assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()

    @given(csv_rows())
    @example([(-1, complex(-0.5, -3.0), complex(-0.25, -3.5), 1e-13),
              (0, complex(-0.5, 0.0), complex(-0.25, 0.0), 1e-13),
              (1, complex(-0.5, 3.0), complex(-0.25, 3.5), 1e-13)])
    @example([(-1, complex(-0.5, -3.0), complex(-0.0, -3.5), 1e-13),
              (1, complex(0.5, 3.0), complex(0.0, 3.5), 1e-13)])
    @example([(-1, complex(-0.5, -3.0), complex(-0.25, -3.5), -0.0),
              (1, complex(-0.5, 3.0), complex(-0.25, 3.5), 0.0)])
    @example([(-1, complex(-0.5, -3.0), complex(-0.25, -3.5), NAN),
              (1, complex(-0.5, 3.0), complex(-0.25, 3.5), NAN)])
    @example([(-1, complex(-0.5, -0.0), complex(-0.25, -3.5), 1e-13),
              (1, complex(-0.5, 0.0), complex(-0.25, 3.5), 1e-13)])
    @example([(-1, complex(-0.5, -3.0), complex(-0.25, -3.5), 1e-13),
              (1, complex(-0.5, 3.0), complex(-0.25, 3.5), 2e-13)])
    @example([(-1, complex(-0.5, -3.0), complex(-0.25, -3.5), 1e-13),
              (1, complex(-0.5, 3.5), complex(-0.25, 3.5), 1e-13)])
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_on_pairs_and_near_twins(self, tmp_path_factory, rows):
        """Hand-built rows. The examples are a pair around a real row,
        refined real parts of +-0.0, residuals of +-0.0, one NaN residual
        object in both rows (which matches, as the same object), seeds with
        imaginary part +-0.0, and near-twins in the residual or the seed."""
        assert_csv_as_oracle(rows_spectrum(rows), tmp_path_factory.mktemp("csv"))

    def test_pair_formatted_once(self, tmp_path):
        """Two pairs, one by value across an unpaired real row, share their
        texts; a near-twin with another residual and a pair listed upper
        row first are formatted in full."""
        rows = [(-2, complex(-0.5, -6.0), complex(-0.2, -6.1), 3e-13),
                (-1, complex(-0.5, -3.0), complex(-0.1, -3.2), 1e-13),
                (-1, complex(-0.5, -1.0), complex(-0.3, -1.1), 4e-13),
                (0, complex(-0.5, 0.0), complex(-0.4, 0.0), 2e-13),
                (1, complex(-0.5, 3.0), complex(-0.1, 3.2), 1e-13),
                (1, complex(-0.5, 1.0), complex(-0.3, 1.1), 5e-13),
                (2, complex(-0.5, 6.0), complex(-0.2, 6.1), 3e-13),
                (3, complex(-0.5, 9.0), complex(-0.6, 9.1), 6e-13),
                (-3, complex(-0.5, -9.0), complex(-0.6, -9.1), 6e-13)]
        spec = rows_spectrum(rows, CountedFloat)
        CountedFloat.reprs = 0
        assert_csv_as_oracle(spec, tmp_path)
        # the oracle formats all 9 residuals, the writer all but 2
        assert CountedFloat.reprs == 9 + 7

    @pytest.mark.parametrize("tag,params", [
        ("A2", SystemParams()),
        ("A", SystemParams()),
        ("Abb", SystemParams()),
        ("A2", SystemParams(gamma=0.5)),
        ("Abb", SystemParams(gamma=0.5)),
        ("A", SystemParams(m=1.0)),
        ("A", SystemParams(m=3.0)),
    ], ids=["A2", "A", "Abb", "A2_half_offset", "Abb_half_offset", "A_m_below_a",
            "A_m_above_a"])
    def test_real_spectra(self, tmp_path, tag, params):
        """Every root above the real axis whose mirror is listed reuses the
        mirror's texts, on integer and half-offset ladders alike (their
        mirror of branch n is -n - 2 offset, so the top row of one has none),
        and the bytes are the oracle's. Branch 0's pair on the A2 ladder has
        a real seed, so it is formatted in full."""
        spec = compute_spectrum(CharFamily(tag, params), n_max=60)
        assert_csv_as_oracle(spec, tmp_path)
        mirrors = {(e.seed.conjugate(), e.refined.conjugate(), e.residual)
                   for e in spec.eigenvalues if e.seed.imag < 0}
        paired = sum((e.seed, e.refined, e.residual) in mirrors for e in spec.eigenvalues
                     if e.seed.imag > 0 and e.refined.imag > 0)
        assert paired >= 59
        counted = rows_spectrum([(e.n, e.seed, e.refined, e.residual)
                                 for e in spec.eigenvalues], CountedFloat)
        CountedFloat.reprs = 0
        counted.write_csv(tmp_path / "counted.csv")
        assert CountedFloat.reprs == len(spec.eigenvalues) - paired
        assert (tmp_path / "counted.csv").read_bytes() == (tmp_path / "got.csv").read_bytes()

    def test_streams_row_by_row(self, tmp_path, monkeypatch, spectra):
        """One write per row, through the buffered file, not one joined text."""
        writes = []

        class Recording(io.TextIOWrapper):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        def recording_open(path, mode, newline):
            return Recording(open(path, mode.replace("w", "wb")), newline=newline)

        monkeypatch.setattr(spectral, "open", recording_open, raising=False)
        spec = spectra["A"]
        spec.write_csv(tmp_path / "got.csv")
        assert len(writes) == 1 + len(spec.eigenvalues)
        assert all(text.count("\n") == 1 for text in writes)
        monkeypatch.undo()
        oracle_write_csv(spec, tmp_path / "want.csv")
        assert "".join(writes).encode() == (tmp_path / "want.csv").read_bytes()


# the record as it was before it dropped frozen=True for slots=True, kept
# as the oracle under its old name, which its repr prints
FrozenEigenvalue = dataclasses.make_dataclass(
    "Eigenvalue", [("n", int), ("seed", complex), ("refined", complex), ("residual", float),
                   ("converged", bool, dataclasses.field(default=True))], frozen=True)


class TestEigenvalueRecord:
    @given(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from([0j, -0j, 1 - 2j, NAN * 1j]),
                              st.sampled_from([0j, complex(-0.0, 0.0), 1 - 2j]),
                              st.sampled_from([0.0, -0.0, 1e-13, NAN]), st.booleans()),
                    min_size=2, max_size=2))
    def test_equality_and_repr_as_frozen_record(self, fields):
        """The slotted record compares and prints as the frozen one did."""
        got = [spectral.Eigenvalue(*f) for f in fields]
        want = [FrozenEigenvalue(*f) for f in fields]
        assert [repr(e) for e in got] == [repr(e) for e in want]
        assert (got[0] == got[1]) == (want[0] == want[1])
        assert got[0] == got[0] and got[0] != want[0]

    def test_fields_and_default(self):
        assert [f.name for f in dataclasses.fields(spectral.Eigenvalue)] == \
            [f.name for f in dataclasses.fields(FrozenEigenvalue)]
        assert spectral.Eigenvalue(0, 0j, 0j, 0.0).converged is True
        assert not hasattr(spectral.Eigenvalue(0, 0j, 0j, 0.0), "__dict__")


class TestEigenfunctions:
    def test_pinned_left_end(self):
        fam = CharFamily("A", SystemParams())
        f, _ = fam.eigenfunction(refine_root(fam, fam.seed(3)).refined, 0.0)
        assert f == 0.0

    def test_pinned_right_end(self):
        fam = CharFamily("Abb", SystemParams())
        f, _ = fam.eigenfunction(refine_root(fam, fam.seed(3)).refined, 1.0)
        assert abs(f) < 1e-14

    def test_robin_condition_at_left_end(self, spectra):
        p = SystemParams()
        fam = spectra["A2"].family
        for eig in spectra["A2"].eigenvalues[::17]:
            lam = eig.refined
            f, fp = fam.eigenfunction(lam, 0.0)
            assert abs(fp - (p.gamma * lam + p.beta) * f) <= 1e-9 * (1 + abs(fp))


class TestSpectrum:
    def test_frozen_abscissae(self, spectra):
        for tag, spec in spectra.items():
            assert spectral_abscissa(spec) == pytest.approx(
                SWEPT_ABSCISSA[tag], abs=1e-8)

    def test_all_real_parts_negative(self, spectra):
        for spec in spectra.values():
            assert all(e.refined.real < 0 for e in spec.eigenvalues)

    def test_no_duplicates(self, spectra):
        for spec in spectra.values():
            vals = [e.refined for e in spec.eigenvalues]
            for i, a in enumerate(vals):
                for b in vals[i + 1:]:
                    assert abs(a - b) > 1e-6

    def test_conjugate_closed(self, spectra):
        for spec in spectra.values():
            vals = [e.refined for e in spec.eigenvalues]
            for z in vals:
                if abs(z.imag) > 1e-9:
                    assert min(abs(z.conjugate() - w) for w in vals) < 1e-12

    def test_origin_excluded_for_pinned_family(self, spectra):
        assert all(abs(e.refined) > 1e-6 for e in spectra["Abb"].eigenvalues)

    def test_combined_loop_abscissae(self, spectra):
        observer = max(spectral_abscissa(spectra[tag]) for tag in ObserverLoop.families)
        eso = max(spectral_abscissa(spectra[tag]) for tag in EsoLoop.families)
        assert observer == pytest.approx(SWEPT_ABSCISSA["A2"], abs=1e-8)
        assert eso == pytest.approx(SWEPT_ABSCISSA["A"], abs=1e-8)

    def test_loop_families_mapping(self):
        assert ObserverLoop.families == ("A", "A2")
        assert EsoLoop.families == ("A", "Abb")
        assert SingleFieldLoop.families == ()

    def test_strip_counts_match(self, spectra):
        for spec in spectra.values():
            for k, counted, enumerated in verify_strip_counts(spec, 12):
                assert counted == enumerated, (spec.family.tag, k)

    @pytest.mark.parametrize("tag,params", [
        ("A2", SystemParams(gamma=0.5)),
        ("Abb", SystemParams(gamma=0.5)),
        ("A", SystemParams(m=1.0)),
    ])
    def test_half_offset_ladders_enumerate_completely(self, tag, params):
        spec = compute_spectrum(CharFamily(tag, params), n_max=20)
        assert all(e.residual <= 1e-10 for e in spec.eigenvalues)
        assert all(e.refined.real < 0 for e in spec.eigenvalues)
        for k, counted, enumerated in verify_strip_counts(spec, 10):
            assert counted == enumerated, (tag, k)

    def test_csv_columns(self, spectra, tmp_path):
        path = tmp_path / "spec.csv"
        spectra["A"].write_csv(path)
        header, first = path.read_text().splitlines()[:2]
        assert header == "n,seed_re,seed_im,refined_re,refined_im,residual"
        assert len(first.split(",")) == 6

    def test_strip_interval_tiles(self):
        lo0, hi0 = strip_interval(0)
        lo1, _ = strip_interval(1)
        assert hi0 == lo1 and lo0 == -hi0

    def test_missing_branch_raises(self, monkeypatch):
        """Newton from branch 15's seed lands on branch 14's root, so
        branch 15 and its mirror -15 hold no root."""
        monkeypatch.setattr(spectral, "refine_root", lands_on_neighbour(spectral.refine_root))
        fam = CharFamily("A2", SystemParams())
        with pytest.raises(ContourError,
                           match=r"^family A2: no root on 2 of the branches "
                                 r"\|n\| <= 100: -15, 15$"):
            compute_spectrum(fam, n_max=100)

    @pytest.mark.parametrize("n_max", [-1, -5])
    def test_negative_n_max(self, n_max, monkeypatch):
        """A negative n_max is rejected in the config rule's words before
        any contour work."""
        def no_sweep(*args, **kwargs):
            raise AssertionError("the box was swept")
        monkeypatch.setattr(spectral, "_sweep_box", no_sweep)
        with pytest.raises(ValueError, match=f"^n_max must be >= 0, got {n_max}$"):
            compute_spectrum(CharFamily("A", SystemParams()), n_max=n_max)

    @pytest.mark.parametrize("tag", ["A2", "A", "Abb"])
    def test_family_holds_no_run_state(self, tag, monkeypatch):
        """compute_spectrum keeps its contour memo to itself: during every
        refine_root the family's attributes are those it had before."""
        fam = CharFamily(tag, SystemParams())
        before, seen = dict(vars(fam)), []
        refine = spectral.refine_root

        def watched(family, seed, n=None, **kw):
            seen.append(dict(vars(family)))
            return refine(family, seed, n, **kw)
        monkeypatch.setattr(spectral, "refine_root", watched)
        compute_spectrum(fam, n_max=20)
        assert seen and all(attrs == before for attrs in seen)
        assert vars(fam) == before

    @pytest.mark.parametrize("kw,n_max", [
        ({"gamma": 0.998}, 40), ({"gamma": 0.999}, 40), ({"gamma": 0.9995}, 40),
        ({"gamma": 0.9999}, 40),
        ({"m": 7.76, "alpha": 7.922, "a": 1.148029, "beta": 6.4, "gamma": 0.878578}, 3),
    ])
    def test_mid_gap_edge_finds_every_branch(self, kw, n_max):
        """On a half-offset ladder a root can sit above an edge at 0.74 of
        the gap while its seed sits below it (A2 at gamma = 0.9999 put
        branch 8 at Im ~ 8.746 pi); the edge mid-gap leaves no branch out."""
        spec = compute_spectrum(CharFamily("A2", SystemParams(**kw)), n_max=n_max)
        assert {e.n for e in spec.eigenvalues} >= set(range(-n_max, n_max + 1))
        for k, counted, enumerated in verify_strip_counts(spec, n_max - 1):
            assert counted == enumerated, k


@pytest.mark.parametrize("tag,params,offset", [
    ("A2", SystemParams(), 0.0),
    ("A", SystemParams(), 0.0),
    ("Abb", SystemParams(), 0.0),
    ("A2", SystemParams(gamma=0.5), 0.5),
    ("A", SystemParams(m=1.0), 0.5),
    ("Abb", SystemParams(gamma=0.5), -0.5),
])
def test_every_branch_listed_and_checked(tag, params, offset, monkeypatch):
    """Each |n| <= n_max is listed, its mirror -n - 2 offset included, and
    a branch whose Newton run lands on its neighbour's root is reported."""
    fam = CharFamily(tag, params)
    assert fam.branch_offset() == offset
    for n_max in (0, 1, 9, 30):
        spec = compute_spectrum(fam, n_max=n_max)
        assert {e.n for e in spec.eigenvalues} == set(range(-n_max, n_max + 1)), n_max

    monkeypatch.setattr(spectral, "refine_root", lands_on_neighbour(spectral.refine_root))
    missing = sorted({15, int(-15 - 2 * offset)}, key=lambda n: (abs(n), n))
    message = (f"family {tag}: no root on 2 of the branches |n| <= 20: "
               f"{missing[0]}, {missing[1]}")
    with pytest.raises(ContourError, match=f"^{re.escape(message)}$"):
        compute_spectrum(fam, n_max=20)


R = DEDUPE_RADIUS


Root = namedtuple("Root", "refined tag")


def dedupe_pairwise(roots):
    """The quadratic dedupe that ``_dedupe`` replaced, kept as its oracle."""
    unique = []
    for root in roots:
        if any(abs(root.refined - kept.refined) <= R for kept in unique):
            continue
        unique.append(root)
    return unique


# shared anchors let groups of roots overlap
ANCHORS = st.one_of(st.sampled_from([0j, -0.4 + 2.2j, -1e-3 + 0j]),
                    st.builds(complex, st.floats(-5.0, 1.0), st.floats(-50.0, 50.0)))


@st.composite
def root_groups(draw):
    """Roots from a mix of groups that sit at or near the dedupe radius."""
    roots = []
    for _ in range(draw(st.integers(1, 6))):
        base = draw(ANCHORS)
        kind = draw(st.sampled_from(["chain", "row", "exact", "conjugate", "cloud"]))
        if kind == "chain":
            # Im spaced 0.6 R: whether a root is kept depends on its predecessors
            roots += [base + 0.6 * R * k * 1j for k in range(draw(st.integers(2, 8)))]
        elif kind == "row":
            # equal imaginary parts, real parts differing by up to 3 R
            offsets = draw(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=6))
            roots += [complex(base.real + d * R, base.imag) for d in offsets]
        elif kind == "exact":
            # pairs exactly R apart, across and along the imaginary axis
            roots += [complex(0.0, base.imag), complex(R, base.imag),
                      complex(base.real, 0.0), complex(base.real, R)]
        elif kind == "conjugate":
            # near the real axis a root's conjugate can lie within R
            z = complex(base.real, draw(st.floats(0.0, 2.0)) * R)
            roots += [z, z.conjugate()]
        else:
            steps = st.floats(-2.0, 2.0)
            roots += [base + complex(draw(steps), draw(steps)) * R
                      for _ in range(draw(st.integers(1, 6)))]
    return roots


class TestDedupe:
    @given(root_groups())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_dedupe(self, zs):
        roots = sorted((Root(z, i) for i, z in enumerate(zs)),
                       key=lambda root: (root.refined.imag, root.refined.real))
        assert _dedupe(roots) == dedupe_pairwise(roots)

    def test_ladder_with_twins_is_linear(self):
        """The pairwise check needs ~4e8 comparisons here; the window needs ~4e4."""
        ladder = [complex(-0.4, math.pi * k) for k in range(-10_000, 10_000)]
        roots = [Root(z, "root") for z in ladder] + [Root(z + 1e-8, "twin") for z in ladder]
        roots.sort(key=lambda root: (root.refined.imag, root.refined.real))
        t0 = time.perf_counter()
        unique = _dedupe(roots)
        elapsed = time.perf_counter() - t0
        assert unique == [Root(z, "root") for z in ladder]
        assert elapsed < 2.0


def riesz_defect(family: CharFamily, eig: Eigenvalue, panels: int = 1024) -> float:
    """L2 distance between the scaled trace vector of one eigenfunction
    and its large-n limit profile.

    Implemented for the observer-error family (A2), the one whose limit
    vector is explicit: the scaled 4-vector

        (f'/L^2, f/L, b f(0)/L^2, -f'(1)/L^3)

    converges to (limit pair, 0, 0) at rate O(1/n).
    """
    if family.tag != "A2":
        raise ValueError("riesz_defect is defined for the A2 family only")
    if panels < 512:
        raise ValueError(f"need >= 512 quadrature panels, got {panels}")
    p = family.params
    lam = eig.refined
    x = np.linspace(0.0, 1.0, panels + 1)
    f, fp = family.eigenfunction(lam, x)
    comp1 = fp / lam ** 2
    comp2 = f / lam
    comp3 = p.beta * f[0] / lam ** 2
    comp4 = -fp[-1] / lam ** 3

    ratio_pow = np.exp(family.asymptote_real() * x)  # |(g-1)/(g+1)|^{x/2}
    theta = (eig.n + family.branch_offset()) * math.pi * x
    osc = np.exp(1j * theta)
    lim1 = (1 + p.gamma) * ratio_pow * osc - (1 - p.gamma) * osc.conjugate() / ratio_pow
    lim2 = (1 + p.gamma) * ratio_pow * osc + (1 - p.gamma) * osc.conjugate() / ratio_pow

    integrand = np.abs(comp1 - lim1) ** 2 + np.abs(comp2 - lim2) ** 2
    total = float(np.trapezoid(integrand, x)) + abs(comp3) ** 2 + abs(comp4) ** 2
    return math.sqrt(total)


class TestRieszDefect:
    def test_inverse_n_decay_of_defect(self, spectra):
        fam = spectra["A2"].family
        by_n = {e.n: e for e in spectra["A2"].eigenvalues if e.n >= 10}
        scaled = {n: n * riesz_defect(fam, by_n[n]) for n in (10, 25, 50, 100)}
        bound = 5.0 * scaled[10]
        assert all(v <= bound for v in scaled.values())

    def test_trace_components_decay(self, spectra):
        p = SystemParams()
        fam = spectra["A2"].family
        by_n = {e.n: e for e in spectra["A2"].eigenvalues}
        c10 = None
        for n in (10, 40, 100):
            lam = by_n[n].refined
            f0, _ = fam.eigenfunction(lam, 0.0)
            _, fp1 = fam.eigenfunction(lam, 1.0)
            comp3 = abs(p.beta * f0 / lam ** 2)
            comp4 = abs(fp1 / lam ** 3)
            if c10 is None:
                c10 = max(comp3, comp4) * 10
            assert comp3 <= 5.0 * c10 / n and comp4 <= 5.0 * c10 / n

    def test_symmetric_in_branch_sign(self, spectra):
        fam = spectra["A2"].family
        by_n = {}
        for e in spectra["A2"].eigenvalues:
            by_n.setdefault(e.n, e)
        assert riesz_defect(fam, by_n[15]) == pytest.approx(
            riesz_defect(fam, by_n[-15]), rel=1e-12)

    def test_only_observer_error_family(self, spectra):
        eig = spectra["A"].eigenvalues[0]
        with pytest.raises(ValueError):
            riesz_defect(spectra["A"].family, eig)

    def test_panel_floor(self, spectra):
        eig = [e for e in spectra["A2"].eigenvalues if e.n == 10][0]
        with pytest.raises(ValueError):
            riesz_defect(spectra["A2"].family, eig, panels=256)


def gram_condition(spectrum, k: int, panels: int = 4096) -> float:
    """Condition number of the Gram matrix of the unit state vectors of
    the eigenvalues with |n| <= k, in the family's energy space.

    Each eigenvalue lam with eigenfunction f gives the state (f, g = lam f)
    with its boundary terms, as ``energy`` defines the spaces' norms:

        A2   (f', g, sqrt(beta) f(0), eta / sqrt(m)),     eta = m lam f(1)
        A    (f', g, eta / sqrt(m + alpha a)),            eta = m lam f(1) + a f'(1)
        Abb  (f', g, sqrt(beta) f(0))

    The integrals are Simpson sums on ``panels`` panels. The vectors form
    a Riesz basis when the condition numbers stay bounded as k grows.
    """
    family, p = spectrum.family, spectrum.family.params
    lams = [e.refined for e in spectrum.eigenvalues if abs(e.n) <= k]
    x = np.linspace(0.0, 1.0, panels + 1)
    f, fp = (np.array(part) for part in zip(*(family.eigenfunction(lam, x) for lam in lams)))
    g = np.array(lams)[:, None] * f
    weights = np.full(panels + 1, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    weights /= 3 * panels
    eta = p.m * g[:, -1]
    if family.tag == "A2":
        ends = [math.sqrt(p.beta) * f[:, 0], eta / math.sqrt(p.m)]
    elif family.tag == "A":
        ends = [(eta + p.a * fp[:, -1]) / math.sqrt(p.m + p.alpha * p.a)]
    else:
        ends = [math.sqrt(p.beta) * f[:, 0]]
    fields, ends = np.hstack([fp, g]), np.array(ends).T
    gram = (fields * np.tile(weights, 2)) @ fields.conj().T + ends @ ends.conj().T
    scale = 1.0 / np.sqrt(gram.diagonal().real)
    return float(np.linalg.cond(scale[:, None] * gram * scale))


class TestRieszBasis:
    @pytest.mark.parametrize("tag", ["A2", "A", "Abb"])
    def test_gram_condition_levels_off(self, spectra, tag):
        """The eigenvectors' Gram condition number grows ever more slowly
        with the number of branches: bounded, as a Riesz basis's is."""
        c25, c50, c100 = (gram_condition(spectra[tag], k) for k in (25, 50, 100))
        assert c100 / c50 <= 1.05
        assert c100 - c50 <= 0.6 * (c50 - c25)
