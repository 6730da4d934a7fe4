import cmath
import math
import re
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tipwave import EsoLoop, ObserverLoop, SingleFieldLoop, SystemParams
from tipwave import spectral
from tipwave.spectral import (
    DEDUPE_RADIUS,
    CharFamily,
    ContourError,
    HypothesisError,
    _dedupe,
    combined_abscissa,
    compute_spectrum,
    count_zeros_in_box,
    refine_root,
    riesz_defect,
    spectral_abscissa,
    strip_interval,
    verify_strip_counts,
)

# abscissae at the reference gains, frozen from the package's own full
# sweep (|n| <= 100) and cross-checked by the argument principle
SWEPT_ABSCISSA = {"A2": -0.0228969413, "A": -0.4026362488, "Abb": -0.6720560519}


@pytest.fixture(scope="module", params=["A2", "A", "Abb"])
def family(request):
    return CharFamily(request.param, SystemParams())


@pytest.fixture(scope="module")
def spectra():
    p = SystemParams()
    return {tag: compute_spectrum(CharFamily(tag, p), n_max=100)
            for tag in ("A2", "A", "Abb")}


class TestResidual:
    def test_observer_error_family_at_origin(self):
        fam = CharFamily("A2", SystemParams())
        # LHS - RHS at 0: beta - (-beta) = 2 beta = 3.0
        assert fam.char_residual(0.0) == pytest.approx(3.0, rel=1e-14)

    def test_state_feedback_family_at_origin(self):
        # (1+alpha) + (1-alpha) + (a-m)*0 = 2; the trailing term carries
        # the eigenvalue factor (dropping it would put a root in the
        # right half-plane, contradicting exponential stability)
        fam = CharFamily("A", SystemParams())
        assert fam.char_residual(0.0) == pytest.approx(2.0, rel=1e-14)

    def test_pinned_error_family_at_i_pi(self):
        fam = CharFamily("Abb", SystemParams())
        value = fam.char_residual(1j * math.pi)
        assert value == pytest.approx(-1j * math.pi, abs=1e-12)

    def test_origin_is_raw_zero_for_pinned_family(self):
        fam = CharFamily("Abb", SystemParams())
        assert fam.char_residual(0.0) == 0.0

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
        vals = []
        for t in pts:
            z = z0 + dz * t
            value, scale = scaled(z)
            if abs(value) / scale < 1e-9:
                raise ContourError(f"zero too close to contour at {z}")
            vals.append(value)
        i = 0
        while i < len(vals) - 1:
            dphi = phase(vals[i + 1] / vals[i])
            if abs(dphi) > 1.4:
                budget -= 1
                if budget <= 0:
                    raise ContourError("contour refinement budget exhausted")
                tm = 0.5 * (pts[i] + pts[i + 1])
                z = z0 + dz * tm
                value, scale = scaled(z)
                if abs(value) / scale < 1e-9:
                    raise ContourError(f"zero too close to contour at {z}")
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
        except ContourError:
            pad = (pad + 1e-3) * 1.7
            continue
        n = round(cnt)
        if abs(cnt - n) >= 0.25:
            raise ContourError(f"winding {cnt} too far from an integer")
        return n
    raise ContourError("could not separate contour from zeros")


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


def spectrum_bits(family, n_max):
    """Every eigenvalue in float.hex, or the ContourError message."""
    try:
        spec = compute_spectrum(family, n_max=n_max)
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


class TestSweep:
    @given(st.sampled_from(["A2", "A", "Abb"]), SWEEP_GAINS, SWEEP_GAINS, SWEEP_GAINS,
           SWEEP_GAINS, SWEEP_GAINS, st.integers(0, 40))
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
        ("A2", SystemParams(gamma=0.9999)),  # branches 8 and -9 hold no root
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
        observer = combined_abscissa([spectra["A"], spectra["A2"]])
        eso = combined_abscissa([spectra["A"], spectra["Abb"]])
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

    def test_missing_branch_raises(self):
        """A2 at gamma = 0.9999: the branch-8 root sits just above the swept
        box and its seed just below it, so neither search finds it."""
        fam = CharFamily("A2", SystemParams(gamma=0.9999))
        with pytest.raises(ContourError,
                           match=r"^family A2: no root on 2 of the branches "
                                 r"\|n\| <= 100: 8, -9$"):
            compute_spectrum(fam, n_max=100)


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

    refine = spectral.refine_root

    def lands_on_neighbour(family, seed, n=None):
        return refine(family, family.seed(14), n) if n == 15 else refine(family, seed, n)

    monkeypatch.setattr(spectral, "refine_root", lands_on_neighbour)
    missing = sorted({15, int(-15 - 2 * offset)}, key=lambda n: (abs(n), n))
    message = (f"family {tag}: no root on 2 of the branches |n| <= 20: "
               f"{missing[0]}, {missing[1]}")
    with pytest.raises(ContourError, match=f"^{re.escape(message)}$"):
        compute_spectrum(fam, n_max=20)


R = DEDUPE_RADIUS


def dedupe_pairwise(roots):
    """The quadratic dedupe that ``_dedupe`` replaced, kept as its oracle."""
    unique = []
    for item in roots:
        if any(abs(item[0] - kept[0]) <= R for kept in unique):
            continue
        unique.append(item)
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
        roots = sorted(((z, i) for i, z in enumerate(zs)),
                       key=lambda item: (item[0].imag, item[0].real))
        assert _dedupe(roots) == dedupe_pairwise(roots)

    def test_ladder_with_twins_is_linear(self):
        """The pairwise check needs ~4e8 comparisons here; the window needs ~4e4."""
        ladder = [complex(-0.4, math.pi * k) for k in range(-10_000, 10_000)]
        roots = [(z, "root") for z in ladder] + [(z + 1e-8, "twin") for z in ladder]
        roots.sort(key=lambda item: (item[0].imag, item[0].real))
        t0 = time.perf_counter()
        unique = _dedupe(roots)
        elapsed = time.perf_counter() - t0
        assert unique == [(z, "root") for z in ladder]
        assert elapsed < 2.0


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
