import contextlib
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tipwave import EnergyTrace, Grid, SystemParams, fit_decay_rate
from tipwave.energy import (
    ENERGY_BLOCK_BYTES,
    SPACE_TAGS,
    EnergyRecorder,
    NoFitError,
    _fit_log_linear,
    energies,
)
from tipwave.scenarios import _RecordWriter, parse_config, run_scenario

ALL_TAGS = ("H1", "H2", "H", "Hbb", "Hbb1")


def write_trace(path, trace, key):
    """``energy_<key>.csv`` as a run's writer writes it from ``trace``, and
    the text of that file."""
    with contextlib.ExitStack() as stack:
        writer = _RecordWriter(stack, str(path), ["u"], np.zeros(4), {key: trace})
        writer.pending.extend((t, 0.0, 0.0) for t in trace.times)
        writer.write()
    return (path / f"energy_{key}.csv").read_text()


def energy(space_tag, prev, curr, eta, params, grid):
    """Discrete energy of one field's two levels: ``energies`` on a one-row stack."""
    return energies((space_tag,), prev[None], curr[None], (eta,), params, grid)[0]


def thirteen_pass_energies(space_tags, prev, curr, etas, params, grid):
    """The energies as three work buffers and 13 full-size passes formed
    them before the two-buffer pass, kept as the bit-for-bit oracle."""
    shape = prev.shape
    work = [np.empty(shape) for _ in range(3)]
    f, g, fp = work
    dx, dt = grid.dx, grid.dt
    np.add(curr, prev, out=f)
    np.multiply(0.5, f, out=f)
    # central differences over all rows as one line; the row ends are
    # overwritten by the one-sided differences below
    ff, fpf = f.reshape(-1), fp.reshape(-1)
    np.subtract(ff[2:], ff[:-2], out=fpf[1:-1])
    np.divide(fpf[1:-1], 2.0 * dx, out=fpf[1:-1])
    # g's end columns are scratch until g is formed
    lo, hi = fp[..., 0], fp[..., -1]
    np.multiply(-3.0, f[..., 0], out=lo)
    np.add(lo, np.multiply(4.0, f[..., 1], out=g[..., 0]), out=lo)
    np.subtract(lo, f[..., 2], out=lo)
    np.divide(lo, 2.0 * dx, out=lo)
    np.multiply(3.0, f[..., -1], out=hi)
    np.subtract(hi, np.multiply(4.0, f[..., -2], out=g[..., -1]), out=hi)
    np.add(hi, f[..., -3], out=hi)
    np.divide(hi, 2.0 * dx, out=hi)
    np.subtract(curr, prev, out=g)
    np.divide(g, dt, out=g)
    # integrand fp*fp + g*g in fp; np.trapezoid's (dx * (y[1:] + y[:-1])) / 2.0 in g
    np.multiply(fp, fp, out=fp)
    np.multiply(g, g, out=g)
    np.add(fp, g, out=fp)
    pairs = g[..., :-1]
    np.add(fp[..., 1:], fp[..., :-1], out=pairs)
    np.multiply(dx, pairs, out=pairs)
    np.divide(pairs, 2.0, out=pairs)
    totals = np.add.reduce(pairs, axis=-1)
    eta_values = np.asarray(etas, dtype=float)
    out = []
    for tag, eta, total, f0 in zip(tuple(space_tags) * (totals.size // len(space_tags)),
                                   eta_values.ravel().tolist(), totals.ravel().tolist(),
                                   f[..., 0].ravel().tolist()):
        if tag == "H1":
            total += eta * eta / params.m
        elif tag == "H2":
            total += params.beta * f0 * f0 + eta * eta / params.m
        elif tag == "H":
            total += eta * eta / (params.m + params.alpha * params.a)
        elif tag == "Hbb1":
            total += params.beta * f0 * f0
        out.append(total)
    return np.reshape(out, totals.shape).tolist()


def log_uniform(rng, shape, lo_exp, hi_exp, zero_share):
    """Signed values with log10-magnitudes uniform on [lo_exp, hi_exp] and
    about ``zero_share`` of them exactly zero."""
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(lo_exp, hi_exp, shape)
    values[rng.random(shape) < zero_share] = 0.0
    return values


def test_module_import_gives_module():
    """The package re-exports no function under a submodule's name."""
    import tipwave.energy as m
    assert m is sys.modules["tipwave.energy"]
    assert m.EnergyRecorder is EnergyRecorder


class TestEnergy:
    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_zero_field_zero_energy(self, grid, params, tag):
        f = np.zeros(grid.n_nodes)
        assert energy(tag, f, f, 0.0, params, grid) == 0.0

    def test_linear_profile_exact(self, grid, params):
        f = grid.nodes()
        assert energy("Hbb", f, f, 0.0, params, grid) == pytest.approx(1.0, rel=1e-12)

    def test_plant_norm_with_boundary_state(self, grid, params):
        f = grid.nodes()
        # integral 1 + eta^2/m with eta = m = 5
        assert energy("H1", f, f, 5.0, params, grid) == pytest.approx(6.0, rel=1e-12)

    def test_tag_boundary_terms(self, grid, params):
        x = grid.nodes()
        f = x + 2.0  # f(0) = 2
        base = energy("Hbb", f, f, 0.0, params, grid)
        assert energy("Hbb1", f, f, 0.0, params, grid) == pytest.approx(
            base + params.beta * 4.0, rel=1e-12)
        assert energy("H2", f, f, 3.0, params, grid) == pytest.approx(
            base + params.beta * 4.0 + 9.0 / params.m, rel=1e-12)
        assert energy("H", f, f, 3.0, params, grid) == pytest.approx(
            base + 9.0 / (params.m + params.alpha * params.a), rel=1e-12)

    def test_stacked_rows_match_single_rows(self, grid, params):
        rng = np.random.default_rng(7)
        prev, curr = rng.normal(size=(2, 3, grid.n_nodes))
        tags, etas = ("H1", "H2", "Hbb1"), (0.3, -1.2, 0.0)
        stacked = energies(tags, prev, curr, etas, params, grid)
        single = [energy(tag, p, c, eta, params, grid)
                  for tag, p, c, eta in zip(tags, prev, curr, etas)]
        assert stacked == single
        assert all(type(e) is float for e in stacked)

    @given(k=st.integers(1, 64), rows=st.integers(1, 3), n=st.sampled_from([10, 37, 100]),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_matches_single_levels(self, k, rows, n, data):
        """A (K, rows, N+1) block, into work buffers, gives the K single-level
        energies bit for bit."""
        tags = data.draw(st.lists(st.sampled_from(SPACE_TAGS), min_size=rows, max_size=rows))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        grid, params = Grid(n_cells=n, r=0.5), SystemParams()
        prev, curr = rng.normal(size=(2, k, rows, n + 1))
        etas = rng.normal(size=(k, rows))
        work = [np.full((k, rows, n + 1), np.nan) for _ in range(2)]
        block = energies(tags, prev, curr, etas.tolist(), params, grid, work=work)
        single = [energies(tags, p, c, tuple(e), params, grid)
                  for p, c, e in zip(prev, curr, etas.tolist())]
        assert block == single
        assert all(type(e) is float for row in block for e in row)

    @given(k=st.integers(1, 8), rows=st.integers(1, 3),
           n=st.sampled_from([3, 4, 5, 10, 37, 100]), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_thirteen_pass_formula(self, k, rows, n, data):
        """Every energy has the bits of the three-buffer, 13-pass formula,
        down to levels whose squares are subnormal or vanish."""
        tags = data.draw(st.lists(st.sampled_from(SPACE_TAGS), min_size=rows, max_size=rows))
        lo_exp = data.draw(st.floats(-200.0, 6.0))
        hi_exp = data.draw(st.floats(lo_exp, 6.0))
        zero_share = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        grid, params = Grid(n_cells=n, r=0.5), SystemParams()
        prev, curr = log_uniform(rng, (2, k, rows, n + 1), lo_exp, hi_exp, zero_share)
        etas = log_uniform(rng, (k, rows), lo_exp, hi_exp, zero_share).tolist()
        expected = thirteen_pass_energies(tags, prev, curr, etas, params, grid)
        work = [np.full((k, rows, n + 1), np.nan) for _ in range(2)]
        # a recorder's buffers, whose slope buffer is offset by one element
        recorder = EnergyRecorder([EnergyTrace(tag) for tag in tags], prev[0], params, grid)
        for got in (energies(tags, prev, curr, etas, params, grid, work=work),
                    energies(tags, prev, curr, etas, params, grid),
                    energies(tags, prev, curr, etas, params, grid,
                             work=[buf[:k] for buf in recorder.work])):
            assert [[e.hex() for e in row] for row in got] == \
                [[e.hex() for e in row] for row in expected]

    @given(rows=st.integers(1, 3), n=st.sampled_from([3, 4, 5, 10, 37, 100]),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_recorder_block_matches_thirteen_pass_formula(self, rows, n, data):
        """A recorder's full block, measured by the pass it cut once over its
        ring, has the bits of the 13-pass formula too, down to levels whose
        squares are subnormal or vanish."""
        tags = data.draw(st.lists(st.sampled_from(SPACE_TAGS), min_size=rows, max_size=rows))
        lo_exp = data.draw(st.floats(-200.0, 6.0))
        hi_exp = data.draw(st.floats(lo_exp, 6.0))
        zero_share = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        grid, params = Grid(n_cells=n, r=0.5), SystemParams()
        recorder = EnergyRecorder([EnergyTrace(tag) for tag in tags], np.zeros((rows, n + 1)),
                                  params, grid)
        levels = log_uniform(rng, recorder.ring.shape, lo_exp, hi_exp, zero_share)
        recorder.ring[...] = levels
        etas = log_uniform(rng, (recorder.size, rows), lo_exp, hi_exp, zero_share).tolist()
        expected = thirteen_pass_energies(tags, levels[:-1], levels[1:], etas, params, grid)
        got = np.asarray(recorder.block(etas)).tolist()
        assert [[e.hex() for e in row] for row in got] == \
            [[e.hex() for e in row] for row in expected]

    def test_rejects_mismatched_work_and_etas(self, grid, params):
        level = np.zeros((3, grid.n_nodes))
        tags = ("H1", "H2", "Hbb1")
        with pytest.raises(ValueError, match="work buffers"):
            energies(tags, level, level, (0.0,) * 3, params, grid,
                     work=[np.empty((3, grid.n_nodes - 1))] * 2)
        with pytest.raises(ValueError, match="work buffers"):
            energies(tags, level, level, (0.0,) * 3, params, grid,
                     work=[np.empty(level.shape) for _ in range(3)])
        with pytest.raises(ValueError, match="etas"):
            energies(tags, level, level, (0.0,) * 2, params, grid)
        with pytest.raises(ValueError, match="levels"):
            energies(tags[:2], level, level, (0.0,) * 2, params, grid)
        with pytest.raises(ValueError, match="levels"):
            energies(tags, level[:, 1:], level[:, 1:], (0.0,) * 3, params, grid)

    def test_unknown_tag(self, grid, params):
        f = np.zeros(grid.n_nodes)
        with pytest.raises(ValueError):
            energy("H3", f, f, 0.0, params, grid)

    @given(st.floats(min_value=-8.0, max_value=8.0).filter(lambda c: abs(c) > 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_quadratic_homogeneity(self, c):
        grid = Grid(n_cells=50, r=0.5)
        params = SystemParams()
        x = grid.nodes()
        e1 = energy("H2", np.sin(2 * x), x ** 2 - 0.3 * x, 0.4, params, grid)
        ec = energy("H2", c * np.sin(2 * x), c * (x ** 2 - 0.3 * x), c * 0.4, params, grid)
        assert ec == pytest.approx(c * c * e1, rel=1e-9)

    def test_grid_refinement_second_order(self, params):
        # fixed smooth profile: quadrature+stencil error must shrink ~4x
        exact = 9.0 / 5.0  # integral of (3x^2)^2
        errs = []
        for n in (50, 100, 200):
            g = Grid(n_cells=n, r=0.5)
            f = g.nodes() ** 3
            errs.append(abs(energy("Hbb", f, f, 0.0, params, g) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


class TestEnergyRecorder:
    def test_block_size(self, params):
        """A block holds as many levels as fit in ENERGY_BLOCK_BYTES, at least one."""
        sizes = []
        for rows, n_cells in ((3, 100), (3, 1600), (1, 20000)):
            grid = Grid(n_cells=n_cells, r=0.5)
            prev = np.zeros((rows, grid.n_nodes))
            sizes.append(EnergyRecorder([EnergyTrace("Hbb")] * rows, prev, params, grid).size)
        assert ENERGY_BLOCK_BYTES == 192 * 1024
        assert sizes == [81, 5, 1]

    def test_unknown_tag_rejected_on_construction(self, grid, params):
        """A trace in an unknown space fails when the recorder is built,
        with the message a flush would give, not at the first flush."""
        traces = [EnergyTrace("H1"), EnergyTrace("Hx"), EnergyTrace("H2")]
        with pytest.raises(ValueError, match=r"^unknown space tag 'Hx'; expected one of \("):
            EnergyRecorder(traces, np.zeros((3, grid.n_nodes)), params, grid)

    def test_buffers_aligned_for_their_passes(self, grid, params):
        """The sum buffer starts on a 64-byte boundary, and the slope
        buffer's element 1, where its central differences start."""
        for _ in range(20):  # twenty recorders, wherever the allocator puts them
            work = EnergyRecorder([EnergyTrace("H1")] * 3, np.zeros((3, grid.n_nodes)),
                                  params, grid).work
            assert [work[0].ctypes.data % 64, work[1].reshape(-1)[1:].ctypes.data % 64] == [0, 0]

    def test_records_match_per_level_calls(self, grid, params):
        """Pushed levels reach the traces in record order, each measured
        against the level before it, across full blocks and a partial one."""
        rng = np.random.default_rng(11)
        tags = ("H1", "H2", "Hbb1")
        levels = rng.normal(size=(2 * 81 + 10, 3, grid.n_nodes))
        etas = rng.normal(size=(len(levels), 3)).tolist()
        traces = [EnergyTrace(tag) for tag in tags]
        recorder = EnergyRecorder(traces, levels[0], params, grid)
        for k in range(1, len(levels)):
            recorder.push(k * grid.dt, levels[k], etas[k])
        assert len(traces[0]) == 2 * 81
        recorder.flush()
        recorder.flush()
        expected = [energies(tags, levels[k - 1], levels[k], etas[k], params, grid)
                    for k in range(1, len(levels))]
        assert [list(tr.values) for tr in traces] == [list(col) for col in zip(*expected)]
        assert all(list(tr.times) == [k * grid.dt for k in range(1, len(levels))]
                   for tr in traces)

    def test_full_blocks_take_no_energies_call(self, grid, params, monkeypatch):
        """A full block runs the pass the recorder cut once, and the last,
        partial block a pass cut over the first levels of the same buffers:
        no block calls ``energies``, and every record has its bits."""
        import tipwave.energy as energy_module

        rng = np.random.default_rng(13)
        tags = ("H1", "H2", "Hbb1")
        levels = rng.normal(size=(2 * 81 + 11, 3, grid.n_nodes))
        expected = [energies(tags, levels[k - 1], levels[k], (0.5, -1.0, 0.0), params, grid)
                    for k in range(1, len(levels))]
        traces = [EnergyTrace(tag) for tag in tags]
        recorder = EnergyRecorder(traces, levels[0], params, grid)
        calls = []
        monkeypatch.setattr(energy_module, "energies",
                            lambda *args, **kwargs: calls.append(args) or energies(*args, **kwargs))
        for k in range(1, len(levels)):
            recorder.push(k * grid.dt, levels[k], (0.5, -1.0, 0.0))
        assert not calls and len(traces[0]) == 2 * 81
        recorder.flush()
        assert not calls and len(traces[0]) == len(levels) - 1
        assert [list(tr.values) for tr in traces] == [list(col) for col in zip(*expected)]

    def test_valid_blocks_take_no_append(self, grid, params, monkeypatch):
        """A block that passes its one check reaches the traces by extending
        them, with no per-record ``append``."""
        def refuse(self, t, value):
            raise AssertionError("append called")

        monkeypatch.setattr(EnergyTrace, "append", refuse)
        rng = np.random.default_rng(3)
        levels = rng.normal(size=(90, 1, grid.n_nodes))
        traces = [EnergyTrace("H1")]
        recorder = EnergyRecorder(traces, levels[0], params, grid)
        for k in range(1, len(levels)):
            recorder.push(k * grid.dt, levels[k], [0.5])
        recorder.flush()
        assert list(traces[0].values) == [energy("H1", levels[k - 1, 0], levels[k, 0], 0.5,
                                                 params, grid) for k in range(1, len(levels))]

    @pytest.mark.parametrize("bad", ["nan_level", "inf_level", "repeated_time", "nan_time",
                                     "inf_time", "later_trace"])
    def test_bad_record_raises_as_append_does(self, grid, params, bad):
        """A block holding a bad record raises the ValueError that appending
        its records one at a time raises at the first bad one, and leaves
        the traces as that does: every earlier block and record kept."""
        rng = np.random.default_rng(5)
        tags = ("H1", "H2", "Hbb1")
        levels = rng.normal(size=(100, 3, grid.n_nodes))
        etas = rng.normal(size=(100, 3)).tolist()
        times = [k * grid.dt for k in range(100)]
        j = 90  # in the second block of 81
        if bad == "nan_level":
            levels[j, 1, 5] = math.nan
        elif bad == "inf_level":
            levels[j, 2, 0] = math.inf
        elif bad == "repeated_time":
            times[j] = times[j - 1]
        elif bad == "nan_time":
            times[j] = math.nan
        elif bad == "inf_time":
            times[j:] = [math.inf] * (100 - j)
        traces, expected = ([EnergyTrace(tag) for tag in tags] for _ in range(2))
        if bad == "later_trace":
            for trace in (traces[1], expected[1]):
                trace.append(1.0, 2.0)
        recorder = EnergyRecorder(traces, levels[0], params, grid)
        with pytest.raises(ValueError) as got:
            for k in range(1, len(levels)):
                recorder.push(times[k], levels[k], etas[k])
            recorder.flush()
        with pytest.raises(ValueError) as want:
            for k in range(1, len(levels)):
                for trace, value in zip(expected, energies(tags, levels[k - 1], levels[k],
                                                           etas[k], params, grid)):
                    trace.append(times[k], value)
        assert str(got.value) == str(want.value)
        assert [(tr.times, tr.values) for tr in traces] == [(tr.times, tr.values)
                                                            for tr in expected]
        # the first block is in; record 90 is in each trace that precedes the bad one
        assert [len(tr) for tr in traces] == {
            "nan_level": [90, 89, 89], "inf_level": [90, 90, 89],
            "later_trace": [1, 1, 0]}.get(bad, [89, 89, 89])


class TestEnergyTrace:
    def test_validation(self):
        tr = EnergyTrace("H1")
        tr.append(0.0, 1.0)
        with pytest.raises(ValueError):
            tr.append(0.0, 1.0)
        with pytest.raises(ValueError):
            tr.append(1.0, -0.5)

    @pytest.mark.parametrize("t,value,message", [
        (float("nan"), 1.0, "times must be finite and strictly increasing, got nan"),
        (math.inf, 1.0, "times must be finite and strictly increasing, got inf"),
        (1.0, float("nan"), "energy must be finite, got nan"),
        (1.0, math.inf, "energy must be finite, got inf"),
        (1.0, -0.5, "energy must be nonnegative, got -0.5"),
    ], ids=["nan_time", "inf_time", "nan_energy", "inf_energy", "negative_energy"])
    def test_rejects_non_finite(self, t, value, message):
        """NaN fails every comparison, so each check is a negated one."""
        tr = EnergyTrace("H1")
        tr.append(0.0, 1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            tr.append(t, value)
        assert (list(tr.times), list(tr.values)) == ([0.0], [1.0])

    def test_rejects_nan_first_time(self):
        with pytest.raises(ValueError, match="got nan"):
            EnergyTrace("H1").append(float("nan"), 1.0)

    def test_csv_roundtrip(self, tmp_path):
        tr = EnergyTrace("Hbb")
        for k in range(5):
            tr.append(0.1 * k, math.exp(-k))
        rows = write_trace(tmp_path, tr, "u_Hbb").splitlines()
        assert rows[0] == EnergyTrace.CSV_HEADER == "t,E,tag"
        t0, e0, tag = rows[1].split(",")
        assert float(t0) == 0.0 and float(e0) == 1.0 and tag == "Hbb"
        back = EnergyTrace.read_csv(tmp_path / "energy_u_Hbb.csv", "Hbb")
        assert (back.times, back.values) == (tr.times, tr.values)

    def test_csv_read_back(self, tmp_path):
        """A run's trace file reads back as the trace the run recorded."""
        cfg = parse_config("preset = reproduce_sec4\nhorizon = 0.5\nspectral_summary = false\n")
        tr = run_scenario(cfg, out_dir=str(tmp_path)).energy_traces["u_H1"]
        path = tmp_path / "energy_u_H1.csv"
        back = EnergyTrace.read_csv(path, "H1")
        assert (back.space_tag, back.times, back.values) == ("H1", tr.times, tr.values)
        with pytest.raises(ValueError, match=re.escape(
                f"line 2: expected t,E,Hbb1, got '0.0,{tr.values[0]!r},H1'")):
            EnergyTrace.read_csv(path, "Hbb1")

    @pytest.mark.parametrize("text", ["", "t,E\n0.0,1.0,H1\n"], ids=["empty_file", "other_header"])
    def test_csv_needs_its_header(self, tmp_path, text):
        """A file without the header line, a 0-byte one too, is malformed at
        line 1, not an empty trace."""
        path = tmp_path / "trace.csv"
        path.write_text(text)
        header = text.split("\n")[0]
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 1: expected the header t,E,tag, got {header!r}")):
            EnergyTrace.read_csv(path, "H1")

    def test_csv_prints_plain_floats_for_numpy_input(self, tmp_path):
        tr = EnergyTrace("H1")
        for k in range(3):
            tr.append(np.float64(0.1) * k, np.float64(1.5) ** -k)
        text = write_trace(tmp_path, tr, "u_H1")
        assert "np.float64(" not in text
        assert text.splitlines()[2] == "0.1,0.6666666666666666,H1"


class TestFitDecayRate:
    @staticmethod
    def synthetic(fn, T=20.0, dt=0.01):
        tr = EnergyTrace("H1")
        t = 0.0
        while t <= T:
            tr.append(t, fn(t))
            t += dt
        return tr

    def test_pure_exponential(self):
        tr = self.synthetic(lambda t: math.exp(-2.0 * t))
        rate, log_amp = fit_decay_rate(tr)
        assert rate == pytest.approx(-2.0, abs=1e-6)
        assert log_amp == pytest.approx(0.0, abs=1e-5)

    def test_modulated_exponential(self):
        tr = self.synthetic(lambda t: 3.0 * math.exp(-0.8 * t) * (1 + 0.01 * math.sin(40 * t)))
        rate, _ = fit_decay_rate(tr, window=0.5)
        assert rate == pytest.approx(-0.8, abs=0.02)

    def test_constant_trace(self):
        tr = self.synthetic(lambda t: 4.2)
        rate, log_amp = fit_decay_rate(tr)
        assert rate == pytest.approx(0.0, abs=1e-9)
        assert log_amp == pytest.approx(math.log(4.2), abs=1e-9)

    def test_scale_invariance(self):
        tr1 = self.synthetic(lambda t: math.exp(-1.3 * t))
        trc = self.synthetic(lambda t: 50.0 * math.exp(-1.3 * t))
        r1, a1 = fit_decay_rate(tr1)
        rc, ac = fit_decay_rate(trc)
        assert rc == pytest.approx(r1, abs=1e-10)
        assert ac - a1 == pytest.approx(math.log(50.0), abs=1e-8)

    def test_all_samples_excluded(self):
        tr = self.synthetic(lambda t: 0.0, T=5.0)
        with pytest.raises(NoFitError):
            fit_decay_rate(tr)

    def test_exclusion_reanchors_window(self):
        tr = self.synthetic(lambda t: math.exp(-2.0 * t) if t < 10 else 0.0, T=30.0)
        rate, _ = fit_decay_rate(tr, window=0.3)
        assert rate == pytest.approx(-2.0, abs=1e-6)

    def test_too_few_samples(self):
        tr = EnergyTrace("H1")
        for k in range(10):
            tr.append(float(k), 1.0)
        with pytest.raises(NoFitError):
            fit_decay_rate(tr, t_skip=0.0)

    def test_no_samples(self):
        with pytest.raises(NoFitError, match="^no samples$"):
            fit_decay_rate(EnergyTrace("H1"))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e3, 1e3),
           st.lists(st.tuples(st.floats(1e-3, 10.0), st.floats(-299.0, 299.0)),
                    min_size=20, max_size=60))
    def test_exact_least_squares_line(self, t0, steps):
        """Increasing times and energies spanning many decades: the fitted
        rate and log amplitude are the exact least-squares line through
        (t, math.log(E)), in Fractions, rounded once (so within 1 ulp)."""
        tr = EnergyTrace("H1")
        t = t0
        for dt, decade in steps:
            t += dt
            tr.append(t, 10.0 ** decade)
        ts = [Fraction(x) for x in tr.times]
        ys = [Fraction(math.log(e)) for e in tr.values]
        t_mean, y_mean = sum(ts) / len(ts), sum(ys) / len(ys)
        slope = (sum((x - t_mean) * (y - y_mean) for x, y in zip(ts, ys))
                 / sum((x - t_mean) ** 2 for x in ts))
        assert fit_decay_rate(tr, window=1.0, t_skip=-math.inf) == (
            float(slope), float(y_mean - slope * t_mean))

    def test_times_too_wide_to_fit_exactly(self):
        """Times spanning 600 decades cannot be scaled to integers within
        float64's range: NoFitError, not a NaN or a warning."""
        tr = EnergyTrace("H1")
        for k in range(21):
            tr.append(10.0 ** (30 * k - 300), 1.0)
        with pytest.raises(NoFitError, match="cannot be fitted exactly"):
            fit_decay_rate(tr, window=1.0, t_skip=-math.inf)

    def test_no_lapack(self, monkeypatch):
        """A fit calls nothing in numpy.linalg, so no LAPACK or BLAS
        workspace is mapped for it."""
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in np.linalg.__all__:
            monkeypatch.setattr(np.linalg, name, refuse)
        tr = self.synthetic(lambda t: 3.0 * math.exp(-0.8 * t))
        rate, log_amp = fit_decay_rate(tr)
        assert rate == pytest.approx(-0.8, rel=1e-12)
        assert log_amp == pytest.approx(math.log(3.0), rel=1e-12)

    def test_bad_window(self):
        tr = self.synthetic(lambda t: 1.0, T=5.0)
        with pytest.raises(ValueError):
            fit_decay_rate(tr, window=0.0)


def envelope_samples(times, values, width: float):
    """Windowed maxima of |values|: (window centers, maxima) arrays.

    A boundary trace like u_x(1, t) oscillates through zero, so its log
    cannot be fitted directly; the maximum over consecutive windows of
    about one oscillation period tracks the decaying envelope instead.
    """
    t = np.asarray(times, dtype=float)
    v = np.abs(np.asarray(values, dtype=float))
    if t.size != v.size or t.size == 0:
        raise ValueError("times and values must be equal-length and nonempty")
    centers, maxima = [], []
    left = t[0]
    while left + width <= t[-1] + 1e-12:
        sel = (t >= left) & (t < left + width)
        if sel.any():
            centers.append(left + 0.5 * width)
            maxima.append(float(v[sel].max()))
        left += width
    return np.asarray(centers), np.asarray(maxima)


def fit_envelope_rate(times, values, width: float,
                      t_start: float, t_end: float) -> tuple[float, float]:
    """Exponential rate of an oscillatory signal's envelope.

    Windowed maxima over [t_start, t_end] are fitted log-linearly; this
    is a state-level rate (the signal itself is not quadratic). Needs at
    least four windows.
    """
    centers, maxima = envelope_samples(times, values, width)
    sel = (centers >= t_start) & (centers <= t_end) & (maxima > 1e-300)
    if sel.sum() < 4:
        raise NoFitError(f"need >= 4 envelope windows, have {int(sel.sum())}")
    return _fit_log_linear(centers[sel], maxima[sel])


class TestEnvelope:
    def test_oscillatory_envelope_rate(self):
        t = np.arange(0.0, 20.0, 0.005)
        sig = np.exp(-0.7 * t) * np.cos(3.0 * t + 0.2)
        rate, _ = fit_envelope_rate(t, sig, width=1.2, t_start=0.0, t_end=20.0)
        assert rate == pytest.approx(-0.7, rel=0.05)

    def test_envelope_needs_windows(self):
        t = np.arange(0.0, 2.0, 0.01)
        with pytest.raises(NoFitError):
            fit_envelope_rate(t, np.cos(t), width=1.0, t_start=0.0, t_end=2.0)

    def test_rejects_mismatched_input(self):
        with pytest.raises(ValueError):
            envelope_samples([0.0, 1.0], [1.0], 0.5)
