import contextlib
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tipwave
from tipwave import spectral
from tipwave.cli import main as cli_main
from tipwave.energy import ENERGY_BLOCK_BYTES, energies
from tipwave.scenarios import (
    ConfigError,
    PRESETS,
    RECORD_CHUNK,
    ScenarioConfig,
    _build_loop,
    _poly_on_grid,
    _RecordWriter,
    parse_config,
    run_scenario,
    serialize_config,
)
from tipwave.systems import BlowUpError, EsoLoop, ObserverLoop
from tipwave.textfmt import BATCH_VALUES
from tipwave.wave_core import Grid

from test_spectral import lands_on_neighbour

# Abb's contour sweep at gamma = 1.0001 (n_max = 40 or 100): every nudge of
# the box still passes a zero, and the error names the last attempt's edge
ABB_CONTOUR_FAILURE = ("could not separate contour from zeros: zero too close to contour on "
                       "(-15002.009503001651-0.009603j) -> (0.509503-0.009603j)")


def tree_digest(root):
    chunks = []
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            chunks.append(name.encode() + hashlib.sha256(fh.read()).digest())
    return hashlib.sha256(b"".join(chunks)).hexdigest()


class TestParse:
    def test_sec4_preset_expands(self):
        cfg = parse_config("preset = reproduce_sec4\n")
        assert cfg.mode == "eso_loop"
        assert (cfg.m, cfg.alpha, cfg.a, cfg.beta, cfg.gamma) == (5, 2, 2, 1.5, 1.5)
        assert cfg.n_cells == 100 and cfg.r == 0.5  # dt = 1/200, dx = 1/100
        assert cfg.u0 == (0.0, 0.0, -3.0, 1.0)
        assert cfg.v0 == (0.0, 0.0, 0.0, -2.0)
        assert cfg.ut0 == (0.0,) and cfg.q0 == (0.0,) and cfg.qt0 == (0.0,)
        assert cfg.f_kind == "sin_of_tip"
        assert cfg.d_kind == "cosine" and cfg.d_frequency == 2.0
        assert not cfg.warnings

    def test_preset_as_mode_value(self):
        cfg = parse_config("mode = counterexample_sec3\n")
        assert cfg.mode == "observer_loop"
        assert cfg.d_kind == "constant" and cfg.d_constant == 1.0
        assert cfg.u0 == (0.0, 1.0)
        assert cfg.uhat0 == pytest.approx((-1.0 / 1.5,))

    def test_preset_allows_overrides(self):
        cfg = parse_config("preset = reproduce_sec4\nhorizon = 7.5\nn_cells = 50\n")
        assert cfg.horizon == 7.5 and cfg.n_cells == 50

    def test_preset_position_does_not_matter(self):
        cfg = parse_config("horizon = 7.5\npreset = reproduce_sec4\n")
        assert cfg.horizon == 7.5 and cfg.mode == "eso_loop"

    def test_hypothesis_violation_warns_not_fails(self):
        cfg = parse_config("mode = eso_loop\nm = 2\na = 2\n")
        assert any("m = a" in w for w in cfg.warnings)

    def test_cfl_violation_is_hard_error(self):
        with pytest.raises(ConfigError, match="Courant"):
            parse_config("mode = eso_loop\nr = 1.5\n")

    def test_all_violations_collected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("mode = warp\nr = 1.5\nn_cells = 2\nwibble = 3\n"
                         "m = -1\nbeta = 0\n")
        text = str(err.value)
        for frag in ("warp", "Courant", "grid too coarse", "wibble",
                     "m must be positive, got -1.0", "beta must be positive, got 0.0"):
            assert frag in text

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# full experiment\nmode = open_plant # inline\n\n")
        assert cfg.mode == "open_plant"

    def test_mode_required(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("m = 5\n")

    def test_table_disturbance(self):
        cfg = parse_config("mode = open_plant\nd_kind = table\nd_table = 0:1 2:3\n")
        assert cfg.d_table == ((0.0, 1.0), (2.0, 3.0))

    @pytest.mark.parametrize("table", ["0:1:99 1:2", "5 1:2"])
    def test_table_token_needs_two_fields(self, table):
        with pytest.raises(ConfigError, match="'d_table'"):
            parse_config(f"mode = open_plant\nd_kind = table\nd_table = {table}\n")

    @pytest.mark.parametrize("kwargs,message", [
        ({"mode": "spectrum", "m": 2.0, "a": 2.0}, "family A requires m != a"),
        ({"mode": "bogus"}, "unknown mode 'bogus'; expected one of "
                            "('open_plant', 'observer_loop', 'eso_loop', 'spectrum')"),
        ({"mode": "eso_loop", "stride": 0}, "stride must be >= 1, got 0"),
        ({}, "mode is required (or give a preset)"),
        ({"mode": "eso_loop", "horizon": math.inf}, "horizon must be finite, got inf"),
        ({"mode": "spectrum", "n_max": -3}, "n_max must be >= 0, got -3"),
        ({"mode": "eso_loop", "n_cells": "100"}, "n_cells must be int, got '100'"),
        ({"mode": "eso_loop", "uhat0": ()}, "uhat0 needs at least one coefficient, got ()"),
        ({"mode": "open_plant", "horizon": 0.002},
         "horizon 0.002 is under half a step (dt = 0.005): the run would take no step"),
        ({"mode": "eso_loop", "u0": (1e308, 1e308)},
         "u0 = (1e+308, 1e+308) is not finite on the grid"),
    ], ids=["spectrum_hypothesis", "unknown_mode", "zero_stride", "no_mode",
            "infinite_horizon", "negative_n_max", "n_cells_as_text", "unused_empty_profile",
            "horizon_under_half_a_step", "overflowing_profile"])
    def test_config_built_in_code_is_checked(self, kwargs, message):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(**kwargs)
        assert err.value.violations == [message]

    def test_grid_rule_is_the_only_minimum(self):
        """Grid's n_cells >= 3 is the one minimum, reported through the config."""
        with pytest.raises(ConfigError) as err:
            parse_config("preset = reproduce_sec4\nn_cells = 2\n")
        assert err.value.violations == ["grid too coarse: n_cells=2 < 3"]

    def test_infinite_horizon_from_text(self):
        with pytest.raises(ConfigError) as err:
            parse_config("preset = reproduce_sec4\nhorizon = inf\n")
        assert err.value.violations == ["horizon must be finite, got inf"]

    @pytest.mark.parametrize("horizon", ["0.001", "0.0025"])
    def test_horizon_under_half_a_step_from_text(self, horizon):
        """A time-domain run takes round(horizon / dt) steps, so a horizon
        that rounds to no step is an error, 0.0025 = dt/2 too (round half
        to even), while a spectrum config ignores its horizon."""
        with pytest.raises(ConfigError) as err:
            parse_config(f"preset = reproduce_sec4\nhorizon = {horizon}\n")
        assert err.value.violations == [
            f"horizon {horizon} is under half a step (dt = 0.005): the run would take no step"]
        assert parse_config("preset = reproduce_sec4\nhorizon = 0.0026\n").horizon == 0.0026
        assert parse_config(f"mode = spectrum\nhorizon = {horizon}\n").mode == "spectrum"

    @pytest.mark.parametrize("mode", ["open_plant", "observer_loop", "eso_loop"])
    def test_profile_overflowing_on_grid_from_text(self, mode):
        """Finite coefficients whose sum overflows on the nodes (1e308 + 1e308
        at x = 1) are a config error of every time-domain mode, each profile
        named, raised without a warning, while a spectrum config never
        evaluates its profiles."""
        lines = f"preset = reproduce_sec4\nmode = {mode}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as err:
                parse_config(lines, ["u0=1e308 1e308", "ut0=0 1e308 1e308"])
        assert err.value.violations == [
            "u0 = (1e+308, 1e+308) is not finite on the grid",
            "ut0 = (0.0, 1e+308, 1e+308) is not finite on the grid"]
        assert parse_config("mode = spectrum\nu0 = 1e308 1e308\n").u0 == (1e308, 1e308)
        assert parse_config(lines, ["u0=1e308 -1e308"]).u0 == (1e308, -1e308)

    @pytest.mark.parametrize("line,message", [
        ("threshold_plant_energy_ratio = nan",
         "threshold_plant_energy_ratio must be finite, got nan"),
        ("d_amplitude = nan", "d_amplitude must be finite, got nan"),
        ("m = inf", "m must be finite, got inf"),
        ("u0 = 0 nan", "u0 must be finite, got (0.0, nan)"),
        ("d_table = 0:nan 1:1", "d_table must be finite, got ((0.0, nan), (1.0, 1.0))"),
    ], ids=["nan_threshold", "nan_d_amplitude", "infinite_m", "nan_profile", "nan_table"])
    def test_non_finite_value(self, line, message):
        with pytest.raises(ConfigError) as err:
            parse_config(f"preset = reproduce_sec4\n{line}\n")
        assert err.value.violations == [message]

    def test_config_is_frozen(self):
        cfg = parse_config("preset = reproduce_sec4\n")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.stride = 0
        assert cfg.stride == 20

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_serialize_round_trip(self, preset):
        cfg = parse_config(f"preset = {preset}\n")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_with_table_and_thresholds(self):
        text = ("mode = eso_loop\nd_kind = table\nd_table = 0:0.5 1:0.25 4:0\n"
                "threshold_plant_energy_ratio = 0.001\n")
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    coeff = st.floats(-10, 10, allow_nan=False).map(lambda c: round(c, 6))

    @given(
        mode=st.sampled_from(["open_plant", "observer_loop", "eso_loop"]),
        gains=st.tuples(*(st.floats(0.1, 9).map(lambda v: round(v, 5))
                          for _ in range(5))),
        u0=st.lists(coeff, min_size=1, max_size=4),
        d_kind=st.sampled_from(["zero", "constant", "cosine", "exp_decay"]),
        f_kind=st.sampled_from(["zero", "sin_of_tip", "lipschitz_linear"]),
        n_cells=st.integers(10, 400),
        stride=st.integers(1, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, mode, gains, u0, d_kind, f_kind,
                                 n_cells, stride):
        m, alpha, a, beta, gamma = gains
        text = (f"mode = {mode}\nm = {m!r}\nalpha = {alpha!r}\na = {a!r}\n"
                f"beta = {beta!r}\ngamma = {gamma!r}\n"
                f"u0 = {' '.join(repr(c) for c in u0)}\n"
                f"d_kind = {d_kind}\nf_kind = {f_kind}\n"
                f"n_cells = {n_cells}\nstride = {stride}\n")
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


PROFILE_COEFF = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
              st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)))


class TestProfiles:
    @given(coeffs=st.lists(PROFILE_COEFF, min_size=1, max_size=8),
           n_cells=st.sampled_from([3, 100, 1600]))
    @settings(max_examples=200, deadline=None)
    def test_horner_has_polyval_bytes(self, coeffs, n_cells):
        """A profile has the bytes of numpy.polynomial's polyval, -0.0
        coefficients and subnormal products too."""
        grid = Grid(n_cells=n_cells, r=0.5)
        expected = np.polynomial.polynomial.polyval(grid.nodes(), np.asarray(coeffs, float))
        assert _poly_on_grid(coeffs, grid).tobytes() == expected.tobytes()

    def test_run_imports_no_numpy_polynomial(self, tmp_path):
        """A simulate run evaluates its profiles without loading
        numpy.polynomial, whose import costs milliseconds and memory."""
        cfg = tmp_path / "sec4.cfg"
        cfg.write_text("preset = reproduce_sec4\nhorizon = 0.05\n")
        code = ("import sys\nfrom tipwave.cli import main\n"
                "status = main(['simulate', sys.argv[1], '--out', sys.argv[2]])\n"
                "print(status, 'numpy.polynomial' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tipwave.__file__))}
        result = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "out")],
                                env=env, check=True, capture_output=True, text=True)
        assert result.stdout.splitlines()[-1] == "0 False"


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    cfg = parse_config("preset = reproduce_sec4\nhorizon = 2\nstride = 40\n"
                       "spectral_summary = false\n")
    out = tmp_path_factory.mktemp("run")
    return run_scenario(cfg, out_dir=str(out))


class TestRunScenario:
    def test_artifact_files(self, short_run):
        names = sorted(os.listdir(short_run.out_dir))
        assert names == ["boundary_states.csv", "energy_q_Hbb1.csv",
                         "energy_u_H1.csv", "energy_v_Hbb1.csv",
                         "snapshots_q.csv", "snapshots_u.csv", "snapshots_v.csv",
                         "summary.txt"]

    def test_snapshot_format(self, short_run):
        lines = open(os.path.join(short_run.out_dir, "snapshots_u.csv")).read().splitlines()
        assert lines[0] == "t,x,value"
        t, x, v = lines[1].split(",")
        assert (float(t), float(x)) == (0.0, 0.0)
        # initial profile x^3 - 3x^2 evaluated exactly at the last node
        t, x, v = lines[101].split(",")
        assert (float(t), float(x), float(v)) == (0.0, 1.0, -2.0)

    def test_boundary_format(self, short_run):
        lines = open(os.path.join(short_run.out_dir, "boundary_states.csv")).read().splitlines()
        assert lines[0] == "t,eta,psi"
        assert len(lines) == 2 + int(round(2.0 / 0.005))

    def test_energy_traces_monotone_time(self, short_run):
        tr = short_run.energy_traces["u_H1"]
        assert all(b > a for a, b in zip(tr.times, tr.times[1:]))

    def test_determinism(self, tmp_path):
        cfg_text = "preset = reproduce_sec4\nhorizon = 1\nspectral_summary = false\n"
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_scenario(parse_config(cfg_text), out_dir=str(out))
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]

    def test_counterexample_preset_not_stabilized(self, tmp_path):
        cfg = parse_config("preset = counterexample_sec3\nspectral_summary = false\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / "cex"))
        e = result.energy_traces["u_H1"].values
        assert e[-1] >= 0.5 * e[0]

    def test_spectrum_mode(self, tmp_path):
        cfg = parse_config("mode = spectrum\nfamily = Abb\nn_max = 20\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / "spec"))
        assert result.abscissae["Abb"] == pytest.approx(-0.672056, abs=1e-5)
        path = os.path.join(result.out_dir, "spectrum_Abb.csv")
        header = open(path).readline().strip()
        assert header == "n,seed_re,seed_im,refined_re,refined_im,residual"

    @pytest.mark.parametrize("table,ratio,verdict", [
        ("0:0 1:1 5:1", "inf", "FAIL: plant energy ratio inf exceeds 0.5"),
        ("0:0 5:0", "0.0", "thresholds: PASS"),
    ], ids=["grows", "stays_zero"])
    def test_plant_energy_ratio_from_zero(self, tmp_path, table, ratio, verdict):
        """From zero initial energy, energy that grows is an infinite ratio,
        and energy that stays at zero a ratio of 0."""
        cfg = parse_config("mode = eso_loop\nu0 = 0\nut0 = 0\nd_kind = table\n"
                           f"d_table = {table}\nhorizon = 5\nspectral_summary = false\n"
                           "threshold_plant_energy_ratio = 0.5\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / "out"))
        e = result.energy_traces["u_H1"].values
        assert e[0] == 0.0 and (e[-1] > 0.0) == (ratio == "inf")
        assert result.threshold_failures == ([] if ratio == "0.0" else
                                             [f"plant energy ratio {ratio} exceeds 0.5"])
        assert open(result.summary_path).read().splitlines()[-1] == verdict

    def test_threshold_failure_reported(self, tmp_path):
        cfg = parse_config("preset = reproduce_sec4\nhorizon = 1\n"
                           "spectral_summary = false\n"
                           "threshold_plant_energy_ratio = 1e-9\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / "thr"))
        assert result.threshold_failures
        summary = open(result.summary_path).read()
        assert "FAIL" in summary

    def test_bounded_factor_passes_at_criterion_6_bound(self, tmp_path):
        """The estimator energies and |psi| stay within 10x of their t <= 2 peak."""
        cfg = parse_config("preset = reproduce_sec4\nhorizon = 4\n"
                           "spectral_summary = false\n"
                           "threshold_bounded_factor = 10\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / "bounded"))
        assert result.threshold_failures == []
        assert open(result.summary_path).read().splitlines()[-1] == "thresholds: PASS"

    @pytest.mark.parametrize("mode,loop_class", [("observer_loop", ObserverLoop),
                                                 ("eso_loop", EsoLoop)])
    def test_boundary_states_computed_once_per_record(self, tmp_path, monkeypatch,
                                                      mode, loop_class):
        """The energy pass reuses the states recorded in boundary_states.csv."""
        calls = []
        original = loop_class.boundary_states
        monkeypatch.setattr(loop_class, "boundary_states",
                            lambda self: calls.append(1) or original(self))
        cfg = parse_config(f"mode = {mode}\nhorizon = 0.05\nspectral_summary = false\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / mode))
        records = len(open(os.path.join(result.out_dir, "boundary_states.csv")).readlines()) - 1
        assert records == 11
        assert len(calls) == records

    @pytest.mark.parametrize("mode", ["open_plant", "observer_loop", "eso_loop"])
    def test_boundary_records_are_python_floats(self, tmp_path, mode):
        """boundary_states.csv is written from t = k*dt and the eta and psi
        of the loops' boundary_states() with no float() coercion."""
        cfg = parse_config(f"mode = {mode}\nhorizon = 0.05\nspectral_summary = false\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / mode))
        for key in ("t", "eta", "psi"):
            assert len(result.boundary[key]) == 11
            assert all(type(v) is float for v in result.boundary[key]), key

    @pytest.mark.parametrize("mode", ["open_plant", "observer_loop", "eso_loop"])
    def test_block_energies_match_per_step(self, tmp_path, mode):
        """Traces filled a block at a time hold exactly the energies of the
        loop stepped by hand, over several full blocks and a partial one."""
        text = f"mode = {mode}\nu0 = 0 0 -3 1\nv0 = 0 0 0 -2\nuhat0 = 0 0 0 -2\n" \
               f"d_kind = cosine\nf_kind = sin_of_tip\nstride = 1000\nspectral_summary = false\n"
        loop = _build_loop(parse_config(text))
        block = max(1, ENERGY_BLOCK_BYTES // loop.levels.curr.nbytes)
        n_steps = 3 * block + block // 2
        cfg = parse_config(text + f"horizon = {n_steps * loop.grid.dt!r}\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / mode))
        tags = [tag for _, tag in loop.energy_rows]
        times, expected = [], {f"{name}_{tag}": [] for name, tag in loop.energy_rows}
        for k in range(n_steps + 1):
            if k:
                loop.step()
            times.append(k * loop.grid.dt)
            values = energies(tags, loop.levels.prev, loop.levels.curr,
                              loop.boundary_states()[2], loop.params, loop.grid)
            for column, value in zip(expected.values(), values):
                column.append(value)
        assert set(result.energy_traces) == set(expected)
        for key, trace in result.energy_traces.items():
            assert list(trace.times) == times
            assert list(trace.values) == expected[key], key

    def test_coarsest_grid_runs(self, tmp_path):
        cfg = parse_config("preset = reproduce_sec4\nn_cells = 3\nhorizon = 0.5\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / "out"))
        assert len(result.energy_traces["u_H1"]) == 1 + int(round(0.5 / (0.5 / 3)))
        assert "spectral abscissa combined" in (tmp_path / "out" / "summary.txt").read_text()

    def test_contour_failure_skips_spectral_summary(self, tmp_path):
        """Abb's contour sweep fails at gamma = 1.0001: the run still writes
        its summary, with a warning in place of the abscissae."""
        cfg = parse_config("preset = reproduce_sec4\ngamma = 1.0001\nhorizon = 0.2\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / "out"))
        assert result.abscissae == {}
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert f"warning: spectral summary skipped: {ABB_CONTOUR_FAILURE}" in summary
        assert not any(line.startswith("spectral abscissa") for line in summary)

    def test_missing_branch_skips_spectral_summary(self, tmp_path, monkeypatch):
        """Newton for branch 15 lands on branch 14's root, which leaves
        branches 15 and -15 without a root: the observer loop's summary
        warns instead of printing abscissae."""
        monkeypatch.setattr(spectral, "refine_root", lands_on_neighbour(spectral.refine_root))
        cfg = parse_config("preset = counterexample_sec3\nhorizon = 0.2\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / "out"))
        assert result.abscissae == {}
        warning = ("spectral summary skipped: family A: no root on 2 of the branches "
                   "|n| <= 40: -15, 15")
        assert result.warnings == [warning]
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert f"warning: {warning}" in summary

    def test_snapshots_closed_on_blow_up(self, tmp_path, monkeypatch):
        """While a blow-up is being handled, each snapshot file already
        holds every snapshot taken, byte for byte the %r template's lines,
        though the last batch was still queued when the run raised."""
        taken = []
        real = _RecordWriter.snapshot

        def snapshot(self, t, rows):
            taken.append((t, [row.copy() for row in rows], self.snapshots.size))
            real(self, t, rows)

        monkeypatch.setattr(_RecordWriter, "snapshot", snapshot)
        cfg = parse_config("mode = open_plant\nhorizon = 2\nu0 = 0 9e11\n"
                           "d_kind = constant\nd_constant = 1e14\nstride = 20\n")
        out = tmp_path / "out"
        with pytest.raises(BlowUpError):
            try:
                run_scenario(cfg, out_dir=str(out))
            except BlowUpError:
                text = (out / "snapshots_u.csv").read_text()
                raise
        assert len(taken) % taken[0][2] != 0
        assert text == "t,x,value\n" + template_lines(cfg.grid().nodes(), [
            (t, rows[0]) for t, rows, _ in taken])

    def test_records_written_before_blow_up(self, tmp_path):
        """The energy traces and boundary states go out every chunk of
        records, here 4 of the energy recorder's 81-level blocks at 3 x 101
        nodes, the least multiple of a block of at least RECORD_CHUNK
        records, so a run that blows up leaves every record of its written
        chunks, byte for byte those of a run that stops there."""
        block = ENERGY_BLOCK_BYTES // (3 * 101 * 8)
        chunk = -(-RECORD_CHUNK // block) * block
        assert (block, chunk) == (81, 324)
        text = ("mode = eso_loop\nd_kind = table\nd_table = 0:0 2:0 3:1e17\n"
                "spectral_summary = false\n")
        with pytest.raises(BlowUpError) as err:
            run_scenario(parse_config(text + "horizon = 4\n"), out_dir=str(tmp_path / "blown"))
        assert chunk < err.value.step_index < 2 * chunk
        short = parse_config(text + f"horizon = {(chunk - 1) * 0.005!r}\n")
        run_scenario(short, out_dir=str(tmp_path / "short"))
        for name in ("energy_u_H1.csv", "energy_v_Hbb1.csv", "energy_q_Hbb1.csv",
                     "boundary_states.csv"):
            blown = (tmp_path / "blown" / name).read_bytes()
            assert blown.count(b"\n") == 1 + chunk
            assert blown == (tmp_path / "short" / name).read_bytes()

    @pytest.mark.parametrize("text", [
        "preset = reproduce_sec4\nhorizon = 10\n",
        "preset = counterexample_sec3\nn_cells = 1600\nstride = 320\nhorizon = 0.2\n",
    ], ids=["sec4", "observer_n1600"])
    def test_only_the_last_energy_block_is_partial(self, tmp_path, monkeypatch, text):
        """The record CSVs go out at whole energy blocks (81 levels at 3 x 101
        nodes, 5 at 3 x 1601), so the recorder measures every block but the
        run's last through its one pass, and calls ``energies`` at most once."""
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return energies(*args, **kwargs)

        monkeypatch.setattr(tipwave.energy, "energies", counted)
        cfg = parse_config(text + "spectral_summary = false\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / "out"))
        assert len(result.boundary["t"]) == 1 + round(cfg.horizon / cfg.grid().dt)
        assert calls[0] <= 1

    def test_spectrum_run_never_imports_textfmt(self, tmp_path):
        """Only the time-domain writer loads textfmt, so a spectrum run's
        peak RSS carries none of its compile and tables."""
        code = ("import sys\nfrom tipwave.scenarios import parse_config, run_scenario\n"
                "config = parse_config('mode = spectrum\\nfamily = A\\nn_max = 20\\n')\n"
                "run_scenario(config, out_dir=sys.argv[1])\n"
                "print('tipwave.textfmt' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tipwave.__file__))}
        result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                                env=env, check=True, capture_output=True, text=True)
        assert result.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "out" / "spectrum_A.csv").exists()

    def test_summary_prints_plain_floats(self, short_run):
        assert "np.float64" not in open(short_run.summary_path).read()

    def test_clamped_table_warns_once(self, tmp_path):
        cfg = parse_config("mode = open_plant\nn_cells = 10\nhorizon = 0.5\n"
                           "d_kind = table\nd_table = 0:0 0.1:1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            run_scenario(cfg, out_dir=str(tmp_path / "table"))
        assert [str(w.message) for w in caught] == [
            "time outside table domain [0.0, 0.1]; clamping"]

    def test_observer_summary_includes_abscissae(self, tmp_path):
        cfg = parse_config("mode = observer_loop\nhorizon = 1\n"
                           "u0 = 0 0 -3 1\nuhat0 = 0 0 0 -2\nn_max = 10\n")
        result = run_scenario(cfg, out_dir=str(tmp_path / "obs"))
        assert set(result.abscissae) == {"A", "A2", "combined"}
        assert result.abscissae["combined"] == pytest.approx(-0.0228969, abs=1e-4)


def template_lines(x, snapshots):
    """The %r template oracle: a ``T,<x>,%r`` line per node, each snapshot's
    ``repr(t)`` in place of T and its values filled in with one ``%``."""
    template = "".join([f"T,{xj!r},%r\n" for xj in x.tolist()])
    return "".join([template.replace("T", repr(t)) % tuple(values.tolist())
                    for t, values in snapshots])


def write_snapshots_per_node(path, x, snapshots):
    """The reference writer: every node formatted through NumPy scalars."""
    with open(path, "w", newline="") as fh:
        fh.write("t,x,value\n")
        for t, values in snapshots:
            for xj, vj in zip(x, values):
                fh.write(f"{float(t)!r},{float(xj)!r},{float(vj)!r}\n")


SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  2.2250738585072014e-308, 1e-300, 1e308, -1e308,
                  1.7976931348623157e308, -1.7976931348623157e308,
                  1.0, -3.0, 1e16, 1e22, 2.0 ** 53, 123456789.0, 0.1, -2.0 / 3.0,
                  math.nan, math.inf, -math.inf)


class TestSnapshotWriter:
    @given(n_cells=st.integers(3, 2000),
           r=st.sampled_from([0.5, 1.0, 0.3, 0.25, 0.9]),
           fields=st.integers(1, 3),
           ks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3, unique=True),
           extra=st.lists(st.floats(), max_size=20),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_node_writer(self, tmp_path_factory, n_cells, r, fields, ks, extra,
                                     seed):
        """Snapshots go out in batches of as many as hold BATCH_VALUES
        values of a field, one at least: a file holds every whole batch
        queued so far, and the last batch when the files close."""
        grid = Grid(n_cells=n_cells, r=r)
        rng = np.random.default_rng(seed)
        n = grid.n_nodes
        names = ["u", "v", "q"][:fields]
        snapshots = []
        for k in sorted(ks):
            # magnitudes 1e-300..1e300, values in 1e-4 <= |v| < 10 (long and
            # short reprs), special values (NaN and +-inf too), integral
            # floats and arbitrary doubles, mixed along the row
            shape = (fields, n)
            values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
            pick = rng.random(shape)
            values = np.where(pick < 0.2, rng.choice(SPECIAL_VALUES, shape), values)
            values = np.where((pick >= 0.2) & (pick < 0.3),
                              np.round(rng.uniform(-1e6, 1e6, shape)), values)
            window = rng.uniform(-10, 10, shape)
            values = np.where((pick >= 0.3) & (pick < 0.6), window, values)
            values = np.where((pick >= 0.6) & (pick < 0.7), np.round(window, 4), values)
            values[0, rng.integers(0, n, len(extra))] = extra
            snapshots.append((k * grid.dt, values))
        out = tmp_path_factory.mktemp("snap")
        size = max(1, BATCH_VALUES // n)
        with contextlib.ExitStack() as stack:
            writer = _RecordWriter(stack, str(out), names, grid.nodes(), {})
            for taken, (t, values) in enumerate(snapshots, start=1):
                writer.snapshot(t, list(values))
                written = taken - taken % size
                for name in names:
                    assert (out / f"snapshots_{name}.csv").read_bytes().count(b"\n") == \
                        1 + written * n
        for i, name in enumerate(names):
            write_snapshots_per_node(out / "expected.csv", grid.nodes(),
                                     [(t, values[i]) for t, values in snapshots])
            assert (out / f"snapshots_{name}.csv").read_bytes() == \
                (out / "expected.csv").read_bytes()

    @pytest.mark.parametrize("text, size", [
        ("preset = reproduce_sec4\nhorizon = 0.5\n", 20),
        ("preset = reproduce_sec4\nn_cells = 800\nhorizon = 0.05\n", 2),
    ], ids=["303_values", "2403_values"])
    def test_sec4_snapshots_either_side_of_threshold(self, tmp_path, monkeypatch, text, size):
        """reproduce_sec4 queues up to 20 snapshots of 101 values a field
        (its 6 here go out as the files close) and 2 of 801, as BATCH_VALUES
        allows; both write the lines of the %r template, formatted here row
        by row."""
        seen = []
        real = _RecordWriter.snapshot

        def snapshot(self, t, rows):
            seen.append((t, [row.copy() for row in rows], self.snapshots.size))
            real(self, t, rows)

        monkeypatch.setattr(_RecordWriter, "snapshot", snapshot)
        cfg = parse_config(text + "spectral_summary = false\n")
        run_scenario(cfg, out_dir=str(tmp_path))
        assert {batch for *_, batch in seen} == {size}
        for i, name in enumerate(("u", "v", "q")):
            expected = "t,x,value\n" + template_lines(cfg.grid().nodes(), [
                (t, rows[i]) for t, rows, _ in seen])
            assert (tmp_path / f"snapshots_{name}.csv").read_text() == expected


# sha256 of every artifact: the CSVs were recorded before the loops were
# stacked into one array per time level, summary.txt before the boundary
# samples moved into one history per loop, the spectrum cases before the
# root dedupe became a windowed scan, sec4_n1600 before the snapshot
# writer formatted from Python floats; all must reproduce byte for byte
GOLDEN = {
    "sec4": ("preset = reproduce_sec4\nhorizon = 0.5\n", {
        "boundary_states.csv": "a5e42e0812cb16247655ecf23f56144f8614f73f049131b2a54c461791609f53",
        "energy_q_Hbb1.csv": "81c46ab1511e11e139f033c32e6ac5a905d10306bc36b2b93ced9008fd95da46",
        "energy_u_H1.csv": "715c6c3241c6bd56c0f53bb3128c6874ee27ee67c2e0680ba294292335449881",
        "energy_v_Hbb1.csv": "fb736ccaa4d3b131903d20955bfd93f2100146fac7364c1407bc55aa4d643031",
        "snapshots_q.csv": "55c825fa9362bcf1a190f558b61f056e78378605f89fc89661b84357ad5ca9af",
        "snapshots_u.csv": "9581acd01dae309c9e729c7f1d6a8a009084b83b62ed8dfaec6fd54667554ff4",
        "snapshots_v.csv": "313c8e53fdd58bed7c0c2bcc7b1d72bac6d07dda0a56c77454dc37b125bb5e77",
        "summary.txt": "94667d266fdb6a16eb66cdf964e5b42533ac9e2c874a8bdba91acb9fd14282ce",
    }),
    # node reprs such as 0.021875000000000002 at 1601 nodes
    "sec4_n1600": ("preset = reproduce_sec4\nn_cells = 1600\nhorizon = 0.05\n"
                   "spectral_summary = false\n", {
        "boundary_states.csv": "66dacb9131ab681565e0e05f5397a774fdcd3ee494064d90a3d6a8747dbbb849",
        "energy_q_Hbb1.csv": "052c45c28e9c6121aae8d5b0a9a226ff065f6a80ae8825cf9a04d6b20d1fb1ec",
        "energy_u_H1.csv": "6dae7005a5a58eaab96ccdcfc7e060bfbf6c98be139342108f91ae28075f9b42",
        "energy_v_Hbb1.csv": "876c577cba9382fd80f4f4fbefdac70d517e81ced01e53c5019dc459690ff127",
        "snapshots_q.csv": "14dfcee3c08fa7902538af85a1dd86050eadbbcc7bd6af7355697ada99275ad8",
        "snapshots_u.csv": "c00a31f25919242fc60dbc77f15c71841250a21fdea7d693950fe4707a65e0cf",
        "snapshots_v.csv": "8661a628d1a54f61f83d3d4ee2abe0f844780c0ef2f663007619f87b2dae7ba2",
        "summary.txt": "3d3881f6c93152610e00ecb22fe6970d14dc54f8fa660144c68866974b344382",
    }),
    "counterexample": ("preset = counterexample_sec3\nhorizon = 0.5\n", {
        "boundary_states.csv": "0b79cff00fc7fdb3ac4a42c257ebe617ff9f600d5ff02db35c70eb25c84b2386",
        "energy_err_H2.csv": "2db6dc8046d75ca64fa8149a8242ad49eaa4861c20ed25c3ba653980d407a4ea",
        "energy_u_H1.csv": "2e4b860dc349bc11f7c2ff809c26c9e83f25f43cdb3bdfdb60b60a1f86f924fc",
        "energy_uhat_H2.csv": "6053d61c19a38fd7f2d78b470b930cacb622df4e0c1a3cf6385eb7302143d983",
        "snapshots_u.csv": "1bfd0eddaba947a4f06e89078a15df9270b06221b2097b4e8b1c92c3f329821e",
        "snapshots_uhat.csv": "8608bb8c82bf8c54c5807e0be491186221004ad9582d337e9d518d252995a206",
        "summary.txt": "ac44ad4670600cfb842374b0e7032efae8787b94710b440845628d94f7a1ea53",
    }),
    "open_plant": ("mode = open_plant\nhorizon = 0.5\nu0 = 0 0 -3 1\nut0 = 0 0.5\n"
                   "f_kind = sin_of_tip\nd_kind = cosine\nstride = 10\n", {
        "boundary_states.csv": "f7ddc31a03b3fb7413f22fa822c36b4ed5f46521b43dab95e286dd8c1400dc03",
        "energy_u_H1.csv": "1cef2d77e5732494866a01a076298a20d86afba2a7f47be6088ab2bf3452acab",
        "snapshots_u.csv": "44e7803af914cf9ff6f82c8ea126ada83281709a9bb18da7a4352e6b5e14ba81",
        "summary.txt": "560e9564eb968cb7d784280971deeee9a22a624b3fb5828e63c3a64d3a233dcd",
    }),
    "spectrum_A2": ("mode = spectrum\nfamily = A2\nn_max = 200\n", {
        "spectrum_A2.csv": "b95adabfeede6ef976f88889dbaa57203d3c4398a0b868adbead55686a275e8e",
        "summary.txt": "4269655a5677bec8207a780c053962d76bdf37f53eb4c77c50be6282c9ffc0b4",
    }),
    "spectrum_A": ("mode = spectrum\nfamily = A\nn_max = 200\n", {
        "spectrum_A.csv": "ca240fdca762da3d201aa0fa43960c3d759a1bf3450c5a2db8a986cbddf71558",
        "summary.txt": "81bb11773b79c4ea8881b19a9b474ecdb555b5fc4f42c2803a07bcc79130d2e5",
    }),
    "spectrum_Abb": ("mode = spectrum\nfamily = Abb\nn_max = 200\n", {
        "spectrum_Abb.csv": "0d3fa37179d17ec87e0e461ffcfa7fec0517318bf1593ec86a53ebd90d8eb0c8",
        "summary.txt": "144791b123e2aadacab108310374d1affce0218a69482f3d56a0685ef3f3fb32",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_artifacts(tmp_path, name):
    text, expected = GOLDEN[name]
    out = tmp_path / name
    run_scenario(parse_config(text), out_dir=str(out))
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in os.listdir(out)}
    assert digests == expected


class TestCli:
    def write_cfg(self, tmp_path, text):
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        return str(path)

    def test_simulate_success(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\nhorizon = 0.5\n"
                                       "spectral_summary = false\n")
        code = cli_main(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "artifacts written" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "mode = warp\n")
        assert cli_main(["simulate", cfg]) == 1

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--family", "X", "scenario.cfg"],
        ["spectrum", "--n-max", "abc", "scenario.cfg"],
        [],
    ], ids=["unknown_family", "non_integer_n_max", "no_subcommand"])
    def test_usage_error_exit_code(self, argv, capsys):
        """argparse's own usage exit, 2, is the CLI's blow-up code."""
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: tipwave") and "error: " in err

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["spectrum", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tipwave spectrum")

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "scenario.cfg"
        path.write_bytes(b"\xffpreset = reproduce_sec4\n")
        out = tmp_path / "out"
        assert cli_main(["simulate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_empty_profile_is_config_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\n")
        out = tmp_path / "out"
        assert cli_main(["simulate", cfg, "--override", "u0=", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: u0 needs at least one coefficient, got ()\n"
        assert not out.exists()

    @pytest.mark.parametrize("r", ["1e-300", "1e-160", "1e-155"])
    def test_underflowing_time_step_is_config_error(self, tmp_path, capsys, r):
        """At r = 1e-300 r**2, which the closures divide by, is 0; at 1e-160
        dt**2, which the ESO control law divides by, is 0; at 1e-155 dt**2
        is subnormal and its reciprocal overflows. Each grid is refused
        while the config is read: one line, exit 1, no output directory."""
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\n")
        out = tmp_path / "out"
        assert cli_main(["simulate", cfg, "--override", f"r={r}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: time step dt = ") and err.count("\n") == 1
        assert err.endswith(" is too small: dt**2 underflows\n")
        assert not out.exists()

    def test_blow_up_exit_code(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "mode = open_plant\nhorizon = 2\n"
                                       "u0 = 0 9e11\nd_kind = constant\n"
                                       "d_constant = 1e14\n")
        code = cli_main(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "blow-up" in capsys.readouterr().err

    def test_threshold_exit_code(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\nhorizon = 1\n"
                                       "spectral_summary = false\n"
                                       "threshold_plant_energy_ratio = 1e-9\n")
        assert cli_main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 3

    def test_bounded_factor_exit_code(self, tmp_path):
        """A run always exceeds a factor below 1 times its own early peak."""
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\nhorizon = 4\n"
                                       "spectral_summary = false\n"
                                       "threshold_bounded_factor = 0.01\n")
        assert cli_main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 3
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        fails = [line for line in summary if line.startswith("FAIL: ")]
        assert len(fails) == 1 and fails[0].startswith("FAIL: boundedness: sup 11.9992")

    def test_bounded_factor_needs_horizon_past_early_window(self, tmp_path, capsys):
        """At horizon <= 2 the supremum is the early peak, so any factor >= 1 passes."""
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\nhorizon = 1\n"
                                       "spectral_summary = false\n"
                                       "threshold_bounded_factor = 10\n")
        assert cli_main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "threshold_bounded_factor needs horizon > 2.0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_override_flag(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\nhorizon = 1\n"
                                       "spectral_summary = false\n")
        out = tmp_path / "out"
        code = cli_main(["simulate", cfg, "--out", str(out),
                         "--override", "horizon=0.25", "--override", "stride=10"])
        assert code == 0
        lines = open(out / "energy_u_H1.csv").read().splitlines()
        assert len(lines) == 2 + int(round(0.25 / 0.005))

    def test_spectrum_hypothesis_violation_is_config_error(self, tmp_path, capsys):
        """Caught while parsing, so no output directory is created."""
        cfg = self.write_cfg(tmp_path, "m = 2\na = 2\n")
        code = cli_main(["spectrum", "--family", "A", "--n-max", "10", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "m != a" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_spectrum_contour_failure(self, tmp_path, capsys):
        """A failed contour sweep is one line and exit 1, with no output directory."""
        cfg = self.write_cfg(tmp_path, "gamma = 1.0001\n")
        code = cli_main(["spectrum", "--family", "Abb", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == \
            f"spectral error: {ABB_CONTOUR_FAILURE}\n"
        assert not (tmp_path / "out").exists()

    def test_spectrum_edge_too_long_to_sample(self, tmp_path, capsys):
        """At m = a + 1e-9 family A's sweep box reaches Re L = -1e9, whose
        bottom edge would take 5e9 samples: the sweep stops before sampling
        it, with one line and exit 1, and a time-domain run skips its
        spectral summary with a warning."""
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\n")
        code = cli_main(["spectrum", "--family", "A", cfg, "--out", str(tmp_path / "out"),
                         "--override", "m=2.000000001"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("spectral error: contour edge (-99999991") and err.count("\n") == 1
        assert err.endswith(" needs more than 200000 samples\n")
        assert not (tmp_path / "out").exists()
        code = cli_main(["simulate", cfg, "--out", str(tmp_path / "run"),
                         "--override", "m=2.000000001", "--override", "horizon=0.2"])
        assert code == 0
        assert capsys.readouterr().err == f"warning: spectral summary skipped: {err[16:]}"

    def test_profile_overflowing_on_grid(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["simulate", cfg, "--override", "u0=1e308 1e308",
                             "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            "config error: u0 = (1e+308, 1e+308) is not finite on the grid\n"
        assert not out.exists()

    def test_grid_too_large_to_allocate(self, tmp_path, capsys):
        """A grid whose nodes NumPy refuses at once (72.8 TiB) is one config
        error line naming n_cells, not a MemoryError traceback."""
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\n")
        out = tmp_path / "out"
        code = cli_main(["simulate", cfg, "--override", "n_cells=10000000000000",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: n_cells = 10000000000000 is too large: the grid's "
            "10000000000001 nodes cannot be allocated\n")
        assert not out.exists()

    def test_spectrum_missing_branch(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "refine_root", lands_on_neighbour(spectral.refine_root))
        cfg = self.write_cfg(tmp_path, "")
        code = cli_main(["spectrum", "--family", "A2", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "spectral error: family A2: no root on 2 of the branches |n| <= 100: -15, 15\n")
        assert not (tmp_path / "out").exists()

    def test_simulate_on_spectrum_config(self, tmp_path, capsys):
        """simulate runs a spectrum config through the same path as spectrum:
        a failed sweep is one line and exit 1, a working one prints its abscissa."""
        cfg = self.write_cfg(tmp_path, "mode = spectrum\nfamily = Abb\ngamma = 1.0001\n")
        assert cli_main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == (
            "", f"spectral error: {ABB_CONTOUR_FAILURE}\n")
        assert not (tmp_path / "out").exists()
        code = cli_main(["simulate", cfg, "--out", str(tmp_path / "out"),
                         "--override", "gamma=1.5", "--override", "n_max=5"])
        assert code == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith("spectral abscissa Abb = -0.67205")
        assert out.endswith(f"artifacts written to {tmp_path / 'out'}\n")

    def test_spectrum_prints_no_other_familys_warning(self, tmp_path, capsys):
        """m = a breaks only family A's hypothesis, which an A2 spectrum never reads."""
        cfg = self.write_cfg(tmp_path, "m = 2\na = 2\n")
        code = cli_main(["spectrum", "--family", "A2", "--n-max", "5", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 2

    @pytest.mark.parametrize("command", ["simulate", "spectrum"])
    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_cannot_be_created(self, tmp_path, capsys, command, out):
        """An --out naming a regular file, or a path through one, is one
        ``output error:`` line and exit 1, not a traceback."""
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\nhorizon = 0.2\n"
                                       "spectral_summary = false\n")
        (tmp_path / "file").write_text("not a directory\n")
        args = [command, cfg, "--out", str(tmp_path / out)]
        if command == "spectrum":
            args[1:1] = ["--family", "A", "--n-max", "5"]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: [Errno ") and err.count("\n") == 1
        assert str(tmp_path / out) in err
        assert (tmp_path / "file").read_text() == "not a directory\n"

    def test_simulate_warns_when_spectral_summary_skipped(self, tmp_path, capsys):
        """The warning reaches stderr, not only summary.txt, and the run still
        exits 0; a broken hypothesis, already printed, is not repeated."""
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\n")
        code = cli_main(["simulate", cfg, "--out", str(tmp_path / "out"),
                         "--override", "gamma=1.0001", "--override", "horizon=0.2"])
        assert code == 0
        assert capsys.readouterr().err == (
            f"warning: spectral summary skipped: {ABB_CONTOUR_FAILURE}\n")
        code = cli_main(["simulate", cfg, "--out", str(tmp_path / "out1"),
                         "--override", "gamma=1", "--override", "horizon=0.2"])
        assert code == 0
        assert capsys.readouterr().err == "warning: gamma = 1 violates the stability hypotheses\n"

    def test_spectrum_subcommand(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "m = 5\nalpha = 2\na = 2\nbeta = 1.5\ngamma = 1.5\n")
        code = cli_main(["spectrum", "--family", "A", "--n-max", "15", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert "spectral abscissa A" in capsys.readouterr().out
        assert os.path.exists(tmp_path / "out" / "spectrum_A.csv")

    def test_report_refits(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\nhorizon = 6\n"
                                       "spectral_summary = false\n")
        out = tmp_path / "out"
        assert cli_main(["simulate", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "u_H1: fitted energy rate" in text
        assert os.path.exists(out / "report.txt")
        # the traces read back fit to the rates the run printed, digit for digit
        summary = re.findall(r"^fitted energy rate (\S+) = (\S+) \(state rate (\S+)\)$",
                             (out / "summary.txt").read_text(), re.M)
        report = re.findall(r"^(\S+): fitted energy rate = (\S+) \(state rate (\S+)\)$",
                            (out / "report.txt").read_text(), re.M)
        assert sorted(summary) == sorted(report)
        assert {key for key, _, _ in report} == {"u_H1", "v_Hbb1", "q_Hbb1"}

    def test_report_empty_dir(self, tmp_path):
        assert cli_main(["report", str(tmp_path)]) == 1

    @pytest.mark.parametrize("row,reason", [
        ("abc,2", "expected t,E,H1, got 'abc,2'"),
        ("0.0,-1.0,H1", "energy must be nonnegative, got -1.0"),
    ], ids=["two_fields", "negative_energy"])
    def test_report_malformed_trace(self, tmp_path, capsys, row, reason):
        """One line naming the file and line, exit 1, and no report."""
        path = tmp_path / "energy_u_H1.csv"
        path.write_text(f"t,E,tag\n{row}\n")
        assert cli_main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"report error: {path}, line 2: {reason}\n"
        assert not (tmp_path / "report.txt").exists()

    def test_report_nan_row(self, tmp_path, capsys):
        """A NaN row amid a fittable trace is an error, not a fitted rate."""
        rows = [f"{0.01 * k!r},{math.exp(-0.02 * k)!r},H1" for k in range(3000)]
        rows[1500] = "nan,nan,H1"
        path = tmp_path / "energy_u_H1.csv"
        path.write_text("t,E,tag\n" + "\n".join(rows) + "\n")
        assert cli_main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"report error: {path}, line 1502: times must be finite and strictly "
            f"increasing, got nan\n")
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("text", ["", "t,E\n0.0,1.0,H1\n"], ids=["empty_file", "other_header"])
    def test_report_missing_header(self, tmp_path, capsys, text):
        """A trace without its header, a 0-byte file too, is malformed:
        exit 1 with one line naming the file, and no report."""
        path, header = tmp_path / "energy_u_H1.csv", text.split("\n")[0]
        path.write_text(text)
        assert cli_main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"report error: {path}, line 1: expected the header t,E,tag, got {header!r}\n")
        assert not (tmp_path / "report.txt").exists()

    def test_report_trace_not_utf8(self, tmp_path, capsys):
        """A byte that is not UTF-8 is a malformed line, whatever the
        locale: exit 1 with one line naming the file and line, and no report."""
        path = tmp_path / "energy_u_H1.csv"
        path.write_bytes(b"t,E,tag\n0.0,1.0,H1\n\xff\n")
        assert cli_main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"report error: {path}, line 3: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1
        assert not (tmp_path / "report.txt").exists()

    def test_report_unwritable_report(self, tmp_path, capsys):
        """A report.txt that cannot be written is one output error, exit 1."""
        (tmp_path / "energy_u_H1.csv").write_text("t,E,tag\n0.0,1.0,H1\n")
        (tmp_path / "report.txt").mkdir()
        assert cli_main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and str(tmp_path / "report.txt") in err
        assert err.count("\n") == 1

    def test_report_header_only(self, tmp_path, capsys):
        """A header with no records is a trace with no samples: no fit."""
        (tmp_path / "energy_u_H1.csv").write_text("t,E,tag\n")
        assert cli_main(["report", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "u_H1: no fit (no samples)"

    def test_report_dir_name_with_glob_metacharacter(self, tmp_path, capsys):
        """A directory named run[1] is searched for its own traces, not
        read as a glob pattern matching run1."""
        out = tmp_path / "run[1]"
        out.mkdir()
        rows = [f"{0.01 * k!r},{math.exp(-0.02 * k)!r},H1" for k in range(3000)]
        (out / "energy_u_H1.csv").write_text("t,E,tag\n" + "\n".join(rows) + "\n")
        assert cli_main(["report", str(out)]) == 0
        assert capsys.readouterr().out.startswith("u_H1: fitted energy rate = ")
        assert (out / "report.txt").read_text().startswith("u_H1: fitted energy rate = ")

    def test_fitted_digits_independent_of_blas_core(self, tmp_path):
        """sec4 at n_cells = 20 (1,600 steps) fits three rates; its
        summary.txt has the same bytes whichever OpenBLAS kernel is picked."""
        cfg = self.write_cfg(tmp_path, "preset = reproduce_sec4\nn_cells = 20\n")
        src = os.path.dirname(os.path.dirname(tipwave.__file__))
        summaries = []
        for core in (None, "Prescott"):
            env = {key: value for key, value in os.environ.items()
                   if key != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = src
            if core:
                env["OPENBLAS_CORETYPE"] = core
            out = tmp_path / f"out_{core}"
            subprocess.run([sys.executable, "-m", "tipwave", "simulate", cfg, "--out", str(out)],
                           env=env, check=True, capture_output=True)
            summaries.append((out / "summary.txt").read_bytes())
        assert summaries[0].count(b"\nfitted energy rate ") == 3
        assert summaries[0] == summaries[1]

    def test_report_tagless_file_name(self, tmp_path, capsys):
        path = tmp_path / "energy_plain.csv"
        path.write_text("t,E,tag\n0.0,1.0,H1\n")
        assert cli_main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"report error: {path}: expected a file name energy_<row>_<tag>.csv\n")
        assert not (tmp_path / "report.txt").exists()
