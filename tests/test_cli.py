"""Config parsing, pipeline presets, exports, and the command-line surface."""

import filecmp
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from tubeflow import cli
from tubeflow.cli import (
    _FIELD_NAMES,
    RunConfig,
    export_bundle,
    main,
    parse_config_text,
    run_pipeline,
    sample_fields,
)
from tubeflow.coupling import (
    MAX_SWEEPS,
    WallState,
    advance_time_step,
    wall_law_residual,
)
from tubeflow.geometry import CenterCurve
from tubeflow.errors import ConfigurationError, MapError
from tubeflow.expansion import BodyForce
from tubeflow.polydisc import DiscPoly
from tubeflow.pressure import solve_pressures
from tubeflow.verify import bounds


def read_field_csv(path):
    """Re-ingest an exported field file; returns (header, rows array)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


STRAIGHT = {
    "geometry.kind": "straight",
    "bc.p0.inlet": "1.0",
    "bc.p0.outlet": "0.0",
    "grid.n_s1": "33",
    "grid.n_disc": "8",
    "output.stations": "0.5",
}

CURVED = {**STRAIGHT, "geometry.kind": "circular-arc", "geometry.radius": "2.0",
          "eps": "0.05"}

MOVING = {
    "geometry.kind": "straight",
    "wall.law": "elastic", "wall.R0": "1.0", "wall.E": "1e3",
    "wall.h0": "0.1", "wall.p_e": "0.0",
    "bc.p0.inlet": "0:0, 0.5:5, 1:5", "bc.p0.outlet": "0.0",
    "grid.n_s1": "33", "grid.n_disc": "8",
    "time.steady": "false", "time.t_end": "0.3", "time.dt": "0.05",
}


def write_cfg(tmp_path, mapping, name="run.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(f"{k} = {v}" for k, v in mapping.items()) + "\n")
    return path


def spy_runs(monkeypatch):
    """Record (config, result) of each run_pipeline call run_sweep makes."""
    seen = []

    def spy(cfg):
        result = run_pipeline(cfg)
        seen.append((cfg, result))
        return result

    monkeypatch.setattr(cli, "run_pipeline", spy)
    return seen


class TestConfigParsing:
    def test_key_value_lines(self):
        kv = parse_config_text("a.b = 1\n# comment\n\nc = x  # trailing\n")
        assert kv == {"a.b": "1", "c": "x"}

    def test_malformed_line(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("just words\n")

    def test_key_given_twice(self):
        # the second value used to win silently
        with pytest.raises(ConfigurationError,
                           match="line 3: key 'bc.p0.inlet' already given "
                                 "on line 1"):
            parse_config_text("bc.p0.inlet = 1\neps = 0.1\nbc.p0.inlet = 5\n")

    def test_undecodable_file(self, tmp_path):
        # raised an uncaught UnicodeDecodeError
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfe\x00e\x00p\x00s")
        with pytest.raises(ConfigurationError, match=str(path)):
            RunConfig.from_file(path)

    def test_unknown_key(self):
        # body.b1-b3 are the components of the one key body, not keys
        for key in ("geometry.radius_typo", "body.b1", "body.b2", "body.b3"):
            with pytest.raises(ConfigurationError,
                               match=f"^unknown config key '{key}'$"):
                RunConfig.from_mapping({key: "1"})

    def test_validation(self):
        # the grid, kind and law errors named neither key nor value
        for key, text, message in [
                ("grid.n_s1", "4", "grid.n_s1 = 4 must be at least 8"),
                ("grid.n_disc", "4", "grid.n_disc = 4 must be at least 8"),
                ("eps", "-0.1", "eps = -0.1 must be finite and positive"),
                ("geometry.kind", "moebius",
                 "geometry.kind = 'moebius' must be one of 'straight', "
                 "'circular-arc', 'helix', 'sampled'"),
                ("wall.law", "viscoelastic",
                 "wall.law = 'viscoelastic' must be one of 'rigid', "
                 "'elastic'")]:
            with pytest.raises(ConfigurationError,
                               match=f"^{re.escape(message)}$"):
                RunConfig.from_mapping({key: text})

    def test_time_series_bc(self):
        cfg = RunConfig.from_mapping({"bc.p0.inlet": "0:0, 1:10"})
        assert cfg.bc_p0_inlet(0.5) == 5.0

    def test_bad_value_reported_with_key(self):
        with pytest.raises(ConfigurationError, match="fluid.nu"):
            RunConfig.from_mapping({"fluid.nu": "viscous"})
        with pytest.raises(ConfigurationError, match="body"):
            RunConfig.from_mapping({"body": "0, heavy, 0"})

    @pytest.mark.parametrize("station", ["1.5", "-2"])
    def test_station_outside_pipe_rejected(self, station):
        with pytest.raises(ConfigurationError,
                           match=repr(float(station))):
            RunConfig.from_mapping({"output.stations": f"0.5, {station}"})

    def test_unknown_output_field_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="^output.fields = 'vorticity' must be one "
                                 "of 'u1_0', 'u1_1', "):
            RunConfig.from_mapping({"output.fields": "u1_0, vorticity"})

    def test_all_fields_is_every_exportable_name(self):
        cfg = RunConfig.from_mapping({"output.fields": "all"})
        assert cfg.out_fields == _FIELD_NAMES
        assert {"g", "F", "W"} <= set(cfg.out_fields)

    @pytest.mark.parametrize("key, value", [
        ("fluid.nu", "0"), ("fluid.rho0", "-1"), ("fluid.nu", "nan"),
        ("fluid.rho0", "inf")])
    def test_fluid_parameters_finite_and_positive(self, key, value):
        with pytest.raises(ConfigurationError,
                           match=f"{key} = {float(value)!r}"):
            RunConfig.from_mapping({key: value})

    @pytest.mark.parametrize("key, value, bad", [
        ("eps", "nan", "nan"), ("eps", "inf", "inf"), ("eps", "0", "0.0"),
        ("sweep.eps", "0.05, nan", "nan"), ("sweep.eps", "inf", "inf"),
        ("sweep.eps", "0.05, -0.1", "-0.1")])
    def test_eps_finite_and_positive(self, key, value, bad):
        # eps = nan or inf used to run and pass with NaN station fields
        with pytest.raises(ConfigurationError, match=f"{key} = {bad}"):
            RunConfig.from_mapping({key: value})

    @pytest.mark.parametrize("key, value", [
        ("wall.R0", "nan"), ("wall.R0", "0"), ("wall.E", "nan"),
        ("wall.E", "-1"), ("wall.h0", "inf"), ("wall.h0", "0"),
        ("geometry.length", "0"), ("geometry.length", "nan"),
        ("geometry.radius", "nan"), ("geometry.radius", "-2"),
        ("geometry.a", "0"), ("geometry.a", "inf")])
    def test_wall_and_geometry_finite_and_positive(self, key, value):
        with pytest.raises(ConfigurationError,
                           match=f"{key} = {float(value)!r} must be finite "
                                 "and positive"):
            RunConfig.from_mapping({key: value})

    @pytest.mark.parametrize("key, value", [
        ("wall.p_e", "nan"), ("geometry.b", "inf"), ("body", "0, 0, nan"),
        ("body", "0.3, inf"), ("body", "-inf"), ("bc.p1.inlet", "nan"),
        ("bc.p1.outlet", "inf"), ("bc.p02.inlet", "nan"),
        ("bc.p02.outlet", "-inf"), ("bc.p0.inlet", "inf"),
        ("bc.p0.outlet", "nan"), ("sweep.tau", "0, inf")])
    def test_parameters_finite(self, key, value):
        bad = float(value.split(",")[-1])
        with pytest.raises(ConfigurationError,
                           match=f"{key} = {bad!r} must be finite"):
            RunConfig.from_mapping({key: value})

    @pytest.mark.parametrize("value, bad", [
        ("0, -0.5", "-0.5"), ("nan", "nan"), ("0.5, inf", "inf")])
    def test_sweep_curvature_finite_and_non_negative(self, value, bad):
        # these ran the first sweep cases, then failed on a geometry.a
        # the user never set
        with pytest.raises(ConfigurationError,
                           match=f"sweep.kappa = {bad} must be finite and "
                                 "non-negative"):
            RunConfig.from_mapping({"sweep.kappa": value})

    def test_time_series_knot_times_finite(self):
        # a NaN knot time used to run with zero flow and pass verification
        with pytest.raises(ConfigurationError,
                           match="bc.p0.inlet: .*knot times must be finite"):
            RunConfig.from_mapping({**STRAIGHT, "bc.p0.inlet": "0:0, nan:1"})

    @pytest.mark.parametrize("direction", ["1, 0", "1, 0, 0, 0", "nan, 0, 1"])
    def test_direction_needs_three_components(self, direction):
        with pytest.raises(ConfigurationError, match="direction"):
            RunConfig.from_mapping({"geometry.direction": direction})

    def test_body_is_one_key_of_three_components(self):
        cfg = RunConfig.from_mapping({"body": "0.3, 0, 0"})
        assert cfg.body == (0.3, 0.0, 0.0)
        assert cfg.build_body() == BodyForce(0.3, 0.0, 0.0)
        # a list built in code is checked as each component was
        assert RunConfig(body=[0.3, 0.0, 0.0]).build_body() == \
            cfg.build_body()
        with pytest.raises(ConfigurationError, match="^body = nan must be"):
            RunConfig(body=[0.3, float("nan"), 0.0])

    @pytest.mark.parametrize("body", ["0.3, 0", "", "1, 2, 3, 4"])
    def test_body_needs_three_components(self, body):
        with pytest.raises(ConfigurationError,
                           match=r"^body \(.*\) needs 3 components$"):
            RunConfig.from_mapping({"body": body})

    @pytest.mark.parametrize("t_end", ["0", "-1"])
    def test_unsteady_end_time_must_be_positive(self, t_end):
        with pytest.raises(ConfigurationError, match=repr(float(t_end))):
            RunConfig.from_mapping({"time.steady": "false",
                                    "time.t_end": t_end, "time.dt": "0.1"})

    def test_unsteady_end_time_whole_multiple_of_dt(self):
        # 1.0 / 0.3 used to stop silently at t = 0.9
        with pytest.raises(ConfigurationError, match="1.0.*0.3"):
            RunConfig.from_mapping({"time.steady": "false",
                                    "time.t_end": "1.0", "time.dt": "0.3"})

    @pytest.mark.parametrize("t_end, dt, steps", [
        ("1.0", "0.0025", 400), ("1.0", "0.05", 20), ("0.3", "0.05", 6)])
    def test_whole_step_counts_accepted(self, t_end, dt, steps):
        cfg = RunConfig.from_mapping({"time.steady": "false",
                                      "time.t_end": t_end, "time.dt": dt})
        assert round(cfg.t_end / cfg.dt) == steps

    @pytest.mark.parametrize("t_end, dt", [("1.0", "inf"), ("1e-300", "1e300")])
    def test_unsteady_run_needs_a_step(self, t_end, dt):
        # t_end / dt = 0 passed as a whole number of steps, and the run
        # made none
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"time.dt = {float(dt)!r} makes")):
            RunConfig.from_mapping({"time.steady": "false",
                                    "time.t_end": t_end, "time.dt": dt})

    def test_time_grid_ignored_when_steady(self):
        RunConfig.from_mapping({"time.t_end": "0", "time.dt": "0.3"})

    @pytest.mark.parametrize("text, steady", [
        ("true", True), ("Yes", True), ("1", True), ("TRUE", True),
        ("false", False), ("No", False), ("0", False), ("FALSE", False)])
    def test_steady_flag_values(self, text, steady):
        cfg = RunConfig.from_mapping({"time.steady": text})
        assert cfg.steady is steady

    @pytest.mark.parametrize("text", ["Ture", "unsteady", "2", ""])
    def test_steady_flag_rejects_other_values(self, text):
        # anything but 1/true/yes used to mean an unsteady run
        with pytest.raises(ConfigurationError,
                           match=f"time.steady: {text!r}"):
            RunConfig.from_mapping({"time.steady": text})

    def test_sampled_curve_needs_a_file(self):
        # this failed at solve time on open(''), naming no key
        with pytest.raises(ConfigurationError, match="geometry.file"):
            RunConfig.from_mapping({"geometry.kind": "sampled"})

    def test_zero_direction_rejected(self):
        # this failed at solve time in the frame construction
        with pytest.raises(ConfigurationError,
                           match=r"geometry.direction \(0.0, 0.0, 0.0\)"):
            RunConfig.from_mapping({"geometry.direction": "0, 0, 0"})

    def test_shipped_unsteady_preset_accepted(self):
        root = Path(__file__).resolve().parent.parent
        cfg = RunConfig.from_file(root / "presets" / "elastic_pulse.cfg")
        assert not cfg.steady


class TestPresets:
    def test_edited_config_is_revalidated(self):
        # a config edited after parsing used to run one step to t = dt
        cfg = RunConfig.from_mapping(STRAIGHT)
        with pytest.raises(ConfigurationError, match="t_end"):
            replace(cfg, steady=False, t_end=0.0)

    def test_an_infinite_step_is_rejected(self):
        # zero steps of dt = inf ended in an UnboundLocalError
        cfg = RunConfig.from_mapping(MOVING)
        with pytest.raises(ConfigurationError, match="time.dt = inf"):
            replace(cfg, dt=float("inf"))

    def test_config_is_frozen(self):
        # a sweep once ran every case on one shared, edited config
        cfg = RunConfig.from_mapping(STRAIGHT)
        with pytest.raises(FrozenInstanceError):
            cfg.eps = 0.2
        assert cfg.eps == 0.1

    def test_report_is_the_report_file_less_the_verdict(self, tmp_path):
        res = run_pipeline(RunConfig.from_mapping(CURVED))
        export_bundle(res, tmp_path, fields=False)
        lines = (tmp_path / "verify_report.txt").read_text().splitlines()
        assert lines[-1] == "verdict.passed = True"
        report = res.report()
        assert [line.split(" = ")[0] for line in lines[:-1]] == list(report)
        assert not any(isinstance(v, dict) for v in report.values())

    def test_straight_rigid_zero_corrections(self):
        res = run_pipeline(RunConfig.from_mapping(STRAIGHT))
        mid = 16
        f = res.stations.fields(mid)
        assert f.u1_0.evaluate(0.0, 0.0) == pytest.approx(0.25, abs=1e-10)
        # kappa and p1 are exact zeros; U1/u1_2 inherit solver round-off
        # through the d2p0/d3p0 arrays (exact-domain zeros are unit-tested)
        assert f.u1_1.is_zero()
        assert f.U2[0].is_zero() and f.U2[1].is_zero()
        assert float(f.U1[0].max_abs()) < 1e-12
        assert float(f.U1[1].max_abs()) < 1e-12
        assert float(f.u1_2.max_abs()) < 1e-10
        assert res.verification_passed()

    def test_curved_rigid_skew_toward_normal(self):
        res = run_pipeline(RunConfig.from_mapping(CURVED))
        checks = res.shape_checks
        # kappa > 0, dp0 < 0: evaluated cos-mode amplitude positive inside
        f = res.stations.fields(16)
        amp = (f.u1_1.to_float().evaluate(0.5, 0.0)
               - f.u1_1.to_float().evaluate(-0.5, 0.0)) / 2
        assert amp > 0
        assert checks["u1_1_faster_on_normal_side"]
        assert checks["u1_1_skew_sign_matches_kappa_dp0"]
        assert res.verification_passed()

    @pytest.mark.parametrize("E, max_R", [("2e3", 1.04), ("100", 1.8)])
    def test_steady_elastic_wall_equilibrium(self, E, max_R):
        cfg = RunConfig.from_mapping({
            **STRAIGHT, "wall.law": "elastic", "wall.E": E, "wall.h0": "0.1",
            "bc.p0.inlet": "8"})
        res = run_pipeline(cfg)
        law = cfg.build_wall_law()
        assert wall_law_residual(law, res.pexp.p0, res.wall.R).max() <= 1e-10
        assert res.wall.R.max() == pytest.approx(max_R, abs=1e-9)
        assert res.verification_passed()

    @staticmethod
    def helix_file(tmp_path):
        """Helix (3 cos th, 3 sin th, 4 th) sampled with s over [2, 7]."""
        s = np.linspace(2.0, 7.0, 120)
        th = (s - 2.0) / 5.0
        path = tmp_path / "helix.csv"
        np.savetxt(path, np.column_stack([s, 3 * np.cos(th), 3 * np.sin(th),
                                          4 * th]),
                   delimiter=",", header="s,x,y,z", comments="")
        return path

    def test_sampled_curve_spans_its_arc_length(self, tmp_path):
        res = run_pipeline(RunConfig.from_mapping({
            **STRAIGHT, "geometry.kind": "sampled",
            "geometry.file": str(self.helix_file(tmp_path)),
            "geometry.length": "5.0"}))
        assert res.wall.s1[-1] == 5.0
        assert np.allclose(res.curve.frame(0.0),
                           CenterCurve.helix(3.0, 4.0, 5.0).frame(0.0),
                           atol=1e-6)

    @pytest.mark.parametrize("length", ["1.0", "5.0625"])
    def test_sampled_curve_length_mismatch(self, tmp_path, length):
        cfg = RunConfig.from_mapping({
            **STRAIGHT, "geometry.kind": "sampled",
            "geometry.file": str(self.helix_file(tmp_path)),
            "geometry.length": length})
        with pytest.raises(ConfigurationError,
                           match=rf"{length} differs .* 5\.0 "):
            run_pipeline(cfg)

    def test_one_step_run_has_no_time_derivative(self):
        # start-up rule: the first step has no earlier wall, dt_dp0 = 0
        res = run_pipeline(RunConfig.from_mapping(
            {**MOVING, "time.t_end": "0.05"}))
        assert res.wall.t == 0.05 and len(res.history) == 1
        assert np.all(res.pexp.dt_dp0 == 0.0)

    def test_final_time_derivative_differences_last_two_walls(self):
        cfg = RunConfig.from_mapping({**MOVING, "time.t_end": "0.15"})
        res = run_pipeline(cfg)
        law, fluid, bc = cfg.build_wall_law(), cfg.build_fluid(), cfg.build_bc()
        walls = [WallState.from_radius(res.wall.s1, cfg.wall_R0)]
        for _ in range(3):
            walls.append(advance_time_step(walls[-1], law, fluid, bc, cfg.dt))
        dp0_2, dp0_3 = (solve_pressures(w, fluid, bc, np.zeros(cfg.n_s1),
                                        cfg.build_body()).dp0
                        for w in walls[2:])
        assert np.array_equal(res.wall.R, walls[3].R)
        assert np.array_equal(res.pexp.dt_dp0, (dp0_3 - dp0_2) / cfg.dt)
        assert np.abs(res.pexp.dt_dp0).max() > 0

    def test_moving_wall_radial_boundary(self):
        res = run_pipeline(RunConfig.from_mapping(MOVING))
        checks = res.shape_checks
        assert checks["U1_purely_radial"]
        assert checks["U1_boundary_matches_wall_rate"]
        assert abs(checks["U1_boundary_magnitude"]) > 0
        assert res.verification_passed()


class TestSampling:
    def test_scalar_rows(self):
        res = run_pipeline(RunConfig.from_mapping(STRAIGHT))
        rows = sample_fields(res.stations.fields(16), 8, ["u1_0"])["u1_0"]
        assert len(rows) == 8 * 16
        const = sample_fields(res.stations.fields(16), 8, ["p2"])["p2"]
        assert all(len(r) == 3 for r in const)

    def test_constant_polynomial(self):
        from tubeflow.expansion import ExpansionFields

        one = DiscPoly.constant(1.0)
        zero = DiscPoly.zero()
        f = ExpansionFields(u1_0=one, u1_1=zero, u1_2=zero,
                            U1=(zero, zero), U2=(zero, zero),
                            p2=zero, p3=zero, F=(zero, zero), g=zero)
        rows = sample_fields(f, 8, ["u1_0"])["u1_0"]
        assert all(v == 1.0 for _, _, v in rows)
        vec = sample_fields(f, 8, ["U1"])["U1"]
        assert all(v2 == 0.0 and v3 == 0.0 for _, _, v2, v3 in vec)

    def test_min_resolution(self):
        # sample_fields applies the config's own check of grid.n_disc
        res = run_pipeline(RunConfig.from_mapping(STRAIGHT))
        with pytest.raises(ConfigurationError,
                           match="^grid.n_disc = 4 must be at least 8$"):
            sample_fields(res.stations.fields(0), 4, ["u1_0"])

    def test_unknown_field(self):
        res = run_pipeline(RunConfig.from_mapping(STRAIGHT))
        with pytest.raises(ConfigurationError,
                           match="^output.fields = 'vorticity' must be one "
                                 "of "):
            sample_fields(res.stations.fields(0), 8, ["u1_0", "vorticity"])


class TestCommandLine:
    def test_solve_writes_bundle_and_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, CURVED)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("grids.csv", "verify_report.txt", "residuals.csv",
                     "run_meta.txt", "field_u1_0_station0016.csv",
                     "plot_u1_1_station0016.svg",
                     "solution_station0016.csv"):
            assert (out / name).exists(), name
        text = (out / "verify_report.txt").read_text()
        assert "verdict.passed = True" in text
        # each bound is one report line, in the order the report lists them
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert [k for k in keys if k in bounds(1.0)] == list(bounds(1.0))

    def test_all_fields_exports_every_field(self, tmp_path):
        cfg = write_cfg(tmp_path, {**STRAIGHT, "output.fields": "all"})
        out = tmp_path / "out"
        assert main(["fields", "--config", str(cfg), "--out", str(out)]) == 0
        for name in _FIELD_NAMES:
            assert (out / f"field_{name}_station0016.csv").exists(), name
            assert (out / f"plot_{name}_station0016.svg").exists(), name
        header, _ = read_field_csv(out / "field_F_station0016.csv")
        assert header == ["z2", "z3", "F_2", "F_3"]

    def test_outputs_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, CURVED)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names,
                                                   shallow=False)
        assert not mismatch and not errors

    def test_field_file_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, CURVED)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out", str(out)])
        res = run_pipeline(RunConfig.from_mapping(CURVED))
        header, data = read_field_csv(out / "field_u1_1_station0016.csv")
        assert header == ["z2", "z3", "u1_1"]
        poly = res.stations.fields(16).u1_1.to_float()
        revals = np.array([poly.evaluate(z2, z3) for z2, z3, _ in data])
        assert np.abs(revals - data[:, 2]).max() <= 1e-12

    def test_fields_subcommand_skips_reports(self, tmp_path):
        cfg = write_cfg(tmp_path, STRAIGHT)
        out = tmp_path / "out"
        assert main(["fields", "--config", str(cfg), "--out", str(out)]) == 0
        assert not (out / "verify_report.txt").exists()
        assert (out / "grids.csv").exists()

    def test_body_run_meta_line(self, tmp_path):
        # the line that body.b1 = 0.3 wrote when each component was a key
        cfg = write_cfg(tmp_path, {**STRAIGHT, "body": "0.3, 0, 0"})
        out = tmp_path / "out"
        assert main(["fields", "--config", str(cfg), "--out", str(out)]) == 0
        meta = (out / "run_meta.txt").read_text().splitlines()
        assert "body = (0.3, 0.0, 0.0)" in meta

    def test_verify_subcommand_reports_only(self, tmp_path):
        cfg = write_cfg(tmp_path, STRAIGHT)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "verify_report.txt").exists()
        assert not (out / "grids.csv").exists()

    def test_tables_subcommand(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["tables", "--out", str(out)]) == 0
        assert "all match" in capsys.readouterr().out
        assert (out / "tables_report.txt").exists()

    @pytest.mark.parametrize("command", ["verify", "solve"])
    def test_failed_verdict_exits_2_and_writes_the_bundle(self, tmp_path,
                                                          capsys, command):
        """A soft wall (E = 20) fails the u1 compatibility check: its
        steep outlet layer in R is not resolved on 33 uniform nodes.  This
        is the soft-wall u1 error of ROADMAP items 5 and 7, not an artefact
        of the check's scale."""
        cfg = write_cfg(tmp_path, {
            **STRAIGHT, "wall.law": "elastic", "wall.E": "20",
            "wall.h0": "0.1", "bc.p0.inlet": "8"})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err \
            == "verification failed: compatibility.max_u1_residual\n"
        text = (out / "verify_report.txt").read_bytes()
        report = dict(line.split(" = ") for line in
                      text.decode().splitlines())
        assert report["verdict.passed"] == "False"
        assert float(report["compatibility.max_u1_residual"]) \
            == pytest.approx(0.558, abs=1e-3)
        # tests/bundle_digests.json ("soft_wall_verify") locks the bytes
        assert (out / "residuals.csv").exists()
        if command == "solve":
            for name in ("grids.csv", "run_meta.txt",
                         "solution_station0016.csv",
                         "field_U2_station0016.csv",
                         "plot_U2_station0016.svg"):
                assert (out / name).exists(), name

    def test_sweep_subcommand(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            **STRAIGHT, "sweep.kappa": "0, 0.5", "sweep.tau": "0, 0.25",
            "sweep.eps": "0.05",
        })
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_field_csv(out / "sweep.csv")
        assert header[:3] == ["kappa", "tau", "eps"]
        # kappa = 0 rows keep only tau = 0; curved rows cover both taus
        assert data.shape[0] == 3
        curved_tau = data[(data[:, 0] == 0.5) & (data[:, 1] == 0.25)]
        assert curved_tau[0, 5] > 0  # circulation switched on by torsion

    def test_failed_sweep_cases_exit_2_after_writing_the_csv(
            self, tmp_path, capsys, monkeypatch):
        # run_sweep read no verdict: a sweep whose every case failed
        # verification exited 0
        cfg = write_cfg(tmp_path, {
            **STRAIGHT, "sweep.kappa": "0, 0.5", "sweep.tau": "0, 0.25",
            "sweep.eps": "0.01, 0.04"})
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "pass")]) == 0
        assert capsys.readouterr().err == ""
        reads = []
        failed_checks = cli.PipelineResult.failed_checks

        def count_reads(result):
            reads.append(result.config.eps)
            return failed_checks(result)

        # each case's q0 residual is about 7e-14
        monkeypatch.setattr(cli.verify, "bounds", lambda h: {
            **bounds(h), "conservation.max_q0_residual": 0.0})
        monkeypatch.setattr(cli.PipelineResult, "failed_checks", count_reads)
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "fail")]) == 2
        assert capsys.readouterr().err == "".join(
            f"verification failed: kappa = {k}, tau = {t}, eps = {e}: "
            "conservation.max_q0_residual\n"
            for k, t in ((0.0, 0.0), (0.5, 0.0), (0.5, 0.25))
            for e in (0.01, 0.04))
        # eps enters no check: one read per curve
        assert reads == [0.01, 0.01, 0.01]
        assert ((tmp_path / "fail" / "sweep.csv").read_bytes()
                == (tmp_path / "pass" / "sweep.csv").read_bytes())

    def test_each_sweep_case_keeps_its_own_eps(self, tmp_path, monkeypatch):
        # one config object served every eps, so afterwards each earlier
        # result's config read the last eps
        seen = spy_runs(monkeypatch)
        cfg = RunConfig.from_mapping({**STRAIGHT, "sweep.kappa": "0.5",
                                      "sweep.eps": "0.01, 0.02, 0.04"})
        assert cli.run_sweep(cfg, tmp_path) == 0
        assert [c.eps for c, _ in seen] == [0.01, 0.02, 0.04]
        assert [r.config.eps for _, r in seen] == [0.01, 0.02, 0.04]

    def test_each_sweep_run_is_validated_once(self, tmp_path, monkeypatch):
        # each case is one replace of the parsed config, and a run does not
        # check its config again
        checks, runs = [], []
        validate = RunConfig.__post_init__

        def count_checks(cfg):
            checks.append(cfg)
            validate(cfg)

        def count_runs(cfg):
            runs.append(cfg)
            return run_pipeline(cfg)

        cfg = RunConfig.from_mapping({**STRAIGHT, "sweep.kappa": "0, 0.5",
                                      "sweep.tau": "0, 0.25",
                                      "sweep.eps": "0.05, 0.1"})
        monkeypatch.setattr(RunConfig, "__post_init__", count_checks)
        monkeypatch.setattr(cli, "run_pipeline", count_runs)
        assert cli.run_sweep(cfg, tmp_path) == 0
        assert len(runs) == 6 and checks == runs

    @pytest.mark.parametrize("scale", ["1e200", "1e-160", "1e-200"])
    def test_direction_scale_gives_the_unit_direction_run(self, tmp_path,
                                                          scale):
        # 1e200 gave an all-zero velocity with a passing verdict, 1e-160 a
        # tangent of length 1.0000056 and 1e-200 a "zero vector" error
        base = {**STRAIGHT, "grid.n_s1": "17"}
        runs = {}
        for name, direction in (("unit", "1, 0, 0"),
                                ("scaled", f"{scale}, 0, 0")):
            cfg = write_cfg(tmp_path, {**base, "geometry.direction": direction},
                            name=f"{name}.cfg")
            runs[name] = tmp_path / name
            assert main(["solve", "--config", str(cfg),
                         "--out", str(runs[name])]) == 0
        names = sorted(p.name for p in runs["unit"].glob("solution_station*"))
        assert names
        match, mismatch, errors = filecmp.cmpfiles(
            runs["unit"], runs["scaled"], names, shallow=False)
        assert match == names and not mismatch and not errors

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("geometry.kind = moebius\n")
        assert main(["solve", "--config", str(bad), "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error" in err and str(bad) in err

    def test_short_direction_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**STRAIGHT, "geometry.direction": "1, 0"})
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error [ConfigurationError]" in err and "(1.0, 0.0)" in err

    @pytest.mark.parametrize("key, value", [("fluid.nu", "0"),
                                            ("fluid.rho0", "-1")])
    def test_bad_fluid_is_a_config_error(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path, {**STRAIGHT, key: value})
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error [ConfigurationError]" in err and key in err

    @pytest.mark.parametrize("entries", [
        {"wall.R0": "nan"}, {"body": "nan, 0, 0"}, {"bc.p02.inlet": "nan"},
        {"geometry.length": "0", "output.stations": "0"},
        {"bc.p0.outlet": "nan"}, {"geometry.kind": "sampled"},
        {"geometry.direction": "0, 0, 0"}, {"time.steady": "Ture"}])
    def test_bad_parameter_is_a_config_error(self, tmp_path, capsys, entries):
        # these ended in a SolverError from the tridiagonal solve,
        # geometry.length = 0 in a raw ZeroDivisionError traceback,
        # bc.p0.outlet = nan, a sampled curve without a file and a zero
        # direction in solve-time errors naming no key, and time.steady =
        # Ture in an unsteady run
        cfg = write_cfg(tmp_path, {**STRAIGHT, **entries})
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error [ConfigurationError]" in err
        assert next(iter(entries)) in err

    def test_infinite_step_is_a_config_error(self, tmp_path, capsys):
        # the elastic_pulse preset with time.dt = inf died in a traceback
        root = Path(__file__).resolve().parent.parent
        text = (root / "presets" / "elastic_pulse.cfg").read_text()
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(text.replace("time.dt = 0.05", "time.dt = inf"))
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error [ConfigurationError]" in err and "time.dt = inf" in err

    def test_divergent_wall_prints_its_step_time_and_history(self, tmp_path,
                                                             capsys):
        # the elastic_pulse preset at E = 100 does not converge on its
        # first step (t = 0.05): the error line is followed by that time
        # and the residual of each sweep, and no bundle is written
        root = Path(__file__).resolve().parent.parent
        text = (root / "presets" / "elastic_pulse.cfg").read_text()
        cfg = tmp_path / "soft.cfg"
        cfg.write_text(text.replace("wall.E = 2e3", "wall.E = 100"))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(
            f"error [CouplingDivergenceError] (config {cfg}): wall coupling "
            f"did not converge in {MAX_SWEEPS} iterations")
        assert lines[1] == "the failing wall step ends at t = 0.05"
        assert lines[2] == (f"residual (max |R_law - R|) of each of its "
                            f"{MAX_SWEEPS} sweeps:")
        sweeps = lines[3:]
        assert [line.split(":")[0] for line in sweeps] \
            == [f"  sweep {k}" for k in range(1, MAX_SWEEPS + 1)]
        resids = [float(line.split(":")[1]) for line in sweeps]
        assert resids[-1] == pytest.approx(1.392e-10, rel=1e-3)
        assert not out.exists()

    @pytest.mark.parametrize("rows, says", [
        ("s;x;y;z\n0;0;0;0\n", "expected header 's,x,y,z'"),
        ("s,x,y,z\n0,0,0,0\n1,1,one,0\n", "could not convert"),
        ("s,x,y,z\n0,0,0,0\n1,1,1,0\nnan,2,4,0\n3,3,9,0\n4,4,16,0\n",
         "must be finite"),
        ("s,x,y,z\n0,0,0,0\n", "need at least 4 samples"),
        ("\xffs,x,y,z\n", "can't decode"),
    ], ids=["semicolons", "non-numeric", "nan", "one-row", "undecodable"])
    def test_bad_curve_file_is_a_geometry_error(self, tmp_path, capsys, rows,
                                                says):
        # all but one row escaped as raw ValueError tracebacks; one row
        # was read as a 1-D array and said "need 4 columns"
        curve = tmp_path / "curve.csv"
        curve.write_bytes(rows.encode("latin-1"))   # "\xff" is one byte
        cfg = write_cfg(tmp_path, {**STRAIGHT, "geometry.kind": "sampled",
                                   "geometry.file": str(curve)})
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error [GeometryError]" in err and says in err

    @pytest.mark.parametrize("key, value, bad", [
        ("sweep.kappa", "0.5, -0.5", "-0.5"), ("sweep.kappa", "nan", "nan"),
        ("sweep.tau", "0, inf", "inf")])
    def test_bad_sweep_grid_runs_no_case(self, tmp_path, capsys, key, value,
                                         bad):
        # these ran the first cases, then named geometry.a, not the key
        cfg = write_cfg(tmp_path,
                        {**STRAIGHT, "sweep.kappa": "0.5", key: value})
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{key} = {bad} must be finite" in err
        assert "geometry.a" not in err
        assert not out.exists()

    def test_bad_output_config_writes_nothing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**STRAIGHT,
                                   "output.fields": "u1_0, vorticity"})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "vorticity" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    def test_order_flag_truncates_solution(self, tmp_path):
        cfg = write_cfg(tmp_path, CURVED)
        out0, out2 = tmp_path / "o0", tmp_path / "o2"
        main(["fields", "--config", str(cfg), "--out", str(out0),
              "--order", "0"])
        main(["fields", "--config", str(cfg), "--out", str(out2),
              "--order", "2"])
        _, d0 = read_field_csv(out0 / "solution_station0016.csv")
        _, d2 = read_field_csv(out2 / "solution_station0016.csv")
        assert not np.allclose(d0[:, 2:5], d2[:, 2:5])

    # a usage error exited 2, the code of a failed verdict
    @pytest.mark.parametrize("argv, message", [
        (["solve"], "the following arguments are required: --config"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["solve", "--config", "run.cfg", "--order", "5"],
         "argument --order: invalid choice: 5"),
        # only solve and fields write the solution that --order truncates;
        # the subcommand's own usage names the options it does take
        (["verify", "--config", "run.cfg", "--order", "1"],
         "usage: tubeflow verify [-h] --config CONFIG [--out OUT]\n"
         "tubeflow verify: error: unrecognized arguments: --order 1"),
        (["sweep", "--config", "run.cfg", "--order", "1"],
         "usage: tubeflow sweep [-h] --config CONFIG [--out OUT]\n"
         "tubeflow sweep: error: unrecognized arguments: --order 1"),
    ], ids=["no_config", "unknown_command", "order_5", "verify_order",
            "sweep_order"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: tubeflow") and message in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tubeflow")

    def test_station_node_exported_once(self, tmp_path, monkeypatch):
        # 0.5, 0.5 and 0.501 all resolve to node 32 of 65; the node's
        # files were written once per request
        preset = (Path(__file__).resolve().parent.parent / "presets"
                  / "straight_rigid.cfg").read_text()
        assert "output.stations = 0.5\n" in preset
        (tmp_path / "one.cfg").write_text(preset)
        (tmp_path / "three.cfg").write_text(preset.replace(
            "output.stations = 0.5\n", "output.stations = 0.5, 0.5, 0.501\n"))
        written = []
        write_csv = cli.write_csv
        write_text = Path.write_text

        def record_csv(path, *args, **kwargs):
            written.append(Path(path).name)
            return write_csv(path, *args, **kwargs)

        def record_text(self, *args, **kwargs):
            written.append(self.name)
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(cli, "write_csv", record_csv)
        monkeypatch.setattr(Path, "write_text", record_text)
        assert main(["solve", "--config", str(tmp_path / "three.cfg"),
                     "--out", str(tmp_path / "three")]) == 0
        assert len(written) == len(set(written))
        assert sorted(written) == sorted(p.name for p in
                                         (tmp_path / "three").iterdir())
        assert "solution_station0032.csv" in written
        monkeypatch.undo()

        assert main(["solve", "--config", str(tmp_path / "one.cfg"),
                     "--out", str(tmp_path / "one")]) == 0
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert names == sorted(written)
        # run_meta.txt records the requested stations; all else is the same
        same = [n for n in names if n != "run_meta.txt"]
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "one", tmp_path / "three", same, shallow=False)
        assert match == same and not mismatch and not errors
        meta = [(tmp_path / d / "run_meta.txt").read_text().splitlines()
                for d in ("one", "three")]
        assert [a for a, b in zip(*meta, strict=True) if a != b] \
            == ["stations = (0.5,)"]


class TestSweepReuse:
    """A sweep solves each (kappa, tau) curve once: eps enters no solve."""

    def test_one_axis_solve_per_curve(self, tmp_path, monkeypatch):
        # every case ran the whole pipeline again, 6 solves for 2 curves
        solves = []
        solve = cli.pressure.solve_pressures

        def count_solves(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli.pressure, "solve_pressures", count_solves)
        seen = spy_runs(monkeypatch)
        cfg = RunConfig.from_mapping({**STRAIGHT, "sweep.kappa": "0.5",
                                      "sweep.tau": "0, 0.25",
                                      "sweep.eps": "0.01, 0.02, 0.04"})
        assert cli.run_sweep(cfg, tmp_path) == 0
        assert len(seen) == 6 and len(solves) == 2

    def test_each_case_has_the_bits_of_a_fresh_run(self, tmp_path,
                                                    monkeypatch):
        seen = spy_runs(monkeypatch)
        cfg = RunConfig.from_mapping({**STRAIGHT, "sweep.kappa": "0, 0.5",
                                      "sweep.tau": "0, 0.25",
                                      "sweep.eps": "0.01, 0.04"})
        assert cli.run_sweep(cfg, tmp_path / "sweep") == 0
        monkeypatch.undo()
        grid = [(k, t, e) for k, t in ((0.0, 0.0), (0.5, 0.0), (0.5, 0.25))
                for e in (0.01, 0.04)]
        assert [c.eps for c, _ in seen] == [e for _, _, e in grid]
        rows = []
        for (case, result), (kap, tau, eps) in zip(seen, grid, strict=True):
            fresh = run_pipeline(case)
            assert result.config is case and result.config.eps == eps
            assert repr(result.report()) == repr(fresh.report())
            assert result.flow.q0.tobytes() == fresh.flow.q0.tobytes()
            assert result.wall.R.tobytes() == fresh.wall.R.tobytes()
            checks = fresh.shape_checks
            rows.append((kap, tau, eps, fresh.flow.q0[cfg.n_s1 // 2],
                         checks["u1_1_skew_group"],
                         checks["U2_circulation_content"]))
        cli.write_csv(tmp_path / "fresh.csv",
                      ["kappa", "tau", "eps", "Q0_mid", "u1_1_skew_group",
                       "U2_circulation"], rows)
        assert ((tmp_path / "sweep" / "sweep.csv").read_bytes()
                == (tmp_path / "fresh.csv").read_bytes())

    def test_nothing_is_kept_outside_a_sweep(self, tmp_path, monkeypatch):
        cfg = RunConfig.from_mapping(CURVED)
        a, b = run_pipeline(cfg), run_pipeline(cfg)
        assert a.wall is not b.wall and a.pexp is not b.pexp
        seen = spy_runs(monkeypatch)
        sweep = RunConfig.from_mapping({**STRAIGHT, "sweep.kappa": "0.5",
                                        "sweep.eps": "0.05, 2.5"})
        with pytest.raises(MapError):
            cli.run_sweep(sweep, tmp_path)
        monkeypatch.undo()
        case, kept = seen[0]
        a, b = run_pipeline(case), run_pipeline(case)
        assert a.wall is not b.wall and a.pexp is not b.pexp
        assert kept.wall is not a.wall and kept.wall is not b.wall

    def test_an_eps_too_large_still_fails(self, tmp_path, capsys):
        # kappa = 0.5 and R = 1: eps = 1.2 bounds the map at 0.6, which
        # warns, and eps = 2.5 at 1.25, which is not invertible
        entries = {**STRAIGHT, "sweep.kappa": "0.5",
                   "sweep.eps": "0.05, 1.2, 2.5"}
        cfg = RunConfig.from_mapping(entries)
        with pytest.warns(UserWarning, match="= 0.6 > 0.5"), \
                pytest.raises(MapError, match="= 1.25 is not below 1"):
            cli.run_sweep(cfg, tmp_path / "direct")
        path = write_cfg(tmp_path, entries)
        with pytest.warns(UserWarning, match="= 0.6 > 0.5"):
            assert main(["sweep", "--config", str(path),
                         "--out", str(tmp_path / "cli")]) == 1
        assert "error [MapError]" in capsys.readouterr().err

    def test_an_empty_grid_is_a_config_error(self, tmp_path, capsys):
        # a straight axis takes only tau = 0: this wrote a sweep.csv of a
        # header alone and exited 0
        cfg = write_cfg(tmp_path, {**STRAIGHT, "grid.n_s1": "17",
                                   "sweep.kappa": "0", "sweep.tau": "0.25"})
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error [ConfigurationError]" in err
        assert "the sweep grid has no case" in err and "sweep.tau" in err
        assert not out.exists()


class TestSvgEmission:
    def test_svg_well_formed(self, tmp_path):
        cfg = write_cfg(tmp_path, CURVED)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out", str(out)])
        svg = (out / "plot_u1_0_station0016.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polygon" in svg
        quiv = (out / "plot_U1_station0016.svg").read_text()
        assert "line" in quiv


def run_fresh(*args, cwd=None):
    """``python *args`` in a new interpreter that imports this checkout."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_import_leaves_slow_scipy_modules_out():
    # scipy.interpolate and scipy.integrate cost about 0.3 s to import; the
    # first serves only sampled curves, and only the tests use the second
    code = ("import sys, tubeflow, tubeflow.cli; print(sorted(m for m in "
            "('scipy.interpolate', 'scipy.integrate') if m in sys.modules))")
    proc = run_fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_m_tubeflow_runs_the_command_line(tmp_path):
    proc = run_fresh("-m", "tubeflow", "tables", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "total 50 coefficients, all match" in proc.stdout
