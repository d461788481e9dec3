"""End-to-end command line behavior and exit codes."""

import contextlib
import io
import json
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_forge import SolitonSpec, embed_polar, make_builtin_warp
from soliton_forge.cli import main
from soliton_forge.diagnostics import perturb_curve, profile_identities
from soliton_forge.fileio import (export_points_csv, export_profile_csv,
                                  read_profile_csv, read_table)


def run(*argv):
    return main(list(argv))


class TestSolitonCommand:
    def test_bowl_end_to_end(self, tmp_path, capsys):
        code = run("--out", str(tmp_path), "soliton", "bowl", "--K", "-1",
                   "--n", "2", "--c", "1", "--r-max", "6")
        assert code == 0
        assert (tmp_path / "bowl.csv").exists()
        assert (tmp_path / "bowl_diagnostics.json").exists()
        assert (tmp_path / "bowl.obj").exists()
        assert "diagnostics: pass" in capsys.readouterr().out

    def test_curve_short_of_r_max_exits_2(self, tmp_path, capsys):
        # the bowl runs out of arc length (s_max = 1000) at r = 707.6
        code = run("--out", str(tmp_path), "soliton", "bowl", "--K", "-1",
                   "--r-max", "800")
        assert code == 2
        err = capsys.readouterr().err
        assert "stopped by max_arc_length at r = 707.568, short of --r-max 800" in err
        assert (tmp_path / "bowl.csv").exists()

    @pytest.mark.parametrize("family", ["bowl", "wing"])
    def test_readme_curves_reach_r_max(self, tmp_path, capsys, family):
        assert run("--out", str(tmp_path), "soliton", family, "--K", "-1",
                   "--c", "1", "--r-max", "10") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flags, message", [
        (("--segments", "4"), "need at least 8 angular segments"),
        (("--chart", "poincare_disk", "--K", "0"),
         "poincare_disk chart needs constant negative curvature"),
    ], ids=["segments", "chart"])
    def test_mesh_failure_writes_nothing(self, tmp_path, capsys, flags, message):
        # the profile CSV and the diagnostics were written before the mesh
        # failed; now the mesh is built before the first write
        assert run("--out", str(tmp_path), "soliton", "bowl", "--r-max", "5",
                   *flags) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not list(tmp_path.iterdir())

    def test_wing_epsilon_zero_is_usage_error(self, tmp_path):
        assert run("--out", str(tmp_path), "soliton", "wing",
                   "--epsilon", "0") == 1

    @pytest.mark.parametrize("argv, message", [
        (("soliton", "wing", "--epsilon", "12", "--r-max", "10"),
         "wing start radius r=12.0 must lie below the radius stop r_max=10.0"),
        (("soliton", "wing", "--epsilon", "10", "--r-max", "10"),
         "wing start radius r=10.0 must lie below the radius stop r_max=10.0"),
        (("sweep", "--family", "wing", "--epsilons", "0.5,12", "--r-max", "10"),
         "wing start radius r=12.0 must lie below the radius stop r_max=10.0"),
        (("soliton", "bowl", "--r-max", "0"),
         "bowl start radius r=0.0001 must lie below the radius stop r_max=0.0"),
        (("soliton", "ideal", "--r-max", "-1"),
         "ideal start radius r=0.0 must lie below the radius stop r_max=-1.0"),
        (("soliton", "grim", "--n", "3", "--r-max", "0"),
         "graph span end r = 0.0 must lie past its launch r0 = 0.001"),
        (("soliton", "grim", "--r-max", "0"),
         "graph span (-0.0, 0.0) has no end past its start ic[0] = 0.0"),
        (("sweep", "--family", "bowl", "--c-values", "1", "--r-max", "0"),
         "graph span end r = 0.0 must lie past its launch r0 = 0.0001"),
    ], ids=["wing-past", "wing-at", "sweep-wing-past", "bowl", "ideal", "grim-n3",
            "grim-n2", "sweep-bowl"])
    def test_start_past_r_max_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                             argv, message):
        # no root of the radius stop lies ahead of such a start, so the solve
        # would run past it to its arc-length stop, or back onto the
        # singular axis: the solver itself refuses the start before any
        # solve, and the command exits 1 with its message
        from soliton_forge import dop853
        monkeypatch.setattr(dop853, "solve", None)  # no solve may start
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("--out", str(tmp_path), *argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (("soliton", "wing", "--n", "1"), "wing family needs base dimension n >= 2"),
        (("sweep", "--family", "wing", "--n", "1", "--epsilons", "0.5"),
         "wing family needs base dimension n >= 2"),
        (("sweep", "--family", "bowl", "--n", "1", "--c-values", "1"),
         "the bowl graph blows up at r = 1.5708, short of its span (0.0, 10.0)"),
        (("flow", "--n", "1", "--nodes", "201", "--horizon", "0.01"),
         "the bowl graph blows up at r = 1.5708, short of its span (0.0, 10.1)"),
        (("soliton", "ideal", "--c", "1e300"),
         "the ideal profile solve ended by step_failure at r = 0: Required step size"),
        (("soliton", "wing", "--epsilon", "1e-300", "--n", "4"),
         "the wing profile solve ended by step_failure at r = 1e-300: Required step size"),
        (("sweep", "--family", "bowl", "--c-values", "1e300"),
         "the derivative at the start t = 0.0001 is not finite: [5.000000000000001e+295, inf]"),
        (("flow", "--R", "800", "--initial", "flat"),
         "the area weight xi^1 is not finite at r=710.8"),
        (("flow", "--n", "3", "--R", "400", "--initial", "flat", "--nodes", "201",
          "--scheme", "implicit", "--dtau", "1e-3", "--horizon", "0.003"),
         "the area weight xi^2 is not finite at r=356.0"),
    ], ids=["soliton-wing-n1", "sweep-wing-n1", "sweep-bowl-blowup", "flow-blowup",
            "soliton-ideal-no-step", "soliton-wing-no-step", "sweep-bowl-infinite-slope",
            "flow-past-overflow", "flow-weight-overflow"])
    def test_no_solve_that_cannot_succeed_writes(self, tmp_path, capsys, argv, message):
        # a wing's height report divides by n - 1, past its blow-up at
        # r = pi/2 an n = 1 bowl graph's heights reach 9e46, and a speed of
        # 1e300 or a wing start at 1e-300 fails the first step at its
        # minimum size, a bowl graph's launch slope 5e295 gives an infinite
        # u'' before any step; on a flow grid the area weight sinh(r) is inf
        # past r = 710.5 and the n = 3 weight sinh^2 past r = 355.1, though
        # the drift is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("--out", str(tmp_path), *argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not list(tmp_path.iterdir())

    def test_infinite_sweep_radius_is_refused_before_any_solve(self, tmp_path, capsys,
                                                                monkeypatch):
        # the bowl graph's span (0, inf) reached DOP853, which refused it
        # with "`t_span` must be finite"
        from soliton_forge import dop853
        monkeypatch.setattr(dop853, "solve", None)  # no solve may start
        assert run("--out", str(tmp_path), "sweep", "--family", "bowl",
                   "--c-values", "1", "--r-max", "inf") == 1
        assert capsys.readouterr().err.startswith(
            "error: graph span (0.0, inf) must be finite")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (("soliton", "bowl", "--K", "nan"), "curvature K must be finite, got nan"),
        (("flow", "--K=-inf"), "curvature K must be finite, got -inf"),
        (("sweep", "--family", "bowl", "--K", "inf", "--c-values", "1"),
         "curvature K must be finite, got inf"),
        (("flow", "--initial", "bump", "--bump-width", "0", "--nodes", "201"),
         "bump width must be > 0, got 0.0"),
        (("flow", "--initial", "bump", "--bump-width", "-0.5", "--nodes", "201"),
         "bump width must be > 0, got -0.5"),
        (("flow", "--R", "0.01", "--initial", "flat"),
         "11111111112 steps of 9e-12 on 2001 nodes exceed the bound of "
         "2001000000 node-steps"),
        (("flow", "--nodes", "4001", "--scheme", "implicit", "--dtau", "1e-3",
          "--horizon", "1000"),
         "1000000 steps of 0.001 on 4001 nodes exceed the bound of "
         "2001000000 node-steps"),
    ], ids=["bowl-K-nan", "flow-K-inf", "sweep-K-inf", "bump-width-0", "bump-width-neg",
            "flow-too-many-steps", "flow-too-many-node-steps"])
    def test_bad_curvature_or_bump_is_usage_error(self, tmp_path, capsys, argv, message):
        # the node-step bound refuses before any solve or step: the explicit
        # run would take 1.1e10 steps, and the implicit one 10^6 steps on
        # more than the default 2001 nodes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("--out", str(tmp_path), *argv) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {message}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("soliton", "bowl", "--c", "2", "--r-max", "720", "--n", "7"),
        ("sweep", "--family", "bowl", "--K", "-1", "--c-values", "1,2", "--r-max", "720"),
    ], ids=["soliton-bowl", "sweep-bowl"])
    def test_solves_past_the_float_range_of_cosh(self, tmp_path, argv):
        # cosh(r) overflows past r = 710.5, where the closed-form drift
        # (n - 1) coth(r) is finite: no RuntimeWarning, and the curve
        # reaches --r-max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("--out", str(tmp_path), *argv) == 0

    def test_step_budget_says_where_it_stopped(self, tmp_path, capsys, monkeypatch):
        # the default bowl takes 51 steps and the default grim graph 29, so
        # a budget of 20 stops both: a failed solve is no result, whether a
        # profile or a graph, and exits 1 naming the solve, the stop and the
        # radius reached, with nothing written
        from soliton_forge import dop853
        monkeypatch.setattr(dop853, "MAX_STEPS", 20)
        for family, message in [
                ("bowl", "the bowl profile solve ended by step_budget at r = 0.78"),
                ("grim", "the grim graph piece from r = 0 to 10 ended by step_budget "
                         "at r = 3.6")]:
            assert run("--out", str(tmp_path / family), "soliton", family) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}") and err.endswith(" after 20 steps\n")
            assert not (tmp_path / family).exists()

    def test_short_bowl_passes_its_diagnostics(self, tmp_path):
        # the window identities read only the curve's own span, so a bowl
        # to r = 0.005 checks like any other
        assert run("--out", str(tmp_path), "soliton", "bowl", "--r-max", "0.005") == 0
        report = json.loads((tmp_path / "bowl_diagnostics.json").read_text())
        assert report["passed"] is True

    def test_unknown_flag(self, tmp_path):
        assert run("--out", str(tmp_path), "soliton", "bowl",
                   "--frobnicate", "1") == 1

    def test_grim_writes_graph_csv(self, tmp_path):
        code = run("--out", str(tmp_path), "soliton", "grim",
                   "--r-max", "8", "--tag", "reaper")
        assert code == 0
        assert (tmp_path / "reaper.csv").exists()

    def test_grim_n3_writes_graph(self, tmp_path):
        # an n >= 3 grim graph is solved on r > 0, from r = 1e-3
        assert run("--out", str(tmp_path), "soliton", "grim", "--n", "3",
                   "--r-max", "6") == 0
        meta, names, data = read_table(tmp_path / "grim.csv")
        assert names == ["r", "u", "du"]
        assert meta["n"] == "3"
        assert "n_rhs_evals" not in meta and "n_steps" not in meta
        assert data[0, 0] == 1e-3 and data[-1, 0] == 6.0
        assert np.all(np.isfinite(data))

    @pytest.mark.parametrize("argv", [
        ["soliton", "bowl", "--r-max", "4"],
        ["soliton", "grim", "--r-max", "4"],
        ["flow", "--R", "4", "--nodes", "101", "--scheme", "implicit",
         "--dtau", "1e-3", "--horizon", "0.005"],
        ["sweep", "--family", "wing", "--epsilons", "0.5,1", "--r-max", "6"],
        ["sweep", "--family", "bowl", "--c-values", "0.5,1", "--r-max", "4"],
        ["isometry", "--map", "parabolic", "--param", "0.7", "--points", None],
        ["verify", "--input", None],
    ], ids=["soliton-bowl", "soliton-grim", "flow", "sweep-wing",
            "sweep-bowl", "isometry", "verify"])
    def test_reruns_identical(self, tmp_path, argv):
        points = tmp_path / "pts.csv"
        export_points_csv([embed_polar(r, [0.6, 0.8]) for r in (0.0, 0.5, 2.0)],
                          points, heights=[0.0, -1.0, 3.5])
        if argv[0] == "verify":
            # each rerun directory holds the same solved input next to its report
            for sub in ("one", "two"):
                assert run("--out", str(tmp_path / sub), "soliton", "bowl",
                           "--r-max", "4") == 0
            points = tmp_path / "one" / "bowl.csv"
        argv = [str(points) if a is None else a for a in argv]
        for sub in ("one", "two"):
            assert run("--out", str(tmp_path / sub), *argv) == 0
        one = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert one == sorted(p.name for p in (tmp_path / "two").iterdir())
        assert any(name.endswith(".csv") for name in one)
        for name in one:
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes()), name


class TestVerifyCommand:
    @pytest.fixture()
    def bowl_csv(self, tmp_path):
        assert run("--out", str(tmp_path), "soliton", "bowl",
                   "--r-max", "6") == 0
        return tmp_path / "bowl.csv"

    def test_clean_input_passes(self, bowl_csv, tmp_path):
        assert run("--out", str(tmp_path), "verify", "--input",
                   str(bowl_csv)) == 0
        assert (tmp_path / "bowl_verify.json").exists()

    def test_read_back_curve_keeps_to_its_span(self, bowl_csv):
        """A curve read back from a CSV samples as a solved one does: floats
        at a scalar arc length, and a refusal past its last row, where the
        spline through the rows would extrapolate."""
        curve = read_profile_csv(bowl_csv)
        assert curve.termination is None
        lo, hi = curve.s_span
        assert all(type(v) is float for v in curve.sample((lo + hi) / 2))
        for beyond in (hi + 1e-3, [hi, hi + 1e-3], lo - 1e-3):
            with pytest.raises(ValueError, match="s outside curve range"):
                curve.sample(beyond)

    def test_read_back_curve_checks_against_the_given_spec(self, tmp_path):
        """A profile read back from its CSV carries no spec; the checks run
        against the spec they are given, and refuse a curve with no spec
        anywhere."""
        assert run("--out", str(tmp_path), "soliton", "bowl", "--K", "-1", "--n", "2",
                   "--c", "1", "--r-max", "10") == 0
        curve = read_profile_csv(tmp_path / "bowl.csv")
        assert curve.spec is None and curve.meta["c"] == "1.0"
        spec = SolitonSpec(c=1.0, n=2, family="bowl", warp=make_builtin_warp("rotational", -1.0))
        assert all(check.passed for check in profile_identities(curve, spec))
        assert curve.spec is None
        faster = replace(spec, c=1.01)
        assert not any(check.passed for check in profile_identities(curve, faster))
        with pytest.raises(ValueError, match="needs a spec"):
            profile_identities(curve)
        assert run("--out", str(tmp_path), "verify", "--input", str(tmp_path / "bowl.csv"),
                   "--c", "1.01") == 2

    @pytest.mark.parametrize("argv", [
        ("wing", "--K", "-1", "--n", "2", "--c", "1", "--r-max", "10"),
        ("ideal", "--c", "1.5", "--r-max", "5"),
    ], ids=["wing", "ideal"])
    def test_verify_passes_what_soliton_wrote(self, tmp_path, argv):
        # the CSV's 2001 rows resample the curve as a cubic spline, which
        # the window identities check to about 1e-9
        assert run("--out", str(tmp_path), "soliton", *argv) == 0
        assert run("--out", str(tmp_path), "verify", "--input",
                   str(tmp_path / f"{argv[0]}.csv")) == 0

    def test_perturbed_input_fails(self, bowl_csv, tmp_path):
        curve = read_profile_csv(bowl_csv)
        bad = perturb_curve(curve, amplitude=1e-3)
        bad_path = tmp_path / "tampered.csv"
        export_profile_csv(bad, bad_path, meta=curve.meta)
        assert run("--out", str(tmp_path), "verify", "--input",
                   str(bad_path)) == 2

    @pytest.fixture()
    def bowl3_csv(self, tmp_path):
        assert run("--out", str(tmp_path), "soliton", "bowl", "--K", "-2",
                   "--n", "3", "--c", "1.5", "--r-max", "6") == 0
        return tmp_path / "bowl.csv"

    @pytest.mark.parametrize("config,flags,code", [
        (None, [], 0),
        (None, ["--n", "2"], 2),
        ({"n": 2}, [], 2),
        ({"n": 2}, ["--n", "3"], 0),
    ], ids=["metadata", "flag-beats-metadata", "config-beats-metadata",
            "flag-beats-config"])
    def test_input_metadata_precedence(self, bowl3_csv, tmp_path, config,
                                       flags, code):
        # the input's "# K=-2.0", "# n=3" and "# c=1.5" lines are the defaults
        cfg = []
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            cfg = ["--config", str(tmp_path / "cfg.json")]
        assert run(*cfg, "--out", str(tmp_path), "verify", "--input",
                   str(bowl3_csv), *flags) == code

    def test_missing_input(self, tmp_path):
        assert run("--out", str(tmp_path), "verify", "--input",
                   str(tmp_path / "absent.csv")) == 1

    def test_unknown_family_flag(self, bowl_csv, tmp_path, capsys):
        assert run("--out", str(tmp_path), "verify", "--input", str(bowl_csv),
                   "--family", "foo") == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err

    def test_graph_family_is_usage_error(self, bowl_csv, tmp_path, capsys):
        # a grim soliton is written as a graph CSV, so verify checks no grim
        # profile, whether the family comes from the flag or the metadata
        bad = tmp_path / "grim.csv"
        bad.write_text(bowl_csv.read_text().replace("# family=bowl", "# family=grim"))
        for argv in (("--input", str(bowl_csv), "--family", "grim"), ("--input", str(bad))):
            assert run("--out", str(tmp_path), "verify", *argv) == 1
            err = capsys.readouterr().err
            assert "usage error" in err and "grim" in err and "Traceback" not in err

    def test_unknown_family_metadata(self, bowl_csv, tmp_path, capsys):
        text = bowl_csv.read_text().replace("# family=bowl", "# family=foo")
        assert "# family=foo" in text
        bad = tmp_path / "foo.csv"
        bad.write_text(text)
        assert run("--out", str(tmp_path), "verify", "--input", str(bad)) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err

    def test_points_csv_is_not_a_profile(self, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        export_points_csv([embed_polar(r, [1.0, 0.0]) for r in range(4)], src)
        assert run("--out", str(tmp_path), "verify", "--input", str(src)) == 1
        assert "x0,x1,x2" in capsys.readouterr().err


class TestFlowCommand:
    def test_explicit_default_step(self, tmp_path):
        # the stability bound 0.4 dr^2 does not divide the horizon 0.1
        assert run("--out", str(tmp_path), "flow", "--nodes", "201") == 0
        meta, _, data = read_table(tmp_path / "flow_trajectory.csv")
        assert meta["dtau"] == repr(0.1 / 112)
        assert data[-1, 0] == 0.1
        assert float(read_table(tmp_path / "flow_final.csv")[0]["tau"]) == 0.1

    def test_initial_on_another_grid(self, tmp_path, capsys):
        assert run("--out", str(tmp_path), "flow", "--R", "4", "--nodes", "201",
                   "--tag", "r4") == 0
        assert run("--out", str(tmp_path), "flow", "--R", "5", "--nodes", "201",
                   "--initial", f"csv:{tmp_path / 'r4_final.csv'}") == 1
        assert "flow grid" in capsys.readouterr().err

    def test_soliton_smoke(self, tmp_path, capsys):
        code = run("--out", str(tmp_path), "flow", "--R", "5",
                   "--nodes", "201", "--scheme", "implicit",
                   "--dtau", "1e-3", "--horizon", "0.01")
        assert code == 0
        assert (tmp_path / "flow_trajectory.csv").exists()
        assert (tmp_path / "flow_initial.csv").exists()
        assert (tmp_path / "flow_final.csv").exists()
        assert "F non-increasing" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ("--nodes", "2"), ("--nodes", "1"), ("--R", "0"), ("--dtau", "0"),
        ("--horizon", "0"), ("--record-every", "0"),
    ], ids=["nodes-2", "nodes-1", "R-0", "dtau-0", "horizon-0", "record-every-0"])
    def test_rejects_grid_and_step_it_cannot_take(self, tmp_path, capsys, flags):
        # each flag overrides the small grid given before it
        assert run("--out", str(tmp_path), "flow", "--R", "4", "--nodes", "201",
                   *flags) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_rejects_grid_too_fine_for_floats(self, tmp_path, capsys, scheme):
        # dr^2 underflows to 0: the explicit step bound divided by zero, and
        # the implicit run warned of overflow as it built the problem
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("--out", str(tmp_path), "flow", "--R", "1e-300",
                       "--nodes", "3", "--scheme", scheme) == 1
        assert capsys.readouterr().err.startswith("error: grid spacing dr = 5e-301")
        assert not list(tmp_path.iterdir())

    def test_rejects_step_too_small_for_its_horizon(self, tmp_path, capsys):
        # horizon / dtau overflows
        assert run("--out", str(tmp_path), "flow", "--R", "4", "--nodes", "201",
                   "--dtau", "1e-320") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dtau" in err
        assert not list(tmp_path.iterdir())

    def test_rejects_horizon_shorter_than_a_step(self, tmp_path, capsys):
        # zero steps: refused for the horizon and dtau, not the record count
        assert run("--out", str(tmp_path), "flow", "--R", "4", "--nodes", "201",
                   "--dtau", "1", "--horizon", "1e-12") == 1
        assert capsys.readouterr().err.startswith(
            "error: horizon must be an integer number of steps, at least one: "
            "horizon = 1e-12 is 1e-12 steps of dtau = 1.0")
        assert not list(tmp_path.iterdir())

    def test_dirichlet_flow(self, tmp_path):
        assert run("--out", str(tmp_path), "flow", "--bc", "dirichlet", "--R", "4",
                   "--nodes", "201", "--scheme", "implicit", "--dtau", "1e-3",
                   "--horizon", "0.01") in (0, 2)
        meta, _, data = read_table(tmp_path / "flow_trajectory.csv")
        assert meta["bc"] == "dirichlet"
        assert np.all(np.isfinite(data[:, 1:3])) and np.all(data[:, 2] >= 0)

    @pytest.mark.parametrize("chart", ["polar", "equidistant"])
    def test_chart_chooses_the_warp(self, tmp_path, chart):
        assert run("--out", str(tmp_path), "flow", "--chart", chart, "--R", "4",
                   "--nodes", "201", "--scheme", "implicit", "--dtau", "1e-3",
                   "--horizon", "0.01") == 0
        assert read_table(tmp_path / "flow_trajectory.csv")[0]["chart"] == chart

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_rejects_non_finite_speed(self, tmp_path, capsys, c):
        assert run("--out", str(tmp_path), "flow", "--initial", "flat", "--c", c,
                   "--nodes", "101", "--R", "4", "--horizon", "0.001") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "speed c" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (("--initial", "bump", "--bump-amplitude", "1e3", "--horizon", "0.01"),
         "non-finite functional at tau = 0: F = inf, D = inf"),
        (("--c", "1e200", "--initial", "flat", "--nodes", "201", "--horizon", "0.001"),
         "non-finite functional at tau = 0: F = nan, D = nan"),
        (("--n", "400", "--R", "1", "--initial", "flat", "--nodes", "201",
          "--horizon", "0.001"),
         "dimension n = 400 is not in 1..343, where Gamma(n/2) is a float"),
    ], ids=["bump-exp-overflow", "speed-squared-overflow", "sphere-area-overflow"])
    def test_run_that_overflows_is_refused(self, tmp_path, capsys, argv, message):
        # exp(c u) overflows on a bump 1e3 high, and c^2 tau is inf * 0 at
        # tau = 0 for c = 1e200: both wrote a trajectory of inf or NaN F,
        # printed a NaN balance and exited 0; Gamma(200) overflows, which
        # was a traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("--out", str(tmp_path), "flow", *argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not list(tmp_path.iterdir())

    def test_node_cap_refuses_before_the_grid_is_built(self, tmp_path, capsys,
                                                       monkeypatch):
        from soliton_forge import cli, mcf_flow

        def no_problem(*args, **kwargs):
            raise AssertionError("FlowProblem built")

        monkeypatch.setattr(mcf_flow, "FlowProblem", no_problem)
        nodes = str(cli.MAX_FLOW_NODES + 1)
        assert run("--out", str(tmp_path), "flow", "--nodes", nodes) == 1
        assert capsys.readouterr().err.startswith(
            f"usage error: --nodes {nodes} exceeds the bound of 1000000 nodes")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("nodes, message", [
        (2001, "error: run reached: 1000000 steps"),
        (2002, "usage error: 1000000 steps of 0.001 on 2002 nodes exceed")],
        ids=["2001-nodes", "2002-nodes"])
    def test_default_grid_keeps_a_million_steps(self, tmp_path, capsys, monkeypatch,
                                                nodes, message):
        # 10^6 steps on 2001 nodes reach the run (stubbed out here); on one
        # node more they exceed the node-step bound
        from soliton_forge import mcf_flow

        def no_run(self, u0, dtau, horizon, **kwargs):
            raise ValueError(f"run reached: {round(horizon / dtau)} steps")

        monkeypatch.setattr(mcf_flow.FlowProblem, "run", no_run)
        assert run("--out", str(tmp_path), "flow", "--nodes", str(nodes),
                   "--initial", "flat", "--scheme", "implicit", "--dtau", "1e-3",
                   "--horizon", "1000") == 1
        assert capsys.readouterr().err.startswith(message)

    def test_initial_rejects_a_nan_radius(self, tmp_path, capsys):
        # NaN compares False with any tolerance: the grid check must fail on it
        table = tmp_path / "nan_r.csv"
        r = np.linspace(0.0, 5.0, 201)
        r[5] = np.nan
        table.write_text("r,u\n" + "".join(f"{x!r},0.0\n" for x in r.tolist()))
        assert run("--out", str(tmp_path), *self.SMALL,
                   "--initial", f"csv:{table}") == 1
        assert capsys.readouterr().err.startswith(
            "usage error: csv initial data: its first column must be the flow grid r")
        assert not (tmp_path / "flow_trajectory.csv").exists()

    def test_bad_initial(self, tmp_path):
        assert run("--out", str(tmp_path), "flow", "--initial",
                   "wavelet") == 1

    SMALL = ("flow", "--R", "5", "--nodes", "201", "--scheme", "implicit",
             "--dtau", "1e-3", "--horizon", "0.01")

    def test_initial_from_snapshot(self, tmp_path):
        assert run("--out", str(tmp_path), *self.SMALL) == 0
        final = tmp_path / "flow_final.csv"
        meta, names, data = read_table(final)
        assert names == ["r", "u"]
        assert final.read_text().splitlines()[1] == "r,u"
        assert "tau" in meta
        assert run("--out", str(tmp_path), *self.SMALL, "--tag", "again",
                   "--initial", f"csv:{final}") == 0
        u0 = read_table(tmp_path / "again_initial.csv")[2][:, -1]
        assert u0.tobytes() == data[:, -1].tobytes()

    def test_initial_from_points_header(self, tmp_path):
        # snapshots written before the r,u header carried x0,x1
        assert run("--out", str(tmp_path), *self.SMALL) == 0
        _, _, data = read_table(tmp_path / "flow_final.csv")
        old = tmp_path / "old_final.csv"
        u = data[:, 1] + 0.01 * np.exp(-data[:, 0] ** 2)
        rows = [f"{r!r},{v!r}" for r, v in zip(data[:, 0].tolist(), u.tolist())]
        old.write_text("# tau=0.01\nx0,x1\n" + "\n".join(rows) + "\n")
        assert run("--out", str(tmp_path), *self.SMALL, "--tag", "old",
                   "--initial", f"csv:{old}") == 0
        u0 = read_table(tmp_path / "old_initial.csv")[2][:, -1]
        assert u0.tobytes() == u.tobytes()

    def test_initial_needs_a_height_column(self, tmp_path, capsys):
        # a lone r column would be read back as its own heights
        r_only = tmp_path / "r_only.csv"
        r = np.linspace(0.0, 5.0, 201)
        r_only.write_text("r\n" + "\n".join(map(repr, r.tolist())) + "\n")
        assert run("--out", str(tmp_path), *self.SMALL,
                   "--initial", f"csv:{r_only}") == 1
        assert "usage error: csv initial data needs a height column" in \
            capsys.readouterr().err
        assert not (tmp_path / "flow_trajectory.csv").exists()

    def test_initial_needs_a_header(self, tmp_path):
        bare = tmp_path / "bare.csv"
        bare.write_text("0.0,1.0\n1.0,1.0\n")
        assert run("--out", str(tmp_path), *self.SMALL,
                   "--initial", f"csv:{bare}") == 1


class TestIsometryCommand:
    def test_hyperbolic_map(self, tmp_path):
        from soliton_forge.fileio import read_points_csv
        pts = [embed_polar(r, [1.0, 0.0]) for r in (0.0, 1.0)]
        src = tmp_path / "pts.csv"
        export_points_csv(pts, src, heights=[0.0, 2.0])
        code = run("--out", str(tmp_path), "isometry", "--map", "hyperbolic",
                   "--param", "1.0", "--points", str(src))
        assert code == 0
        coords, heights = read_points_csv(tmp_path / "points_hyperbolic_1.csv")
        # the marked point lands on the origin; heights ride along
        assert coords[1][0] == pytest.approx(1.0, abs=1e-14)
        assert list(heights) == [0.0, 2.0]

    def test_far_point_far_boost(self, tmp_path):
        # coordinates near 1e156, whose squares overflow: the form check
        # once read NaN here
        from soliton_forge.fileio import read_points_csv
        src = tmp_path / "far.csv"
        export_points_csv([embed_polar(20.0, [1.0, 0.0])], src, heights=[20.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("--out", str(tmp_path), "isometry", "--map", "hyperbolic",
                       "--param", "-340", "--points", str(src)) == 0
        coords, heights = read_points_csv(tmp_path / "points_hyperbolic_-340.csv")
        assert coords[0][0] == pytest.approx(np.cosh(360.0), rel=1e-12)
        assert list(heights) == [20.0]

    @pytest.mark.parametrize("config, message", [
        ({"map": "parabolic"}, "provide --map with --param"),
        ({"param": 0.7}, "provide --map with --param"),
        (["parabolic", 0.7], "config must be a JSON object"),
        ({"map": "parabolic", "param": "far"}, "argument --param: invalid float value"),
        ({"map": "elliptic", "param": 0.7}, "unknown map type 'elliptic'"),
    ], ids=["no-param", "no-type", "not-an-object", "non-numeric-param", "unknown-map"])
    def test_malformed_map_json(self, tmp_path, capsys, config, message):
        # the map of a --config goes through --map and --param; argparse
        # checks --map's choices on a flag only, so the command checks them
        src = tmp_path / "pts.csv"
        export_points_csv([embed_polar(1.0, [1.0, 0.0])], src)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(config))
        assert run("--out", str(tmp_path), "--config", str(path), "isometry",
                   "--points", str(src)) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {message}")
        assert not list(tmp_path.glob("points_*"))

    def test_map_json(self, tmp_path):
        src = tmp_path / "pts.csv"
        export_points_csv([embed_polar(1.0, [1.0, 0.0])], src)
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"map": "hyperbolic", "param": 1.0}))
        assert run("--out", str(tmp_path), "--config", str(path), "isometry",
                   "--points", str(src)) == 0
        assert (tmp_path / "points_hyperbolic_1.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("--map", "hyperbolic", "--param", "800"),
        ("--map", "hyperbolic", "--param", "400"),
        ("--map", "hyperbolic", "--param", "inf"),
        ("--map", "parabolic", "--param", "nan"),
        ("--config", "nan"),
    ], ids=["cosh-overflow", "form-overflow", "inf", "nan", "json-nan"])
    def test_bad_map_param(self, tmp_path, capsys, argv):
        # each was once accepted and blamed on the points, or a traceback
        src = tmp_path / "pts.csv"
        export_points_csv([embed_polar(1.0, [1.0, 0.0])], src)
        config = ()
        if argv[0] == "--config":
            path = tmp_path / "map.json"
            path.write_text('{"map": "hyperbolic", "param": NaN}')
            config, argv = ("--config", str(path)), ()
        assert run("--out", str(tmp_path), *config, "isometry", *argv,
                   "--points", str(src)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "hyperboloid" not in err
        assert not list(tmp_path.glob("points_*"))

    def test_one_column_points(self, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        src.write_text("x0\n1.0\n")
        assert run("--out", str(tmp_path), "isometry", "--map", "hyperbolic",
                   "--param", "0.5", "--points", str(src)) == 1
        assert "error: hyperbolic translations need n >= 1" in capsys.readouterr().err

    def test_map_required(self, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("x0,x1,x2\n1.0,0.0,0.0\n")
        assert run("--out", str(tmp_path), "isometry", "--points",
                   str(src)) == 1


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": 2.0, "r_max": 4.0}))
        assert run("--config", str(cfg), "--out", str(tmp_path / "a"),
                   "soliton", "bowl", "--c", "1.5") == 0
        meta = read_profile_csv(tmp_path / "a" / "bowl.csv").meta
        assert float(meta["c"]) == 1.5  # flag wins
        assert run("--config", str(cfg), "--out", str(tmp_path / "b"),
                   "soliton", "bowl") == 0
        meta = read_profile_csv(tmp_path / "b" / "bowl.csv").meta
        assert float(meta["c"]) == 2.0  # config beats the built-in default

    def test_top_level_keys(self, tmp_path):
        # --out given before the command beats the config's out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "cfg_out")}))
        assert run("--config", str(cfg), "--out", str(tmp_path / "flag_out"),
                   "soliton", "grim", "--r-max", "4") == 0
        assert (tmp_path / "flag_out" / "grim.csv").exists()
        assert not (tmp_path / "cfg_out").exists()
        assert run("--config", str(cfg), "soliton", "grim", "--r-max", "4") == 0
        assert (tmp_path / "cfg_out" / "grim.csv").exists()


class TestSweepCommand:
    def test_wing_gap_monotone(self, tmp_path):
        code = run("--out", str(tmp_path), "sweep", "--family", "wing",
                   "--epsilons", "0.1,0.5,1.0", "--r-max", "8")
        assert code == 0
        text = (tmp_path / "sweep_wing.csv").read_text()
        assert text.splitlines()[0] == "epsilon,r_turn,gap,lower,upper,pass"

    def test_bowl_sweep(self, tmp_path):
        code = run("--out", str(tmp_path), "sweep", "--family", "bowl",
                   "--c-values", "0.5,1.0", "--r-max", "6")
        assert code == 0
        assert (tmp_path / "sweep_bowl.csv").exists()

    def test_wing_sweep_needs_epsilons(self, tmp_path):
        assert run("--out", str(tmp_path), "sweep", "--family", "wing") == 1


class TestConfigValueTypes:
    """A --config value goes through its flag's type as the command line
    would: as the text str(value), never as a JSON float, null or list."""

    @pytest.mark.parametrize("config, message", [
        ({"n": 2.5}, "argument --n: invalid int value: '2.5'"),
        ({"n": True}, "argument --n: invalid int value: 'True'"),
        ({"c": None}, "config value c = null is no flag value"),
        ({"r_max": [1]}, "config value r_max = [1] is no flag value"),
        ({"c": {"v": 1}}, 'config value c = {"v": 1} is no flag value'),
        ({"out": None}, "config value out = null is no flag value"),
    ], ids=["float-for-int", "bool-for-int", "null", "list", "object", "top-level-null"])
    def test_wrong_json_type_is_usage_error(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run("--config", str(cfg), "--out", str(tmp_path / "out"),
                   "soliton", "bowl", "--r-max", "4") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {message}") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_number_reads_like_its_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": 2, "n": 3, "r_max": 4, "unknown": [1]}))
        assert run("--config", str(cfg), "--out", str(tmp_path / "a"),
                   "soliton", "bowl") == 0
        assert run("--out", str(tmp_path / "b"), "soliton", "bowl", "--c", "2",
                   "--n", "3", "--r-max", "4") == 0
        for name in ("bowl.csv", "bowl_diagnostics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestFlowRecordCount:
    SHORT = ("flow", "--R", "4", "--nodes", "201", "--scheme", "implicit",
             "--dtau", "1e-3")

    @pytest.mark.parametrize("flags, records", [
        (("--horizon", "1e-3"), 2),
        (("--horizon", "4e-3", "--record-every", "4"), 2),
        (("--horizon", "3e-3", "--record-every", "5"), 2),
    ], ids=["one-step", "every-4-of-4", "every-5-of-3"])
    def test_fewer_than_three_records_is_usage_error(self, tmp_path, capsys,
                                                      flags, records):
        assert run("--out", str(tmp_path / "out"), *self.SHORT, *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: need at least three records, got {records}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [("--horizon", "2e-3"),
                                       ("--horizon", "5e-3", "--record-every", "4")],
                             ids=["two-steps", "every-4-of-5"])
    def test_three_records_run(self, tmp_path, flags):
        assert run("--out", str(tmp_path), *self.SHORT, *flags) == 0
        assert read_table(tmp_path / "flow_trajectory.csv")[2].shape[0] == 3


START_EDGES = ["-1", "0", "1e-300", "1e-4", "1e-3", "0.5", "10", "nan", "inf"]


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from([("soliton", "bowl"), ("soliton", "wing"),
                                ("soliton", "ideal"), ("soliton", "grim"),
                                ("sweep", "--family", "bowl", "--c-values", "1"),
                                ("sweep", "--family", "wing")]),
       r_max=st.sampled_from(START_EDGES),
       epsilons=st.lists(st.sampled_from(START_EDGES), min_size=1, max_size=3))
def test_every_start_ends_in_an_exit_code(command, r_max, epsilons):
    """The solvers alone own the start contract: every --r-max and
    --epsilon at the edges of the float range ends in exit 0, 1 or 2 with
    no traceback and no RuntimeWarning, and an exit 1 writes nothing.
    Huge finite radii are left out: `soliton grim --r-max 1e300` runs to
    its step budget, about 5 s."""
    argv = [*command, f"--r-max={r_max}"]
    if command[0] == "soliton" and command[1] == "wing":
        argv.append(f"--epsilon={epsilons[0]}")
    elif command[-1] == "wing":
        argv.append(f"--epsilons={','.join(epsilons)}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--out", out, *argv])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert not os.listdir(out)


@pytest.mark.parametrize("argv, code, err", [
    (("soliton", "bowl", "--K", "-1e-3", "--r-max", "2"), 0, ""),
    (("sweep", "--family", "wing", "--epsilons", "-1,0.5"), 1,
     "error: wing family needs epsilon > 0\n"),
    (("sweep", "--family", "bowl", "--c-values", "-1,2"), 1,
     "error: soliton speed c must be finite and >= 0, got -1.0\n"),
], ids=["exponent", "epsilon-list", "c-list"])
def test_negative_number_is_a_value(tmp_path, capsys, argv, code, err):
    # argparse alone reads only -1 and -.5 forms as numbers, and took these
    # for flags ("expected one argument"); they reach the spec's own checks
    assert run("--out", str(tmp_path), *argv) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv, flag", [
    (("--family", "wing", "--epsilons", "a"), "--epsilons"),
    (("--epsilons", "0.1,,0.5"), "--epsilons"),
    (("--family", "bowl", "--c-values", "1,x"), "--c-values"),
], ids=["wing-word", "wing-empty-entry", "bowl-word"])
def test_malformed_sweep_list_is_usage_error(tmp_path, capsys, argv, flag):
    assert run("--out", str(tmp_path / "out"), "sweep", *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {flag}: not comma-separated numbers")
    assert not (tmp_path / "out").exists()
