"""Graph-form ODE solves, closed-form oracles, and cross validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_forge import (
    SolitonSpec, TerminationPolicy, closed_form_oracle, make_builtin_warp,
    profile_to_graph, solve_bowl, solve_grim, solve_ideal_graph,
    solve_radial_graph,
)
from soliton_forge import dop853
from soliton_forge.fileio import export_graph_csv, read_table

LN_COS_1 = -0.6156264703860141  # ln(cos 1)


class TestClosedFormOracles:
    def test_grim_n1_value(self):
        oracle = closed_form_oracle("grim_n1", c=2.0)
        assert float(oracle.u(0.5)) == pytest.approx(-0.5 * LN_COS_1, abs=1e-14)
        assert float(oracle.u(0.5)) == pytest.approx(0.30781323519300707,
                                                     abs=1e-14)
        assert oracle.r_max == pytest.approx(math.pi / 4)

    def test_ideal_const_coeff_zero(self):
        oracle = closed_form_oracle("ideal_const_coeff", a=1.0)
        assert float(oracle.u(0.0)) == 0.0
        assert float(oracle.du(0.3)) == pytest.approx(math.tan(0.3))

    def test_line(self):
        oracle = closed_form_oracle("line", m=1.0)
        assert float(oracle.u(2.0)) == 2.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            closed_form_oracle("helicoid")


class TestRadialGraph:
    def test_axis_curvature_series(self, euclidean_bowl_spec):
        graph = solve_radial_graph(euclidean_bowl_spec, r_span=(0.0, 2.0))
        # u''(0) = c/n = 1/2, so u ~ r^2/4
        r = 0.05
        assert float(graph.u_eval(r)) == pytest.approx(r * r / 4, rel=1e-3)

    def test_n1_matches_grim_oracle(self, euclidean_warp):
        spec = SolitonSpec(c=1.0, n=1, family="bowl", warp=euclidean_warp)
        graph = solve_radial_graph(spec, r_span=(0.0, 1.4),
                                   ic=(0.0, 0.0, 0.0))
        oracle = closed_form_oracle("grim_n1", c=1.0)
        r = np.linspace(0.0, 1.4, 200)
        assert np.max(np.abs(graph.u_eval(r) - oracle.u(r))) < 1e-8

    def test_hyperbolic_asymptotic_slope(self, hyperbolic_bowl_spec):
        graph = solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 10.0))
        assert abs(float(graph.du_eval(10.0)) - 1.0) < 1e-2
        assert not graph.gradient_blowup

    def test_cross_validation_with_profile(self, hyperbolic_bowl_spec):
        graph = solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 10.0))
        curve = solve_bowl(hyperbolic_bowl_spec,
                           stop=TerminationPolicy(r_max=10.5))
        from_profile = profile_to_graph(curve, n_points=4000)
        r = np.linspace(0.05, 9.5, 300)
        gap = graph.u_eval(r) - from_profile.u_eval(r)
        assert np.max(np.abs(gap)) < 1e-6

    def test_strict_grid_required(self, euclidean_bowl_spec):
        from soliton_forge import RadialGraph
        with pytest.raises(ValueError):
            RadialGraph(r_grid=[0.0, 1.0, 1.0], u=[0, 0, 0], du=[0, 0, 0],
                        spec=euclidean_bowl_spec)

    def test_axis_start_needs_flat_slope(self, euclidean_bowl_spec):
        with pytest.raises(ValueError):
            solve_radial_graph(euclidean_bowl_spec, ic=(0.0, 0.0, 0.7))

    def test_span_outside_table_domain(self, hyperbolic_table_warp):
        # the table covers [0, 5]: a solve to r = 10 would extrapolate it
        spec = SolitonSpec(c=1.0, n=2, family="bowl", warp=hyperbolic_table_warp)
        with pytest.raises(ValueError, match="outside domain"):
            solve_radial_graph(spec, r_span=(0.0, 10.0))
        graph = solve_radial_graph(spec, r_span=(0.0, 5.0))
        assert graph.r_span[1] == 5.0 and graph.diagnostics["status"] == 0


    @pytest.mark.parametrize("n, r_end", [(2, 0.0), (2, 1e-4), (2, 5e-5), (1, 0.0)])
    def test_span_ending_at_or_before_the_launch(self, hyperbolic_warp, n, r_end):
        # n = 2 launches at r = 1e-4; an end below it would solve down onto
        # the axis, where xi'/xi divides by zero
        spec = SolitonSpec(c=1.0, n=n, family="bowl", warp=hyperbolic_warp)
        with pytest.raises(ValueError, match="must lie past its launch"):
            solve_radial_graph(spec, r_span=(0.0, r_end))


class TestIdealGraph:
    def test_unit_coefficient_closed_form(self, busemann_warp):
        # kappa = 1, n = 2, c = 2 gives a = 1 and u = -ln cos r
        graph = solve_ideal_graph(2.0, 2, busemann_warp, r_span=(0.0, 2.0))
        r = np.linspace(0.0, 1.35, 200)
        assert np.max(np.abs(graph.u_eval(r) + np.log(np.cos(r)))) < 1e-8
        assert graph.gradient_blowup
        assert graph.blowup_radius == pytest.approx(math.pi / 2, abs=1e-6)

    def test_negative_coefficient_goes_down(self, busemann_warp):
        # kappa = 1, n = 3, c = 1 gives a = -1 and u = ln cos r
        graph = solve_ideal_graph(1.0, 3, busemann_warp, r_span=(0.0, 2.0))
        r = np.linspace(0.0, 1.3, 100)
        assert np.max(np.abs(graph.u_eval(r) - np.log(np.cos(r)))) < 1e-8
        assert graph.blowup_radius == pytest.approx(math.pi / 2, abs=1e-6)

    def test_balanced_coefficient_line(self, busemann_warp):
        # c = (n-1) kappa: straight line of any slope
        graph = solve_ideal_graph(1.0, 2, busemann_warp, r_span=(0.0, 5.0),
                                  ic=(0.0, 0.0, 0.7))
        r = np.linspace(0.0, 5.0, 50)
        assert np.max(np.abs(graph.du_eval(r) - 0.7)) < 1e-10
        assert not graph.gradient_blowup

    def test_wrong_warp_kind(self, hyperbolic_warp):
        with pytest.raises(ValueError):
            solve_ideal_graph(1.0, 2, hyperbolic_warp)

    @pytest.mark.parametrize("r_span", [(0.0, 0.0), (0.0, -2.0), (1.0, 0.5)])
    def test_span_ending_at_or_before_the_start(self, busemann_warp, r_span,
                                                monkeypatch):
        # such a solve ran in full, then failed on its decreasing r grid
        monkeypatch.setattr(dop853, "solve", None)  # no solve may start
        with pytest.raises(ValueError, match=rf"span end r = {r_span[1]} must lie "
                                             rf"past its start r0 = {r_span[0]}"):
            solve_ideal_graph(1.0, 2, busemann_warp, r_span=r_span,
                              ic=(r_span[0], 0.0, 0.0))


    def test_span_start_must_be_the_initial_radius(self, busemann_warp, monkeypatch):
        # the solve used to start at ic[0] = 0 whatever r_span[0] said
        monkeypatch.setattr(dop853, "solve", None)  # no solve may start
        with pytest.raises(ValueError, match=r"span start r = 1.0 differs from "
                                             r"the initial radius ic\[0\] = 0.0"):
            solve_ideal_graph(2.0, 2, busemann_warp, r_span=(1.0, 1.4))


class TestGrim:
    def test_entire_and_even(self, equidistant_warp):
        graph = solve_grim(1.0, 2, equidistant_warp, r_span=(-20.0, 20.0))
        assert not graph.gradient_blowup
        r = np.linspace(0.0, 15.0, 300)
        u_plus = np.interp(r, graph.r_grid, graph.u)
        u_minus = np.interp(-r[::-1], graph.r_grid, graph.u)[::-1]
        assert np.max(np.abs(u_plus - u_minus)) < 1e-6

    def test_blowup_raises(self, equidistant_warp):
        # n = 1 has no drift: u' = tan(c r) is vertical at r = -pi/(2c),
        # which the descending piece meets first
        with pytest.raises(RuntimeError, match=r"unexpected gradient blow-up at r = -1\.5708"):
            solve_grim(1.0, 1, equidistant_warp, r_span=(-2.0, 2.0))

    def test_slope_equilibrium(self, equidistant_warp):
        graph = solve_grim(1.0, 2, equidistant_warp, r_span=(-20.0, 20.0))
        du_end = graph.du[-1]
        # u' -> c / lim h = 1 for n = 2, K = -1
        assert abs(du_end - 1.0) < 1e-2
        assert np.max(np.abs(graph.du)) < 5.0

    def test_n3_axis_exclusion(self, equidistant_warp):
        with pytest.raises(ValueError):
            solve_grim(1.0, 3, equidistant_warp, r_span=(-5.0, 5.0))
        graph = solve_grim(1.0, 3, equidistant_warp, r_span=(0.0, 5.0))
        assert graph.r_grid[0] >= 0.0
        assert np.all(np.isfinite(graph.u))

    @pytest.mark.parametrize("r_span", [(0.0, 0.0), (0.0, 1e-3), (0.0, 5e-4), (-1e-3, 0.0)])
    def test_n3_span_ending_at_or_before_the_launch(self, equidistant_warp, r_span):
        # the launch moves to r = +-1e-3, so a shorter span would solve back
        # onto the singular line r = 0
        with pytest.raises(ValueError, match="must lie past the launch"):
            solve_grim(1.0, 3, equidistant_warp, r_span=r_span)

    def test_n1_matches_grim_oracle(self, equidistant_warp):
        # the drift vanishes for n = 1: the classical grim reaper of width pi/c
        graph = solve_grim(1.0, 1, equidistant_warp, r_span=(-1.4, 1.4))
        oracle = closed_form_oracle("grim_n1", c=1.0)
        r = np.linspace(-1.4, 1.4, 200)
        assert np.max(np.abs(graph.u_eval(r) - oracle.u(r))) < 1e-8

    def test_n1_slope_from_dense_output(self, equidistant_warp):
        # u' = tan(r) evaluated on each piece's dense output, not on a
        # spline through the grid (about 1e-9 off at this span)
        graph = solve_grim(1.0, 1, equidistant_warp, r_span=(-1.4, 1.4),
                           rtol=1e-11, atol=1e-13)
        r = np.random.default_rng(3).uniform(-1.4, 1.4, 2000)
        assert np.max(np.abs(graph.du_eval(r) - np.tan(r))) < 2e-10
        # the grid samples are the dense values, on both sides of r0 = 0
        assert graph.u_eval(graph.r_grid).tobytes() == graph.u.tobytes()
        assert graph.du_eval(graph.r_grid).tobytes() == graph.du.tobytes()
        assert graph.du_eval(-1.0) == graph.du_eval(np.array([-1.0]))[0]

    def test_large_slope_restoring_sign(self, equidistant_warp):
        # when the slope is large the equation pushes it back
        graph = solve_grim(2.0, 2, equidistant_warp, r_span=(-15.0, 15.0))
        du = graph.du
        ddu = np.gradient(du, graph.r_grid)
        big = np.abs(du) > 2 * 2.0  # 2c/(n-1) with min h ~ 1 far out
        inner = np.abs(graph.r_grid) > 1.0
        mask = big & inner
        if np.any(mask):
            assert np.all(np.sign(ddu[mask]) == -np.sign(du[mask]))

    def test_wrong_warp_kind(self, busemann_warp):
        with pytest.raises(ValueError):
            solve_grim(1.0, 2, busemann_warp)

    def test_mirrored_record_is_its_one_piece(self, equidistant_warp):
        whole = solve_grim(1.0, 2, equidistant_warp, r_span=(-7.0, 7.0))
        half = solve_grim(1.0, 2, equidistant_warp, r_span=(0.0, 7.0))
        assert whole.diagnostics == half.diagnostics


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=25, deadline=None)
@given(K=st.floats(-2.0, -0.05, exclude_max=True), c=st.floats(0.5, 2.0),
       R=st.floats(1.0, 20.0), u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_mirrored_grim_equals_two_solves(K, c, R, u):
    """The n = 2 grim graph on (-R, R), solved up once and mirrored, equals
    the graph of a real solve down and a solve up bit for bit, signed zeros
    included: its samples and its dense values at random radii and at r = 0."""
    warp = make_builtin_warp("equidistant", K)
    graph = solve_grim(c, 2, warp, r_span=(-R, R), rtol=1e-11, atol=1e-13)
    down = solve_grim(c, 2, warp, r_span=(-R, 0.0), rtol=1e-11, atol=1e-13)
    up = solve_grim(c, 2, warp, r_span=(0.0, R), rtol=1e-11, atol=1e-13)
    for name in ("r_grid", "u", "du"):
        want = np.concatenate((getattr(down, name), getattr(up, name)[1:]))
        assert _bits(getattr(graph, name)) == _bits(want), name
    r = np.concatenate(([0.0], R * (2.0 * np.array(u) - 1.0)))
    below = r < 0.0
    for name in ("u_eval", "du_eval"):
        want = np.empty(r.size)
        want[below] = getattr(down, name)(r[below])
        want[~below] = getattr(up, name)(r[~below])
        assert _bits(getattr(graph, name)(r)) == _bits(want), name
        for x in r:
            side = down if x < 0.0 else up
            assert _bits(getattr(graph, name)(x)) == _bits(getattr(side, name)(x)), name


class TestSolverRecord:
    def test_rhs_calls_positive_and_deterministic(self, hyperbolic_bowl_spec,
                                                  busemann_warp, equidistant_warp):
        for solve in (
                lambda: solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 5.0)),
                lambda: solve_ideal_graph(1.0, 2, busemann_warp, r_span=(0.0, 1.0)),
                lambda: solve_grim(1.0, 2, equidistant_warp, r_span=(-5.0, 5.0)),
                lambda: solve_grim(1.0, 3, equidistant_warp, r_span=(0.0, 5.0))):
            first, again = solve().diagnostics, solve().diagnostics
            assert first["n_rhs_evals"] > 0 and first["n_steps"] > 0
            assert first["n_rhs_evals"] == again["n_rhs_evals"]
            assert first["n_steps"] == again["n_steps"]
            assert first["status"] == again["status"] == 0

    def test_two_piece_grim_sums_its_pieces(self, equidistant_warp):
        def counts(span):
            record = solve_grim(1.0, 2, equidistant_warp, r_span=span).diagnostics
            return np.array([record["n_rhs_evals"], record["n_steps"]])
        # an asymmetric span: a symmetric one is solved once and mirrored
        assert np.array_equal(counts((-5.0, 4.0)),
                              counts((-5.0, 0.0)) + counts((0.0, 4.0)))

    def test_graph_csv_leaves_the_record_out(self, tmp_path, hyperbolic_bowl_spec):
        graph = solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 5.0))
        meta = read_table(export_graph_csv(graph, tmp_path / "g.csv"))[0]
        assert set(graph.diagnostics) == {"n_rhs_evals", "n_steps", "status"}
        assert not set(graph.diagnostics) & set(graph.meta)
        assert not set(graph.diagnostics) & set(meta)
        assert meta["source"] == "radial_ode"


class TestDerivedFacts:
    """A graph's chart is its warp's, and its blow-up flag is its radius's."""

    def test_not_constructor_fields(self, euclidean_bowl_spec):
        from dataclasses import fields

        from soliton_forge import RadialGraph
        assert not {"chart", "gradient_blowup"} & {f.name for f in fields(RadialGraph)}
        with pytest.raises(TypeError):
            RadialGraph(r_grid=[0.0, 1.0], u=[0, 0], du=[0, 0],
                        spec=euclidean_bowl_spec, chart="polar")

    def test_every_solver(self, hyperbolic_bowl_spec, busemann_warp,
                          equidistant_warp):
        # an n = 1 bowl graph on an equidistant warp reports that warp's chart
        line = SolitonSpec(c=1.0, n=1, family="bowl", warp=equidistant_warp)
        curve = solve_bowl(hyperbolic_bowl_spec, stop=TerminationPolicy(r_max=3.0))
        graphs = [
            ("polar", solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 3.0))),
            ("equidistant", solve_radial_graph(line, r_span=(0.0, 1.0))),
            ("busemann", solve_ideal_graph(2.0, 2, busemann_warp, r_span=(0.0, 2.0))),
            ("equidistant", solve_grim(1.0, 2, equidistant_warp, r_span=(-3.0, 3.0))),
            ("polar", profile_to_graph(curve)),
        ]
        for chart, graph in graphs:
            assert graph.chart == graph.spec.warp.chart == chart
            assert graph.gradient_blowup == (graph.blowup_radius is not None)
        assert graphs[2][1].gradient_blowup


@pytest.mark.parametrize("n, K, c, u0", [(2, -1.0, 1.0, 0.0), (3, -2.0, 1.5, 0.0),
                                         (2, 0.0, 0.7, 0.25)])
def test_bowl_graph_reads_its_axis_series_below_the_launch(n, K, c, u0):
    """An axis-launched bowl graph evaluates on [0, R]: below AXIS_LAUNCH_S
    its u_eval and du_eval are the launch series (u0 + height, slope) bit
    for bit, and from the launch on the dense output its samples come from."""
    from soliton_forge.profile_solver import AXIS_LAUNCH_S, axis_series

    spec = SolitonSpec(c=c, n=n, family="bowl", warp=make_builtin_warp("rotational", K))
    graph = solve_radial_graph(spec, r_span=(0.0, 5.0), ic=(0.0, u0, 0.0))
    assert graph.r_grid[0] == AXIS_LAUNCH_S
    r = np.array([0.0, 1e-9, 2e-5, 7e-5, np.nextafter(AXIS_LAUNCH_S, 0.0)])
    height, slope = axis_series(c, n, r)
    assert _bits(graph.u_eval(r)) == _bits(u0 + height)
    assert _bits(graph.du_eval(r)) == _bits(slope)
    for x, u, du in zip(r, u0 + height, slope):
        assert _bits(graph.u_eval(x)) == _bits(u)
        assert _bits(graph.du_eval(x)) == _bits(du)
    both = np.concatenate((r, graph.r_grid))
    assert _bits(graph.u_eval(both)) == _bits(np.concatenate((u0 + height, graph.u)))
    assert _bits(graph.du_eval(both)) == _bits(np.concatenate((slope, graph.du)))
    if u0 == 0.0:
        # the axis height is +0.0, bit for bit
        assert _bits(graph.u_eval(0.0)) == _bits(0.0)
        assert _bits(graph.du_eval(0.0)) == _bits(0.0)


@pytest.mark.parametrize("side, K, c, u0", [(1.0, -1.0, 1.0, 0.0), (-1.0, -1.0, 1.0, 0.0),
                                            (1.0, -2.0, 1.5, 0.25), (-1.0, -0.5, 0.7, -0.4)])
def test_n3_grim_reads_its_launch_series_below_the_launch(side, K, c, u0):
    """An n = 3 grim graph started on the singular line r = 0 evaluates
    between r = 0 and its launch r0 = +-GRIM_LAUNCH_R through the launch
    series in dimension n - 1 = 2 (u0 + height, slope) bit for bit, and
    from r0 on through the dense output its samples come from."""
    from soliton_forge.graph_solvers import GRIM_LAUNCH_R
    from soliton_forge.profile_solver import axis_series

    warp = make_builtin_warp("equidistant", K)
    r_span = (0.0, 5.0) if side > 0 else (-5.0, 0.0)
    graph = solve_grim(c, 3, warp, r_span=r_span, ic=(0.0, u0, 0.0))
    r0 = side * GRIM_LAUNCH_R
    assert r0 in graph.r_span
    r = side * np.array([0.0, 1e-9, 2e-4, 5e-4, 9e-4, np.nextafter(GRIM_LAUNCH_R, 0.0)])
    height, slope = axis_series(c, 2, r)
    assert _bits(graph.u_eval(r)) == _bits(u0 + height)
    assert _bits(graph.du_eval(r)) == _bits(slope)
    for x, u, du in zip(r, u0 + height, slope):
        assert _bits(graph.u_eval(x)) == _bits(u)
        assert _bits(graph.du_eval(x)) == _bits(du)
    both = np.concatenate((r, graph.r_grid))
    assert _bits(graph.u_eval(both)) == _bits(np.concatenate((u0 + height, graph.u)))
    assert _bits(graph.du_eval(both)) == _bits(np.concatenate((slope, graph.du)))
