"""Profile-system integration: bowls, wings, ideal parametric curves."""

import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from soliton_forge import (
    SolitonSpec, TerminationPolicy, make_builtin_warp,
    profile_rhs, profile_to_graph, solve_bowl, solve_ideal_parametric,
    solve_wing,
)
from soliton_forge import dop853
from soliton_forge.profile_solver import AXIS_LAUNCH_S
from soliton_forge.dop853 import DenseSolution

COTH_1 = 1.3130352854993312
TANH_1 = 0.7615941559557649


class TestSpecValidation:
    def test_wing_needs_epsilon(self, hyperbolic_warp):
        with pytest.raises(ValueError):
            SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp)
        with pytest.raises(ValueError):
            SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                        epsilon=0.0)

    def test_family_warp_compatibility(self, hyperbolic_warp, busemann_warp):
        with pytest.raises(ValueError):
            SolitonSpec(c=1.0, n=2, family="ideal", warp=hyperbolic_warp)
        with pytest.raises(ValueError):
            SolitonSpec(c=1.0, n=2, family="bowl", warp=busemann_warp)

    def test_negative_speed_rejected(self, hyperbolic_warp):
        with pytest.raises(ValueError):
            SolitonSpec(c=-1.0, n=2, family="bowl", warp=hyperbolic_warp)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_speed_rejected(self, hyperbolic_warp, bad):
        with pytest.raises(ValueError):
            SolitonSpec(c=bad, n=2, family="bowl", warp=hyperbolic_warp)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, hyperbolic_warp, bad):
        with pytest.raises(ValueError):
            SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                        epsilon=bad)

    @pytest.mark.parametrize("field", ["s_max", "r_max", "t_max"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_policy_rejected(self, field, bad):
        with pytest.raises(ValueError):
            TerminationPolicy(**{field: bad})

    def test_unknown_family(self, hyperbolic_warp):
        with pytest.raises(ValueError):
            SolitonSpec(c=1.0, n=2, family="pancake", warp=hyperbolic_warp)


class TestProfileRhs:
    def test_flat_angle(self, euclidean_warp):
        spec = SolitonSpec(c=1.0, n=2, family="bowl", warp=euclidean_warp)
        out = profile_rhs((1.0, 0.0), spec)
        assert out == pytest.approx((1.0, 0.0, 1.0))

    def test_vertical_angle(self, euclidean_warp):
        spec = SolitonSpec(c=1.0, n=2, family="bowl", warp=euclidean_warp)
        out = profile_rhs((1.0, math.pi / 2), spec)
        assert out[0] == pytest.approx(0.0, abs=1e-15)
        assert out[1] == pytest.approx(1.0)
        assert out[2] == pytest.approx(-1.0)

    def test_hyperbolic_n3(self, hyperbolic_warp):
        # c cos(pi/4) ... - 2 coth(1) sin(pi/4) with c = 2
        spec = SolitonSpec(c=2.0, n=3, family="bowl", warp=hyperbolic_warp)
        out = profile_rhs((1.0, math.pi / 4), spec)
        expected = math.sqrt(2) - 2 * COTH_1 * math.sqrt(2) / 2
        assert expected == pytest.approx(-0.442698746254488, abs=1e-12)
        assert out[2] == pytest.approx(expected, abs=1e-12)

    def test_equidistant_n3_drift_is_tanh_plus_coth(self, equidistant_warp):
        spec = SolitonSpec(c=1.0, n=3, family="grim", warp=equidistant_warp)
        out = profile_rhs((1.0, math.pi / 2), spec)
        assert out[2] == pytest.approx(-(TANH_1 + COTH_1), abs=1e-12)

    def test_domain_violation(self, hyperbolic_warp):
        spec = SolitonSpec(c=1.0, n=2, family="bowl", warp=hyperbolic_warp)
        with pytest.raises(ValueError):
            profile_rhs((-1.0, 0.3), spec)


class TestBowl:
    def test_axis_series(self, euclidean_bowl_spec):
        curve = solve_bowl(euclidean_bowl_spec)
        r, t, phi = curve.sample(1e-3)
        # u ~ r^2 / (2n) near the axis
        assert t == pytest.approx(r * r / 4, rel=1e-4)
        assert phi == pytest.approx(r / 2, rel=1e-4)

    @pytest.mark.parametrize("r_max", [1e-4, 0.0, -1.0])
    def test_launch_at_or_past_the_radius_stop(self, hyperbolic_bowl_spec, r_max,
                                               monkeypatch):
        # no root of r - r_max lies ahead of the launch at r = 1e-4, so the
        # solve would run its whole arc length, out to r ~ 707
        monkeypatch.setattr(dop853, "solve", None)  # no solve may start
        with pytest.raises(ValueError, match=rf"bowl start radius r=0.0001 .* r_max={r_max}"):
            solve_bowl(hyperbolic_bowl_spec, stop=TerminationPolicy(r_max=r_max))

    def test_axis_point_exact(self, euclidean_bowl_spec):
        curve = solve_bowl(euclidean_bowl_spec)
        assert curve.r[0] == 0.0
        assert curve.t[0] == 0.0
        assert curve.phi[0] == 0.0
        assert curve.sample(0.0) == (0.0, 0.0, 0.0)

    def test_r_monotone_phi_in_band(self, hyperbolic_bowl_spec):
        curve = solve_bowl(hyperbolic_bowl_spec,
                           stop=TerminationPolicy(r_max=30.0))
        assert np.all(np.diff(curve.r) > 0)
        assert np.all(curve.phi >= 0)
        assert np.all(curve.phi < math.pi / 2)
        assert curve.termination == "max_radius"

    def test_c_zero_is_static_slice(self, euclidean_warp):
        spec = SolitonSpec(c=0.0, n=2, family="bowl", warp=euclidean_warp)
        curve = solve_bowl(spec, stop=TerminationPolicy(r_max=5.0))
        assert np.max(np.abs(curve.t)) < 1e-12
        assert np.max(np.abs(curve.phi)) < 1e-12

    def test_hyperbolic_slope_limit(self, hyperbolic_bowl_spec):
        curve = solve_bowl(hyperbolic_bowl_spec,
                           stop=TerminationPolicy(r_max=25.0))
        phi_end = curve.phi[-1]
        # u' -> c/(n-1) = 1, i.e. phi -> pi/4
        assert math.tan(phi_end) == pytest.approx(1.0, abs=1e-2)

    def test_speed_is_unit(self, hyperbolic_bowl_spec):
        curve = solve_bowl(hyperbolic_bowl_spec)
        s = np.linspace(0.1, curve.s_span[1] - 0.1, 100)
        h = 1e-5
        r1, t1, _ = curve.sample(s - h)
        r2, t2, _ = curve.sample(s + h)
        speed = np.hypot((r2 - r1) / (2 * h), (t2 - t1) / (2 * h))
        assert np.max(np.abs(speed - 1)) < 1e-8

    def test_angle_stays_within_pi(self, hyperbolic_bowl_spec):
        curve = solve_bowl(hyperbolic_bowl_spec)
        assert np.all(np.abs(curve.phi) < math.pi)

    def test_solver_record_is_deterministic(self, hyperbolic_bowl_spec):
        stop = TerminationPolicy(r_max=5.0)
        first, again = (solve_bowl(hyperbolic_bowl_spec, stop=stop).diagnostics
                        for _ in range(2))
        assert first["n_steps"] > 0
        # at least the 15 RHS calls of each accepted step
        assert first["n_rhs_evals"] >= 2 + 15 * first["n_steps"]
        assert ((first["n_steps"], first["n_rhs_evals"])
                == (again["n_steps"], again["n_rhs_evals"]))


@pytest.fixture(scope="module")
def wing_curve(hyperbolic_warp):
    spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                       epsilon=0.5)
    return solve_wing(spec, branch=-1, stop=TerminationPolicy(r_max=30.0))


class TestWing:
    def test_initial_direction(self, wing_curve):
        phi = wing_curve.sample(0.0)[2]
        assert math.cos(phi) == pytest.approx(0.0, abs=1e-15)
        assert math.sin(phi) == pytest.approx(-1.0)

    def test_unique_turning_point(self, wing_curve):
        assert len(wing_curve.turning_points) == 1

    def test_turning_radius_bound(self, wing_curve):
        s0 = wing_curve.turning_points[0]
        r0 = wing_curve.sample(s0)[0]
        assert r0 - 0.5 <= math.pi / 2 + 1e-9

    def test_r_never_below_epsilon(self, wing_curve):
        assert np.min(wing_curve.r) >= 0.5 - 1e-9

    def test_plus_branch_ascends(self, hyperbolic_warp):
        spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                           epsilon=0.5)
        curve = solve_wing(spec, branch=1, stop=TerminationPolicy(r_max=10.0))
        assert np.all(np.diff(curve.t) > -1e-12)
        assert not curve.turning_points

    def test_gap_decreasing_in_epsilon(self, hyperbolic_warp):
        gaps = []
        for eps in (1.0, 0.1, 0.01):
            spec = SolitonSpec(c=1.0, n=2, family="wing",
                               warp=hyperbolic_warp, epsilon=eps)
            curve = solve_wing(spec, branch=-1,
                               stop=TerminationPolicy(r_max=30.0))
            s0 = curve.turning_points[0]
            gaps.append(-curve.sample(s0)[1])
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_bad_branch(self, hyperbolic_warp):
        spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                           epsilon=0.5)
        with pytest.raises(ValueError):
            solve_wing(spec, branch=0)

    @pytest.mark.parametrize("eps", [10.0, 12.0])
    def test_start_at_or_past_the_radius_stop(self, hyperbolic_warp, eps, monkeypatch):
        # once solved on past the radius stop, to the arc-length stop
        monkeypatch.setattr(dop853, "solve", None)  # no solve may start
        spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                           epsilon=eps)
        with pytest.raises(ValueError, match=rf"wing start radius r={eps} must lie "
                                             rf"below .*r_max=10"):
            solve_wing(spec, stop=TerminationPolicy(r_max=10.0))

    def test_needs_base_dimension_2(self, hyperbolic_warp):
        # with no drift the profile from phi = -pi/2 turns only by round-off
        with pytest.raises(ValueError, match="n >= 2, got 1"):
            SolitonSpec(c=1.0, n=1, family="wing", warp=hyperbolic_warp, epsilon=0.5)


class TestTableWarpDomain:
    """A table warp on [0, 5] is never evaluated past r = 5 by a solve."""

    def test_bowl_stops_at_the_domain_edge(self, hyperbolic_table_warp):
        spec = SolitonSpec(c=1.0, n=2, family="bowl", warp=hyperbolic_table_warp)
        curve = solve_bowl(spec, stop=TerminationPolicy(r_max=10.0))
        assert curve.termination == "domain_edge"
        assert curve.r[-1] == pytest.approx(5.0, abs=1e-12)
        assert curve.diagnostics["status"] == 1
        # inside the domain the radius limit still ends the solve
        inside = solve_bowl(spec, stop=TerminationPolicy(r_max=4.0))
        assert inside.termination == "max_radius"

    def test_wing_stops_at_the_domain_edge(self, hyperbolic_table_warp):
        spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_table_warp,
                           epsilon=0.5)
        curve = solve_wing(spec, branch=-1, stop=TerminationPolicy(r_max=10.0))
        assert curve.termination == "domain_edge" and curve.turning_points
        assert np.max(curve.r) <= 5.0 + 1e-12

    def test_start_outside_the_domain(self, hyperbolic_table_warp):
        spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_table_warp,
                           epsilon=6.0)
        with pytest.raises(ValueError, match="outside domain"):
            solve_wing(spec, stop=TerminationPolicy(r_max=10.0))

def _equilibrium_angle(spec):
    """Angle phi* at r = 0 where dphi/ds = c cos phi - D sin phi vanishes."""
    return math.atan2(spec.c, spec.warp.drift(0.0, spec.n))


class TestIdealParametric:
    def test_equilibrium_angle_value(self, busemann_warp):
        spec = SolitonSpec(c=1.0, n=2, family="ideal", warp=busemann_warp)
        assert _equilibrium_angle(spec) == pytest.approx(math.pi / 4)

    def test_equilibrium_is_fixed_line(self, busemann_warp):
        spec = SolitonSpec(c=1.0, n=2, family="ideal", warp=busemann_warp)
        phi_star = _equilibrium_angle(spec)
        curve = solve_ideal_parametric(spec, (0.0, 0.0, phi_star),
                                       stop=TerminationPolicy(s_max=20.0))
        assert np.max(np.abs(curve.phi - phi_star)) < 1e-9

    def test_ideal_bowl_angle_monotone_to_equilibrium(self, busemann_warp):
        spec = SolitonSpec(c=1.0, n=2, family="ideal", warp=busemann_warp)
        phi_star = _equilibrium_angle(spec)
        curve = solve_ideal_parametric(spec, (0.0, 0.0, 0.0),
                                       stop=TerminationPolicy(s_max=40.0))
        assert np.all(np.diff(curve.phi) >= -1e-8)
        assert curve.phi[-1] == pytest.approx(phi_star, abs=1e-6)

    @pytest.mark.parametrize("r0, r_max", [(0.0, 0.0), (0.0, -1.0), (2.0, 1.5)])
    def test_start_at_or_past_the_radius_stop(self, busemann_warp, r0, r_max,
                                              monkeypatch):
        # no root of r - r_max lies ahead of such a start
        monkeypatch.setattr(dop853, "solve", None)  # no solve may start
        spec = SolitonSpec(c=1.0, n=2, family="ideal", warp=busemann_warp)
        with pytest.raises(ValueError, match=rf"ideal start radius r={r0} .* r_max={r_max}"):
            solve_ideal_parametric(spec, (r0, 0.0, 0.0), stop=TerminationPolicy(r_max=r_max))

    def test_r_crosses_zero(self, busemann_warp):
        spec = SolitonSpec(c=1.0, n=2, family="ideal", warp=busemann_warp)
        curve = solve_ideal_parametric(spec, (0.2, 0.0, 2.5),
                                       stop=TerminationPolicy(s_max=10.0))
        assert np.min(curve.r) < 0 < np.max(curve.r)



class TestStopsAtOrBehindTheStart:
    """An arc-length stop at or behind the start, or a height stop t_max <= 0,
    raises before any right-hand side call: the solve would otherwise run
    back in s, return a one-point curve, or swap its two height stops."""

    @pytest.mark.parametrize("s_max", [-1.0, 0.0, AXIS_LAUNCH_S])
    def test_bowl(self, hyperbolic_bowl_spec, s_max, monkeypatch):
        monkeypatch.setattr(dop853, "solve", None)  # no solve may start
        with pytest.raises(ValueError, match=re.escape(
                f"s_max={s_max} must lie past the start s0={AXIS_LAUNCH_S}")):
            solve_bowl(hyperbolic_bowl_spec, stop=TerminationPolicy(s_max=s_max))

    @pytest.mark.parametrize("branch", [-1, 1])
    @pytest.mark.parametrize("s_max", [-1.0, 0.0])
    def test_wing(self, hyperbolic_warp, branch, s_max, monkeypatch):
        monkeypatch.setattr(dop853, "solve", None)
        spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                           epsilon=0.5)
        with pytest.raises(ValueError, match=re.escape(
                f"s_max={s_max} must lie past the start s0=0.0")):
            solve_wing(spec, branch=branch, stop=TerminationPolicy(s_max=s_max))

    @pytest.mark.parametrize("s0, s_max", [(0.0, -1.0), (0.0, 0.0)])
    def test_ideal(self, busemann_warp, s0, s_max, monkeypatch):
        monkeypatch.setattr(dop853, "solve", None)
        spec = SolitonSpec(c=1.0, n=2, family="ideal", warp=busemann_warp)
        with pytest.raises(ValueError, match=re.escape(
                f"s_max={s_max} must lie past the start s0={s0}")):
            solve_ideal_parametric(spec, (0.0, 0.0, 0.3),
                                   stop=TerminationPolicy(s_max=s_max))

    @pytest.mark.parametrize("t_max", [0.0, -1.0])
    def test_height_stop(self, t_max):
        with pytest.raises(ValueError, match=re.escape(f"t_max must be > 0, got {t_max}")):
            TerminationPolicy(t_max=t_max)


class TestProfileToGraph:
    def test_bowl_graph(self, hyperbolic_bowl_spec):
        curve = solve_bowl(hyperbolic_bowl_spec,
                           stop=TerminationPolicy(r_max=10.0))
        graph = profile_to_graph(curve)
        assert np.all(np.diff(graph.r_grid) > 0)
        assert graph.du[0] == pytest.approx(0.0, abs=1e-3)
        # recorded slopes are consistent with the height samples
        fd = np.gradient(graph.u, graph.r_grid)
        assert np.max(np.abs(graph.du - fd)[1:-1]) < 1e-3

    def test_vertical_curve_rejected(self, hyperbolic_warp):
        spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                           epsilon=0.5)
        curve = solve_wing(spec, branch=-1,
                           stop=TerminationPolicy(r_max=20.0))
        graph = profile_to_graph(curve)
        # the admissible sub-arc excludes the vertical launch
        assert graph.r_grid[0] > 0.5 - 1e-3


@settings(max_examples=30, deadline=None)
@given(r=st.floats(min_value=0.05, max_value=10.0),
       phi=st.floats(min_value=-1.5, max_value=1.5),
       c=st.floats(min_value=0.0, max_value=5.0))
def test_rhs_tangent_is_unit(r, phi, c):
    warp = make_builtin_warp("rotational", -1.0)
    spec = SolitonSpec(c=c, n=2, family="bowl", warp=warp)
    dr, dt, _ = profile_rhs((r, phi), spec)
    assert math.hypot(dr, dt) == pytest.approx(1.0, abs=1e-12)


def _slope(r, y):
    return (y[1], (1.0 + y[1] ** 2) * (1.0 - y[1] / r))


@lru_cache(maxsize=None)
def _ode_solution(descending: bool):
    """The euclidean n = 2 bowl slope equation u'' = (1 + u'^2)(1 - u'/r),
    solved up or down in r: the DenseSolution of the package's DOP853
    run, and SciPy's OdeSolution of the same solve."""
    span = (6.0, 0.5) if descending else (0.5, 6.0)
    run = dop853.solve(_slope, span, (0.0, 0.2), 1e-11, 1e-13)
    sol = solve_ivp(_slope, span, (0.0, 0.2), method="DOP853", rtol=1e-11,
                    atol=1e-13, dense_output=True).sol
    return DenseSolution(run), sol


class TestDenseSolution:
    """The stacked evaluator of the package's DOP853 run equals SciPy's
    OdeSolution of the same solve bit for bit; a change in SciPy's
    interpolant or step selection fails here."""

    @settings(max_examples=60, deadline=None)
    @given(descending=st.booleans(),
           u=st.lists(st.floats(-0.05, 1.05), min_size=1, max_size=40))
    def test_random_points(self, descending, u):
        dense, sol = _ode_solution(descending)
        t = sol.t_min + (sol.t_max - sol.t_min) * np.array(u)
        got, want = dense(t), sol(t)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        got, want = dense(t[0]), sol(t[0])
        assert got.shape == want.shape == (2,)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("descending", [False, True])
    def test_every_step_boundary(self, descending):
        dense, sol = _ode_solution(descending)
        assert sol.ts.size > 20
        assert dense(sol.ts).tobytes() == sol(sol.ts).tobytes()
        for t in sol.ts:
            assert dense(np.asarray(t)).tobytes() == sol(np.asarray(t)).tobytes()

    def test_zero_length_solve(self):
        # a solve from t0 to t0 is refused, so no dense output holds a
        # constant step of length 0
        def decay(t, y):
            return [-v for v in y]
        with pytest.raises(ValueError, match="nonzero length"):
            dop853.solve(decay, (1.0, 1.0), (2.0,), 1e-3, 1e-6)
