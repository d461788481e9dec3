"""Flow discretization, stepping, and the monotonicity functional."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.special import gamma

from soliton_forge import (
    FlowProblem, bump_initial, discrete_soliton, flat_initial,
    make_builtin_warp, soliton_initial, sphere_area,
)
from soliton_forge.fileio import export_trajectory_csv, read_table
from soliton_forge import spline
from soliton_forge.mcf_flow import FLOW_RECORD, _solve_newton_system, run_counts
from soliton_forge.spline import Tridiagonal

C, N = 1.0, 2


@pytest.fixture(scope="module")
def hyper_problem(hyperbolic_warp):
    return FlowProblem(C, N, hyperbolic_warp, r_max=10.0, n_nodes=2001)


class TestSphereArea:
    def test_circle(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_two_sphere(self):
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_three_sphere(self):
        assert sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-15)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            sphere_area(0)

    @pytest.mark.parametrize("n", range(2, 21, 2))
    def test_even_dimensions_keep_scipy_gamma_bits(self, n):
        # math.gamma and scipy.special.gamma agree at the integers n / 2;
        # at half-integers they may differ in the last bit
        assert sphere_area(n) == 2.0 * math.pi ** (n / 2) / gamma(n / 2)

    def test_largest_dimension_keeps_its_formula(self):
        assert sphere_area(343) == 2.0 * math.pi ** 171.5 / math.gamma(171.5) > 0.0

    @pytest.mark.parametrize("n", [344, 400, 10**400])
    def test_gamma_overflow_is_refused(self, euclidean_warp, n):
        # math.gamma(172) raises OverflowError, which `flow --n 344` printed
        # as a traceback; the problem refuses such an n before its grid
        message = rf"dimension n = {n} is not in 1\.\.343, where Gamma\(n/2\) is a float"
        with pytest.raises(ValueError, match=message):
            sphere_area(n)
        with pytest.raises(ValueError, match=message):
            FlowProblem(C, n, euclidean_warp, r_max=1.0, n_nodes=2)


class TestSpatialOperator:
    def test_constant_slice_is_static(self, euclidean_warp):
        prob = FlowProblem(C, N, euclidean_warp, r_max=5.0, n_nodes=201,
                           bc="dirichlet")
        f = prob.rhs(np.full(201, 0.7))
        assert np.max(np.abs(f)) == 0.0

    def test_axis_value_of_paraboloid(self, euclidean_warp):
        # u = alpha r^2 has u'' = 2 alpha, so the axis speed is 2 n alpha
        prob = FlowProblem(C, N, euclidean_warp, r_max=5.0, n_nodes=501,
                           robin_slope=0.0)
        alpha = 0.3
        f = prob.rhs(alpha * prob.r_grid ** 2)
        assert f[0] == pytest.approx(2 * N * alpha, rel=1e-12)

    def test_soliton_near_fixed_point(self, hyper_problem):
        u0 = soliton_initial(hyper_problem)
        hyper_problem.pin_boundary_slopes(u0)
        assert np.max(np.abs(hyper_problem.rhs(u0) - C)) < 5e-6

    def test_discrete_soliton_exact_fixed_point(self, hyper_problem):
        u0 = discrete_soliton(hyper_problem)
        assert np.max(np.abs(hyper_problem.rhs(u0) - C)) < 1e-9
        assert u0[-1] == 0.0

    def test_discrete_matches_ode_soliton(self, hyper_problem):
        ud = discrete_soliton(hyper_problem)
        uo = soliton_initial(hyper_problem)
        gap = (ud - ud[0]) - (uo - uo[0])
        assert np.max(np.abs(gap)) < 1e-5

    def test_robin_slope_required(self, hyperbolic_warp):
        prob = FlowProblem(C, N, hyperbolic_warp, r_max=5.0, n_nodes=101)
        with pytest.raises(ValueError):
            prob.rhs(np.zeros(101))

    def test_soliton_that_blows_up_is_rejected(self, hyperbolic_warp):
        # n = 1 has no drift: the bowl graph u = -ln cos r is vertical at
        # pi/2 < R, so the grid past it has no heights
        prob = FlowProblem(C, 1, hyperbolic_warp, r_max=10.0, n_nodes=201)
        with pytest.raises(RuntimeError, match=r"blows up at r = 1\.5708"):
            soliton_initial(prob)

    def test_grim_chart_near_fixed_point(self, equidistant_warp):
        prob = FlowProblem(C, N, equidistant_warp, r_max=8.0, n_nodes=1601)
        u0 = soliton_initial(prob)
        prob.pin_boundary_slopes(u0)
        assert np.max(np.abs(prob.rhs(u0) - C)) < 1e-4

    def test_chart_is_not_a_parameter(self, hyperbolic_warp):
        # the chart is the warp's; TestDriftWeight checks it on both charts
        with pytest.raises(TypeError):
            FlowProblem(C, N, hyperbolic_warp, chart="polar")

    def test_busemann_warp_rejected(self, busemann_warp):
        with pytest.raises(ValueError, match="busemann"):
            FlowProblem(C, N, busemann_warp, r_max=4.0, n_nodes=41)

    def test_equidistant_needs_n2(self, equidistant_warp):
        with pytest.raises(ValueError, match="n = 2"):
            FlowProblem(C, 3, equidistant_warp, r_max=4.0, n_nodes=41)

    def test_grid_outside_warp_domain(self, hyperbolic_table_warp):
        with pytest.raises(ValueError, match="outside domain"):
            FlowProblem(C, N, hyperbolic_table_warp, r_max=10.0, n_nodes=201)
        FlowProblem(C, N, hyperbolic_table_warp, r_max=5.0, n_nodes=201)


CHART_BC = [("polar", "robin"), ("polar", "dirichlet"),
            ("equidistant", "robin"), ("equidistant", "dirichlet")]


def _small_problem(chart, bc, c=C):
    """41 nodes on R = 4 with K = -1 and a Robin slope of 0.7."""
    warp = make_builtin_warp("rotational" if chart == "polar" else "equidistant", -1.0)
    return FlowProblem(c, N, warp, r_max=4.0, n_nodes=41, bc=bc, robin_slope=0.7)


class TestGhostClosure:
    @pytest.mark.parametrize("chart,bc", CHART_BC)
    def test_jacobian_matches_finite_differences(self, chart, bc):
        # a ghost coefficient left on its own row, or an unheld Dirichlet
        # row, misses by about 1/dr^2 = 100
        prob = _small_problem(chart, bc)
        u = 0.5 * np.sin(prob.r_grid) + 0.1 * prob.r_grid ** 2
        _, p, q, w2 = prob._rhs(u)
        lower, diag, upper = prob._jacobian(p, q, w2)
        dense = np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)
        h = 1e-6
        fd = np.column_stack([(prob.rhs(u + h * e) - prob.rhs(u - h * e)) / (2 * h)
                              for e in np.eye(u.size)])
        assert np.max(np.abs(dense - fd)) <= 1e-7

    @pytest.mark.parametrize("chart,bc", CHART_BC)
    @settings(max_examples=40, deadline=None)
    @given(amp=st.floats(-1.0, 1.0), freq=st.floats(0.0, 2.0),
           curv=st.floats(-0.5, 0.5), shift=st.floats(-1e4, 1e4))
    def test_rhs_commutes_with_vertical_shift(self, chart, bc, amp, freq, curv,
                                              shift):
        # every ghost is affine in u with weights summing to one; the ghost
        # also carries 2 dr |slope| < 1, hence the 1 in the round-off scale
        prob = _small_problem(chart, bc)
        u = amp * np.sin(freq * prob.r_grid) + curv * prob.r_grid ** 2
        ulp = np.spacing(abs(shift) + np.max(np.abs(u)) + 1.0)
        gap = np.max(np.abs(prob.rhs(u + shift) - prob.rhs(u)))
        assert gap <= 32 * ulp / prob.dr ** 2


def _curvature_defect(prob, u, tau):
    """D from the mean curvature H = q/W^3 + D p/W (the axis row scaled, no
    row held): |S^{n-1}| int K (H - c/W)^2 W xi^{n-1} dr, and its round-off
    scale |S^{n-1}| int K (|W H| + |c|)^2 / W xi^{n-1} dr."""
    p, q = prob._differences(u)
    w2 = 1.0 + p * p
    big_w = np.sqrt(w2)
    k = np.exp(prob.c * u - prob.c * prob.c * tau)
    h = q / w2 ** 1.5 + prob.drift * p / big_w
    h[0] *= prob._axis
    return (prob._integral(k * (h - prob.c / big_w) ** 2 * big_w * prob.weight),
            prob._integral(k * (np.abs(big_w * h) + abs(prob.c)) ** 2 / big_w
                           * prob.weight))


class TestDefect:
    @pytest.mark.parametrize("chart,bc", CHART_BC)
    @settings(max_examples=40, deadline=None)
    @given(amp=st.floats(-1.0, 1.0), freq=st.floats(0.0, 2.0),
           curv=st.floats(-0.5, 0.5), c=st.floats(0.25, 2.0) | st.floats(-2.0, -0.25),
           tau=st.floats(0.0, 1.0))
    def test_defect_is_the_curvature_formula(self, chart, bc, amp, freq, curv, c,
                                             tau):
        # W H is the speed, so (H - c/W)^2 W = (u_tau - c)^2 / W up to the
        # round-off of f - c; a held row counts the speed it would have
        prob = _small_problem(chart, bc, c)
        u = amp * np.sin(freq * prob.r_grid) + curv * prob.r_grid ** 2
        d = prob.soliton_defect(u, tau)
        reference, scale = _curvature_defect(prob, u, tau)
        assert abs(d - reference) <= 1e-12 * scale
        # negative control: the reference at a speed 1 % off misses by far more
        off, _ = _curvature_defect(_small_problem(chart, bc, 1.01 * c), u, tau)
        assert abs(d - off) > 1e3 * 1e-12 * scale


def _per_node_drift_weight(warp, r, n, chart):
    """Node-by-node drift and weight, the reference for the array build."""
    if chart == "polar":
        drift = np.zeros_like(r)
        if n > 1:
            drift[1:] = (n - 1) * np.array([warp.xi_ratio(x) for x in r[1:]])
        weight = np.array([warp.xi(x) ** (n - 1) for x in r])
    else:
        # the equidistant flow chart has n = 2, so its weight is xi
        drift = np.array([warp.drift(x, n) for x in r])
        weight = np.array([warp.xi(x) for x in r])
    return drift, weight


class TestDriftWeight:
    @pytest.mark.parametrize("kind,curv,n,chart", [
        ("rotational", 0.0, 1, "polar"), ("rotational", 0.0, 2, "polar"),
        ("rotational", -1.0, 2, "polar"), ("rotational", -1.0, 3, "polar"),
        ("rotational", -0.3, 4, "polar"), ("equidistant", -1.0, 2, "equidistant"),
    ])
    def test_match_per_node_formulas(self, kind, curv, n, chart):
        warp = make_builtin_warp(kind, curv)
        prob = FlowProblem(C, n, warp, r_max=10.0, n_nodes=1001)
        assert prob.chart == chart
        drift, weight = _per_node_drift_weight(warp, prob.r_grid, n, chart)
        np.testing.assert_array_equal(prob.drift, drift)
        if n <= 2:
            np.testing.assert_array_equal(prob.weight, weight)
        else:
            # NumPy's array power and the C library's scalar pow may round
            # xi^(n-1) differently in the last place
            np.testing.assert_allclose(prob.weight, weight,
                                       rtol=2 * np.finfo(float).eps, atol=0)


class TestStepping:
    def test_explicit_stability_guard(self, hyper_problem):
        u0 = discrete_soliton(hyper_problem)
        dt = 2 * hyper_problem.stability_bound()
        with pytest.raises(ValueError, match="stability bound"):
            hyper_problem.run(u0, dt, dt, scheme="explicit")

    def test_run_checks_the_explicit_step_before_it_starts(self, hyperbolic_warp):
        prob = FlowProblem(C, N, hyperbolic_warp, r_max=4.0, n_nodes=41)
        dt = 2 * prob.stability_bound()
        with pytest.raises(ValueError, match="stability bound"):
            prob.run(flat_initial(prob), dt, 4 * dt)
        assert prob._sigma is None  # rejected before the Robin slope is pinned

    def test_explicit_implicit_agree(self, hyperbolic_warp):
        prob = FlowProblem(C, N, hyperbolic_warp, r_max=8.0, n_nodes=401)
        u0 = bump_initial(prob, base=discrete_soliton(prob))
        dt = 0.5 * prob.stability_bound()
        ue = prob.run(u0, dt, dt, scheme="explicit").snapshots[-1].u
        ui = prob.step_implicit(u0, dt)
        assert np.max(np.abs(ue - ui)) < 1e-8

    def test_horizon_must_divide(self, hyper_problem):
        u0 = discrete_soliton(hyper_problem)
        with pytest.raises(ValueError):
            hyper_problem.run(u0, 3e-4, 1e-3)

    @pytest.mark.parametrize("dtau, horizon", [(1e-3, 1e-10), (1.0, 1e-12)])
    def test_run_counts_refuses_zero_steps(self, dtau, horizon):
        # an absolute whole-step test would pass these as zero steps
        with pytest.raises(ValueError, match=rf"horizon = {horizon} is .* steps "
                                             rf"of dtau = {dtau}"):
            run_counts(dtau, horizon, 1)

    def test_run_refuses_zero_steps(self):
        # zero steps would return one record, at tau = 0 and not at the horizon
        prob = _small_problem("polar", "robin")
        with pytest.raises(ValueError, match="integer number of steps, at least one"):
            prob.run(flat_initial(prob), 1.0, 1e-12, scheme="implicit")

    def test_max_principle_for_bump(self, hyperbolic_warp):
        prob = FlowProblem(C, N, hyperbolic_warp, r_max=8.0, n_nodes=801)
        base = discrete_soliton(prob)
        u = bump_initial(prob, amplitude=0.1, base=base)
        sups = [np.max(u - base)]
        for _ in range(40):
            u = prob.step_implicit(u, 1e-3)
            sups.append(np.max(u - base - C * 1e-3 * len(sups)))
        assert all(b <= a + 1e-10 for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 0.99 * sups[0]

    def test_comparison_principle(self, euclidean_warp, rng):
        prob = FlowProblem(C, N, euclidean_warp, r_max=5.0, n_nodes=401,
                           bc="dirichlet")
        lo = flat_initial(prob)
        for _ in range(4):
            amp_lo, amp_hi = np.sort(rng.uniform(0.01, 0.3, size=2))
            width, center = rng.uniform(0.3, 1.0), rng.uniform(1.5, 3.5)
            a = lo + amp_lo * np.exp(-((prob.r_grid - center) / width) ** 2)
            b = lo + amp_hi * np.exp(-((prob.r_grid - center) / width) ** 2)
            for _ in range(10):
                a = prob.step_implicit(a, 5e-4)
                b = prob.step_implicit(b, 5e-4)
            assert np.all(b - a >= -1e-12)


class TestMonotonicity:
    def test_flat_slice_defect_oracle(self, euclidean_warp):
        # H = 0 on the flat slice, so D = |S^1| c^2 R^2 / 2 at tau = 0
        prob = FlowProblem(C, N, euclidean_warp, r_max=4.0, n_nodes=801,
                           bc="dirichlet")
        d = prob.soliton_defect(flat_initial(prob), 0.0)
        assert d == pytest.approx(2 * math.pi * C * C * 16.0 / 2, rel=1e-6)

    def test_soliton_keeps_functional_constant(self, hyper_problem):
        u0 = discrete_soliton(hyper_problem)
        traj = hyper_problem.run(u0, 1e-3, 0.05, scheme="implicit",
                                 record_every=10)
        f = traj.F_values
        assert np.max(np.abs(f - f[0])) < 1e-8 * abs(f[0])
        assert np.max(traj.defect_values) < 1e-12

    def test_bump_balance_hyperbolic(self, hyper_problem):
        base = discrete_soliton(hyper_problem)
        u0 = bump_initial(hyper_problem, amplitude=0.05, width=0.5,
                          center=3.0, base=base)
        traj = hyper_problem.run(u0, 5e-4, 0.05, scheme="implicit",
                                 record_every=2)
        chk = traj.monotonicity_check()
        assert chk["F_nonincreasing"]
        assert chk["balance_ok"]

    def test_translation_exactness_and_order(self, hyperbolic_warp):
        errs = {}
        for nodes in (501, 1001):
            prob = FlowProblem(C, N, hyperbolic_warp, r_max=10.0,
                               n_nodes=nodes)
            u0 = soliton_initial(prob)
            prob.pin_boundary_slopes(u0)
            traj = prob.run(u0, 2e-3, 1.0, scheme="implicit",
                            record_every=500)
            errs[nodes] = np.max(np.abs(traj.snapshots[-1].u - u0 - C))
        assert errs[1001] < 5e-5
        assert math.log2(errs[501] / errs[1001]) > 1.9

    def test_check_reports_min_allowed_gap(self, hyper_problem):
        u0 = discrete_soliton(hyper_problem)
        traj = hyper_problem.run(u0, 1e-3, 5e-3, scheme="implicit")
        chk = traj.monotonicity_check(tol_rel=1e-3, tol_abs=1e-6)
        allowed = 1e-3 * np.abs(traj.defect_values[1:-1]) + 1e-6
        assert chk["min_allowed_gap"] == float(np.min(allowed))
        assert "max_allowed_gap" not in chk

    def test_check_needs_three_records(self, hyper_problem):
        u0 = discrete_soliton(hyper_problem)
        traj = hyper_problem.run(u0, 1e-3, 2e-3, scheme="implicit",
                                 record_every=5)
        with pytest.raises(ValueError):
            traj.monotonicity_check()


class TestNonFinite:
    @pytest.mark.parametrize("kwargs, message", [
        ({"width": 0.0}, "bump width must be > 0"),
        ({"width": -0.5}, "bump width must be > 0"),
        ({"width": math.nan}, "must be finite"),
        ({"amplitude": math.inf}, "must be finite"),
        ({"center": -math.inf}, "must be finite"),
    ])
    def test_bump_rejects_bad_shape(self, kwargs, message):
        # a zero width divides by zero, and a negative one ran as its absolute value
        prob = _small_problem("polar", "robin")
        with pytest.raises(ValueError, match=message):
            bump_initial(prob, base=np.zeros(prob.r_grid.size), **kwargs)

    @pytest.mark.parametrize("kwargs", [{"center": 1e300}, {"center": -1e300},
                                        {"width": 1e-300}, {"width": 5e-324}],
                             ids=["far", "far-below", "narrow", "subnormal-width"])
    def test_far_or_narrow_bump_is_silent_and_exact(self, kwargs):
        # the scaled distance squares (or divides) to inf off the centre, where
        # exp(-inf) = 0 is the bump's exact value; the default centre 3 is a node
        prob = _small_problem("polar", "robin")
        base = 1.0 + 0.1 * np.sin(prob.r_grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = bump_initial(prob, base=base, **kwargs)
        off = prob.r_grid != 3.0 if "width" in kwargs else slice(None)
        assert _same_bits(u[off], base[off])
        if "width" in kwargs:
            assert u[30] == base[30] + 0.05

    @pytest.mark.parametrize("chart, r_max, nodes", [
        ("polar", 1e-300, 3), ("polar", 1e-160, 41), ("polar", 1e200, 3),
        ("equidistant", 1e-300, 5)],
        ids=["dr2-zero", "dr2-subnormal", "dr2-inf", "equidistant"])
    def test_grid_out_of_float_range_is_refused(self, chart, r_max, nodes):
        # dr^2 that underflows made the explicit step bound 0 and the implicit
        # Jacobian overflow; the problem refuses it before evaluating the warp
        warp = make_builtin_warp("rotational" if chart == "polar" else "equidistant",
                                 -1.0 if chart == "equidistant" else 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"grid spacing dr = .*not a normal"):
                FlowProblem(C, N, warp, r_max=r_max, n_nodes=nodes)

    def test_finest_normal_grid_is_accepted(self):
        # dr^2 at the smallest normal float still builds, with a positive bound
        warp = make_builtin_warp("rotational", 0.0)
        dr = math.sqrt(np.finfo(float).tiny) * (1 + 1e-15)
        prob = FlowProblem(C, N, warp, r_max=2 * dr, n_nodes=3)
        assert prob.stability_bound() > 0.0
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_step_implicit_rejects_non_finite_heights(self, bad):
        prob = _small_problem("polar", "robin")
        u = np.zeros(prob.r_grid.size)
        u[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            prob.step_implicit(u, 1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_step_explicit_rejects_non_finite_heights(self, bad):
        prob = _small_problem("polar", "robin")
        u = np.zeros(prob.r_grid.size)
        u[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            prob.run(u, 1e-3, 1e-3, scheme="explicit")

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_speed_must_be_finite(self, c):
        warp = make_builtin_warp("rotational", -1.0)
        with pytest.raises(ValueError, match="speed c"):
            FlowProblem(c, N, warp, r_max=4.0, n_nodes=41)

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_run_rejects_non_finite_heights(self, scheme, bad):
        prob = _small_problem("polar", "robin")
        u0 = np.zeros(prob.r_grid.size)
        u0[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            prob.run(u0, 1e-3, 2e-3, scheme=scheme)

    def test_overflowing_explicit_run_raises(self):
        # finite heights whose second differences overflow: the first Heun
        # step makes them non-finite, and the run, which checks them only
        # where it records, must still raise rather than return them
        prob = _small_problem("polar", "robin")
        u0 = 1e308 * (-1.0) ** np.arange(prob.r_grid.size)
        dtau = 0.5 * prob.stability_bound()
        with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                      match="non-finite"):
            prob.run(u0, dtau, 3 * dtau, record_every=10)

    # finite heights whose differences overflow: signs in pairs make the
    # starting residual NaN, alternating signs make it inf
    OVERFLOWING = [(2, "nan"), (1, "inf")]

    def test_nan_residual_is_not_accepted(self):
        # a residual that is not finite must fail the convergence test
        # rather than pass as a result
        prob = _small_problem("polar", "robin")
        for period, residual in self.OVERFLOWING:
            u = 1e308 * (-1.0) ** (np.arange(prob.r_grid.size) // period)
            with np.errstate(all="ignore"), pytest.raises(
                    RuntimeError,
                    match=rf"starting residual is not finite \(residual {residual}\)"):
                prob.step_implicit(u, 1e-3)

    def test_nan_residual_stops_newton_at_once(self):
        # one rhs for f_old, whose starting residual is already not finite:
        # no Newton iteration or line search may follow
        class Counted(FlowProblem):
            calls = 0

            def _rhs(self, u):
                Counted.calls += 1
                return super()._rhs(u)

        warp = make_builtin_warp("rotational", -1.0)
        prob = Counted(C, N, warp, r_max=4.0, n_nodes=41, robin_slope=0.7)
        for period, residual in self.OVERFLOWING:
            Counted.calls = 0
            u = 1e308 * (-1.0) ** (np.arange(prob.r_grid.size) // period)
            with np.errstate(all="ignore"), pytest.raises(
                    RuntimeError,
                    match=rf"starting residual is not finite \(residual {residual}\)"):
                prob.step_implicit(u, 1e-3)
            assert Counted.calls == 1

    @pytest.mark.parametrize("dtau", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_step_rejects_dtau_not_finite_and_positive(self, scheme, dtau):
        prob = _small_problem("polar", "robin")
        u = flat_initial(prob)
        with pytest.raises(ValueError, match="dtau"):
            if scheme == "explicit":
                prob.run(u, dtau, 1e-3, scheme="explicit")
            else:
                prob.step_implicit(u, dtau)

    def test_singular_newton_system_raises(self):
        # J = I with half = 1 makes I - half J zero, so gtsv meets an exact
        # zero pivot in its first column
        m = 5
        with pytest.raises(np.linalg.LinAlgError, match="info = 1"):
            _solve_newton_system(Tridiagonal(m), np.zeros(m - 1), np.ones(m),
                                 np.zeros(m - 1), 1.0, np.ones(m))


def _record(traj):
    return {key: traj.diagnostics[key] for key in FLOW_RECORD}


class TestRunRecord:
    def test_counts_deterministic_and_zero_for_explicit(self, hyperbolic_warp):
        prob = FlowProblem(C, N, hyperbolic_warp, r_max=8.0, n_nodes=401)
        u0 = bump_initial(prob, base=discrete_soliton(prob))
        first = prob.run(u0, 5e-4, 0.01, scheme="implicit", record_every=4)
        again = prob.run(u0, 5e-4, 0.01, scheme="implicit", record_every=4)
        assert _record(first) == _record(again)
        # every step takes at least one Newton iteration from the state it
        # starts at
        assert first.diagnostics["newton_iterations"] >= 20
        assert 0.0 < first.diagnostics["max_accepted_residual"] <= 1e-10
        dtau = 0.5 * prob.stability_bound()
        explicit = prob.run(u0, dtau, 20 * dtau, scheme="explicit")
        assert _record(explicit) == {"newton_iterations": 0,
                                     "line_search_halvings": 0,
                                     "line_search_fallbacks": 0,
                                     "max_accepted_residual": 0.0}

    def test_fallback_is_recorded(self, hyperbolic_warp):
        # a rough start and a long step: one Newton iterate's eight halvings
        # all fail, the last trial is kept, and the step still converges
        prob = FlowProblem(C, N, hyperbolic_warp, r_max=4.0, n_nodes=101,
                           robin_slope=0.7)
        u0 = 2.0 * np.sin(7 * prob.r_grid) ** 2 * np.cos(7 * prob.r_grid)
        traj = prob.run(u0, 0.01, 0.01, scheme="implicit")
        record = _record(traj)
        assert record["line_search_fallbacks"] >= 1
        assert record["line_search_halvings"] >= 8
        assert record["max_accepted_residual"] <= 1e-10
        assert np.all(np.isfinite(traj.snapshots[-1].u))

    @pytest.mark.parametrize("scheme, calls", [("explicit", 21), ("implicit", 22)])
    def test_each_state_forms_one_stencil(self, scheme, calls):
        # a record reads the stencil its step formed: the start forms one, an
        # explicit step two (its second stage and the new state), an implicit
        # step, whose Newton starts at the state it carries, one per
        # line-search trial; a record that formed its own would add one per
        # record (31 and 32)
        class Counted(FlowProblem):
            calls = 0

            def _differences(self, u):
                Counted.calls += 1
                return super()._differences(u)

        warp = make_builtin_warp("rotational", -1.0)
        prob = Counted(C, N, warp, r_max=4.0, n_nodes=41, robin_slope=0.7)
        u0 = 0.3 * np.exp(-(prob.r_grid - 1.0) ** 2) + 0.1 * np.sin(prob.r_grid)
        steps = 10
        dtau = 0.5 * prob.stability_bound() if scheme == "explicit" else 2e-3
        traj = prob.run(u0, dtau, steps * dtau, scheme=scheme, record_every=1)
        tally = traj.diagnostics
        trials = (tally["newton_iterations"] + tally["line_search_halvings"]
                  - tally["line_search_fallbacks"])
        assert traj.taus.size == steps + 1
        assert Counted.calls == calls == 1 + (2 * steps if scheme == "explicit"
                                              else trials)

    @pytest.mark.parametrize("K, nodes, dtau, steps, every, bump", [
        (-1.0, 2001, 1e-3, 100, 1, None),
        (0.0, 8001, 5e-4, 200, 2, (0.05, 0.55, 3.5)),
        (-1.0, 8001, 5e-4, 200, 2, (0.05, 0.55, 3.5)),
    ], ids=["readme-flow", "bump-8001-K0", "bump-8001-K-1"])
    def test_one_stencil_pass_per_implicit_step(self, K, nodes, dtau, steps, every,
                                                bump):
        # Newton starts at the state the run carries, whose stencil gives its
        # first residual and Jacobian, and one full Newton step meets the
        # tolerance: a step costs one stencil pass, and the run one more at
        # its start.  The runs are the README's implicit flow (the soliton
        # graph at 2001 nodes) and a bump at the centre of the draw box of
        # the benchmark's flow runs; its tallest, narrowest draws take a
        # second iteration on some steps.
        class Counted(FlowProblem):
            calls = 0

            def _differences(self, u):
                Counted.calls += 1
                return super()._differences(u)

        prob = Counted(C, N, make_builtin_warp("rotational", K), r_max=10.0,
                       n_nodes=nodes)
        if bump is None:
            u0 = soliton_initial(prob)
        else:
            amplitude, width, center = bump
            u0 = bump_initial(prob, amplitude=amplitude, width=width, center=center,
                              base=discrete_soliton(prob))
        traj = prob.run(u0, dtau, steps * dtau, scheme="implicit", record_every=every)
        assert _record(traj)["newton_iterations"] == steps
        assert _record(traj)["line_search_halvings"] == 0
        assert Counted.calls == 1 + steps

    def test_memory_does_not_grow_with_records(self, hyperbolic_warp):
        # F and D are kept per record, heights only for the first and last
        # state: 1000 recorded steps on 2001 nodes peak within 1 MB of 20
        # (one record's heights are 16 kB)
        prob = FlowProblem(C, N, hyperbolic_warp, r_max=10.0, n_nodes=2001,
                           robin_slope=0.0)
        u0 = bump_initial(prob, base=flat_initial(prob))

        def peak(steps):
            tracemalloc.start()
            try:
                traj = prob.run(u0, 1e-3, steps * 1e-3, scheme="implicit")
                return tracemalloc.get_traced_memory()[1], traj
            finally:
                tracemalloc.stop()

        (short, _), (long, traj) = peak(20), peak(1000)
        assert long - short <= 2**20, (short, long)
        assert traj.taus.size == 1001 and len(traj.snapshots) == 2

    def test_trajectory_csv_leaves_out_the_record(self, hyper_problem, tmp_path):
        u0 = discrete_soliton(hyper_problem)
        traj = hyper_problem.run(u0, 1e-3, 3e-3, scheme="implicit")
        meta, names, _ = read_table(export_trajectory_csv(traj, tmp_path / "t.csv"))
        assert names == ["tau", "F", "D", "dF_dtau"]
        assert meta["scheme"] == "implicit"
        assert set(traj.diagnostics) == set(FLOW_RECORD)
        assert not set(meta) & set(FLOW_RECORD)
        assert not set(traj.meta) & set(FLOW_RECORD)


def _numpy_scalar_march(problem):
    """The node-by-node soliton march on NumPy scalars, the oracle for the
    Python-float march of discrete_soliton: (heights, Robin slope)."""
    c = problem.c
    dr, dr2 = problem.dr, problem.dr * problem.dr
    m = problem.r_grid.size
    u = np.zeros(m)
    u[1] = u[0] + c * dr2 / (2 * problem.n)
    for i in range(1, m - 1):
        a = problem.drift[i]
        x = 2 * u[i] - u[i - 1]
        for _ in range(30):
            p = (x - u[i - 1]) / (2 * dr)
            w2 = 1.0 + p * p
            q = (x - 2 * u[i] + u[i - 1]) / dr2
            g = q / w2 + a * p - c
            dg = 1.0 / (dr2 * w2) - q * p / (dr * w2 * w2) + a / (2 * dr)
            step = g / dg
            x -= step
            if abs(step) <= 1e-14 * max(1.0, abs(x)):
                break
        u[i + 1] = x
    a = problem.drift[-1]
    s = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * dr)
    for _ in range(30):
        w2 = 1.0 + s * s
        q = (2 * u[-2] - 2 * u[-1] + 2 * dr * s) / dr2
        g = q / w2 + a * s - c
        dg = 2.0 / (dr * w2) - 2.0 * q * s / (w2 * w2) + a
        step = g / dg
        s -= step
        if abs(step) <= 1e-15 * max(1.0, abs(s)):
            break
    return u - u[-1], float(s)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _record_heights(prob, u0, dtau, steps, every):
    """The heights at each record of an implicit run of ``steps`` steps that
    records every ``every``-th: a run keeps its first and last heights only,
    so each record's heights are the last of a run that ends there."""
    runs = [prob.run(u0, dtau, k * dtau, scheme="implicit", record_every=every)
            for k in (*range(every, steps, every), steps)]
    return [runs[0].snapshots[0].u] + [traj.snapshots[-1].u for traj in runs]


class TestSameBits:
    @pytest.mark.parametrize("chart,bc", CHART_BC)
    def test_run_matches_public_step_loop(self, chart, bc):
        # the run reuses each accepted iterate's rhs and records F and D from
        # one stencil; the public functions recompute everything
        prob = _small_problem(chart, bc)
        u0 = 0.3 * np.exp(-(prob.r_grid - 1.0) ** 2) + 0.1 * np.sin(prob.r_grid)
        dtau, steps, every = 2e-3, 12, 4
        traj = prob.run(u0, dtau, steps * dtau, scheme="implicit",
                        record_every=every)
        u, us, fs, ds = u0, [u0], [], []
        for i in range(1, steps + 1):
            u = prob.step_implicit(u, dtau)
            if i % every == 0:
                us.append(u)
        for j, u in enumerate(us):
            fs.append(prob.weighted_functional(u, j * every * dtau))
            ds.append(prob.soliton_defect(u, j * every * dtau))
        assert _same_bits(traj.F_values, fs)
        assert _same_bits(traj.defect_values, ds)
        assert _same_bits(_record_heights(prob, u0, dtau, steps, every), us)

    @pytest.mark.parametrize("chart,bc", CHART_BC)
    def test_implicit_run_same_on_both_solve_paths(self, chart, bc, monkeypatch):
        # the bundled LAPACK and the Python port behind spline.Tridiagonal
        u0 = 0.3 * np.exp(-(_small_problem(chart, bc).r_grid - 1.0) ** 2)
        runs = []
        for _ in range(2):
            prob = _small_problem(chart, bc)
            traj = prob.run(u0, 2e-3, 0.02, scheme="implicit", record_every=5)
            runs.append((traj.F_values, traj.defect_values,
                         _record_heights(prob, u0, 2e-3, 10, 5), _record(traj)))
            monkeypatch.setattr(spline, "_bundled_dgtsv", lambda: None)
        (*lapack, tally), (*port, port_tally) = runs
        assert tally == port_tally and tally["newton_iterations"] > 0
        for a, b in zip(lapack, port):
            assert _same_bits(a, b)

    @pytest.mark.parametrize("chart,bc", CHART_BC)
    def test_explicit_run_matches_public_step_loop(self, chart, bc):
        # the run carries each state's right-hand side into its next Heun
        # step; a loop that forms it afresh for every step gives the same bits
        prob = _small_problem(chart, bc)
        u0 = 0.3 * np.exp(-(prob.r_grid - 1.0) ** 2) + 0.1 * np.sin(prob.r_grid)
        dtau, steps = 0.5 * prob.stability_bound(), 9
        traj = prob.run(u0, dtau, steps * dtau, record_every=steps)
        u = u0
        for _ in range(steps):
            u = prob._heun(u, prob.rhs(u), dtau)
        assert _same_bits(traj.snapshots[-1].u, u)
        assert _same_bits(traj.F_values[-1:], [prob.weighted_functional(u, steps * dtau)])

    @pytest.mark.parametrize("curv,n,nodes", [(0.0, 2, 801), (-1.0, 2, 2001),
                                              (-1.0, 3, 501), (-0.3, 4, 301)])
    def test_discrete_soliton_matches_numpy_scalar_march(self, curv, n, nodes):
        prob = FlowProblem(C, n, make_builtin_warp("rotational", curv),
                           r_max=10.0, n_nodes=nodes)
        u, sigma = _numpy_scalar_march(prob)
        assert _same_bits(discrete_soliton(prob), u)
        assert prob._sigma == sigma

    @pytest.mark.parametrize("chart", ["polar", "equidistant"])
    @pytest.mark.parametrize("nodes", [3, 4, 5, 8, 2000, 2001])
    def test_quadrature_is_scipy_simpson(self, chart, nodes):
        # odd node counts pair every interval; even ones correct the last
        warp = make_builtin_warp("rotational" if chart == "polar" else "equidistant", -1.0)
        prob = FlowProblem(C, 2, warp, r_max=7.3, n_nodes=nodes)
        y = np.random.default_rng(nodes).standard_normal(nodes) * np.exp(prob.r_grid)
        assert _same_bits(prob._integral(y), prob.area * simpson(y, x=prob.r_grid))

    @pytest.mark.parametrize("chart", ["polar", "equidistant"])
    @settings(max_examples=15, deadline=None)
    @given(amp=st.floats(-0.5, 0.5), shift=st.floats(-20.0, 20.0))
    def test_robin_run_commutes_with_vertical_shift(self, chart, amp, shift):
        # u0 + C flows to u + C, and F = int exp(c u - c^2 tau) W xi^(n-1)
        # scales by exp(c C); round-off is set by the size of the heights
        prob = _small_problem(chart, "robin")
        u0 = amp * np.exp(-(prob.r_grid - 1.0) ** 2) + 0.1 * np.sin(prob.r_grid)
        base = prob.run(u0, 1e-3, 0.02, scheme="implicit", record_every=5)
        moved = prob.run(u0 + shift, 1e-3, 0.02, scheme="implicit",
                         record_every=5)
        ulp = np.spacing(abs(shift) + np.max(np.abs(u0)) + 1.0)
        for a, b in zip(_record_heights(prob, u0, 1e-3, 20, 5),
                        _record_heights(prob, u0 + shift, 1e-3, 20, 5)):
            assert np.max(np.abs(b - (a + shift))) <= 32 * ulp
        ratio = moved.F_values / (base.F_values * math.exp(C * shift))
        assert np.max(np.abs(ratio - 1.0)) <= 32 * ulp


@pytest.mark.parametrize("K, r_max, nodes", [(-1.0, 10.0, 2001), (0.0, 4.0, 201),
                                             (-1.0, 0.01, 201)])
def test_soliton_initial_is_the_bowl_graph_on_the_flow_grid(K, r_max, nodes):
    """soliton_initial is graph.u_eval on the flow grid bit for bit, nodes
    below the launch radius included (on r_max = 0.01 the node r = 5e-5 is)."""
    from soliton_forge import SolitonSpec, solve_radial_graph

    warp = make_builtin_warp("rotational", K)
    prob = FlowProblem(1.0, 2, warp, r_max=r_max, n_nodes=nodes)
    spec = SolitonSpec(c=1.0, n=2, family="bowl", warp=warp)
    graph = solve_radial_graph(spec, r_span=(0.0, r_max * 1.01), rtol=1e-11, atol=1e-13)
    u0 = soliton_initial(prob)
    assert u0.tobytes() == np.asarray(graph.u_eval(prob.r_grid), dtype=float).tobytes()
    assert u0[:1].tobytes() == np.zeros(1).tobytes()


def test_soliton_initial_is_the_grim_graph_on_the_flow_grid(equidistant_warp):
    from soliton_forge import solve_grim

    prob = FlowProblem(1.0, 2, equidistant_warp, r_max=4.0, n_nodes=201)
    graph = solve_grim(1.0, 2, equidistant_warp, r_span=(-4.04, 4.04),
                       rtol=1e-11, atol=1e-13)
    assert soliton_initial(prob).tobytes() == graph.u_eval(prob.r_grid).tobytes()


@pytest.mark.parametrize("slope", [math.nan, math.inf, -math.inf])
def test_non_finite_robin_slope_is_rejected_when_built(hyperbolic_warp, equidistant_warp,
                                                       slope):
    # unchecked, it would surface only as a NaN Newton residual in the first step
    for warp in (hyperbolic_warp, equidistant_warp):
        with pytest.raises(ValueError, match="robin_slope must be finite"):
            FlowProblem(C, N, warp, r_max=4.0, n_nodes=41, robin_slope=slope)
