"""Identity checks: flux, geodesic, drift, asymptotics, wing bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_forge import (
    CurvatureBounds, ProfileCurve, RadialGraph, SolitonSpec, TerminationPolicy, WarpModel,
    asymptotic_report, drift_identity_random, flux_residual, geodesic_residual, make_builtin_warp, perturb_curve,
    run_profile_checks, solve_bowl, solve_radial_graph, solve_wing,
    wing_height_report, wing_turning_flux,
)
from soliton_forge.diagnostics import INTEGRAL_TOL, WINDOWS, profile_identities
from soliton_forge.profile_solver import PROFILE_ROWS


@pytest.fixture(scope="module")
def hyperbolic_bowl_graph(hyperbolic_bowl_spec):
    return solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 20.0),
                              rtol=1e-11, atol=1e-13)


@pytest.fixture(scope="module")
def wing_minus(hyperbolic_warp):
    spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                       epsilon=0.5)
    return solve_wing(spec, branch=-1, stop=TerminationPolicy(r_max=25.0),
                      rtol=1e-11, atol=1e-13)


class TestFlux:
    def test_constant_slice_zero_speed(self, euclidean_warp):
        spec = SolitonSpec(c=0.0, n=2, family="bowl", warp=euclidean_warp)
        r = np.linspace(0.1, 5.0, 80)
        graph = RadialGraph(r_grid=r, u=np.zeros_like(r), du=np.zeros_like(r),
                            spec=spec)
        result = flux_residual(graph)
        assert result.passed
        assert result.max_abs_residual == pytest.approx(0.0, abs=1e-14)

    def test_euclidean_bowl(self, euclidean_bowl_spec):
        graph = solve_radial_graph(euclidean_bowl_spec, r_span=(0.0, 10.0),
                                   rtol=1e-11, atol=1e-13)
        result = flux_residual(graph)
        assert result.passed
        assert result.max_abs_residual <= 1e-7

    def test_hyperbolic_bowl(self, hyperbolic_bowl_spec):
        graph = solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 10.0),
                                   rtol=1e-11, atol=1e-13)
        result = flux_residual(graph)
        assert result.passed

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("K", [0.0, -1.0, -2.0])
    def test_residual_relative_to_flux_size(self, K, n):
        # both sides grow like xi^(n-1): the correct n = 3 bowl at K = -2
        # is 3.8e-2 off in absolute terms, 2e-11 relative to that size
        spec = SolitonSpec(c=1.0, n=n, family="bowl",
                           warp=make_builtin_warp("rotational", K))
        graph = solve_radial_graph(spec, r_span=(0.0, 10.0),
                                   rtol=1e-11, atol=1e-13)
        result = flux_residual(graph)
        assert result.passed
        assert result.details["max_abs_unscaled"] >= result.max_abs_residual

        def steeper(r):
            u, du = graph._dense(r)
            return u, du * (1 + 1e-4)
        # negative control: a slope 1e-4 too steep is 3e-5 to 9e-5 off
        assert not flux_residual(replace(graph, _dense=steeper)).passed

    def test_wrong_speed_fails(self, hyperbolic_bowl_spec):
        # negative control: the graph solved at c, checked against 1.01 c
        graph = solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 10.0),
                                   rtol=1e-11, atol=1e-13)
        faster = replace(hyperbolic_bowl_spec, c=1.01 * hyperbolic_bowl_spec.c)
        assert flux_residual(graph).max_abs_residual <= INTEGRAL_TOL
        assert flux_residual(graph, faster).max_abs_residual > INTEGRAL_TOL

    @pytest.mark.parametrize("n", [2, 3])
    def test_quadrature_error_estimate(self, hyperbolic_warp, n):
        # |GL32 - GL16| per segment, scaled like the residuals; unscaled the
        # n = 3 estimate is round-off on an integral of about 1e8
        spec = SolitonSpec(c=1.0, n=n, family="bowl", warp=hyperbolic_warp)
        graph = solve_radial_graph(spec, r_span=(0.0, 20.0),
                                   rtol=1e-11, atol=1e-13)
        assert 0.0 <= flux_residual(graph).details["gl_err"] < 1e-12

    def test_chart_mismatch(self, busemann_warp):
        from soliton_forge import solve_ideal_graph
        graph = solve_ideal_graph(1.0, 2, busemann_warp, r_span=(0.0, 0.5))
        with pytest.raises(ValueError):
            flux_residual(graph)

    def test_wing_turning_identity(self, wing_minus):
        result = wing_turning_flux(wing_minus)
        assert result.passed
        assert result.max_abs_residual <= 1e-6
        assert result.details["gl_err"] < 1e-10


class TestGeodesic:
    def test_bowl_residual_small(self, hyperbolic_bowl_spec):
        curve = solve_bowl(hyperbolic_bowl_spec,
                           stop=TerminationPolicy(r_max=15.0),
                           rtol=1e-11, atol=1e-13)
        result = geodesic_residual(curve)
        assert result.passed
        assert result.max_abs_residual <= 1e-6

    def test_zero_speed_catenoid_relation(self, euclidean_warp):
        # for c = 0 profiles are geodesics of lambda = r: r phi' = -sin phi
        spec = SolitonSpec(c=0.0, n=2, family="wing", warp=euclidean_warp,
                           epsilon=1.0)
        curve = solve_wing(spec, branch=1, stop=TerminationPolicy(r_max=10.0),
                           rtol=1e-11, atol=1e-13)
        result = geodesic_residual(curve)
        assert result.passed
        s = np.linspace(0.5, 5.0, 50)
        r, _, phi = curve.sample(s)
        h = 1e-4
        phid = (curve.sample(s + h)[2] - curve.sample(s - h)[2]) / (2 * h)
        assert np.max(np.abs(r * phid + np.sin(phi))) < 1e-6

    def test_vertical_line_is_not_geodesic(self, hyperbolic_warp):
        spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                           epsilon=0.5)
        s = np.linspace(0.0, 3.0, 400)
        line = ProfileCurve(spec, s, np.full_like(s, 0.5), -s,
                            np.full_like(s, -math.pi / 2))
        result = geodesic_residual(line)
        assert not result.passed
        assert result.max_abs_residual > 1e-1

    def test_perturbed_curve_fails(self, hyperbolic_bowl_spec):
        curve = solve_bowl(hyperbolic_bowl_spec,
                           stop=TerminationPolicy(r_max=15.0))
        bad = perturb_curve(curve, amplitude=1e-3)
        result = geodesic_residual(bad)
        assert not result.passed
        assert result.max_abs_residual > 1e-4

    @pytest.mark.parametrize("where", [0.3, 0.55, 0.8])
    def test_bump_is_caught_where_it_sits(self, hyperbolic_bowl_spec, where):
        # a t-bump of 1e-3 about half a window wide fails both checks, and
        # each records a worst window within one window of the bump's centre
        curve = solve_bowl(hyperbolic_bowl_spec, stop=TerminationPolicy(r_max=8.0),
                           rtol=1e-11, atol=1e-13)
        s = np.linspace(*curve.s_span, PROFILE_ROWS)
        r, t, phi = curve.sample(s)
        window = (s[-1] - s[0]) / WINDOWS
        s0 = s[0] + where * (s[-1] - s[0])
        bump = 1e-3 * np.exp(-(((s - s0) / (window / 2)) ** 2))
        for result in profile_identities(ProfileCurve(curve.spec, s, r, t + bump, phi)):
            assert result.max_abs_residual > 1e-4
            assert abs(result.details["worst_at"]["s"] - s0) <= window

    def test_equidistant_spec_is_refused(self, hyperbolic_bowl_spec):
        # lambda needs D = (n-1) xi'/xi, which the equidistant drift is not
        curve = solve_bowl(hyperbolic_bowl_spec, stop=TerminationPolicy(r_max=2.0))
        grim = SolitonSpec(c=1.0, n=2, family="grim",
                           warp=make_builtin_warp("equidistant", -1.0))
        with pytest.raises(ValueError, match="equidistant"):
            profile_identities(curve, grim)

    def test_weight_past_the_float_range_is_refused(self):
        # a warp with no closed-form log xi overflows sinh past r = 710.5
        warp = WarpModel(kind="rotational", xi=np.sinh, dxi=np.cosh, ddxi=np.sinh,
                         r_domain=(0.0, math.inf))
        s = np.linspace(0.0, 800.0, 801)
        ray = ProfileCurve(SolitonSpec(c=0.0, n=2, family="bowl", warp=warp),
                           s, s, np.zeros_like(s), np.zeros_like(s))
        with pytest.raises(ValueError, match="log xi is not finite at r=7"):
            profile_identities(ray)


@pytest.fixture(scope="module")
def readme_profiles(hyperbolic_warp, busemann_warp):
    """The in-memory bowl, wing and ideal profiles of the README's
    ``soliton`` commands, solved as those commands solve them."""
    from soliton_forge import solve_ideal_parametric
    stop, tight = TerminationPolicy(r_max=10.0), {"rtol": 1e-11, "atol": 1e-13}
    bowl = SolitonSpec(c=1.0, n=2, family="bowl", warp=hyperbolic_warp)
    wing = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp, epsilon=0.5)
    ideal = SolitonSpec(c=1.5, n=2, family="ideal", warp=busemann_warp)
    return {"bowl": solve_bowl(bowl, stop=stop, **tight),
            "wing": solve_wing(wing, stop=stop, **tight),
            "ideal": solve_ideal_parametric(ideal, (0.0, 0.0, 0.0),
                                            stop=TerminationPolicy(r_max=5.0))}


class TestDrift:
    @pytest.mark.parametrize("family", ["bowl", "wing", "ideal"])
    def test_profile_wrong_speed_fails(self, readme_profiles, family):
        # negative control: the in-memory profile solved at c passes the
        # window identities, and fails them checked against 1.01 c
        curve = readme_profiles[family]
        assert profile_identities(curve)[1].max_abs_residual <= INTEGRAL_TOL
        faster = replace(curve.spec, c=1.01 * curve.spec.c)
        assert profile_identities(curve, faster)[1].max_abs_residual > 1e-3

    def test_single_state_substitution(self, hyperbolic_warp):
        # r=1, phi=pi/6, n=2, c=1: identity vanishes by construction
        from soliton_forge.diagnostics import _drift_residual_states
        res = _drift_residual_states(np.array([1.0]), np.array([math.pi / 6]),
                                     1.0, 2, hyperbolic_warp)
        assert abs(float(res[0])) < 1e-12

    def test_radial_turning_state(self, hyperbolic_warp):
        # phi = 0: identity reads c = c
        from soliton_forge.diagnostics import _drift_residual_states
        res = _drift_residual_states(np.array([2.0]), np.array([0.0]),
                                     3.0, 2, hyperbolic_warp)
        assert float(res[0]) == 0.0

    def test_randomized_states(self, hyperbolic_bowl_spec):
        result = drift_identity_random(hyperbolic_bowl_spec, n_states=10_000)
        assert result.passed
        assert result.max_abs_residual <= 1e-10

    @pytest.mark.parametrize("wrong", ["speed", "drift"])
    def test_randomized_states_read_the_solver_field(self, hyperbolic_bowl_spec,
                                                     monkeypatch, wrong):
        # negative controls: a field at 1.01 c leaves 0.01 c cos^2 phi, and a
        # field with its drift scaled by 1.01 leaves -0.01 D cos phi sin phi
        from soliton_forge import diagnostics
        field = diagnostics._profile_field

        def skewed(c, drift, cphi, sphi):
            if wrong == "speed":
                return field(1.01 * c, drift, cphi, sphi)
            return field(c, 1.01 * drift, cphi, sphi)
        monkeypatch.setattr(diagnostics, "_profile_field", skewed)
        result = drift_identity_random(hyperbolic_bowl_spec, n_states=10_000)
        assert not result.passed
        assert result.max_abs_residual > 1e-3

    def test_perturbed_curve_fails(self, hyperbolic_bowl_spec):
        curve = solve_bowl(hyperbolic_bowl_spec,
                           stop=TerminationPolicy(r_max=15.0))
        bad = perturb_curve(curve, amplitude=1e-3)
        result = profile_identities(bad)[1]
        assert not result.passed
        assert result.max_abs_residual > 1e-4


class TestAsymptotics:
    def test_hyperbolic_bowl(self, hyperbolic_bowl_graph):
        result = asymptotic_report(hyperbolic_bowl_graph,
                                   bounds=CurvatureBounds(-1.0, -1.0))
        assert result.applicable
        assert result.passed
        # psi < 0 where the gap is above round-off: -0.13 at r = 2, the
        # decade's start; the true psi(20) is about e^-40, below round-off,
        # so its sign is noise and it is held to criterion 05's 1e-9 slack
        assert result.details["psi_start"] < -1e-3
        assert abs(result.details["psi_end"]) < 1e-9

    def test_euclidean_not_applicable(self, euclidean_bowl_spec):
        graph = solve_radial_graph(euclidean_bowl_spec, r_span=(0.0, 20.0))
        result = asymptotic_report(graph, bounds=CurvatureBounds(0.0, 0.0))
        assert not result.applicable
        assert not result.passed

    def test_bounds_estimated_when_missing(self, hyperbolic_bowl_graph):
        result = asymptotic_report(hyperbolic_bowl_graph)
        assert result.applicable
        assert result.details["K_plus"] == pytest.approx(-1.0, abs=1e-6)


class TestWingHeight:
    def test_bounds_hold(self, wing_minus):
        result = wing_height_report(wing_minus)
        assert result.passed
        d = result.details
        assert d["lower"] <= d["gap"] <= d["upper"]
        assert d["r_turn"] - d["epsilon"] <= math.pi / 2

    def test_fast_speed_tight_radius(self, hyperbolic_warp):
        spec = SolitonSpec(c=10.0, n=2, family="wing", warp=hyperbolic_warp,
                           epsilon=0.1)
        curve = solve_wing(spec, branch=-1, stop=TerminationPolicy(r_max=5.0))
        result = wing_height_report(curve)
        assert result.details["r_turn"] - 0.1 <= math.pi / 20 + 1e-9

    def test_plus_branch_rejected(self, hyperbolic_warp):
        spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                           epsilon=0.5)
        curve = solve_wing(spec, branch=1, stop=TerminationPolicy(r_max=5.0))
        with pytest.raises(ValueError):
            wing_height_report(curve)


class TestReportPlumbing:
    def test_bundle_passes_for_wing(self, wing_minus):
        report = run_profile_checks(wing_minus)
        assert report.passed
        names = {c.name for c in report.checks}
        assert {"conformal_geodesic", "drift_identity",
                "wing_turning_flux", "wing_height_gap"} <= names

    def test_json_shape(self, wing_minus):
        report = run_profile_checks(wing_minus)
        payload = report.to_dict()
        assert payload["passed"] is True
        for entry in payload["checks"]:
            assert {"check", "max_abs", "rms", "n", "tol",
                    "pass", "worst_at"} <= set(entry)

    def test_worst_position_in_json(self, wing_minus, hyperbolic_bowl_graph):
        # the window checks name an arc length, the flux check a radius, and
        # a check with no position null
        checks = run_profile_checks(wing_minus).to_dict()["checks"]
        worst = {c["check"]: c["worst_at"] for c in checks}
        lo, hi = wing_minus.s_span
        assert all(lo < worst[name]["s"] < hi for name in ("conformal_geodesic", "drift_identity"))
        assert worst["wing_turning_flux"] is None and worst["wing_height_gap"] is None
        flux = flux_residual(hyperbolic_bowl_graph).to_dict()["worst_at"]
        assert set(flux) == {"r"} and 0.0 < flux["r"] <= 20.0
        assert drift_identity_random(wing_minus.spec, n_states=10).to_dict()["worst_at"] is None


@settings(max_examples=40, deadline=None)
@given(r=st.floats(min_value=0.01, max_value=30.0),
       phi=st.floats(min_value=-math.pi, max_value=math.pi),
       c=st.floats(min_value=0.0, max_value=10.0),
       n=st.integers(min_value=2, max_value=6))
def test_drift_identity_everywhere(r, phi, c, n):
    from soliton_forge.diagnostics import _drift_residual_states
    warp = make_builtin_warp("rotational", -1.0)
    res = _drift_residual_states(np.array([r]), np.array([phi]), c, n, warp)
    assert abs(float(res[0])) < 1e-9 * max(1.0, c * c)


def _windows_ref(curve):
    """The four window residuals, window by window: each window's edges and
    32 Gauss–Legendre nodes sampled with dense calls of their own, lambda
    formed directly as e^{ct} xi^{n-1}."""
    c, n, warp = curve.spec.c, curve.spec.n, curve.spec.warp
    x, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(*curve.s_span, 65)
    res = np.empty((4, 64))
    for i, (sa, sb) in enumerate(zip(edges[:-1], edges[1:])):
        half = (sb - sa) / 2
        r, t, phi = curve.sample(sa + half * (x + 1))
        (ra, ta, pa), (rb, tb, pb) = curve.sample(sa), curve.sample(sb)
        lam, a = np.exp(c * t) * warp.xi(r) ** (n - 1), warp.drift(r, n)
        lam_a, lam_b = (math.exp(c * tv) * warp.xi(rv) ** (n - 1)
                        for rv, tv in ((ra, ta), (rb, tb)))
        size = half * np.dot(w, (c + np.abs(a) + 1) * lam)
        c_lam, a_lam = half * np.dot(w, c * lam), half * np.dot(w, a * lam)
        res[:, i] = ((lam_b * math.sin(pb) - lam_a * math.sin(pa) - c_lam) / size,
                     (lam_b * math.cos(pb) - lam_a * math.cos(pa) - a_lam) / size,
                     (rb - ra - half * np.dot(w, np.cos(phi))) / (sb - sa),
                     (tb - ta - half * np.dot(w, np.sin(phi))) / (sb - sa))
    return res


class TestDenseEvaluations:
    """Both curve checks read one dense evaluation of every window edge and
    node, shared by r, t and phi, and their residuals are the window
    identities computed window by window."""

    @pytest.fixture(scope="class")
    def bowl(self, hyperbolic_bowl_spec):
        return solve_bowl(hyperbolic_bowl_spec, stop=TerminationPolicy(r_max=8.0))

    @staticmethod
    def _run_counted(check, curve, monkeypatch):
        """The dense calls of ``check(curve)`` and the residuals it reports."""
        from soliton_forge import diagnostics
        calls, residuals = [], []
        sample = curve.sample

        def counted(s):
            calls.append(s)
            return sample(s)

        def capture(name, res, *args, **kwargs):
            residuals.append(np.asarray(res))
            return result(name, res, *args, **kwargs)

        result = diagnostics._result
        monkeypatch.setattr(diagnostics, "_result", capture)
        curve.sample = counted
        try:
            check(curve)
        finally:
            del curve.sample
        return len(calls), residuals

    def _sampled(self, bowl):
        return ProfileCurve(bowl.spec, bowl.s, bowl.r, bowl.t, bowl.phi)

    @staticmethod
    def _matches(res, ref):
        # the residuals are about 1e-10; the two orders of summation differ
        # by round-off on terms of size 1
        return np.allclose(res, ref.ravel(), rtol=0, atol=1e-13)

    def test_geodesic_one_evaluation(self, bowl, monkeypatch):
        calls, (res, _) = self._run_counted(geodesic_residual, bowl, monkeypatch)
        assert calls == 1
        assert self._matches(res, _windows_ref(bowl))

    def test_geodesic_sampled_curve(self, bowl, monkeypatch):
        curve = self._sampled(bowl)
        calls, (res, _) = self._run_counted(geodesic_residual, curve, monkeypatch)
        assert calls == 1
        assert self._matches(res, _windows_ref(curve))

    def test_drift_profile_curve(self, bowl, monkeypatch):
        calls, (_, res) = self._run_counted(profile_identities, bowl, monkeypatch)
        assert calls == 1
        assert self._matches(res, _windows_ref(bowl)[[0, 3]])

    def test_drift_sampled_curve(self, bowl, monkeypatch):
        curve = self._sampled(bowl)
        calls, (_, res) = self._run_counted(profile_identities, curve, monkeypatch)
        assert calls == 1
        assert self._matches(res, _windows_ref(curve)[[0, 3]])

    def test_profile_checks_share_one_sampling(self, bowl, wing_minus, monkeypatch):
        # a bowl's two checks read one dense call; a descending wing's
        # turning-flux and height checks add two calls each
        calls, (geo, drift) = self._run_counted(run_profile_checks, bowl, monkeypatch)
        assert calls == 1
        ref = _windows_ref(bowl)
        assert self._matches(geo, ref) and self._matches(drift, ref[[0, 3]])
        calls, residuals = self._run_counted(run_profile_checks, wing_minus, monkeypatch)
        assert calls == 5
        assert self._matches(residuals[0], _windows_ref(wing_minus))


@pytest.mark.parametrize("K", [-2.0, -1.0, -0.3, -0.01, 0.0])
def test_riccati_slopes_match_finite_differences(K):
    """The slopes the wing and asymptotic reports take in closed form,
    (xi'/xi)' = -K - (xi'/xi)^2 and (xi/xi')' = 1 + K (xi/xi')^2, agree
    with five-point differences of xi'/xi and xi/xi'."""
    from soliton_forge import radial_curvature

    warp = make_builtin_warp("rotational", K)
    r, h = np.linspace(0.5, 4.0, 50), 1e-3

    def fd(f):
        return (f(r - 2 * h) - 8 * f(r - h) + 8 * f(r + h) - f(r + 2 * h)) / (12 * h)
    curvature, ratio, g = radial_curvature(warp, r), warp.xi_ratio(r), warp.g(r)
    assert np.allclose(-curvature - ratio * ratio, fd(warp.xi_ratio), rtol=1e-8, atol=0)
    assert np.allclose(1.0 + curvature * g * g, fd(warp.g), rtol=0, atol=1e-11)
