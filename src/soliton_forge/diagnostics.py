"""Independent verification of soliton identities.

Each curve check recomputes a claimed identity with machinery that does
not share code with the solver that produced the input: a fixed
Gauss–Legendre rule for the flux first integrals, and five-point finite
differences of the dense output for the geodesic system and the drift
identity.  Those two read every curve, in memory or resampled, through one
jet (:func:`_jet`), and never the solver right-hand side.
:func:`drift_identity_random` reads the solver's one field formula
(:func:`.profile_solver._profile_field`) by design: it tests that formula
against the drift identity at random states.  Results are collected in a
DiagnosticsReport of pass/fail records.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .graph_solvers import RadialGraph
from .profile_solver import PROFILE_ROWS, ProfileCurve, SolitonSpec, _profile_field
from .warp_models import CurvatureBounds, ROTATIONAL, radial_curvature

INTEGRAL_TOL = 1e-6
#: Gauss–Legendre nodes and weights on [-1, 1]: the value rule and the
#: coarser rule whose difference from it is the error estimate
GL_VALUE = np.polynomial.legendre.leggauss(32)
GL_CHECK = np.polynomial.legendre.leggauss(16)
#: arc-length samples and step of the finite-difference checks, and the
#: distance from a rotational axis inside which a sample is dropped
FD_SAMPLES, FD_STEP, FD_R_MIN = 400, 2e-3, 1e-2
#: eps and r_min of the slope sandwich in asymptotic_report
SANDWICH_EPS, SANDWICH_R_MIN = 0.05, 10.0


@dataclass(frozen=True)
class CheckResult:
    """One verification record; pass means max residual within tolerance."""

    name: str
    max_abs_residual: float
    rms_residual: float
    n_samples: int
    tolerance: float
    passed: bool
    applicable: bool = True
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "max_abs": self.max_abs_residual,
            "rms": self.rms_residual,
            "n": self.n_samples,
            "tol": self.tolerance,
            "pass": self.passed,
            "applicable": self.applicable,
        }


@dataclass
class DiagnosticsReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}


def _result(name, res, tol, applicable=True, details=None) -> CheckResult:
    res = np.atleast_1d(np.asarray(res, dtype=float))
    max_abs = float(np.max(np.abs(res))) if res.size else 0.0
    rms = float(np.sqrt(np.mean(res**2))) if res.size else 0.0
    return CheckResult(name=name, max_abs_residual=max_abs, rms_residual=rms,
                       n_samples=int(res.size), tolerance=tol,
                       passed=bool(applicable and max_abs <= tol),
                       applicable=applicable, details=details or {})


def _gauss_legendre(f, edges):
    """Integral of f over each panel [edges[i], edges[i + 1]] by the 32-point
    Gauss–Legendre rule, and |GL32 - GL16| per panel as its error estimate.

    f is called once, on the nodes of both rules in every panel.
    """
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    nodes = mid[:, None] + half[:, None] * np.concatenate((GL_VALUE[0], GL_CHECK[0]))
    vals = f(nodes.ravel()).reshape(nodes.shape)
    k = GL_VALUE[0].size
    value = half * (vals[:, :k] @ GL_VALUE[1])
    return value, np.abs(value - half * (vals[:, k:] @ GL_CHECK[1]))


def flux_residual(graph: RadialGraph, spec: SolitonSpec | None = None) -> CheckResult:
    """First integral (u'/W) xi^{n-1} |_{r_a}^{r} = int_{r_a}^{r} (c/W) xi^{n-1}.

    The right side is recomputed by a fixed Gauss–Legendre rule (32
    nodes) on the dense slope record, segment by segment, so it shares no
    stepper state with the solver that produced the graph.  Both sides grow
    like xi^{n-1}, so the residual at each of 59 checked radii r is divided
    by max(1, xi^{n-1}(r)); ``details["max_abs_unscaled"]`` keeps the raw
    one.  ``details["gl_err"]`` is the largest per-segment |GL32 - GL16|,
    divided by the same scale.
    """
    spec = spec or graph.spec
    if graph.chart != "polar":
        raise ValueError(f"flux check needs the polar chart, got {graph.chart!r}")
    c, n, warp = spec.c, spec.n, spec.warp

    def integrand(r):
        du = graph.du_eval(r)
        return c / np.sqrt(1.0 + du * du) * warp.xi(r) ** (n - 1)

    r_a, r_b = graph.r_span
    r_pts = np.linspace(r_a, r_b, 60)
    du = graph.du_eval(r_pts)
    weight = warp.xi(r_pts) ** (n - 1)
    lhs = du / np.sqrt(1.0 + du * du) * weight
    vals, errs = _gauss_legendre(integrand, r_pts)
    # summed in order from the anchor, segment by segment
    residuals = lhs[1:] - np.cumsum(np.concatenate(([lhs[0]], vals)))[1:]
    scale = np.maximum(1.0, weight[1:])
    return _result("flux_first_integral", residuals / scale, INTEGRAL_TOL,
                   details={"r_span": (r_a, r_b), "anchor": float(lhs[0]),
                            "max_abs_unscaled": float(np.max(np.abs(residuals))),
                            "gl_err": float(np.max(errs / scale))})


def wing_turning_flux(curve: ProfileCurve) -> CheckResult:
    """Turning-point flux identity of the descending wing branch.

    Integrating the flux form along the branch from the inner boundary
    radius eps to the turning radius r0 (where the tangent is radial)
    gives xi^{n-1}(eps) = int c cos^2(phi) xi^{n-1} ds, computed by the
    32-point Gauss–Legendre rule on 8 equal panels of [0, s_turn];
    ``details["gl_err"]`` sums the panels' |GL32 - GL16|.
    """
    spec = curve.spec
    if spec.family != "wing":
        raise ValueError("turning flux check needs a wing profile")
    if not curve.turning_points:
        raise ValueError("no turning point on this branch")
    c, n, warp = spec.c, spec.n, spec.warp
    s_turn = curve.turning_points[0]

    def integrand(s):
        r, _, phi = curve.sample(s)
        return c * np.cos(phi) ** 2 * warp.xi(r) ** (n - 1)

    vals, errs = _gauss_legendre(integrand, np.linspace(0.0, s_turn, 9))
    val = float(np.sum(vals))
    target = warp.xi(spec.epsilon) ** (n - 1)
    r0 = curve.sample(s_turn)[0]
    return _result("wing_turning_flux", val - target, INTEGRAL_TOL,
                   details={"s_turn": s_turn, "r_turn": float(r0),
                            "integral": val, "target": target,
                            "gl_err": float(np.sum(errs))})


#: a curve's r and phi at its samples, and the five-point derivatives in
#: arc length of step FD_STEP there
_Jet = namedtuple("_Jet", "r phi rd td phid rdd tdd")


def _check_spec(curve, spec: SolitonSpec | None) -> SolitonSpec:
    """The spec a curve check runs against: ``spec``, else the curve's own."""
    spec = spec or curve.spec
    if spec is None:
        raise ValueError("a profile check needs a spec: pass one, or a curve that carries one")
    return spec


def _jet(curve, spec: SolitonSpec) -> _Jet:
    """The jet at FD_SAMPLES interior arc lengths, padded so the stencil
    s - 2h, ..., s + 2h stays inside the span: all five offsets are one
    dense evaluation, and on a rotational warp of ``spec``, the spec the
    check runs against, the samples whose centre lies within FD_R_MIN of
    the axis are dropped.  A span shorter than the padding 5h raises
    ValueError before any sampling, and so does one with no sample left."""
    h = FD_STEP
    lo, hi = curve.s_span
    if hi - lo < 5 * h:
        raise ValueError("curve too short for the requested stencil")
    s = np.linspace(lo + 2.5 * h, hi - 2.5 * h, FD_SAMPLES)
    stencil = np.concatenate((s - 2 * h, s - h, s, s + h, s + 2 * h))
    # (r, t, phi) x offset x sample
    v = np.asarray(curve.sample(stencil)).reshape(3, 5, -1)
    if spec.warp.kind == ROTATIONAL:
        v = v[:, :, v[0, 2] > FD_R_MIN]
    if not v.shape[2]:
        raise ValueError("curve too short for the requested stencil")
    # five-point centred first and second derivatives, O(h^4)
    rd, td, phid = (v[:, 0] - 8 * v[:, 1] + 8 * v[:, 3] - v[:, 4]) / (12 * h)
    rdd, tdd = (-v[:2, 0] + 16 * v[:2, 1] - 30 * v[:2, 2] + 16 * v[:2, 3]
                - v[:2, 4]) / (12 * h * h)
    return _Jet(v[0, 2], v[2, 2], rd, td, phid, rdd, tdd)


def geodesic_residual(curve, spec: SolitonSpec | None = None) -> CheckResult:
    """Profile curves are pregeodesics of the conformal metric
    lambda^2 (dr^2 + dt^2) with lambda = e^{ct} xi^{n-1}.

    Two residuals are evaluated on the curve's jet (:func:`_jet`), whose
    finite differences read the dense output, never the solver right-hand
    side:

    * reduced:  dphi/ds - c cos(phi) + (n-1)(xi'/xi) sin(phi)
    * full geodesic system, corrected for the arc-length (non-affine)
      parametrization by the tangential term mu = c t' + A r' with
      A = (n-1) xi'/xi = (d/dr) log lambda:

          r'' + A (r'^2 - t'^2) + 2 c r' t' - mu r' = 0
          t'' + c (t'^2 - r'^2) + 2 A r' t' - mu t' = 0
    """
    spec = _check_spec(curve, spec)
    return _geodesic(_jet(curve, spec), spec)


def _geodesic(jet: _Jet, spec: SolitonSpec) -> CheckResult:
    c, rd, td = spec.c, jet.rd, jet.td
    a = spec.warp.drift(jet.r, spec.n)
    reduced = jet.phid - c * np.cos(jet.phi) + a * np.sin(jet.phi)
    mu = c * td + a * rd
    full_r = jet.rdd + a * (rd**2 - td**2) + 2 * c * rd * td - mu * rd
    full_t = jet.tdd + c * (td**2 - rd**2) + 2 * a * rd * td - mu * td

    res = np.concatenate((reduced, full_r, full_t))
    return _result("conformal_geodesic", res, INTEGRAL_TOL,
                   details={"h": FD_STEP,
                            "max_reduced": float(np.max(np.abs(reduced))),
                            "max_full": float(max(np.max(np.abs(full_r)),
                                                  np.max(np.abs(full_t))))})


def _drift_identity(jet: _Jet, spec: SolitonSpec) -> CheckResult:
    c, td = spec.c, jet.td
    res = jet.tdd + spec.warp.drift(jet.r, spec.n) * jet.rd * td + c * td**2 - c
    return _result("drift_identity", res, INTEGRAL_TOL, details={"h": FD_STEP})


def profile_identities(curve, spec: SolitonSpec | None = None) -> tuple:
    """The :func:`geodesic_residual` result of one curve and its drift
    identity t'' + (n-1)(xi'/xi) r' t' + c t'^2 - c = 0, both read from one
    jet (:func:`_jet`) at the integral tolerance: a curve solved at another
    c, or with another drift than ``spec``'s, fails the identity."""
    spec = _check_spec(curve, spec)
    jet = _jet(curve, spec)
    return _geodesic(jet, spec), _drift_identity(jet, spec)


def _drift_residual_states(r, phi, c, n, warp):
    """The drift identity t'' + D r' t' + c t'^2 - c at states (r, phi), with
    (r', t', phi') from the solver's field formula and t'' = r' phi'."""
    a = warp.drift(r, n)
    rd, td, phid = _profile_field(c, a, np.cos(phi), np.sin(phi))
    return rd * phid + a * rd * td + c * td**2 - c


def drift_identity_random(spec: SolitonSpec, n_states: int = 10_000,
                          seed: int = 0) -> CheckResult:
    """Same identity at randomized (r, phi) states, with dphi/ds from the
    solver's field formula: a field with c' != c leaves (c' - c) cos^2 phi,
    one with drift D' != D leaves (D - D') cos phi sin phi."""
    r_range = (1e-3, 20.0)
    rng = np.random.default_rng(seed)
    r = rng.uniform(*r_range, size=n_states)
    phi = rng.uniform(-math.pi, math.pi, size=n_states)
    res = _drift_residual_states(r, phi, spec.c, spec.n, spec.warp)
    return _result("drift_identity_random", res, 1e-10,
                   details={"seed": seed, "r_range": r_range})


def asymptotic_report(graph: RadialGraph, spec: SolitonSpec | None = None,
                      bounds: CurvatureBounds | None = None) -> CheckResult:
    """Outer-decade slope asymptotics u'(r) ~ (c/(n-1)) xi/xi'.

    Tracks psi = u' - (c/(n-1)) xi/xi' and lam = (xi/xi') psi over the
    last decade of the grid.  Pass requires psi eventually negative,
    |psi| and |lam| shrinking across the decade, and the two-sided slope
    sandwich (1-eps) zeta <= u' <= zeta for r >= SANDWICH_R_MIN with
    eps = SANDWICH_EPS and zeta the asymptotic slope.  Applicability
    needs strictly negative radial curvature from above (K_plus < 0) and
    |(xi/xi')'| < 0.2 at 0.9 of the last radius; failures of these
    hypotheses are reported as "not applicable" rather than as check
    failures.
    """
    spec = spec or graph.spec
    c, n, warp = spec.c, spec.n, spec.warp
    r_a, r_b = graph.r_span
    r_lo = max(r_b / 10.0, r_a)
    r = np.linspace(r_lo, r_b, 200)

    if bounds is not None:
        k_plus = bounds.K_plus
    else:
        k_plus = float(np.max(radial_curvature(warp, np.linspace(
            max(r_a, 1e-2), r_b, 64))))
    # (xi/xi')' = 1 + K (xi/xi')^2, the Riccati identity of g = xi/xi'
    g_end = warp.g(0.9 * r_b)
    g_slope_end = 1.0 + radial_curvature(warp, 0.9 * r_b) * g_end * g_end
    applicable = (k_plus < 0) and abs(g_slope_end) < 0.2

    g = warp.g(r)
    zeta = (c / (n - 1)) * g
    du = graph.du_eval(r)
    psi = du - zeta
    lam = g * psi

    # the true gap decays below the integration error far out; allow
    # slack at the solver noise floor
    slack = 1e-9
    eventually_negative = bool(np.all(psi < slack))
    shrink = bool(abs(psi[-1]) < abs(psi[0]) + slack
                  and abs(lam[-1]) < abs(lam[0]) + slack)
    far = r >= SANDWICH_R_MIN
    if far.any():
        zs, ds = zeta[far], du[far]
        sandwich = bool(np.all((1 - SANDWICH_EPS) * zs <= ds + slack)
                        and np.all(ds <= zs + slack))
    else:
        sandwich = True
    ok = eventually_negative and shrink and sandwich
    return CheckResult(
        name="asymptotic_slope",
        max_abs_residual=float(np.max(np.abs(psi))),
        rms_residual=float(np.sqrt(np.mean(psi**2))),
        n_samples=int(r.size),
        tolerance=math.inf,
        passed=bool(applicable and ok),
        applicable=bool(applicable),
        details={"K_plus": float(k_plus),
                 "psi_start": float(psi[0]), "psi_end": float(psi[-1]),
                 "lam_start": float(lam[0]), "lam_end": float(lam[-1]),
                 "eventually_negative": eventually_negative,
                 "decade_shrink": shrink, "sandwich": sandwich,
                 "decade": (float(r_lo), float(r_b))})


def wing_height_report(curve: ProfileCurve) -> CheckResult:
    """Height gap t(eps) - t(r0) of the descending wing branch against the
    analytic sandwich and the turning-radius bound r0 - eps <= pi/(2c).

    The sandwich needs (xi'/xi)' = -K - (xi'/xi)^2 <= 0 between eps and r0;
    that hypothesis is sampled and reported.
    """
    spec = curve.spec
    if spec.family != "wing":
        raise ValueError("height report needs a wing profile")
    if not curve.phi[0] < 0:
        raise ValueError("height report needs the descending branch")
    if not curve.turning_points:
        raise ValueError("no turning point found; extend the termination policy")
    c, n, warp, eps = spec.c, spec.n, spec.warp, spec.epsilon
    s_turn = curve.turning_points[0]
    r0, t_turn, _ = curve.sample(s_turn)
    gap = curve.sample(0.0)[1] - t_turn

    angle = math.pi / 2 - c * (r0 - eps)
    lower = warp.g(eps) * angle / (n - 1)
    upper = warp.g(r0) * angle / (n - 1)
    r_h = np.linspace(eps, r0, 64)
    # (xi'/xi)' = -K - (xi'/xi)^2, the Riccati identity of xi'/xi
    ratio = warp.xi_ratio(r_h)
    ratio_slope = -radial_curvature(warp, r_h) - ratio * ratio
    hypothesis = bool(np.all(ratio_slope <= 1e-10))
    radius_ok = bool(r0 - eps <= math.pi / (2 * c) + 1e-12)
    sandwich_ok = bool(lower - 1e-12 <= gap <= upper + 1e-12)
    ok = hypothesis and radius_ok and sandwich_ok
    violation = max(0.0, lower - gap, gap - upper,
                    (r0 - eps) - math.pi / (2 * c))
    return CheckResult(
        name="wing_height_gap", max_abs_residual=float(violation),
        rms_residual=float(violation), n_samples=1, tolerance=1e-12,
        passed=ok, applicable=True,
        details={"epsilon": eps, "r_turn": float(r0), "gap": float(gap),
                 "lower": float(lower), "upper": float(upper),
                 "radius_bound_ok": radius_ok,
                 "ratio_monotone_hypothesis": hypothesis})


def perturb_curve(curve: ProfileCurve, amplitude: float = 1e-3) -> ProfileCurve:
    """Negative control: the curve resampled at PROFILE_ROWS uniform arc
    lengths with t <- t + A sin(s), as a ProfileCurve of the same spec.

    The perturbed curve must fail the geodesic and drift checks at the
    integral tolerance; used to confirm the diagnostics have teeth.
    """
    s = np.linspace(*curve.s_span, PROFILE_ROWS)
    r, t, phi = curve.sample(s)
    return ProfileCurve(curve.spec, s, r, t + amplitude * np.sin(s), phi)


def run_profile_checks(curve: ProfileCurve) -> DiagnosticsReport:
    """Bundle of the checks applicable to one profile curve."""
    checks = list(profile_identities(curve))
    # the descending wing branch starts at phi = -pi/2
    if curve.spec.family == "wing" and curve.turning_points and curve.phi[0] < 0:
        checks += [wing_turning_flux(curve), wing_height_report(curve)]
    return DiagnosticsReport(checks)
