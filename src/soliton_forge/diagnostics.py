"""Independent verification of soliton identities.

Every curve check recomputes an identity in integral form, by one fixed
Gauss–Legendre rule (:func:`_gauss_legendre`), from sampled values of a
graph or profile, solved or resampled alike: never a derivative of the
curve, nor the solver right-hand side.  :func:`drift_identity_random`
alone reads the solver's field formula (:func:`.profile_solver._profile_field`),
by design: it tests that formula against the drift identity at random states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph_solvers import RadialGraph
from .profile_solver import PROFILE_ROWS, ProfileCurve, SolitonSpec, _profile_field
from .warp_models import EQUIDISTANT, CurvatureBounds, radial_curvature

INTEGRAL_TOL = 1e-6
#: Gauss–Legendre nodes and weights on [-1, 1]: the value rule and the
#: coarser rule whose difference from it is the error estimate
GL_VALUE = np.polynomial.legendre.leggauss(32)
GL_CHECK = np.polynomial.legendre.leggauss(16)
#: equal arc-length windows of the profile identities
WINDOWS = 64
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
            "worst_at": self.details.get("worst_at"),
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


def _result(name, res, tol, details) -> CheckResult:
    res = np.atleast_1d(np.asarray(res, dtype=float))
    max_abs = float(np.max(np.abs(res)))
    return CheckResult(name=name, max_abs_residual=max_abs,
                       rms_residual=float(np.sqrt(np.mean(res**2))),
                       n_samples=int(res.size), tolerance=tol,
                       passed=max_abs <= tol, details=details)


def _panel_nodes(edges, rules=(GL_VALUE, GL_CHECK)):
    """The nodes of the Gauss–Legendre ``rules`` in each panel [edges[i],
    edges[i + 1]], one row per panel."""
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    return mid[:, None] + half[:, None] * np.concatenate([x for x, _ in rules])


def _gauss_legendre(vals, edges):
    """Integral over each panel [edges[i], edges[i + 1]] by the 32-point
    Gauss–Legendre rule of one or several integrands, whose values at
    ``_panel_nodes(edges, rules).ravel()`` fill the last axis of ``vals``,
    and |GL32 - GL16| per panel as its error estimate: None when ``rules``
    is the 32-point rule alone.
    """
    half = (edges[1:] - edges[:-1]) / 2
    vals = vals.reshape(vals.shape[:-1] + (half.size, -1))
    k = GL_VALUE[0].size
    value = half * (vals[..., :k] @ GL_VALUE[1])
    if vals.shape[-1] == k:
        return value, None
    return value, np.abs(value - half * (vals[..., k:] @ GL_CHECK[1]))


def flux_residual(graph: RadialGraph, spec: SolitonSpec | None = None) -> CheckResult:
    """First integral (u'/W) xi^{n-1} |_{r_a}^{r} = int_{r_a}^{r} (c/W) xi^{n-1}.

    The right side is recomputed by a fixed Gauss–Legendre rule (32
    nodes) on the dense slope record, segment by segment, so it shares no
    stepper state with the solver that produced the graph.  Both sides grow
    like xi^{n-1}, so the residual at each of 59 checked radii r is divided
    by max(1, xi^{n-1}(r)); ``details["max_abs_unscaled"]`` keeps the raw
    one.  ``details["gl_err"]`` is the largest per-segment |GL32 - GL16|,
    divided by the same scale, and ``details["worst_at"]`` the radius of
    the largest scaled residual.
    """
    spec = spec or graph.spec
    if graph.chart != "polar":
        raise ValueError(f"flux check needs the polar chart, got {graph.chart!r}")
    c, n, warp = spec.c, spec.n, spec.warp

    r_a, r_b = graph.r_span
    r_pts = np.linspace(r_a, r_b, 60)
    du = graph.du_eval(r_pts)
    weight = warp.xi(r_pts) ** (n - 1)
    lhs = du / np.sqrt(1.0 + du * du) * weight
    r = _panel_nodes(r_pts).ravel()
    du = graph.du_eval(r)
    vals, errs = _gauss_legendre(c / np.sqrt(1.0 + du * du) * warp.xi(r) ** (n - 1), r_pts)
    # summed in order from the anchor, segment by segment
    residuals = lhs[1:] - np.cumsum(np.concatenate(([lhs[0]], vals)))[1:]
    scale = np.maximum(1.0, weight[1:])
    scaled = residuals / scale
    return _result("flux_first_integral", scaled, INTEGRAL_TOL,
                   details={"r_span": (r_a, r_b), "anchor": float(lhs[0]),
                            "worst_at": {"r": float(r_pts[1 + np.argmax(np.abs(scaled))])},
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
    edges = np.linspace(0.0, s_turn, 9)
    r, _, phi = curve.sample(_panel_nodes(edges).ravel())
    vals, errs = _gauss_legendre(c * np.cos(phi) ** 2 * warp.xi(r) ** (n - 1), edges)
    val = float(np.sum(vals))
    target = warp.xi(spec.epsilon) ** (n - 1)
    r0 = curve.sample(s_turn)[0]
    return _result("wing_turning_flux", val - target, INTEGRAL_TOL,
                   details={"s_turn": s_turn, "r_turn": float(r0),
                            "integral": val, "target": target,
                            "gl_err": float(np.sum(errs))})


def _window_identities(curve, spec: SolitonSpec):
    """The four window identities of an arc-length profile, with lambda =
    e^{ct} xi^{n-1} and A = ``warp.drift`` = (n-1) xi'/xi,

        [lambda sin phi] = c int lambda      [r] = int cos phi
        [lambda cos phi] = int A lambda      [t] = int sin phi,

    on WINDOWS equal arc-length windows by the 32-point rule, from one dense
    evaluation of edges and nodes: residuals (4, WINDOWS), the flux rows
    divided by the window's int lambda (c + |A| + 1) and the kinematic rows
    by its length, and the window centres.  log lambda is taken relative to
    its largest value on each window's nodes, so lambda never overflows and
    is exactly 0 at an edge on the rotational axis, where the interior
    nodes never read A.
    """
    c, n, warp = spec.c, spec.n, spec.warp
    if warp.kind == EQUIDISTANT:
        raise ValueError("an equidistant warp defines no lambda = e^{ct} xi^{n-1} to check")
    edges = np.linspace(*curve.s_span, WINDOWS + 1)
    nodes = _panel_nodes(edges, (GL_VALUE,)).ravel()
    r, t, phi = curve.sample(np.concatenate((edges, nodes)))
    log_lam = c * t
    if n > 1:
        with np.errstate(divide="ignore", over="ignore"):  # -inf on the axis: lambda = 0
            log_xi = warp.log_xi(r)
        if not (log_xi < np.inf).all():
            raise ValueError(f"log xi is not finite at r={r[~(log_xi < np.inf)][0]}")
        log_lam = log_lam + (n - 1) * log_xi
    k = edges.size
    node_log = log_lam[k:].reshape(WINDOWS, -1)
    ref = node_log.max(axis=1)
    lam = np.exp(node_log - ref[:, None]).ravel()
    lam_a, lam_b = np.exp(log_lam[:k - 1] - ref), np.exp(log_lam[1:k] - ref)
    a, phi_n = warp.drift(r[k:], n), phi[k:]
    (c_lam, a_lam, size, cos_int, sin_int), _ = _gauss_legendre(np.stack(
        (c * lam, a * lam, (c + np.abs(a) + 1) * lam, np.cos(phi_n), np.sin(phi_n))), edges)
    sin_e, cos_e, length = np.sin(phi[:k]), np.cos(phi[:k]), np.diff(edges)
    scale = np.stack((size, size, length, length))
    res = np.stack((lam_b * sin_e[1:] - lam_a * sin_e[:-1] - c_lam,
                    lam_b * cos_e[1:] - lam_a * cos_e[:-1] - a_lam,
                    np.diff(r[:k]) - cos_int,
                    np.diff(t[:k]) - sin_int)) / scale
    return res, (edges[1:] + edges[:-1]) / 2


def _window_check(name: str, res, centres) -> CheckResult:
    worst = np.argmax(np.abs(res).max(axis=0))
    return _result(name, res.ravel(), INTEGRAL_TOL,
                   details={"worst_at": {"s": float(centres[worst])}})


def geodesic_residual(curve, spec: SolitonSpec | None = None) -> CheckResult:
    """Profile curves are pregeodesics of the conformal metric
    lambda^2 (dr^2 + dt^2), lambda = e^{ct} xi^{n-1}: the weighted length
    int lambda ds has zero first variation.  ``conformal_geodesic`` holds
    the four identities of :func:`_window_identities`: (lambda t')' =
    c lambda is lambda times the drift identity t'' + A r' t' + c t'^2 - c
    = 0, and (lambda r')' = A lambda is lambda times the geodesic system's
    r-component.  ``details["worst_at"]`` is the centre s of the worst
    window.  A spec on the equidistant kind, which defines no lambda, or a
    curve on which log xi is not finite raises ValueError.
    """
    return profile_identities(curve, spec)[0]


def profile_identities(curve, spec: SolitonSpec | None = None) -> tuple:
    """The :func:`geodesic_residual` result of one curve and its
    ``drift_identity`` result, the two t identities [lambda sin phi] =
    c int lambda and [t] = int sin phi, both from one sampling at the
    integral tolerance: a curve solved at another c, or with another drift
    than ``spec``'s, fails them.  ``spec`` defaults to the curve's own."""
    spec = spec or curve.spec
    if spec is None:
        raise ValueError("a profile check needs a spec: pass one, or a curve that carries one")
    res, centres = _window_identities(curve, spec)
    return (_window_check("conformal_geodesic", res, centres),
            _window_check("drift_identity", res[[0, 3]], centres))


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

    Its t no longer integrates sin(phi), by about A cos(s) per unit length
    on each window, so the geodesic and drift checks must fail it.
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
