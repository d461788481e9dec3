"""Arc-length profile curves of equivariant translating solitons.

The profile (r(s), t(s)) of a rotationally symmetric soliton, together
with its tangent angle phi, solves the autonomous first-order system

    dr/ds   = cos(phi)
    dt/ds   = sin(phi)
    dphi/ds = c cos(phi) - (n-1) (xi'/xi) sin(phi).

Bowls launch from the rotation axis through a series expansion, wings
from (r, t, phi) = (eps, 0, +-pi/2), and the ideal (Busemann-chart)
family from arbitrary initial states with r unrestricted in sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .warp_models import BUSEMANN, EQUIDISTANT, ROTATIONAL, WarpModel

FAMILIES = ("bowl", "wing", "ideal", "grim")

#: warp kind each soliton family lives on
_FAMILY_KIND = {
    "bowl": ROTATIONAL,
    "wing": ROTATIONAL,
    "ideal": BUSEMANN,
    "grim": EQUIDISTANT,
}

_CHART_BY_KIND = {ROTATIONAL: "polar", BUSEMANN: "busemann", EQUIDISTANT: "equidistant"}

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
AXIS_LAUNCH_S = 1e-4
GRAPH_RDOT_MIN = 1e-6


@dataclass(frozen=True)
class SolitonSpec:
    """Soliton family parameters: speed c, base dimension n, warp model."""

    c: float
    n: int
    family: str
    warp: WarpModel
    epsilon: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ValueError(f"soliton speed c must be finite and >= 0, got {self.c}")
        if self.n < 1:
            raise ValueError("base dimension must be >= 1")
        if self.family == "wing":
            if self.epsilon is None or self.epsilon <= 0:
                raise ValueError("wing family needs epsilon > 0")
        if self.epsilon is not None and not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if self.n >= 2 and self.warp.kind != _FAMILY_KIND[self.family]:
            raise ValueError(
                f"family {self.family!r} needs a {_FAMILY_KIND[self.family]} warp, "
                f"got {self.warp.kind}")

    @property
    def chart(self) -> str:
        return _CHART_BY_KIND[self.warp.kind]


@dataclass(frozen=True)
class ProfileState:
    s: float
    r: float
    t: float
    phi: float

    @property
    def rdot(self) -> float:
        return math.cos(self.phi)

    @property
    def tdot(self) -> float:
        return math.sin(self.phi)


@dataclass(frozen=True)
class TerminationPolicy:
    s_max: float = 1e3
    r_max: float = 1e2
    t_max: float = 1e3

    def __post_init__(self):
        for name in ("s_max", "r_max", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass
class ProfileCurve:
    """Solution samples plus the solver's dense interpolant.

    ``sample(s)`` evaluates (r, t, phi) arrays anywhere inside ``s_span``;
    for bowls the series launch covers the gap [0, AXIS_LAUNCH_S).
    """

    spec: SolitonSpec
    s: np.ndarray
    r: np.ndarray
    t: np.ndarray
    phi: np.ndarray
    termination: str
    rtol: float
    atol: float
    diagnostics: dict = field(default_factory=dict)
    _sol: Callable | None = None
    _series: tuple | None = None  # (s0, t0) for the bowl axis launch

    @property
    def s_span(self) -> tuple:
        return float(self.s[0]), float(self.s[-1])

    def sample(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        lo, hi = self.s_span
        if np.any(s < lo - 1e-12) or np.any(s > hi + 1e-12):
            raise ValueError(f"s outside curve range [{lo}, {hi}]")
        if self._series is not None:
            s0, t0 = self._series
            early = s < s0
            out = np.empty((3, s.size))
            if np.any(~early):
                out[:, ~early] = self._sol(s[~early])
            if np.any(early):
                se = s[early]
                height, slope = axis_series(self.spec.c, self.spec.n, se)
                out[0, early] = se
                out[1, early] = t0 + height
                out[2, early] = slope
        else:
            out = self._sol(s)
        r, t, phi = out
        if scalar:
            return float(r[0]), float(t[0]), float(phi[0])
        return r, t, phi

    def dense_eval(self, s: float) -> ProfileState:
        r, t, phi = self.sample(float(s))
        return ProfileState(float(s), r, t, phi)

    @property
    def turning_points(self) -> list:
        return list(self.diagnostics.get("turning_s", []))


def axis_series(c: float, n: int, x):
    """Bowl launch at distance x (a float or an array) from the axis: the
    pair (height, slope) = ((c/(2n)) x^2, (c/n) x), with O(x^3) error since
    u''(0) = c/n.  The slope is phi of the arc-length profile, where r = s,
    and u' of the radial graph."""
    return (c / (2 * n)) * x**2, (c / n) * x


def _profile_field(spec: SolitonSpec, r, phi) -> tuple:
    """(dr/ds, dt/ds, dphi/ds) with dphi/ds = c cos(phi) - D(r) sin(phi)."""
    cphi, sphi = math.cos(phi), math.sin(phi)
    return (cphi, sphi, spec.c * cphi - spec.warp.drift(r, spec.n) * sphi)


def profile_rhs(state, spec: SolitonSpec):
    """Right-hand side of the first-order profile system at one state.

    ``state`` is a ProfileState or an (r, phi) pair; returns
    (dr/ds, dt/ds, dphi/ds).
    """
    if isinstance(state, ProfileState):
        r, phi = state.r, state.phi
    else:
        r, phi = state
    spec.warp.require_domain(r)
    return _profile_field(spec, r, phi)


def _integrate(spec: SolitonSpec, y0, s0: float, stop: TerminationPolicy,
               rtol: float, atol: float, t_center: float) -> ProfileCurve:
    warp = spec.warp

    def rhs(s, y):
        return _profile_field(spec, y[0], y[2])

    events = []

    def ev_rmax(s, y):
        return y[0] - stop.r_max
    ev_rmax.terminal = True
    events.append(ev_rmax)

    def ev_tup(s, y):
        return y[1] - (t_center + stop.t_max)
    ev_tup.terminal = True
    events.append(ev_tup)

    def ev_tdown(s, y):
        return y[1] - (t_center - stop.t_max)
    ev_tdown.terminal = True
    events.append(ev_tdown)

    def ev_turn(s, y):
        return y[2]
    ev_turn.terminal = False
    events.append(ev_turn)

    have_axis = warp.kind == ROTATIONAL

    if have_axis:
        def ev_axis(s, y):
            return y[0] - 1e-9
        ev_axis.terminal = True
        events.append(ev_axis)

    sol = solve_ivp(rhs, (s0, stop.s_max), y0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True, events=events)

    if sol.status == -1:
        termination = "step_failure"
    elif sol.status == 0:
        termination = "max_arc_length"
    else:
        if sol.t_events[0].size:
            termination = "max_radius"
        elif sol.t_events[1].size or sol.t_events[2].size:
            termination = "max_height"
        elif have_axis and sol.t_events[4].size:
            termination = "axis_reached"
        else:
            termination = "max_arc_length"

    turning = [float(x) for x in sol.t_events[3]]
    diag = {
        "n_rhs_evals": int(sol.nfev),
        "turning_s": turning,
        "solver_message": sol.message,
        "phi_winding_ok": bool(np.all(np.abs(sol.y[2]) < math.pi)),
    }
    return ProfileCurve(
        spec=spec, s=sol.t, r=sol.y[0], t=sol.y[1], phi=sol.y[2],
        termination=termination, rtol=rtol, atol=atol,
        diagnostics=diag, _sol=sol.sol)


def solve_bowl(spec: SolitonSpec, stop: TerminationPolicy | None = None,
               t0: float = 0.0, rtol: float = DEFAULT_RTOL,
               atol: float = DEFAULT_ATOL) -> ProfileCurve:
    """Rotationally symmetric entire-graph soliton, launched on the axis.

    The system is singular at r = 0 (xi'/xi ~ 1/r); the launch uses
    :func:`axis_series`, r = s, t = t0 + (c/2n) s^2, phi = (c/n) s, at
    s0 = AXIS_LAUNCH_S, with O(s0^3) error.
    """
    if spec.family != "bowl":
        raise ValueError("spec.family must be 'bowl'")
    stop = stop or TerminationPolicy()
    s0 = AXIS_LAUNCH_S
    height, slope = axis_series(spec.c, spec.n, s0)
    y0 = (s0, t0 + height, slope)
    curve = _integrate(spec, y0, s0, stop, rtol, atol, t_center=t0)
    # prepend the exact axis point; dense sampling switches to the series
    curve.s = np.concatenate(([0.0], curve.s))
    curve.r = np.concatenate(([0.0], curve.r))
    curve.t = np.concatenate(([t0], curve.t))
    curve.phi = np.concatenate(([0.0], curve.phi))
    curve._series = (s0, t0)
    return curve


def solve_wing(spec: SolitonSpec, branch: int = -1,
               stop: TerminationPolicy | None = None,
               rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> ProfileCurve:
    """One branch of the exterior bi-graph soliton.

    ``branch`` is the sign of phi(0) = +-pi/2.  The minus branch descends
    from (eps, 0), turns at the unique radius r0 where phi = 0, then
    ascends; the plus branch ascends immediately.
    """
    if spec.family != "wing":
        raise ValueError("spec.family must be 'wing'")
    if branch not in (-1, 1):
        raise ValueError("branch must be +1 or -1")
    stop = stop or TerminationPolicy()
    y0 = (spec.epsilon, 0.0, branch * math.pi / 2)
    curve = _integrate(spec, y0, 0.0, stop, rtol, atol, t_center=0.0)
    curve.diagnostics["branch"] = branch
    return curve


def solve_ideal_parametric(spec: SolitonSpec, initial, stop: TerminationPolicy | None = None,
                           rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> ProfileCurve:
    """Horosphere-foliated soliton profile in the Busemann chart.

    Same system as the rotational case but r is a signed horosphere
    distance, so the curve is free to cross r = 0.  For xi = e^{kappa r}
    the angle tends to the equilibrium arctan(c / ((n-1) kappa)).
    """
    if spec.family != "ideal":
        raise ValueError("spec.family must be 'ideal'")
    stop = stop or TerminationPolicy()
    if isinstance(initial, ProfileState):
        y0 = (initial.r, initial.t, initial.phi)
        s0 = initial.s
    else:
        y0 = tuple(initial)
        s0 = 0.0
    return _integrate(spec, y0, s0, stop, rtol, atol, t_center=y0[1])


def equilibrium_angle(spec: SolitonSpec) -> float:
    """Angle phi* at r = 0 where dphi/ds vanishes with phi constant (ideal family)."""
    return math.atan2(spec.c, spec.warp.drift(0.0, spec.n))


def profile_to_graph(curve: ProfileCurve, n_points: int | None = None):
    """Radial graph record (r, u, u') over the sub-arc where dr/ds > GRAPH_RDOT_MIN.

    u(r(s)) = t(s) and u' = tan(phi).  Raises when the profile is
    vertical everywhere at that threshold.
    """
    from .graph_solvers import RadialGraph

    lo, hi = curve.s_span
    if n_points is None:
        n_points = max(200, 4 * curve.s.size)
    s = np.linspace(lo, hi, n_points)
    r, t, phi = curve.sample(s)
    ok = np.cos(phi) > GRAPH_RDOT_MIN
    if not np.any(ok):
        raise ValueError("profile has no sub-arc with dr/ds above threshold")
    # longest contiguous admissible run
    runs = np.split(np.arange(s.size), np.where(np.diff(ok))[0] + 1)
    runs = [idx for idx in runs if ok[idx[0]]]
    idx = max(runs, key=len)
    r, t, phi = r[idx], t[idx], phi[idx]
    keep = np.concatenate(([True], np.diff(r) > 0))
    r, t, phi = r[keep], t[keep], phi[keep]
    if r.size < 4:
        raise ValueError("admissible sub-arc too short for a graph record")
    du = np.tan(phi)
    return RadialGraph(
        r_grid=r, u=t, du=du, spec=curve.spec, chart=curve.spec.chart,
        meta={"source": "profile", "rdot_min": GRAPH_RDOT_MIN})


class SampledCurve:
    """Profile-curve interface over plain (s, r, t, phi) samples.

    Used by the verification CLI for CSV input and by the perturbation
    negative controls; dense evaluation is cubic-spline interpolation.
    """

    def __init__(self, s, r, t, phi, spec: SolitonSpec | None = None):
        self.s = np.asarray(s, dtype=float)
        self.spec = spec
        self._r = CubicSpline(self.s, np.asarray(r, dtype=float))
        self._t = CubicSpline(self.s, np.asarray(t, dtype=float))
        self._phi = CubicSpline(self.s, np.asarray(phi, dtype=float))

    @property
    def s_span(self):
        return float(self.s[0]), float(self.s[-1])

    def sample(self, s):
        s = np.asarray(s, dtype=float)
        return self._r(s), self._t(s), self._phi(s)
