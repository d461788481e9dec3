"""Graph-form soliton ODE solvers: radial, horosphere-foliated, grim reaper.

Two slope equations appear:

* radial / grim form     u'' = (1 + u'^2) (c - D(r) u')
* horosphere (ideal) form u'' = (1 + u'^2) (c - D(r))

where D(r) is the Laplacian of the chart coordinate: (n-1) xi'/xi in the
polar and Busemann charts, and xi'/xi + (n-2) chi'/chi in the equidistant
chart.  Closed-form oracles cover the degenerate cases used by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .profile_solver import (AXIS_LAUNCH_S, DEFAULT_ATOL, DEFAULT_RTOL,
                             SolitonSpec, axis_series)
from .warp_models import BUSEMANN, EQUIDISTANT, ROTATIONAL, WarpModel

BLOWUP_SLOPE = 1e6
GRID_SIZE = 2001  # samples in every solved graph record


@dataclass
class RadialGraph:
    """One-dimensional graph record u(r) with slopes on a strict grid."""

    r_grid: np.ndarray
    u: np.ndarray
    du: np.ndarray
    spec: SolitonSpec | None
    chart: str
    gradient_blowup: bool = False
    blowup_radius: float | None = None
    meta: dict = field(default_factory=dict)
    _dense: Callable | None = None  # r -> (u, du), solver dense output

    def __post_init__(self):
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.du = np.asarray(self.du, dtype=float)
        if np.any(np.diff(self.r_grid) <= 0):
            raise ValueError("r_grid must be strictly increasing")

    def _interp(self):
        if not hasattr(self, "_splines"):
            from scipy.interpolate import CubicHermiteSpline, CubicSpline
            u_s = CubicHermiteSpline(self.r_grid, self.u, self.du)
            du_s = CubicSpline(self.r_grid, self.du)
            self._splines = (u_s, du_s)
        return self._splines

    def u_eval(self, r):
        if self._dense is not None:
            return self._dense(np.asarray(r, dtype=float))[0]
        return self._interp()[0](r)

    def du_eval(self, r):
        if self._dense is not None:
            return self._dense(np.asarray(r, dtype=float))[1]
        return self._interp()[1](r)

    @property
    def r_span(self):
        return float(self.r_grid[0]), float(self.r_grid[-1])


@dataclass(frozen=True)
class ClosedForm:
    """Analytic graph u(r) with derivative, used only as a test oracle."""

    u: Callable
    du: Callable
    r_min: float
    r_max: float


def _integrate_slope(rhs, r_span, y0, rtol, atol, tail=None,
                     blowup_is_error=False):
    """Integrate (u, u')' = rhs with terminal detection of |u'| = 1e6.

    ``tail`` maps the event state (r_evt, p_evt) to the residual distance
    to the true vertical point, used to refine the reported radius.
    """

    def ev_blowup(r, y):
        return abs(y[1]) - BLOWUP_SLOPE
    ev_blowup.terminal = True

    sol = solve_ivp(rhs, r_span, y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True, events=[ev_blowup])
    if sol.status == -1:
        raise RuntimeError(f"slope ODE step failure: {sol.message}")
    blowup = sol.t_events[0].size > 0
    blowup_radius = None
    if blowup:
        r_evt = float(sol.t_events[0][0])
        p_evt = float(sol.y_events[0][0][1])
        if blowup_is_error:
            raise RuntimeError(f"unexpected gradient blow-up at r = {r_evt:.6g}")
        blowup_radius = r_evt + (tail(r_evt, p_evt) if tail is not None else 0.0)
    r_end = float(sol.t[-1])
    r_grid = np.linspace(r_span[0], r_end, GRID_SIZE)
    u, du = sol.sol(r_grid)
    return r_grid, u, du, sol.sol, blowup, blowup_radius


def _slope_rhs(c: float, n: int, warp: WarpModel):
    """Right-hand side of (u, u')' for u'' = (1 + u'^2)(c - D(r) u')."""

    def rhs(r, y):
        p = y[1]
        return (p, (1.0 + p * p) * (c - warp.drift(r, n) * p))
    return rhs


def solve_radial_graph(spec: SolitonSpec, r_span=(0.0, 20.0), ic=None,
                       rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> RadialGraph:
    """Bowl-type graph u(r) from u'' = (1+u'^2)(c - (n-1)(xi'/xi) u').

    ``ic = (r0, u0, du0)``; the axis start r0 = 0 (with du0 = 0) moves to
    r0 = AXIS_LAUNCH_S through :func:`~.profile_solver.axis_series`,
    u ~ u0 + (c/2n) r^2, matching u''(0) = c/n.
    For n = 1 the drift coefficient vanishes and r = 0 is regular.
    Gradient blow-up cannot happen for bowls; the guard flags misuse.
    """
    c, n, warp = spec.c, spec.n, spec.warp
    if ic is None:
        ic = (r_span[0], 0.0, 0.0)
    r0, u0, du0 = ic

    meta = {"source": "radial_ode", "rtol": rtol, "atol": atol}
    if n > 1 and warp.kind == ROTATIONAL and r0 == 0.0:
        if du0 != 0.0:
            raise ValueError("axis start requires du0 = 0")
        r0 = AXIS_LAUNCH_S
        height, slope = axis_series(c, n, r0)
        y0 = (u0 + height, slope)
        meta["axis_launch"] = r0
    else:
        y0 = (u0, du0)
    r_grid, u, du, dense, blowup, b_rad = _integrate_slope(
        _slope_rhs(c, n, warp), (r0, r_span[1]), y0, rtol, atol)
    return RadialGraph(r_grid=r_grid, u=u, du=du, spec=spec, chart="polar",
                       gradient_blowup=blowup, blowup_radius=b_rad,
                       meta=meta, _dense=dense)


def solve_ideal_graph(c: float, n: int, warp: WarpModel, r_span=(0.0, 5.0),
                      ic=(0.0, 0.0, 0.0), rtol: float = DEFAULT_RTOL,
                      atol: float = DEFAULT_ATOL) -> RadialGraph:
    """Horosphere-foliated graph from u'' = (c - (n-1) xi'/xi)(1+u'^2).

    For constant kappa = xi'/xi and a = c - (n-1) kappa != 0 the solution
    is u = u0 - ln(cos(a (r-r0)))/a on a maximal interval of length
    pi/|a|; the vertical point of the bi-graph is reported through
    ``blowup_radius`` and is not an error.
    """
    if warp.kind != BUSEMANN:
        raise ValueError("ideal graph solves need a busemann warp")
    r0, u0, du0 = ic

    def coeff(r):
        return c - warp.drift(r, n)

    def rhs(r, y):
        p = y[1]
        return (p, coeff(r) * (1.0 + p * p))

    def tail(r_evt, p_evt):
        # frozen-coefficient slope equation p' = a (1+p^2): distance from
        # the event slope to the vertical point is (pi/2 - atan|p|)/|a|
        a = coeff(r_evt)
        if a == 0.0:
            return 0.0
        direction = math.copysign(1.0, r_span[1] - r_span[0])
        return direction * (math.pi / 2 - math.atan(abs(p_evt))) / abs(a)

    r_grid, u, du, dense, blowup, b_rad = _integrate_slope(
        rhs, (r0, r_span[1]), (u0, du0), rtol, atol, tail=tail)
    spec = SolitonSpec(c=c, n=n, family="ideal", warp=warp)
    return RadialGraph(r_grid=r_grid, u=u, du=du, spec=spec, chart="busemann",
                       gradient_blowup=blowup, blowup_radius=b_rad,
                       meta={"source": "ideal_ode"}, _dense=dense)


def solve_grim(c: float, n: int, warp: WarpModel, r_span=(-20.0, 20.0),
               ic=(0.0, 0.0, 0.0), rtol: float = DEFAULT_RTOL,
               atol: float = DEFAULT_ATOL) -> RadialGraph:
    """Equidistant-foliated (grim reaper) entire graph u(r).

    Slope equation u'' = (1+u'^2)(c - (n-1) h(r) u') with (n-1) h the
    level mean curvature of the equidistant foliation.  For n >= 3 the
    coth factor is singular at r = 0; an axis start is moved to
    r = +-1e-3 with the bowl's series launch in dimension n - 1, since
    the drift is (n-2)/r there.  Gradient blow-up contradicts entireness
    and raises.
    """
    if warp.kind != EQUIDISTANT:
        raise ValueError("grim solves need an equidistant warp")
    r0, u0, du0 = ic
    spec = SolitonSpec(c=c, n=n, family="grim", warp=warp)

    if n >= 3 and r0 == 0.0:
        if min(r_span) < 0 < max(r_span):
            raise ValueError("n >= 3 grim solves cannot cross the singular line r = 0")
        side = max(r_span) if max(r_span) > 0 else min(r_span)
        r0 = math.copysign(1e-3, side)
        height, du0 = axis_series(c, n - 1, r0)
        u0 = u0 + height
        # integrate away from the singular line only
        r_span = (r0, r_span[1]) if side > 0 else (r_span[0], r0)

    warp.require_domain((r_span[0], r0, r_span[1]))
    rhs = _slope_rhs(c, n, warp)
    pieces = []
    if r_span[0] < r0:
        pieces.append(_integrate_slope(rhs, (r0, r_span[0]), (u0, du0),
                                       rtol, atol, blowup_is_error=True))
    if r_span[1] > r0:
        pieces.append(_integrate_slope(rhs, (r0, r_span[1]), (u0, du0),
                                       rtol, atol, blowup_is_error=True))
    if not pieces:
        raise ValueError("empty integration span")
    if len(pieces) == 1:
        r_grid, u, du, _, _, _ = pieces[0]
        if r_grid[0] > r_grid[-1]:
            r_grid, u, du = r_grid[::-1], u[::-1], du[::-1]
        return RadialGraph(r_grid=r_grid, u=u, du=du, spec=spec,
                           chart="equidistant", meta={"source": "grim_ode"})
    (rl, ul, dul, _, _, _), (rr, ur, dur, _, _, _) = pieces
    r_grid = np.concatenate((rl[::-1], rr[1:]))
    u = np.concatenate((ul[::-1], ur[1:]))
    du = np.concatenate((dul[::-1], dur[1:]))
    return RadialGraph(r_grid=r_grid, u=u, du=du, spec=spec,
                       chart="equidistant", meta={"source": "grim_ode"})


def closed_form_oracle(kind: str, **params) -> ClosedForm:
    """Analytic comparison graphs for the degenerate parameter cases.

    ``grim_n1``: u'' = c (1+u'^2), u = -(1/c) ln cos(c r).
    ``ideal_const_coeff``: u = -(1/a) ln cos(a r) for constant coefficient a.
    ``line``: u = m r.
    """
    if kind == "grim_n1":
        c = params["c"]
        if c == 0:
            raise ValueError("grim_n1 oracle needs c != 0")
        half = math.pi / (2 * abs(c))
        return ClosedForm(
            u=lambda r: -np.log(np.cos(c * np.asarray(r, dtype=float))) / c,
            du=lambda r: np.tan(c * np.asarray(r, dtype=float)),
            r_min=-half, r_max=half)
    if kind == "ideal_const_coeff":
        a = params["a"]
        if a == 0:
            return ClosedForm(u=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                              du=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                              r_min=-math.inf, r_max=math.inf)
        half = math.pi / (2 * abs(a))
        return ClosedForm(
            u=lambda r: -np.log(np.cos(a * np.asarray(r, dtype=float))) / a,
            du=lambda r: np.tan(a * np.asarray(r, dtype=float)),
            r_min=-half, r_max=half)
    if kind == "line":
        m = params["m"]
        return ClosedForm(u=lambda r: m * np.asarray(r, dtype=float),
                          du=lambda r: np.full_like(np.asarray(r, dtype=float), m),
                          r_min=-math.inf, r_max=math.inf)
    raise ValueError(f"unknown oracle kind {kind!r}")
