"""Graph-form soliton ODE solvers: radial, horosphere-foliated, grim reaper.

Two slope equations appear:

* radial / grim form     u'' = (1 + u'^2) (c - D(r) u')
* horosphere (ideal) form u'' = (1 + u'^2) (c - D(r))

where D(r) is the Laplacian of the chart coordinate: (n-1) xi'/xi in the
polar and Busemann charts, and xi'/xi + (n-2) chi'/chi in the equidistant
chart.  Each is one DOP853 solve (:func:`.dop853.solve`, the same
bits as SciPy's ``solve_ivp``) per direction from the initial radius,
which stops where |u'| reaches BLOWUP_SLOPE, and whose dense output,
joined (:func:`.dop853.joined`) to a bowl's axis series or to a grim
graph's other piece, the graph keeps for ``u_eval`` and ``du_eval``.
Closed-form oracles cover the degenerate cases used by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dop853
from .profile_solver import (AXIS_LAUNCH_S, DEFAULT_ATOL, DEFAULT_RTOL,
                             SolitonSpec, axis_series)
from .spline import PiecewiseCubic
from .warp_models import BUSEMANN, EQUIDISTANT, ROTATIONAL, WarpModel

BLOWUP_SLOPE = 1e6
GRIM_LAUNCH_R = 1e-3  # an n >= 3 grim graph's start off the singular line r = 0
GRID_SIZE = 2001  # samples in every solved graph record


@dataclass
class RadialGraph:
    """One-dimensional graph record u(r) with slopes on a strict grid; its
    chart is its warp's, and it blew up iff it has a ``blowup_radius``.
    ``meta`` says what the graph is; ``diagnostics`` is the run record of
    the solves that computed it (:func:`.dop853.run_record`).  ``u_eval``
    and ``du_eval`` read ``_dense``, or without it the Hermite cubic through
    (r, u, u') and the not-a-knot spline of u'."""

    r_grid: np.ndarray
    u: np.ndarray
    du: np.ndarray
    spec: SolitonSpec
    blowup_radius: float | None = None
    meta: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    _dense: Callable | None = None  # r -> (u, du), the solver's dense output

    def __post_init__(self):
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.du = np.asarray(self.du, dtype=float)
        if np.any(np.diff(self.r_grid) <= 0):
            raise ValueError("r_grid must be strictly increasing")
        self._evaluate = self._dense
        if self._evaluate is None:
            u_of = PiecewiseCubic.hermite(self.r_grid, self.u, self.du)
            du_of = PiecewiseCubic.not_a_knot(self.r_grid, self.du)
            self._evaluate = lambda r: (u_of(r), du_of(r))

    def u_eval(self, r):
        return self._evaluate(np.asarray(r, dtype=float))[0]

    def du_eval(self, r):
        return self._evaluate(np.asarray(r, dtype=float))[1]

    @property
    def chart(self) -> str:
        return self.spec.warp.chart

    @property
    def gradient_blowup(self) -> bool:
        return self.blowup_radius is not None

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


def _integrate_slope(rhs, r_span, y0, rtol, atol):
    """Integrate (u, u')' = rhs over ``r_span``, stopping where |u'| reaches
    BLOWUP_SLOPE (the stop ``"blowup"``); a step failure raises.

    Returns the :class:`.dop853.Outcome` and its samples (r, u, u') on
    GRID_SIZE radii from the start to where the run stopped.
    """
    out = dop853.solve(rhs, r_span, y0, rtol, atol,
                       [("blowup", lambda r, y: abs(y[1]) - BLOWUP_SLOPE, True)])
    if out.stop == dop853.STEP_FAILURE:
        raise RuntimeError(f"slope ODE step failure: {dop853.TOO_SMALL_STEP}")
    r_grid = np.linspace(out.t[0], out.t[-1], GRID_SIZE)
    return out, (r_grid, *out.dense(r_grid))


def _slope_rhs(c: float, n: int, warp: WarpModel):
    """Right-hand side of (u, u')' for u'' = (1 + u'^2)(c - D(r) u')."""

    drift = warp.drift

    def rhs(r, y):
        _, p = y
        return (p, (1.0 + p * p) * (c - drift(r, n) * p))
    return rhs


def solve_radial_graph(spec: SolitonSpec, r_span=(0.0, 20.0), ic=None,
                       rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> RadialGraph:
    """Bowl-type graph u(r) from u'' = (1+u'^2)(c - (n-1)(xi'/xi) u').

    ``ic = (r0, u0, du0)``; the axis start r0 = 0 (with du0 = 0) moves to
    r0 = AXIS_LAUNCH_S through :func:`~.profile_solver.axis_series`,
    u ~ u0 + (c/2n) r^2, matching u''(0) = c/n; its samples start at r0,
    and it evaluates on [0, R], through that series below r0.
    For n = 1 the drift coefficient vanishes and r = 0 is regular.  A span
    that ends at or before the launch raises ValueError.
    Gradient blow-up cannot happen for bowls; the guard flags misuse.
    """
    c, n, warp = spec.c, spec.n, spec.warp
    if ic is None:
        ic = (r_span[0], 0.0, 0.0)
    r0, u0, du0 = ic
    warp.require_domain((r0, r_span[1]))

    meta = {"source": "radial_ode", "rtol": rtol, "atol": atol}
    series = None
    if n > 1 and warp.kind == ROTATIONAL and r0 == 0.0:
        if du0 != 0.0:
            raise ValueError("axis start requires du0 = 0")

        def series(r):
            height, slope = axis_series(c, n, r)
            return np.array((u0 + height, slope))
        r0 = AXIS_LAUNCH_S
        y0 = series(r0)
        meta["axis_launch"] = r0
    else:
        y0 = (u0, du0)
    if r_span[1] <= r0:
        raise ValueError(f"radial graph span end r = {r_span[1]} must lie past its "
                         f"launch r0 = {r0}")
    out, (r_grid, u, du) = _integrate_slope(
        _slope_rhs(c, n, warp), (r0, r_span[1]), y0, rtol, atol)
    b_rad = float(out.hits["blowup"][0][0]) if out.stop == "blowup" else None
    dense = out.dense if series is None else dop853.joined(series, out.dense, r0)
    return RadialGraph(r_grid=r_grid, u=u, du=du, spec=spec, blowup_radius=b_rad,
                       meta=meta, diagnostics=out.record, _dense=dense)


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
    warp.require_domain((r0, r_span[1]))

    drift = warp.drift

    def coeff(r):
        return c - drift(r, n)

    def rhs(r, y):
        _, p = y
        return (p, coeff(r) * (1.0 + p * p))

    out, (r_grid, u, du) = _integrate_slope(rhs, (r0, r_span[1]), (u0, du0),
                                            rtol, atol)
    b_rad = None
    if out.stop == "blowup":
        # frozen-coefficient slope equation p' = a (1+p^2): distance from
        # the event slope to the vertical point is (pi/2 - atan|p|)/|a|
        r_evt, (_, p_evt) = out.hits["blowup"][0]
        a = coeff(float(r_evt))
        direction = math.copysign(1.0, r_span[1] - r_span[0])
        tail = direction * (math.pi / 2 - math.atan(abs(p_evt))) / abs(a) if a else 0.0
        b_rad = float(r_evt) + tail
    spec = SolitonSpec(c=c, n=n, family="ideal", warp=warp)
    return RadialGraph(r_grid=r_grid, u=u, du=du, spec=spec, blowup_radius=b_rad,
                       meta={"source": "ideal_ode"}, diagnostics=out.record,
                       _dense=out.dense)


def solve_grim(c: float, n: int, warp: WarpModel, r_span=(-20.0, 20.0),
               ic=(0.0, 0.0, 0.0), rtol: float = DEFAULT_RTOL,
               atol: float = DEFAULT_ATOL) -> RadialGraph:
    """Equidistant-foliated (grim reaper) entire graph u(r).

    Slope equation u'' = (1+u'^2)(c - (n-1) h(r) u') with (n-1) h the
    level mean curvature of the equidistant foliation.  For n >= 3 the
    coth factor is singular at r = 0; an axis start is moved to
    r = +-GRIM_LAUNCH_R with the bowl's series launch in dimension n - 1,
    since the drift is (n-2)/r there, and a span that ends at or before
    that launch raises ValueError.  Gradient blow-up contradicts
    entireness and raises.  The graph joins a piece down and a piece up
    from r0, either of which may be empty.  For n = 2 the drift xi'/xi is
    odd in r bit for bit (see :func:`.make_builtin_warp`), so the graph
    from (0, 0, 0) is even: on a span (-R, R) the down piece is the up
    piece mirrored, the same bits as solving it down.
    """
    if warp.kind != EQUIDISTANT:
        raise ValueError("grim solves need an equidistant warp")
    r0, u0, du0 = ic
    spec = SolitonSpec(c=c, n=n, family="grim", warp=warp)
    mirror = n == 2 and -r_span[0] == r_span[1] > 0 and r0 == u0 == du0 == 0.0

    if n >= 3 and r0 == 0.0:
        if min(r_span) < 0 < max(r_span):
            raise ValueError("n >= 3 grim solves cannot cross the singular line r = 0")
        side = max(r_span) if max(r_span) > 0 else min(r_span)
        r0 = math.copysign(GRIM_LAUNCH_R, side)
        if abs(side) <= GRIM_LAUNCH_R:
            raise ValueError(f"n >= 3 grim span end r = {side} must lie past the "
                             f"launch r = {r0}")
        height, du0 = axis_series(c, n - 1, r0)
        u0 = u0 + height
        # integrate away from the singular line only
        r_span = (r0, r_span[1]) if side > 0 else (r_span[0], r0)

    warp.require_domain((r_span[0], r0, r_span[1]))
    rhs = _slope_rhs(c, n, warp)
    outs = []

    def solved(end):
        """The piece from r0 to ``end``: dense output, samples in ascending r."""
        out, samples = _integrate_slope(rhs, (r0, end), (u0, du0), rtol, atol)
        if out.stop == "blowup":
            raise RuntimeError(f"unexpected gradient blow-up at r = {out.t[-1]:.6g}")
        outs.append(out)
        return out.dense, [x[::-1] for x in samples] if end < r0 else samples

    down = solved(r_span[0]) if r_span[0] < r0 and not mirror else None
    up = solved(r_span[1]) if r_span[1] > r0 else None
    if mirror:
        down = _mirrored(*up)
    pieces = [piece for piece in (down, up) if piece is not None]
    if not pieces:
        raise ValueError("empty integration span")
    # the grid is the pieces' samples in ascending r, with r0 once
    r_grid, u, du = (np.concatenate([first, *(x[1:] for x in rest)])
                     for first, *rest in zip(*(samples for _, samples in pieces)))
    dense = pieces[0][0] if len(pieces) == 1 else dop853.joined(down[0], up[0], r0)
    return RadialGraph(r_grid=r_grid, u=u, du=du, spec=spec,
                       meta={"source": "grim_ode"},
                       diagnostics=dop853.run_record(*outs), _dense=dense)


def _mirrored(dense, samples):
    """The left half of an even graph from the piece solved up from r = 0:
    (u, u')(r) = (u, -u')(-r), as a dense output and samples."""

    def left(r):
        y = dense(0.0 - r)
        y[1] = 0.0 - y[1]
        return y
    r, u, du = (x[::-1] for x in samples)
    return left, [0.0 - r, u, 0.0 - du]


def closed_form_oracle(kind: str, **params) -> ClosedForm:
    """Analytic comparison graphs for the degenerate parameter cases.

    ``grim_n1``: u'' = c (1+u'^2), u = -(1/c) ln cos(c r).
    ``ideal_const_coeff``: u = -(1/a) ln cos(a r) for constant coefficient a.
    ``line``: u = m r.
    """
    if kind in ("grim_n1", "ideal_const_coeff"):
        a = params["c"] if kind == "grim_n1" else params["a"]
        if a == 0 and kind == "grim_n1":
            raise ValueError("grim_n1 oracle needs c != 0")
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
