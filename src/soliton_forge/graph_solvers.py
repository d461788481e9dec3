"""Graph-form soliton ODE solvers: radial, horosphere-foliated, grim reaper.

Two slope equations appear:

* radial / grim form     u'' = (1 + u'^2) (c - D(r) u')
* horosphere (ideal) form u'' = (1 + u'^2) (c - D(r))

where D(r) is the Laplacian of the chart coordinate: (n-1) xi'/xi in the
polar and Busemann charts, and xi'/xi + (n-2) chi'/chi in the equidistant
chart.  Each solver keeps its right-hand side and what a blow-up means;
one core, :func:`_solve_graph`, owns the start.  ``r_span`` is finite and
holds ``ic[0]``, and the graph is one DOP853 solve (:func:`.dop853.solve`,
the same bits as SciPy's ``solve_ivp``) from there to each end of the span
past it, stopping where |u'| reaches BLOWUP_SLOPE.  A start on a singular
line r = 0 of the drift launches off it through the axis series.  The
pieces' dense outputs, joined (:func:`.dop853.joined`) with each other or
with that series, are the graph's ``u_eval`` and ``du_eval``.
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
    BLOWUP_SLOPE (the stop ``"blowup"``); a step failure raises, and so
    does a solve that reaches its step budget (:data:`.dop853.MAX_STEPS`).

    Returns the :class:`.dop853.Outcome` and its samples (r, u, u') on
    GRID_SIZE radii from the start to where the run stopped.
    """
    out = dop853.solve(rhs, r_span, y0, rtol, atol,
                       [("blowup", lambda r, y: abs(y[1]) - BLOWUP_SLOPE, True)])
    if out.stop == dop853.STEP_FAILURE:
        raise RuntimeError(f"slope ODE step failure: {dop853.TOO_SMALL_STEP}")
    if out.stop == dop853.STEP_BUDGET:
        raise RuntimeError(f"slope ODE stopped at r = {out.t[-1]:.6g} after "
                           f"{dop853.MAX_STEPS} steps, short of r = {r_span[1]:g}")
    r_grid = np.linspace(out.t[0], out.t[-1], GRID_SIZE)
    return out, (r_grid, *out.dense(r_grid))


def _slope_rhs(spec: SolitonSpec):
    """Right-hand side of (u, u')' for u'' = (1 + u'^2)(c - D(r) u')."""

    c, drift = spec.c, spec.warp.scalar_drift(spec.n)

    def rhs(r, y):
        _, p = y
        return (p, (1.0 + p * p) * (c - drift(r) * p))
    return rhs


def _solve_graph(spec: SolitonSpec, rhs, r_span, ic, rtol, atol):
    """Solve (u, u')' = rhs from ``ic = (r0, u0, du0)`` to each end of the
    finite ``r_span`` that lies past r0; ``ic=None`` is (r_span[0], 0, 0).

    The span lies in the warp's domain and holds r0.  Where the drift is
    (m - 1)/r near a singular line r = 0 (the rotational axis, m = n >= 2,
    or the equidistant core line, m = n - 1 >= 2), the span may hold r = 0
    only as its start, and a start there needs du0 = 0: it launches through
    :func:`~.profile_solver.axis_series` in dimension m, at AXIS_LAUNCH_S or
    GRIM_LAUNCH_R on the side where the span lies, and the graph reads that
    series between r = 0 and the launch.  A span that ends at or short of
    the launch, or has no end past r0, raises, and so does a piece too
    short for GRID_SIZE distinct sample radii.  Every check raises
    ValueError before any solve.  For n = 2 the equidistant drift xi'/xi is
    odd bit for bit (see :func:`.make_builtin_warp`), so the graph from
    (0, 0, 0) is even: on a span (-R, R) the piece down is the piece up
    mirrored, the same bits as solving it down.

    Each piece is one :func:`_integrate_slope`.  Returns ``(hit, launch,
    fields)``: the first ``"blowup"`` hit as (root, (u, u'), direction of
    its piece), or None; the launch radius, or None; and the
    :class:`RadialGraph` fields of the joined pieces, GRID_SIZE samples
    each in ascending r.
    """
    warp, n = spec.warp, spec.n
    r0, u0, du0 = (r_span[0], 0.0, 0.0) if ic is None else ic
    lo, hi = map(float, r_span)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"graph span ({lo}, {hi}) must be finite")
    if not lo <= r0 <= hi:
        raise ValueError(f"graph span ({lo}, {hi}) must contain its start ic[0] = {r0}")
    warp.require_domain((lo, hi))
    launch, m = {ROTATIONAL: (AXIS_LAUNCH_S, n),
                 EQUIDISTANT: (GRIM_LAUNCH_R, n - 1)}.get(warp.kind, (None, 1))
    y0, series = (u0, du0), None
    if m >= 2 and lo <= 0.0 <= hi:
        if lo < 0.0 < hi or r0 != 0.0:
            raise ValueError(f"graph span ({lo}, {hi}) may hold the singular line "
                             f"r = 0 only as its start")
        if du0 != 0.0:
            raise ValueError(f"a start on the singular line r = 0 needs du0 = 0, "
                             f"got du0 = {du0}")
        end = lo if lo < 0.0 else hi
        r0 = math.copysign(launch, end)
        if abs(end) <= launch:
            raise ValueError(f"graph span end r = {end} must lie past its launch r0 = {r0}")

        def series(r):
            height, slope = axis_series(spec.c, m, r)
            return np.array((u0 + height, slope))
        y0 = series(r0)
        lo, hi = sorted((r0, end))
    if lo == hi:
        raise ValueError(f"graph span ({lo}, {hi}) has no end past its start ic[0] = {r0}")
    for end in (lo, hi):
        if end != r0 and not np.diff(np.linspace(r0, end, GRID_SIZE)).all():
            raise ValueError(f"graph piece from r0 = {r0} to r = {end} is too short "
                             f"for {GRID_SIZE} distinct sample radii")
    mirror = (warp.kind == EQUIDISTANT and n == 2 and -lo == hi > 0
              and r0 == u0 == du0 == 0.0)
    outs = []

    def solved(end):
        """The piece from r0 to ``end``: dense output, samples in ascending r."""
        out, samples = _integrate_slope(rhs, (r0, end), y0, rtol, atol)
        outs.append(out)
        return out.dense, [x[::-1] for x in samples] if end < r0 else samples

    down = solved(lo) if lo < r0 and not mirror else None
    up = solved(hi) if hi > r0 else None
    if mirror:
        down = _mirrored(*up)
    pieces = [piece for piece in (down, up) if piece is not None]
    # the grid is the pieces' samples in ascending r, with r0 once
    r_grid, u, du = (np.concatenate([first, *(x[1:] for x in rest)])
                     for first, *rest in zip(*(samples for _, samples in pieces)))
    below, above = down[0] if down else series, up[0] if up else series
    dense = dop853.joined(below, above, r0) if below and above else below or above
    hits = [(float(root), y, 1.0 if out.t[-1] > r0 else -1.0)
            for out in outs for root, y in out.hits["blowup"]]
    return (hits[0] if hits else None, r0 if series else None,
            dict(r_grid=r_grid, u=u, du=du, spec=spec,
                 diagnostics=dop853.run_record(*outs), _dense=dense))


def solve_radial_graph(spec: SolitonSpec, r_span=(0.0, 20.0), ic=None,
                       rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> RadialGraph:
    """Bowl-type graph u(r) from u'' = (1+u'^2)(c - (n-1)(xi'/xi) u').

    ``ic = (r0, u0, du0)``, (r_span[0], 0, 0) by default, starts the graph
    under :func:`_solve_graph`'s rules.  For n >= 2 the axis start r0 = 0
    launches at AXIS_LAUNCH_S (``meta["axis_launch"]``) on
    u ~ u0 + (c/2n) r^2, matching u''(0) = c/n, and the graph evaluates on
    [0, R], through that series below the launch.  For n = 1 the drift
    vanishes and r = 0 is regular.  Gradient blow-up cannot happen for
    bowls; ``blowup_radius`` flags misuse.
    """
    hit, launch, fields = _solve_graph(spec, _slope_rhs(spec), r_span, ic, rtol, atol)
    meta = {"source": "radial_ode", "rtol": rtol, "atol": atol}
    if launch is not None:
        meta["axis_launch"] = launch
    return RadialGraph(**fields, blowup_radius=hit[0] if hit else None, meta=meta)


def solve_ideal_graph(c: float, n: int, warp: WarpModel, r_span=(0.0, 5.0),
                      ic=(0.0, 0.0, 0.0), rtol: float = DEFAULT_RTOL,
                      atol: float = DEFAULT_ATOL) -> RadialGraph:
    """Horosphere-foliated graph from u'' = (c - (n-1) xi'/xi)(1+u'^2).

    For constant kappa = xi'/xi and a = c - (n-1) kappa != 0 the solution
    is u = u0 - ln(cos(a (r-r0)))/a on a maximal interval of length
    pi/|a|; the vertical point of the bi-graph is reported through
    ``blowup_radius`` and is not an error; on a graph solved both ways
    that blows up on both sides it is the one below ``ic[0]``.  The
    Busemann chart has no singular line, so the graph is solved from
    ``ic[0]`` to both ends of ``r_span`` under :func:`_solve_graph`'s rules.
    """
    if warp.kind != BUSEMANN:
        raise ValueError("ideal graph solves need a busemann warp")
    drift = warp.scalar_drift(n)

    def coeff(r):
        return c - drift(r)

    def rhs(r, y):
        _, p = y
        return (p, coeff(r) * (1.0 + p * p))

    spec = SolitonSpec(c=c, n=n, family="ideal", warp=warp)
    hit, _, fields = _solve_graph(spec, rhs, r_span, ic, rtol, atol)
    b_rad = None
    if hit:
        # frozen-coefficient slope equation p' = a (1+p^2): the vertical point
        # lies (pi/2 - atan|p|)/|a| past the event slope, along the piece
        r_evt, (_, p_evt), direction = hit
        a = coeff(r_evt)
        tail = (math.pi / 2 - math.atan(abs(p_evt))) / abs(a) if a else 0.0
        b_rad = r_evt + direction * tail
    return RadialGraph(**fields, blowup_radius=b_rad, meta={"source": "ideal_ode"})


def solve_grim(c: float, n: int, warp: WarpModel, r_span=(-20.0, 20.0),
               ic=(0.0, 0.0, 0.0), rtol: float = DEFAULT_RTOL,
               atol: float = DEFAULT_ATOL) -> RadialGraph:
    """Equidistant-foliated (grim reaper) entire graph u(r).

    Slope equation u'' = (1+u'^2)(c - (n-1) h(r) u') with (n-1) h the
    level mean curvature of the equidistant foliation, solved from ``ic[0]``
    to both ends of ``r_span`` under :func:`_solve_graph`'s rules.  For
    n >= 3 the drift is (n-2)/r near the core line r = 0, so the span lies
    on one side of it, and a start there launches at r = +-GRIM_LAUNCH_R
    on the bowl's series in dimension n - 1.  For n = 2 a graph from
    (0, 0, 0) on a span (-R, R) is even and is solved once, then mirrored.
    Gradient blow-up contradicts entireness and raises.
    """
    if warp.kind != EQUIDISTANT:
        raise ValueError("grim solves need an equidistant warp")
    spec = SolitonSpec(c=c, n=n, family="grim", warp=warp)
    hit, _, fields = _solve_graph(spec, _slope_rhs(spec), r_span, ic, rtol, atol)
    if hit:
        raise RuntimeError(f"unexpected gradient blow-up at r = {hit[0]:.6g}")
    return RadialGraph(**fields, meta={"source": "grim_ode"})


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
