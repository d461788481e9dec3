"""Arc-length profile curves of equivariant translating solitons.

The profile (r(s), t(s)) of a rotationally symmetric soliton, together
with its tangent angle phi, solves the autonomous first-order system

    dr/ds   = cos(phi)
    dt/ds   = sin(phi)
    dphi/ds = c cos(phi) - (n-1) (xi'/xi) sin(phi).

Bowls launch from the rotation axis through a series expansion, wings
from (r, t, phi) = (eps, 0, +-pi/2), and the ideal (Busemann-chart)
family from arbitrary initial states with r unrestricted in sign.
Every curve is one DOP853 solve in arc length (:func:`.dop853.solve`,
the same bits as SciPy's ``solve_ivp``) with named stops at the radius,
height and axis limits and at a finite end of the warp's domain, and a
non-terminal event at each turning point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dop853
from .spline import PiecewiseCubic
from .warp_models import _FAMILY_KIND, FAMILIES, ROTATIONAL, WarpModel

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
#: the tolerances of the solves `soliton` checks and a flow starts from:
#: they keep the finite-difference diagnostics below their gates
TIGHT_RTOL, TIGHT_ATOL = 1e-11, 1e-13
AXIS_LAUNCH_S = 1e-4
GRAPH_RDOT_MIN = 1e-6
#: rows of every uniform resample: a profile's CSV, perturbation control
#: and most mesh rings (by arc length), and a graph piece's samples (by r)
PROFILE_ROWS = 2001


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
            if self.n < 2:
                # with no drift the profile from phi = -pi/2 turns only by round-off
                raise ValueError(f"wing family needs base dimension n >= 2, got {self.n}")
        if self.epsilon is not None and not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if self.n >= 2 and self.warp.kind != _FAMILY_KIND[self.family]:
            raise ValueError(
                f"family {self.family!r} needs a {_FAMILY_KIND[self.family]} warp, "
                f"got {self.warp.kind}")


@dataclass(frozen=True)
class TerminationPolicy:
    """Arc-length, radius and height stops of a profile solve, each finite;
    t_max > 0 is the height on either side of the start."""

    s_max: float = 1e3
    r_max: float = 1e2
    t_max: float = 1e3

    def __post_init__(self):
        for name in ("s_max", "r_max", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t_max <= 0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")


@dataclass
class ProfileCurve:
    """Samples (s, r, t, phi) of a profile plus one dense evaluator of the
    whole curve.

    ``sample(s)`` evaluates (r, t, phi) anywhere inside ``s_span``, as
    floats at a scalar s and as arrays otherwise, and raises ValueError
    outside it.  It reads ``_sol``: for a solved curve the solver's dense
    output, which for a bowl is joined (:func:`.dop853.joined`) to the axis
    series on [0, AXIS_LAUNCH_S); for a curve built from samples alone (a
    CSV read back, a perturbation control) the not-a-knot cubic spline of
    each column (:mod:`.spline`, SciPy's ``CubicSpline`` bit for bit).
    ``termination`` is ``max_arc_length`` or the name of the stop that
    ended the solve, and None on a curve built from samples: a solve that a
    step failure or the step budget ended raises (:func:`.dop853.finished`)
    and gives no curve.  ``diagnostics`` is the solve's run record and
    ``meta`` the run metadata of a CSV it was read from.
    """

    spec: SolitonSpec | None
    s: np.ndarray
    r: np.ndarray
    t: np.ndarray
    phi: np.ndarray
    termination: str | None = None
    turning_points: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    _sol: Callable | None = None

    def __post_init__(self):
        if self._sol is None:
            spline = PiecewiseCubic.not_a_knot(
                self.s, np.stack((self.r, self.t, self.phi), axis=-1))
            self._sol = lambda s: np.moveaxis(spline(s), -1, 0)

    @property
    def s_span(self) -> tuple:
        return float(self.s[0]), float(self.s[-1])

    def sample(self, s):
        s = np.asarray(s, dtype=float)
        lo, hi = self.s_span
        if np.any(s < lo - 1e-12) or np.any(s > hi + 1e-12):
            raise ValueError(f"s outside curve range [{lo}, {hi}]")
        r, t, phi = self._sol(s)
        if s.ndim == 0:
            return float(r), float(t), float(phi)
        return r, t, phi


def axis_series(c: float, n: int, x):
    """Bowl launch at distance x (a float or an array) from the axis: the
    pair (height, slope) = ((c/(2n)) x^2, (c/n) x), with O(x^3) error since
    u''(0) = c/n.  The slope is phi of the arc-length profile, where r = s,
    and u' of the radial graph."""
    return (c / (2 * n)) * x**2, (c / n) * x


def _profile_field(c: float, drift, cphi, sphi) -> tuple:
    """(dr/ds, dt/ds, dphi/ds) = (cos phi, sin phi, c cos phi - drift sin phi)
    from cos phi and sin phi, as floats (a solve) or arrays (diagnostics)."""
    return (cphi, sphi, c * cphi - drift * sphi)


def profile_rhs(state, spec: SolitonSpec):
    """Right-hand side of the first-order profile system at one state
    ``(r, phi)``: the tuple (dr/ds, dt/ds, dphi/ds)."""
    r, phi = state
    spec.warp.require_domain(r)
    return _profile_field(spec.c, spec.warp.drift(r, spec.n), math.cos(phi), math.sin(phi))


def _integrate(spec: SolitonSpec, y0, s0: float, stop: TerminationPolicy | None,
               rtol: float, atol: float, t_center: float) -> ProfileCurve:
    stop = stop or TerminationPolicy()
    if stop.s_max <= s0:
        raise ValueError(f"arc-length stop s_max={stop.s_max} must lie past the "
                         f"start s0={s0}")
    if y0[0] >= stop.r_max:
        # no root of the radius stop lies ahead of such a start
        raise ValueError(f"{spec.family} start radius r={y0[0]} must lie below the "
                         f"radius stop r_max={stop.r_max}")
    warp = spec.warp
    warp.require_domain(y0[0])
    c, drift = spec.c, warp.scalar_drift(spec.n)

    def rhs(s, y):
        r, _, phi = y
        return _profile_field(c, drift(r), math.cos(phi), math.sin(phi))

    events = [("max_radius", lambda s, y: y[0] - stop.r_max, True),
              ("max_height", lambda s, y: y[1] - (t_center + stop.t_max), True),
              ("max_height", lambda s, y: y[1] - (t_center - stop.t_max), True),
              ("turning_point", lambda s, y: y[2], False)]
    have_axis = warp.kind == ROTATIONAL
    if have_axis:
        events.append(("axis_reached", lambda s, y: y[0] - 1e-9, True))
    # the axis stop guards a rotational domain's end at r = 0
    events += [("domain_edge", lambda s, y, edge=edge: y[0] - edge, True)
               for edge in warp.r_domain
               if math.isfinite(edge) and not (have_axis and edge <= 0.0)]

    out = dop853.solve(rhs, (s0, stop.s_max), y0, rtol, atol, events)
    dop853.finished(out, f"the {spec.family} profile solve", out.y[0, -1])
    return ProfileCurve(
        spec=spec, s=out.t, r=out.y[0], t=out.y[1], phi=out.y[2],
        termination="max_arc_length" if out.stop == dop853.END_OF_SPAN else out.stop,
        turning_points=[float(root) for root, _ in out.hits["turning_point"]],
        diagnostics=dop853.run_record(out), _sol=out.dense)


def solve_bowl(spec: SolitonSpec, stop: TerminationPolicy | None = None,
               rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> ProfileCurve:
    """Rotationally symmetric entire-graph soliton, launched on the axis.

    The system is singular at r = 0 (xi'/xi ~ 1/r); the launch uses
    :func:`axis_series`, r = s, t = (c/2n) s^2, phi = (c/n) s, at
    s0 = AXIS_LAUNCH_S, with O(s0^3) error; ``sample`` reads that series on
    [0, s0).  A launch at or past the radius stop (stop.r_max <=
    AXIS_LAUNCH_S) raises ValueError.
    """
    if spec.family != "bowl":
        raise ValueError("spec.family must be 'bowl'")
    s0 = AXIS_LAUNCH_S

    def series(s):
        height, slope = axis_series(spec.c, spec.n, s)
        return np.array((s, height, slope))

    curve = _integrate(spec, series(s0), s0, stop, rtol, atol, t_center=0.0)
    # prepend the exact axis point; dense sampling reads the series below s0
    curve.s = np.concatenate(([0.0], curve.s))
    curve.r = np.concatenate(([0.0], curve.r))
    curve.t = np.concatenate(([0.0], curve.t))
    curve.phi = np.concatenate(([0.0], curve.phi))
    curve._sol = dop853.joined(series, curve._sol, s0)
    return curve


def solve_wing(spec: SolitonSpec, branch: int = -1,
               stop: TerminationPolicy | None = None,
               rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> ProfileCurve:
    """One branch of the exterior bi-graph soliton.

    ``branch`` is the sign of phi(0) = +-pi/2.  The minus branch descends
    from (eps, 0), turns at the unique radius r0 where phi = 0, then
    ascends; the plus branch ascends immediately.  A start at or past the
    radius stop (eps >= stop.r_max) raises ValueError: no root of that
    stop lies ahead of it.
    """
    if spec.family != "wing":
        raise ValueError("spec.family must be 'wing'")
    if branch not in (-1, 1):
        raise ValueError("branch must be +1 or -1")
    y0 = (spec.epsilon, 0.0, branch * math.pi / 2)
    return _integrate(spec, y0, 0.0, stop, rtol, atol, t_center=0.0)


def solve_ideal_parametric(spec: SolitonSpec, initial, stop: TerminationPolicy | None = None,
                           rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> ProfileCurve:
    """Horosphere-foliated soliton profile in the Busemann chart.

    Same system as the rotational case but r is a signed horosphere
    distance, so the curve is free to cross r = 0.  For xi = e^{kappa r}
    the angle tends to the equilibrium arctan(c / ((n-1) kappa)).  The
    solve starts at s = 0 from ``initial``, the state (r, t, phi); a start
    at or past the radius stop raises ValueError.
    """
    if spec.family != "ideal":
        raise ValueError("spec.family must be 'ideal'")
    y0 = tuple(initial)
    return _integrate(spec, y0, 0.0, stop, rtol, atol, t_center=y0[1])


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
        r_grid=r, u=t, du=du, spec=curve.spec,
        meta={"source": "profile", "rdot_min": GRAPH_RDOT_MIN})

