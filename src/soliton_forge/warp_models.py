"""Rotationally symmetric base metrics and their curvature data.

Three charts are supported:

* ``rotational`` -- geodesic polar metric dr^2 + xi^2(r) dtheta^2 on a
  Cartan-Hadamard manifold, xi(0)=0, xi'(0)=1;
* ``busemann`` -- r is the signed distance from a fixed horosphere, xi is
  the horosphere scale factor (xi = e^{kappa r} for constant curvature);
* ``equidistant`` -- warped metric xi^2(r) dtau^2 + dr^2 + chi^2(r) dtheta^2
  built on a geodesic, xi(0)=1, xi'(0)=0.

Every solver downstream consumes a model only through xi, its derivatives
and the quotient xi'/xi, so user-defined metrics can be supplied as
Hermite tables (see ``warp_from_json``).  A model carries that quotient as
data, ``ratio`` (and chi'/chi as ``chi_ratio``): on the built-in warps it
is a closed form that is finite at every radius but a singular line,
k coth(k r), k or k tanh(k r) with k = sqrt(-K); a table's is dxi/xi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

ROTATIONAL = "rotational"
BUSEMANN = "busemann"
EQUIDISTANT = "equidistant"
KINDS = (ROTATIONAL, BUSEMANN, EQUIDISTANT)

#: the foliation of P each warp kind's radius coordinate charts
CHARTS = {ROTATIONAL: "polar", BUSEMANN: "busemann", EQUIDISTANT: "equidistant"}

FAMILIES = ("bowl", "wing", "ideal", "grim")

#: what a drift that is singular on r = 0 raises, by warp kind
_SINGULAR = {ROTATIONAL: "xi'/xi is singular at the axis r=0",
             EQUIDISTANT: "chi'/chi is singular on the core line r=0"}

#: warp kind each soliton family lives on
_FAMILY_KIND = {
    "bowl": ROTATIONAL,
    "wing": ROTATIONAL,
    "ideal": BUSEMANN,
    "grim": EQUIDISTANT,
}


@dataclass(frozen=True)
class WarpModel:
    """Immutable description of the radial warping of the base metric.

    ``xi``, ``dxi``, ``ddxi`` evaluate the warping function and its first
    two derivatives at a float or an ndarray, taken as given.  ``chi`` (with
    derivatives) is the second warping factor, only on the equidistant chart.
    ``ratio`` is xi'/xi and ``chi_ratio`` chi'/chi, evaluated the same way;
    left unset they are the quotients dxi/xi and dchi/chi.
    ``xi3_zero`` is xi'''(0); it only gives :func:`radial_curvature` its
    axis limit -xi'''(0) on the rotational kind.
    """

    kind: str
    xi: Callable
    dxi: Callable
    ddxi: Callable
    r_domain: tuple
    label: str = ""
    chi: Callable | None = None
    dchi: Callable | None = None
    ddchi: Callable | None = None
    xi3_zero: float | None = None
    ratio: Callable | None = None
    chi_ratio: Callable | None = None
    #: n -> :meth:`scalar_drift`, bound on first use by :meth:`drift`
    _drifts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown warp kind {self.kind!r}")
        if self.kind == EQUIDISTANT and self.chi is None:
            raise ValueError("equidistant warp requires the chi factor")
        if self.ratio is None:
            object.__setattr__(self, "ratio", lambda r: self.dxi(r) / self.xi(r))
        if self.chi is not None and self.chi_ratio is None:
            object.__setattr__(self, "chi_ratio", lambda r: self.dchi(r) / self.chi(r))

    @property
    def chart(self) -> str:
        """Name of the chart of P the radius r coordinatises."""
        return CHARTS[self.kind]

    def in_domain(self, r) -> bool:
        lo, hi = self.r_domain
        if isinstance(r, float):
            return bool(lo <= r <= hi)
        r = np.asarray(r, dtype=float)
        return bool(((r >= lo) & (r <= hi)).all())

    def require_domain(self, r):
        if not self.in_domain(r):
            raise ValueError(
                f"r={r} outside domain {self.r_domain} of warp {self.label!r}")

    def xi_ratio(self, r):
        """xi'(r)/xi(r): the n = 2 drift, 1 * xi'/xi on every kind."""
        return self.drift(r, 2)

    def _raise_nan(self, r: float):
        raise ValueError(f"xi'/xi is NaN at r={r} for warp {self.label!r}: "
                         "r is NaN, or xi or xi' overflows or underflows there")

    def g(self, r):
        """xi(r)/xi'(r), the reciprocal of :meth:`xi_ratio`."""
        return 1.0 / self.xi_ratio(r)

    def drift(self, r, n: int):
        """Laplacian D(r) of the chart coordinate in base dimension n.

        (n-1) xi'/xi on the rotational and Busemann charts and
        xi'/xi + (n-2) chi'/chi on the equidistant chart, from ``ratio`` and
        ``chi_ratio``; 0 for n = 1.  It raises ZeroDivisionError on the
        singular line r = 0 (the rotational axis, or for n >= 3 the
        equidistant core line, where chi = 0) and ValueError where xi'/xi
        is NaN (a NaN radius, or a table's xi or xi' over/underflowing).
        A float (np.float64 included) goes through :meth:`scalar_drift`;
        anything else is the one array path, and a 0-d input returns a float.
        """
        if isinstance(r, float):
            return (self._drifts.get(n) or self._drifts.setdefault(n, self.scalar_drift(n)))(r)
        scalar = np.ndim(r) == 0
        if n < 2:
            return 0.0 if scalar else np.zeros(np.shape(r))
        r = np.atleast_1d(np.asarray(r, dtype=float))
        singular = self.kind == ROTATIONAL or self.kind == EQUIDISTANT and n > 2
        if singular and (r == 0.0).any():
            raise ZeroDivisionError(_SINGULAR[self.kind])
        # a quotient overflowing to inf/inf gives NaN, which is refused below;
        # k r past the float range is inf, where the closed forms are finite
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.ratio(r)
            nan = np.isnan(out)
            if nan.any():
                self._raise_nan(float(r[nan][0]))
            if self.kind != EQUIDISTANT:
                out = (n - 1) * out
            elif n > 2:
                out = out + (n - 2) * self.chi_ratio(r)
        return float(out[0]) if scalar else out

    def scalar_drift(self, n: int) -> Callable[[float], float]:
        """D(r) in base dimension n as a float -> float function, bound once
        for a solver's right-hand side: the one float path of :meth:`drift`,
        with its checks, its messages and the bits of its array path."""
        if n < 2:
            return lambda r: 0.0
        ratio, chi_ratio = self.ratio, self.chi_ratio
        chi_term = self.kind == EQUIDISTANT and n > 2
        singular = self.kind == ROTATIONAL or chi_term
        m = 1 if self.kind == EQUIDISTANT else n - 1

        def drift(r: float) -> float:
            if singular and r == 0.0:
                raise ZeroDivisionError(_SINGULAR[self.kind])
            out = float(ratio(r))
            if out != out:
                self._raise_nan(r)
            return float(out + (n - 2) * chi_ratio(r)) if chi_term else m * out
        return drift


@dataclass(frozen=True)
class CurvatureBounds:
    """Pinching constants K_minus <= K <= K_plus <= 0 for the radial curvature."""

    K_minus: float
    K_plus: float

    def __post_init__(self):
        if not (self.K_minus <= self.K_plus <= 0.0):
            raise ValueError(
                f"need K_minus <= K_plus <= 0, got {self.K_minus}, {self.K_plus}")


@dataclass(frozen=True)
class Violation:
    condition: str
    r: float
    value: float


def _constant(value: float) -> Callable:
    """Evaluator of a constant: a float for a float, an array otherwise."""
    def evaluate(r):
        if isinstance(r, float):
            return value
        return np.full_like(np.asarray(r, dtype=float), value)
    return evaluate


def make_builtin_warp(kind: str, curvature: float) -> WarpModel:
    """Constant-curvature warp with analytically exact derivatives.

    rotational:   K = 0 gives xi = r;  K = -k^2 gives xi = sinh(k r)/k.
    busemann:     xi = e^{k r}            (requires K < 0).
    equidistant:  xi = cosh(k r), chi = sinh(k r)/k   (requires K < 0).

    A curvature that is not finite raises ValueError.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown warp kind {kind!r}")
    if not math.isfinite(curvature):
        raise ValueError(f"curvature K must be finite, got {curvature}")
    if curvature > 0:
        raise ValueError("positive curvature is not supported")
    if kind in (BUSEMANN, EQUIDISTANT) and curvature == 0:
        raise ValueError(f"{kind} warp requires strictly negative curvature")

    # NumPy ufuncs, not math.*, on a float as on an array: one ufunc gives both
    # paths the same bits, where NumPy's SIMD loops and libm differ by an ulp
    if kind == ROTATIONAL:
        if curvature == 0.0:
            return WarpModel(
                kind=ROTATIONAL,
                xi=lambda r: r * 1.0,
                dxi=_constant(1.0),
                ddxi=_constant(0.0),
                r_domain=(0.0, math.inf),
                label="euclidean",
                xi3_zero=0.0,
                ratio=lambda r: 1.0 / r,
            )
        k = math.sqrt(-curvature)
        return WarpModel(
            kind=ROTATIONAL,
            xi=lambda r: np.sinh(k * r) / k,
            dxi=lambda r: np.cosh(k * r),
            ddxi=lambda r: k * np.sinh(k * r),
            r_domain=(0.0, math.inf),
            label=f"hyperbolic(K={curvature:g})",
            xi3_zero=k * k,
            ratio=lambda r: k / np.tanh(k * r),
        )

    k = math.sqrt(-curvature)
    if kind == BUSEMANN:
        return WarpModel(
            kind=BUSEMANN,
            xi=lambda r: np.exp(k * r),
            dxi=lambda r: k * np.exp(k * r),
            ddxi=lambda r: k * k * np.exp(k * r),
            r_domain=(-math.inf, math.inf),
            label=f"busemann(K={curvature:g})",
            # k at every finite radius; a NaN radius stays NaN, which drift refuses
            ratio=lambda r: k + 0.0 * r,
        )

    # xi = cosh(k r) is even and chi = sinh(k r)/k odd in r bit for bit, since
    # NumPy's cosh, sinh and tanh act on |x| and its sign alone: the n = 2
    # drift k tanh(k r) is odd bit for bit, and solve_grim mirrors a symmetric
    # graph on it
    return WarpModel(
        kind=EQUIDISTANT,
        xi=lambda r: np.cosh(k * r),
        dxi=lambda r: k * np.sinh(k * r),
        ddxi=lambda r: k * k * np.cosh(k * r),
        chi=lambda r: np.sinh(k * r) / k,
        dchi=lambda r: np.cosh(k * r),
        ddchi=lambda r: k * np.sinh(k * r),
        r_domain=(-math.inf, math.inf),
        label=f"equidistant(K={curvature:g})",
        ratio=lambda r: k * np.tanh(k * r),
        chi_ratio=lambda r: k / np.tanh(k * r),
    )


def radial_curvature(model: WarpModel, r):
    """Radial sectional curvature K(r) = -xi''(r)/xi(r), for a float or an
    array of radii."""
    model.require_domain(r)
    r_arr = np.asarray(r, dtype=float)
    axis = (model.kind == ROTATIONAL) & (np.abs(r_arr) < 1e-8)
    if np.any(axis) and model.xi3_zero is None:
        raise ValueError("xi vanishes at the axis; curvature limit unknown")
    xi = model.xi(r_arr)
    if np.any((xi == 0.0) & ~axis):
        raise ValueError(f"xi({r}) = 0, curvature undefined")
    K = -model.ddxi(r_arr) / np.where(axis, 1.0, xi)
    if np.any(axis):
        # limit of -xi''/xi as r -> 0 for an odd xi with xi'(0)=1
        K = np.where(axis, -model.xi3_zero, K)
    return float(K) if K.ndim == 0 else K


def default_validation_grid(model: WarpModel) -> np.ndarray:
    if model.kind == ROTATIONAL:
        return np.geomspace(1e-4, 1e2, 512)
    return np.linspace(-20.0, 20.0, 512)


#: (condition, evaluator, required value) at r = 0 for each kind
_AXIS_CONDITIONS = {
    ROTATIONAL: (("xi(0) = 0", "xi", 0.0), ("xi'(0) = 1", "dxi", 1.0)),
    EQUIDISTANT: (("xi(0) = 1", "xi", 1.0), ("xi'(0) = 0", "dxi", 0.0)),
    BUSEMANN: (),
}


def validate_warp(model: WarpModel, grid: Sequence[float] | None = None,
                  tol: float = 1e-9) -> list[Violation]:
    """Sampled check of the regularity conditions for the model's kind.

    Returns an empty list iff every condition holds at every grid point
    inside the model's domain, and at r = 0 when the domain holds it;
    validation records violations and never raises.
    """
    if grid is None:
        grid = default_validation_grid(model)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("validation grid must be nonempty")
    lo, hi = model.r_domain
    grid = grid[(grid >= lo) & (grid <= hi)]
    out: list[Violation] = []

    def check(cond: str, mask: np.ndarray, values: np.ndarray, rs: np.ndarray):
        for r, v in zip(rs[~mask], values[~mask]):
            out.append(Violation(cond, float(r), float(v)))

    # a table that ends short of the axis is not extrapolated to it
    axis_conditions = _AXIS_CONDITIONS[model.kind] if model.in_domain(0.0) else ()
    for cond, evaluator, target in axis_conditions:
        value = float(getattr(model, evaluator)(0.0))
        if abs(value - target) > tol:
            out.append(Violation(cond, 0.0, value))
    if model.kind == ROTATIONAL:
        grid = grid[grid > 0]
    xi = np.asarray(model.xi(grid), dtype=float)
    check("xi > 0", xi > 0, xi, grid)
    if model.kind == ROTATIONAL:
        dxi = np.asarray(model.dxi(grid), dtype=float)
        check("xi' > 0", dxi > 0, dxi, grid)
    good = xi > 0
    K = np.where(good, -np.asarray(model.ddxi(grid), dtype=float) / np.where(good, xi, 1.0), 0.0)
    check("K <= 0", (K <= tol) | ~good, K, grid)
    return out


def warp_from_json(source) -> WarpModel:
    """Build a table-defined warp from a JSON description.

    Expected shape::

        {"kind": "rotational", "label": "...",
         "interpolation": "cubic-hermite",
         "table": [{"r": ..., "xi": ..., "dxi": ..., "ddxi": ...}, ...]}

    xi is interpolated by a Hermite cubic through (r, xi, xi'); xi''
    comes from a Hermite cubic through (r, xi', xi'').  A table that
    breaks a condition of :func:`validate_warp` raises a ``ValueError``
    naming each broken condition, how often and where it first fails.
    """
    from .spline import PiecewiseCubic

    if hasattr(source, "read_text"):
        obj = json.loads(source.read_text())
    elif isinstance(source, (str, bytes)):
        obj = json.loads(source)
    else:
        obj = source
    kind = obj["kind"]
    interp = obj.get("interpolation", "cubic-hermite")
    if interp != "cubic-hermite":
        raise ValueError(f"unsupported interpolation {interp!r}")
    table = obj["table"]
    if len(table) < 2:
        raise ValueError("warp table needs at least two rows")
    r = np.array([row["r"] for row in table], dtype=float)
    xi = np.array([row["xi"] for row in table], dtype=float)
    dxi = np.array([row["dxi"] for row in table], dtype=float)
    ddxi = np.array([row["ddxi"] for row in table], dtype=float)
    order = np.argsort(r)
    r, xi, dxi, ddxi = r[order], xi[order], dxi[order], ddxi[order]
    xi_s = PiecewiseCubic.hermite(r, xi, dxi)
    dxi_s = PiecewiseCubic.hermite(r, dxi, ddxi)
    model = WarpModel(
        kind=kind,
        xi=xi_s,
        dxi=dxi_s,
        ddxi=dxi_s.derivative(),
        r_domain=(float(r[0]), float(r[-1])),
        label=obj.get("label", "table"),
    )
    broken = {}
    for v in validate_warp(model):
        broken.setdefault(v.condition, []).append(v)
    if broken:
        raise ValueError(f"warp table {model.label!r} breaks " + "; ".join(
            f"{cond}, failing {len(vs)} of the checks, first at r = {vs[0].r:.6g} "
            f"(value {vs[0].value:.6g})" for cond, vs in broken.items()))
    return model
