"""Method-of-lines solver for radial graphical mean curvature flow.

The height u(tau, r) of a rotationally symmetric graph moving by mean
curvature satisfies

    du/dtau = u'' / (1 + u'^2) + D(r) u'

with D the chart drift ((n-1) xi'/xi on the polar chart).  Space is
discretized with centered differences on a uniform grid padded with one
ghost node per end (the polar axis mirrors, a Robin end mirrors through
its slope, a held Dirichlet end extrapolates).  Steps are explicit Heun
under the parabolic stability bound, or trapezoidal with damped Newton.
Newton starts at the state, whose carried stencil (right-hand side,
slopes, second differences) gives its tridiagonal Jacobian, and each
iterate costs one stencil pass, which gives the next Jacobian and the
next step's start; LAPACK's ``dgtsv`` (``spline.Tridiagonal``, in buffers
the problem keeps) solves the Newton system directly.  ``run`` records its Newton
iterations, line-search halvings, line-search fallbacks (every halving
failed to lower the residual and the last trial was kept) and the
largest residual it accepted as the trajectory's ``diagnostics``.

The module also evaluates the weighted area functional
F(tau) = |S^{n-1}| int exp(c u - c^2 tau) W xi^{n-1} dr and its defect
D(tau) = |S^{n-1}| int K (H - c/W)^2 W xi^{n-1} dr, whose near-equality
dF/dtau ~ -D is the monotonicity property under test.  A run records
both from the stencil its step formed and one W, k pair per snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph_solvers import solve_radial_graph, solve_grim
from .profile_solver import SolitonSpec
from .spline import Tridiagonal
from .warp_models import WarpModel

EXPLICIT_CFL = 0.4
NEWTON_TOL, NEWTON_MAX_ITER = 1e-10, 25
LINE_SEARCH_HALVINGS = 8
_GHOST_READS = np.array([0, 1, 2, -3, -2, -1])  # the nodes the two ghosts read

#: keys of the Newton record, with their values before the first step:
#: how a run was computed, not what it is
FLOW_RECORD = {"newton_iterations": 0, "line_search_halvings": 0,
               "line_search_fallbacks": 0, "max_accepted_residual": 0.0}


def sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere, 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)


@dataclass
class GraphFlowState:
    """Nodal heights at one flow time on a fixed uniform grid."""

    r_grid: np.ndarray
    u: np.ndarray
    tau: float

    def __post_init__(self):
        self.u = _finite_heights(self.u)
        if self.u.shape != self.r_grid.shape:
            raise ValueError("u and r_grid shape mismatch")


@dataclass
class FlowTrajectory:
    """Recorded snapshots with functional and defect samples."""

    taus: np.ndarray
    F_values: np.ndarray
    defect_values: np.ndarray
    snapshots: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def dF_dtau(self) -> np.ndarray:
        """Centered differences of F at the interior records."""
        taus, F = self.taus, self.F_values
        return (F[2:] - F[:-2]) / (taus[2:] - taus[:-2])

    def monotonicity_check(self, tol_rel: float = 1e-3, tol_abs: float = 1e-6) -> dict:
        """Centered-difference check of dF/dtau = -D at interior records."""
        F, D = self.F_values, self.defect_values
        if F.size < 3:
            raise ValueError("need at least three records")
        dF = self.dF_dtau()
        Dm = D[1:-1]
        gap = np.abs(dF + Dm)
        allowed = tol_rel * np.abs(Dm) + tol_abs
        return {
            "F_nonincreasing": bool(np.all(np.diff(F) <= 1e-12 * np.abs(F[0]))),
            "max_gap": float(np.max(gap)),
            "min_allowed_gap": float(np.min(allowed)),
            "balance_ok": bool(np.all(gap <= allowed)),
        }


class FlowProblem:
    """Spatial discretization and quadratures for one flow configuration.

    The chart is the warp's: "polar" for a rotational warp (grid [0, R],
    axis symmetry at r = 0) or "equidistant" (grid [-R, R], n = 2 only,
    slope conditions at both ends).  ``robin_slope`` may be a finite number, or
    None to pin the initial data's own one-sided slope when a run starts.
    Implicit steps start Newton at the state they step from and solve to
    NEWTON_TOL in at most NEWTON_MAX_ITER Newton iterations, in one set of
    tridiagonal buffers per problem, so a problem must not step in two
    threads at once.
    """

    def __init__(self, c: float, n: int, warp: WarpModel, r_max: float = 10.0,
                 n_nodes: int = 2001, bc: str = "robin", robin_slope=None):
        if not math.isfinite(c):
            raise ValueError(f"flow speed c must be finite, got {c}")
        if n_nodes < 3 or not 0 < r_max < math.inf:
            raise ValueError("a flow grid needs n_nodes >= 3 and a finite r_max > 0, "
                             f"got n_nodes = {n_nodes}, r_max = {r_max}")
        chart = warp.chart
        if chart == "polar":
            self.r_grid = np.linspace(0.0, r_max, n_nodes)
        elif chart == "equidistant":
            if n != 2:
                raise ValueError("equidistant flow chart supports n = 2 only")
            self.r_grid = np.linspace(-r_max, r_max, n_nodes)
        else:
            raise ValueError(f"no flow on the {chart} chart: the flow needs a "
                             "rotational or equidistant warp")
        self.dr = float(self.r_grid[1] - self.r_grid[0])
        if not np.finfo(float).tiny <= self.dr * self.dr < math.inf:
            raise ValueError(f"grid spacing dr = {self.dr:g} is out of float range: "
                             "the stencil divides by dr^2, which is not a normal float")
        warp.require_domain(self.r_grid)
        if bc not in ("robin", "dirichlet"):
            raise ValueError(f"unknown boundary condition {bc!r}")
        self.c, self.n, self.warp = float(c), int(n), warp
        self.bc = bc
        self.r_max = float(r_max)
        self.area = sphere_area(n)

        # drift D(r) and area weight xi^(n-1); the equidistant chart has
        # n = 2, so its weight is xi.  D(0) on the polar axis stays 0.
        r = self.r_grid
        self.drift = np.zeros_like(r)
        start = 1 if chart == "polar" else 0
        self.drift[start:] = warp.drift(r[start:], n)
        with np.errstate(over="ignore"):
            self.weight = warp.xi(r) ** (n - 1)
        overflow = ~np.isfinite(self.weight)
        if overflow.any():
            raise ValueError(f"the area weight xi^{n - 1} is not finite at r={r[overflow][0]}")
        self._advection = self.drift / (2 * self.dr)  # the Jacobian's D / (2 dr)
        self._simpson = _simpson_factors(r)
        self._system = Tridiagonal(n_nodes)  # the Newton system's buffers

        # Each end's ghost node is w . (the three nodes nearest it, outermost
        # first) + 2 dr s with weights summing to one: the axis mirrors (s = 0;
        # its row is n u''(0)), a Robin end mirrors through its slope s, and a
        # held Dirichlet end extrapolates (s = 0; the slice step n_nodes - 1
        # takes both ends of the equidistant grid).
        mirror, extrapolate = (0.0, 1.0, 0.0), (3.0, -3.0, 1.0)
        self._ghosts = (mirror if chart == "polar" or bc == "robin" else extrapolate,
                        mirror if bc == "robin" else extrapolate)
        self._axis = float(n) if chart == "polar" else 1.0
        self._held = (None if bc == "robin"
                      else slice(-1 if chart == "polar" else 0, None, n_nodes - 1))

        self._sigma = self._sigma_left = None
        if robin_slope is not None:
            self._sigma = float(robin_slope)
            if not math.isfinite(self._sigma):
                raise ValueError(f"robin_slope must be finite, got {robin_slope}")
            if chart == "equidistant":
                self._sigma_left = -self._sigma

    @property
    def chart(self) -> str:
        return self.warp.chart

    # -- boundary slopes -------------------------------------------------

    def pin_boundary_slopes(self, u0) -> None:
        """Fix the Robin slopes to the one-sided slopes of ``u0``."""
        u0 = np.asarray(u0, dtype=float)
        self._sigma = _end_slope(u0, self.dr)
        if self.chart == "equidistant":
            self._sigma_left = -_end_slope(u0[::-1], self.dr)

    # -- the stencil -----------------------------------------------------

    def _differences(self, u) -> tuple:
        """Centred slope and second difference of ``u`` padded with its ghosts."""
        if self.bc == "robin" and self._sigma is None:
            raise ValueError("Robin slope not set; call pin_boundary_slopes "
                             "or pass robin_slope")
        u = np.asarray(u, dtype=float)
        (a0, a1, a2), (b0, b1, b2) = self._ghosts
        u0, u1, u2, z2, z1, z0 = u[_GHOST_READS].tolist()
        two_dr = 2 * self.dr
        g = np.empty(u.size + 2)
        g[1:-1] = u
        g[0] = a0 * u0 + a1 * u1 + a2 * u2 - two_dr * (self._sigma_left or 0.0)
        g[-1] = b0 * z0 + b1 * z1 + b2 * z2 + two_dr * (self._sigma or 0.0)
        above, below = g[2:], g[:-2]
        p = above - below
        p /= two_dr
        q = above - 2 * u
        q += below
        q /= self.dr * self.dr
        return p, q

    def _rhs(self, u) -> tuple:
        """Nodal du/dtau with the slopes p and second differences q it read."""
        p, q = self._differences(u)
        f = p * p
        f += 1.0
        np.divide(q, f, out=f)
        f += self.drift * p
        f[0] *= self._axis
        if self._held is not None:
            f[self._held] = 0.0
        return f, p, q

    def rhs(self, u) -> np.ndarray:
        """Nodal du/dtau = u''/(1+u'^2) + D(r) u'."""
        return self._rhs(u)[0]

    def _jacobian(self, p, q) -> tuple:
        """Sub-, main and super-diagonal of d(rhs)/du at the stencil (p, q):
        the interior formula on every row, mirror ghosts folded onto their
        node, held rows 0."""
        dr = self.dr
        w2 = 1.0 + p * p
        dr2_w2 = dr * dr * w2
        base = 1.0 / dr2_w2
        skew = q * p / (dr * w2 ** 2)
        adv = self._advection
        upper = base - skew + adv  # row i's coefficient of u[i+1]
        diag = -2.0 / dr2_w2
        lower = base + skew - adv  # row i's coefficient of u[i-1]
        upper[0] += lower[0]
        lower[-1] += upper[-1]
        upper[0] *= self._axis
        diag[0] *= self._axis
        if self._held is not None:
            for row in (upper, diag, lower):
                row[self._held] = 0.0
        return lower[1:], diag, upper[:-1]

    # -- time stepping ---------------------------------------------------

    def stability_bound(self) -> float:
        return EXPLICIT_CFL * self.dr * self.dr

    def _heun(self, u, f, dtau: float) -> np.ndarray:
        """Heun step from ``u`` with its first stage ``f = rhs(u)``."""
        return u + 0.5 * dtau * (f + self.rhs(u + dtau * f))

    def step_implicit(self, u, dtau: float) -> np.ndarray:
        """Trapezoidal step by damped Newton."""
        if not 0 < dtau < math.inf:
            raise ValueError(f"a step needs a finite dtau > 0, got {dtau}")
        u = _finite_heights(u)
        return self._newton(u, *self._rhs(u), dtau, dict(FLOW_RECORD))[0]

    def _newton(self, u, f, p, q, dtau: float, tally: dict) -> tuple:
        """Trapezoidal step from ``u`` by damped Newton started at ``u``,
        whose stencil ``(f, p, q) = _rhs(u)`` gives the first Jacobian.

        Returns the accepted iterate and its (f, p, q). The step's Newton
        iterations, halvings and fallbacks are added to ``tally`` (FLOW_RECORD
        keys), and its accepted residual raises the maximum kept there.
        """
        half = 0.5 * dtau
        v = u
        target = u + half * f
        res = v - target - half * f
        norm = np.max(np.abs(res))
        if not norm < math.inf:
            raise RuntimeError("implicit step's starting residual is not finite "
                               f"(residual {norm:.3g}), so Newton took no iteration")
        for _ in range(NEWTON_MAX_ITER):
            # a converged or non-finite residual ends the iteration
            if not NEWTON_TOL < norm < math.inf:
                break
            tally["newton_iterations"] += 1
            delta = _solve_newton_system(self._system, *self._jacobian(p, q),
                                         half, res)
            for k in range(LINE_SEARCH_HALVINGS):
                trial = v + delta if k == 0 else v + 0.5 ** k * delta
                f, p, q = self._rhs(trial)
                res_trial = trial - target - half * f
                norm_trial = np.max(np.abs(res_trial))
                if norm_trial < norm:
                    break
                tally["line_search_halvings"] += 1
            else:
                # no halving lowered the residual: keep the last trial
                tally["line_search_fallbacks"] += 1
            v, res, norm = trial, res_trial, norm_trial
        if not norm <= NEWTON_TOL:
            raise RuntimeError(
                f"implicit step failed to converge within {NEWTON_MAX_ITER} "
                f"iterations (residual {norm:.3g})")
        tally["max_accepted_residual"] = max(tally["max_accepted_residual"],
                                             float(norm))
        return v, f, p, q

    # -- functionals -----------------------------------------------------

    def _integral(self, integrand) -> float:
        """|S^{n-1}| times the composite Simpson integral of the nodal
        ``integrand`` over the grid, scipy.integrate.simpson(y, x=r_grid)'s
        arithmetic (SciPy 1.17) with its grid factors computed once."""
        stop, scale, c0, c1, c2, tail = self._simpson
        y = integrand
        total = np.sum(scale * (y[0:stop:2] * c0 + y[1:stop + 1:2] * c1
                                + y[2:stop + 2:2] * c2))
        if tail is not None:
            alpha, beta, eta = tail
            total += alpha * y[-1] + beta * y[-2] - eta * y[-3]
        return self.area * float(total)

    def _functional_and_defect(self, u, p, q, tau: float) -> tuple:
        """F and D of the heights ``u`` at ``tau`` from their stencil (p, q)."""
        w2 = 1.0 + p * p
        big_w = np.sqrt(w2)
        k = np.exp(self.c * np.asarray(u, dtype=float) - self.c * self.c * tau)
        h = q / w2 ** 1.5 + self.drift * p / big_w
        h[0] *= self._axis
        return (self._integral(k * big_w * self.weight),
                self._integral(k * (h - self.c / big_w) ** 2 * big_w * self.weight))

    def weighted_functional(self, u, tau: float) -> float:
        """F(tau) = |S^{n-1}| int exp(c u - c^2 tau) W xi^{n-1} dr."""
        return self._functional_and_defect(u, *self._differences(u), tau)[0]

    def soliton_defect(self, u, tau: float) -> float:
        """D(tau) = |S^{n-1}| int K (H - c/W)^2 W xi^{n-1} dr >= 0."""
        return self._functional_and_defect(u, *self._differences(u), tau)[1]

    # -- driver ----------------------------------------------------------

    def run(self, u0, dtau: float, horizon: float, scheme: str = "explicit",
            record_every: int = 1) -> FlowTrajectory:
        """Advance from ``u0`` at tau = 0 to ``horizon``, recording F and D.

        The trajectory's diagnostics carry the Newton record under the
        FLOW_RECORD keys; an explicit run leaves them at zero.
        """
        if scheme not in ("explicit", "implicit"):
            raise ValueError(f"unknown scheme {scheme!r}")
        n_steps, _ = run_counts(dtau, horizon, record_every)
        tally = dict(FLOW_RECORD)
        if scheme == "implicit":
            def step(u, f, p, q):
                return self._newton(u, f, p, q, dtau, tally)
        else:
            if not 0 < dtau <= self.stability_bound() * (1 + 1e-12):
                raise ValueError(
                    f"dtau = {dtau:g} is not > 0 and within the stability bound "
                    f"{self.stability_bound():g}")

            def step(u, f, p, q):
                v = self._heun(u, f, dtau)
                return (v, *self._rhs(v))
        u = _finite_heights(u0).copy()
        if self.bc == "robin" and self._sigma is None:
            self.pin_boundary_slopes(u)
        rows, snaps = [], []  # (tau, F, D) and the heights of each record

        def record(tau, u, p, q):
            # GraphFlowState rejects non-finite heights, and the last step
            # is always recorded, so a run never returns them
            rows.append((tau, *self._functional_and_defect(u, p, q, tau)))
            snaps.append(GraphFlowState(self.r_grid, u.copy(), tau))

        # each state's stencil (f, p, q) serves its record and the next step
        f, p, q = self._rhs(u)
        record(0.0, u, p, q)
        for i in range(1, n_steps + 1):
            u, f, p, q = step(u, f, p, q)
            if i % record_every == 0 or i == n_steps:
                record(i * dtau, u, p, q)
        taus, fs, ds = map(np.asarray, zip(*rows))
        return FlowTrajectory(
            taus=taus, F_values=fs, defect_values=ds, snapshots=snaps,
            meta={"scheme": scheme, "dtau": dtau, "bc": self.bc,
                  "chart": self.chart, "n_nodes": self.r_grid.size,
                  "robin_slope": self._sigma},
            diagnostics=tally)


def run_counts(dtau: float, horizon: float, record_every: int) -> tuple:
    """(steps, records) of :meth:`FlowProblem.run`, or the ValueError it
    raises; it records tau = 0, every ``record_every``-th step and the last."""
    if not (0 < dtau < math.inf and 0 < horizon < math.inf and record_every >= 1):
        raise ValueError("a run needs finite dtau and horizon > 0 and "
                         f"record_every >= 1, got dtau = {dtau}, "
                         f"horizon = {horizon}, record_every = {record_every}")
    steps = float(horizon) / float(dtau)
    if not math.isfinite(steps):
        raise ValueError(f"dtau = {dtau} is too small: horizon / dtau "
                         f"overflows for horizon = {horizon}")
    n_steps = round(steps)
    if abs(n_steps * dtau - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer number of steps")
    return n_steps, 1 + -(-n_steps // record_every)


def _finite_heights(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("non-finite heights")
    return u


def _end_slope(u, dr: float):
    """One-sided second-order slope at the last node of ``u``."""
    return (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * dr)


def _simpson_factors(x) -> tuple:
    """The grid factors of SciPy's non-uniform composite Simpson rule on
    the increasing nodes ``x``: the bound ``stop`` of the pairs of
    intervals (pair j spans nodes 2j to 2j + 2, 2j < stop), each pair's
    weight and its three node factors, and for an even node count the
    weights (alpha, beta, eta) of Cartwright's correction for the last
    interval."""
    n = x.size
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, hprod = h0 + h1, h0 * h1
    ratio = h0 / h1
    factors = (stop, hsum / 6.0, 2.0 - 1.0 / ratio, hsum * (hsum / hprod),
               2.0 - ratio)
    if n % 2:
        return (*factors, None)
    # SciPy computes these on 0-d arrays; so does this
    h0, h1 = np.squeeze(h[-2:-1]), np.squeeze(h[-1:])
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = h1 ** 3 / (6 * h0 * (h0 + h1))
    return (*factors, (alpha, beta, eta))


def _solve_newton_system(system: Tridiagonal, lower, diag, upper, half,
                         res) -> np.ndarray:
    """Newton step delta with (I - half J) delta = -res, for J given by its
    sub-, main and super-diagonal: -half J + I and -res are written into
    the buffers of ``system`` and solved there, so delta is a view of its
    buffer, valid until the next solve."""
    np.multiply(lower, -half, out=system.dl)
    np.multiply(diag, -half, out=system.d)
    system.d += 1.0
    np.multiply(upper, -half, out=system.du)
    np.negative(res, out=system.b[0])
    return system.solve()[0]


# -- initial data -------------------------------------------------------

def soliton_initial(problem: FlowProblem, rtol: float = 1e-11,
                    atol: float = 1e-13) -> np.ndarray:
    """Heights ``graph.u_eval(problem.r_grid)`` of the bowl graph (polar
    chart) or the grim graph (equidistant chart) on the flow grid; a graph
    that blows up raises ValueError."""
    if problem.chart == "polar":
        spec = SolitonSpec(c=problem.c, n=problem.n, family="bowl",
                           warp=problem.warp)
        graph = solve_radial_graph(spec, r_span=(0.0, problem.r_max * 1.01),
                                   rtol=rtol, atol=atol)
        if graph.gradient_blowup:
            raise ValueError(f"the soliton graph blows up at r = {graph.blowup_radius:.6g} "
                             f"(flow domain R = {problem.r_max:g})")
    else:
        graph = solve_grim(problem.c, problem.n, problem.warp,
                           r_span=(-problem.r_max * 1.01, problem.r_max * 1.01),
                           rtol=rtol, atol=atol)
    return np.asarray(graph.u_eval(problem.r_grid), dtype=float)


def discrete_soliton(problem: FlowProblem) -> np.ndarray:
    """Exact steady state of the discrete scheme, marched node by node.

    Solves rhs(u) = c at every node, including the Robin boundary row,
    so the returned heights translate exactly under the semi-discrete
    flow; the problem's Robin slope is set to the value that closes the
    boundary equation.  The heights are normalized to zero at the outer
    node, keeping the exponential weight of the monotonicity
    functional at most one and the boundary flux at roundoff level.
    """
    if problem.chart != "polar":
        raise ValueError("discrete soliton marching needs the polar chart")
    c = problem.c
    dr, dr2 = problem.dr, problem.dr * problem.dr
    two_dr = 2 * dr
    # the march runs on Python floats: an item of a float64 memoryview is
    # a float, and the two nodes behind the front are carried as floats
    drift = memoryview(problem.drift)
    u = np.zeros(problem.r_grid.size)
    prev = 0.0
    cur = u[1] = prev + c * dr2 / (2 * problem.n)
    for i in range(1, u.size - 1):
        a = drift[i]
        adv = a / two_dr
        x = 2 * cur - prev  # linear extrapolation seed
        for _ in range(30):
            p = (x - prev) / two_dr
            w2 = 1.0 + p * p
            q = (x - 2 * cur + prev) / dr2
            g = q / w2 + a * p - c
            dg = 1.0 / (dr2 * w2) - q * p / (dr * w2 * w2) + adv
            step = g / dg
            x -= step
            # |step| <= 1e-14 max(1, |x|), without the call
            if abs(step) <= 1e-14 or abs(step) <= 1e-14 * abs(x):
                break
        u[i + 1] = x
        prev, cur = cur, x
    # close the Robin boundary row for the slope
    a = drift[-1]
    s = _end_slope(u, dr)
    for _ in range(30):
        w2 = 1.0 + s * s
        q = (2 * u[-2] - 2 * u[-1] + 2 * dr * s) / dr2
        g = q / w2 + a * s - c
        dg = 2.0 / (dr * w2) - 2.0 * q * s / (w2 * w2) + a
        step = g / dg
        s -= step
        if abs(step) <= 1e-15 * max(1.0, abs(s)):
            break
    problem._sigma = float(s)
    return u - u[-1]


def flat_initial(problem: FlowProblem) -> np.ndarray:
    return np.zeros_like(problem.r_grid)


def bump_initial(problem: FlowProblem, amplitude: float = 0.05,
                 width: float = 0.5, center: float = 3.0, *,
                 base: np.ndarray) -> np.ndarray:
    """The heights ``base`` on the flow grid plus a Gaussian bump; its
    amplitude, width and centre must be finite and its width > 0."""
    if not all(map(math.isfinite, (amplitude, width, center))):
        raise ValueError(f"bump amplitude {amplitude}, width {width} and centre "
                         f"{center} must be finite")
    if width <= 0:
        raise ValueError(f"bump width must be > 0, got {width}")
    # a far or narrow bump squares to inf at a node, where exp(-inf) = 0 is exact
    with np.errstate(over="ignore"):
        bump = amplitude * np.exp(-((problem.r_grid - center) / width) ** 2)
    return np.asarray(base, dtype=float) + bump
