"""Piecewise cubic interpolants with SciPy's bits, on NumPy alone.

``PiecewiseCubic`` holds breakpoints x and a coefficient array c of shape
(k, m, ...): on [x[i], x[i+1]] the value at t is the sum over j of
c[j, i] (t - x[i])**(k-1-j).  Two constructors build the interpolants the
package uses, with the coefficients of SciPy's (1.17) classes:

* ``not_a_knot(x, y)``: ``CubicSpline(x, y)``.  The knot slopes solve the
  same tridiagonal system, by ``_dgtsv``, a port of the LAPACK routine
  that ``solve_banded((1, 1), ...)`` calls, partial pivoting included.
* ``hermite(x, y, dydx)``: ``CubicHermiteSpline(x, y, dydx)``.

Evaluation repeats ``PPoly.__call__``'s arithmetic (the interval search,
the local offset and the sum of powers built by repeated products) and
``derivative`` its coefficient scaling, so values match bit for bit.
Points outside [x[0], x[-1]] extrapolate from the end pieces.
"""

from __future__ import annotations

import numpy as np


class PiecewiseCubic:
    """Piecewise polynomial on strictly increasing breakpoints ``x``."""

    def __init__(self, x, c):
        self.x = x
        self.c = c

    @classmethod
    def hermite(cls, x, y, dydx) -> PiecewiseCubic:
        """Cubic through (x, y) with slopes dydx; y may carry trailing
        columns that share the breakpoints."""
        x, dx, y = _knots(x, y)
        dydx = np.asarray(dydx, dtype=float)
        if dydx.shape != y.shape or not np.isfinite(dydx).all():
            raise ValueError("slopes must be finite and shaped like the values")
        slope = np.diff(y, axis=0) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        return cls(x, np.stack((t / dx, (slope - dydx[:-1]) / dx - t,
                                dydx[:-1], y[:-1])))

    @classmethod
    def not_a_knot(cls, x, y) -> PiecewiseCubic:
        """Not-a-knot cubic spline through (x, y), at least four knots; y
        may carry trailing columns, solved together as they share the
        matrix."""
        x, dx, y = _knots(x, y)
        n = x.size
        if n < 4:
            raise ValueError(f"a not-a-knot spline needs at least 4 knots, got {n}")
        slope = np.diff(y, axis=0) / dx
        b = np.empty_like(y)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        dx = dx.ravel()
        diag = np.empty(n)
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        diag[0], diag[-1] = dx[1], dx[-2]
        gaps = dx.tolist()
        columns = _dgtsv(gaps[1:] + [float(x[-1] - x[-3])], diag.tolist(),
                         [float(x[2] - x[0])] + gaps[:-1],
                         b.reshape(n, -1).T.tolist())
        return cls.hermite(x, y, np.array(columns).T.reshape(y.shape))

    def __call__(self, x) -> np.ndarray:
        """Values at ``x``, of shape x.shape + the trailing column shape."""
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.x, x, side="right") - 1,
                    0, self.x.size - 2)
        c = self.c[:, i]
        z = s = (x - self.x[i]).reshape(x.shape + (1,) * (self.c.ndim - 2))
        out = 0.0 + c[-1]
        for j in range(len(c) - 2, -1, -1):
            out = out + c[j] * z
            if j:
                z = z * s
        return out

    def derivative(self) -> PiecewiseCubic:
        """The piecewise derivative, one degree lower."""
        k = len(self.c)
        factor = np.arange(k - 1, 0, -1, dtype=float)
        return PiecewiseCubic(
            self.x, self.c[:-1] * factor.reshape((-1,) + (1,) * (self.c.ndim - 1)))


def _knots(x, y) -> tuple:
    """Checked float breakpoints, their gaps as a column broadcasting
    against the values, and the values."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.size < 2 or y.shape[:1] != x.shape:
        raise ValueError("need at least 2 breakpoints, one value row for each")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("breakpoints and values must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    return x, dx.reshape((-1,) + (1,) * (y.ndim - 1)), y


def _dgtsv(dl, d, du, b) -> list:
    """Solve the tridiagonal system (sub-diagonal dl, diagonal d,
    super-diagonal du) for each right-hand side in the list of columns b.

    Reference LAPACK dgtsv on Python floats: Gaussian elimination with a
    row interchange wherever |d[i]| < |dl[i]|, then back substitution.
    Every argument is overwritten as LAPACK overwrites it; in particular
    dl[i] is left nonzero only where rows i and i+1 were interchanged.
    A zero pivot (a singular system) raises ZeroDivisionError.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            for col in b:
                col[i + 1] = col[i + 1] - fact * col[i]
            if i < n - 2:
                dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            for col in b:
                col[i], col[i + 1] = col[i + 1], col[i] - fact * col[i + 1]
    for col in b:
        col[n - 1] = col[n - 1] / d[n - 1]
        if n > 1:
            col[n - 2] = (col[n - 2] - du[n - 2] * col[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            col[i] = (col[i] - du[i] * col[i + 1] - dl[i] * col[i + 2]) / d[i]
    return b
