"""Piecewise cubic interpolants with SciPy's bits, on NumPy alone.

``PiecewiseCubic`` holds breakpoints x and a coefficient array c of shape
(k, m, ...): on [x[i], x[i+1]] the value at t is the sum over j of
c[j, i] (t - x[i])**(k-1-j).  Two constructors build the interpolants the
package uses, with the coefficients of SciPy's (1.17) classes:

* ``not_a_knot(x, y)``: ``CubicSpline(x, y)``.  The knot slopes solve the
  same tridiagonal system by LAPACK's ``dgtsv``, the routine that
  ``solve_banded((1, 1), ...)`` calls, partial pivoting included.
* ``hermite(x, y, dydx)``: ``CubicHermiteSpline(x, y, dydx)``.

``Tridiagonal`` is the package's one tridiagonal solve, also used by the
flow's Newton steps.  It calls ``dgtsv`` through ``ctypes`` in the
OpenBLAS that NumPy's wheel bundles and has already loaded; where that
library or its symbol is absent (a conda or source build of NumPy, a
macOS arm64 wheel on Accelerate) it runs ``_dgtsv``, a port of the
reference routine with the same bits.

Evaluation repeats ``PPoly.__call__``'s arithmetic (the interval search,
the local offset and the sum of powers built by repeated products) and
``derivative`` its coefficient scaling, so values match bit for bit.
Points outside [x[0], x[-1]] extrapolate from the end pieces.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

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
        b = b.reshape(n, -1)
        system = Tridiagonal(n, b.shape[1])
        system.dl[:-1], system.dl[-1] = dx[1:], x[-1] - x[-3]
        system.d[1:-1] = 2 * (dx[:-1] + dx[1:])
        system.d[0], system.d[-1] = dx[1], dx[-2]
        system.du[0], system.du[1:] = x[2] - x[0], dx[:-1]
        system.b[...] = b.T
        return cls.hermite(x, y, system.solve().T.reshape(y.shape))

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


class Tridiagonal:
    """An n x n tridiagonal system with ``nrhs`` right-hand sides, held in
    buffers that :meth:`solve` overwrites as LAPACK's ``dgtsv`` does.

    Write the sub-diagonal into ``dl`` (n - 1), the diagonal into ``d`` (n),
    the super-diagonal into ``du`` (n - 1) and each right-hand side into a
    row of ``b`` (nrhs, n), then call ``solve``.  The buffers and the
    LAPACK call's arguments are built once, so a caller that solves many
    systems of one size keeps one ``Tridiagonal``.
    """

    def __init__(self, n: int, nrhs: int = 1):
        self.dl, self.d, self.du = np.empty(n - 1), np.empty(n), np.empty(n - 1)
        # row-major (nrhs, n) is LAPACK's column-major n x nrhs with ldb = n
        self.b = np.empty((nrhs, n))
        self._lapack = _bundled_dgtsv()
        if self._lapack is not None:
            # n, nrhs, ldb and info live on self as long as their addresses
            self._sizes = [ctypes.c_int64(v) for v in (n, nrhs, n)]
            self._info = ctypes.c_int64()
            n_at, nrhs_at, ldb_at = map(ctypes.addressof, self._sizes)
            self._args = (n_at, nrhs_at, self.dl.ctypes.data, self.d.ctypes.data,
                          self.du.ctypes.data, self.b.ctypes.data, ldb_at,
                          ctypes.addressof(self._info))

    def solve(self) -> np.ndarray:
        """The solutions, one per row, in ``b`` itself (no copy): valid
        until the buffers are written again.  dl, d and du must be written
        again before the next solve.  A singular system raises
        LinAlgError."""
        if self._lapack is None:
            self.b[...] = _dgtsv(self.dl.tolist(), self.d.tolist(),
                                 self.du.tolist(), self.b.tolist())
        else:
            self._lapack(*self._args)
            if self._info.value:
                _singular(self._info.value)
        return self.b


@functools.cache
def _bundled_dgtsv():
    """LAPACK's ``dgtsv`` in NumPy's bundled OpenBLAS
    (``numpy.libs/libscipy_openblas64_*.so``, symbol ``scipy_dgtsv_64_``,
    64-bit integers), or None where the library or symbol is absent."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            dgtsv = ctypes.CDLL(path).scipy_dgtsv_64_
        except (OSError, AttributeError):
            continue
        # n, nrhs, dl, d, du, b, ldb, info: every argument by address
        dgtsv.argtypes = (ctypes.c_void_p,) * 8
        dgtsv.restype = None
        return dgtsv
    return None


def _singular(info: int):
    raise np.linalg.LinAlgError(f"singular tridiagonal system (dgtsv info = {info})")


def _dgtsv(dl, d, du, b) -> list:
    """Solve the tridiagonal system (sub-diagonal dl, diagonal d,
    super-diagonal du) for each right-hand side in the list of columns b.

    Reference LAPACK dgtsv on Python floats: Gaussian elimination with a
    row interchange wherever |d[i]| < |dl[i]|, then back substitution.
    Every argument is overwritten as LAPACK overwrites it; in particular
    dl[i] is left nonzero only where rows i and i+1 were interchanged.
    A zero pivot (a singular system) raises LinAlgError with LAPACK's
    info, the 1-based row of that pivot.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                _singular(i + 1)
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
    if d[n - 1] == 0.0:
        _singular(n)
    for col in b:
        col[n - 1] = col[n - 1] / d[n - 1]
        if n > 1:
            col[n - 2] = (col[n - 2] - du[n - 2] * col[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            col[i] = (col[i] - du[i] * col[i + 1] - dl[i] * col[i + 2]) / d[i]
    return b
