"""Hyperboloid model of hyperbolic space and its translation isometries.

Points live on the upper sheet of <x, x>_L = -1 in Minkowski space
R^{n,1} with <x, y>_L = -x0 y0 + sum_i xi yi.  Hyperbolic translations
mix (x0, x1) by a boost; parabolic translations fix the lightlike
direction (1, -1, 0, ...) and preserve the horosphere levels x0 + x1.
Heights of product-space points never enter a map: they ride along in
``fileio`` and the ``isometry`` command, beside the coordinates.

``LorentzPoint`` and ``LorentzMap`` check one point or map when built.
``transform_points`` moves a whole point set as an (N, n+1) array with
one stacked matrix product and checks every row by the same rule as
``LorentzPoint``.  The module needs NumPy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POINT_TOL = 1e-10
MAP_TOL = 1e-10
#: the largest map entry whose square the form check can take without overflow
MAP_MAX_ENTRY = 1e150


def _upper_sheet_rows(x: np.ndarray) -> np.ndarray:
    """``x`` after checking that each row is a point of the upper sheet.

    A row needs at least 2 coordinates, none of them infinite (a product
    that overflowed), |<x, x>_L + 1| at most POINT_TOL max(1, x0^2)
    (roundoff in the form grows with the squared coordinate size) and
    x0 > 0; NaN fails both tests.  The form is taken of the row divided by
    s = max(1, |x0|), against POINT_TOL and 1/s^2 in place of 1: the same
    test, with no square of a coordinate beyond 1e154 to overflow.
    """
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("hyperboloid points are rows of at least 2 "
                         f"coordinates, got shape {x.shape}")
    if np.isinf(x).any():
        raise ValueError("point coordinates overflowed to inf "
                         f"(row {int(np.argmax(np.isinf(x).any(axis=1)))})")
    x0 = x[:, 0]
    inv = 1.0 / np.maximum(1.0, np.abs(x0))
    y = x * inv[:, np.newaxis]
    y0 = y[:, 0]
    defect = np.abs(-y0 * y0 + np.einsum("ij,ij->i", y[:, 1:], y[:, 1:]) + inv * inv)
    off = ~(defect <= POINT_TOL)
    if off.any():
        i = int(np.argmax(off))
        raise ValueError(f"point off the hyperboloid by {defect[i]:.3g} "
                         f"times max(1, x0^2) (row {i})")
    lower = ~(x0 > 0)
    if lower.any():
        raise ValueError(f"point on the lower sheet (x0 <= 0, row {int(np.argmax(lower))})")
    return x


@dataclass(frozen=True)
class LorentzPoint:
    """Point on the upper hyperboloid sheet; validated on construction."""

    coords: tuple

    def __init__(self, coords):
        arr = np.asarray(coords, dtype=float)
        _upper_sheet_rows(arr[np.newaxis])
        object.__setattr__(self, "coords", tuple(arr))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class LorentzMap:
    """Matrix preserving the Lorentz form and the upper sheet."""

    matrix: tuple

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("a Lorentz map must be a square matrix")
        size = float(np.max(np.abs(mat)))
        if not size < MAP_MAX_ENTRY:  # NaN fails too
            raise ValueError("a Lorentz map needs finite entries below "
                             f"{MAP_MAX_ENTRY:g} in size, got {size:.3g}")
        defect = form_defect(mat)
        scale = max(1.0, size ** 2)
        if defect > MAP_TOL * scale:
            raise ValueError(f"matrix violates the Lorentz form by {defect:.3g}")
        if mat[0, 0] <= 0:
            raise ValueError("matrix swaps the hyperboloid sheets")
        object.__setattr__(self, "matrix", tuple(map(tuple, mat)))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)

    def apply(self, point: LorentzPoint) -> LorentzPoint:
        return LorentzPoint(self.array @ point.array)


def form_defect(mat) -> float:
    """Max-norm deviation of M^T eta M from eta."""
    mat = np.asarray(mat, dtype=float)
    eta = np.eye(mat.shape[0])
    eta[0, 0] = -1.0
    return float(np.max(np.abs(mat.T @ eta @ mat - eta)))


def embed_polar(r: float, omega) -> LorentzPoint:
    """Geodesic polar embedding (cosh r, sinh r * omega) about the origin.

    ``omega`` is a Euclidean unit vector in the spacelike hyperplane.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    omega = np.asarray(omega, dtype=float)
    norm = float(np.linalg.norm(omega))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"omega must be a unit vector, |omega| = {norm:.6g}")
    return LorentzPoint(np.concatenate(([math.cosh(r)], math.sinh(r) * omega)))


def hyperbolic_translation(r0: float, n: int) -> LorentzMap:
    """Boost by -r0 along the first spacelike axis of H^n.

    Maps (cosh r0, sinh r0, 0, ...) to the origin (1, 0, ..., 0).
    """
    if n < 1:
        raise ValueError("hyperbolic translations need n >= 1")
    try:
        ch, sh = math.cosh(r0), math.sinh(r0)
    except OverflowError:
        raise ValueError(f"cosh({r0}) overflows: no boost by that distance") from None
    mat = np.eye(n + 1)
    mat[0, 0] = ch
    mat[0, 1] = -sh
    mat[1, 0] = -sh
    mat[1, 1] = ch
    return LorentzMap(mat)


def parabolic_translation(alpha: float, n: int) -> LorentzMap:
    """Parabolic isometry fixing the lightlike direction (1, -1, 0, ...).

    Acts as a shear in the x2 direction and preserves every horosphere
    level set x0 + x1 = a.  Needs n >= 2.
    """
    if n < 2:
        raise ValueError("parabolic translations need n >= 2")
    a = float(alpha)
    h = 0.5 * a * a
    mat = np.eye(n + 1)
    mat[0, 0] = 1 + h
    mat[0, 1] = h
    mat[0, 2] = a
    mat[1, 0] = -h
    mat[1, 1] = 1 - h
    mat[1, 2] = -a
    mat[2, 0] = a
    mat[2, 1] = a
    mat[2, 2] = 1.0
    return LorentzMap(mat)


def transform_points(lmap: LorentzMap, points) -> np.ndarray:
    """The (N, n+1) array of the images of a point set under a map.

    ``points`` is an (N, n+1) array of hyperboloid coordinates or a
    sequence of LorentzPoints (stacked once into such an array).  Every
    input row and every image row must pass the LorentzPoint test; an
    image off the hyperboloid signals a malformed map.  The images come
    from one stacked product, equal bit for bit to ``lmap.apply`` on each
    point.
    """
    if not isinstance(points, np.ndarray):
        points = [getattr(p, "coords", p) for p in points]
    x = _upper_sheet_rows(np.asarray(points, dtype=float))
    return _upper_sheet_rows(np.matmul(lmap.array, x[:, :, np.newaxis])[:, :, 0])

