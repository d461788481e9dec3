"""Surface-of-revolution meshes from profile curves.

A profile (r(s), t(s)) sweeps out a surface in R x P; for n = 2 the
surface embeds in 3-space and is triangulated here.  Two visualization
charts are supported: cylindrical (t, r cos th, r sin th) and, for
constant negative curvature, the Poincare disk with planar radius
tanh(kappa r / 2) / kappa and t as height.  Rings share wrap-around
vertices so the rotation seam is watertight, and bowls close at the
axis with a triangle fan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profile_solver import ProfileCurve
from .warp_models import radial_curvature

CHARTS = ("cylindrical", "poincare_disk")


@dataclass
class SolitonMesh:
    """Triangle mesh with per-vertex profile attributes."""

    vertices: np.ndarray
    faces: np.ndarray
    attributes: dict = field(default_factory=dict)
    chart: str = "cylindrical"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=int)
        if self.vertices.size and self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (V, 3)")
        if self.faces.size:
            if self.faces.shape[1] != 3:
                raise ValueError("faces must be triangles")
            if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
                raise ValueError("face indices out of range")
        for key, vals in self.attributes.items():
            if len(vals) != len(self.vertices):
                raise ValueError(f"attribute {key!r} length mismatch")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def edges(self) -> np.ndarray:
        """Unique undirected edges."""
        if not self.faces.size:
            return np.empty((0, 2), dtype=int)
        e = np.vstack((self.faces[:, [0, 1]], self.faces[:, [1, 2]],
                       self.faces[:, [2, 0]]))
        return np.unique(np.sort(e, axis=1), axis=0)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edges()) + self.n_faces


def _disk_radius(r, kappa: float):
    return np.tanh(kappa * np.asarray(r) / 2.0) / kappa


def revolve_profile(curve: ProfileCurve, angular_segments: int = 64,
                    chart: str = "cylindrical") -> SolitonMesh:
    """Triangulated surface of revolution of a planar profile (n = 2),
    sampled at max(64, len(curve.s)) arc lengths.

    Higher base dimensions have no 3-space picture; export those as
    profile tables instead.
    """
    if angular_segments < 8:
        raise ValueError("need at least 8 angular segments")
    if chart not in CHARTS:
        raise ValueError(f"unsupported chart {chart!r}")
    spec = curve.spec
    if spec.n != 2:
        raise ValueError("3-D meshes need n = 2; export a profile CSV instead")
    if spec.warp.kind != "rotational":
        raise ValueError("revolution meshes need a rotational warp")

    lo, hi = curve.s_span
    n_samples = max(64, curve.s.size)
    s = np.linspace(lo, hi, n_samples)
    r, t, phi = curve.sample(s)
    r = np.maximum(np.asarray(r), 0.0)

    if chart == "poincare_disk":
        probe = np.linspace(max(r.max() * 0.1, 1e-2), max(r.max(), 1.0), 16)
        ks = radial_curvature(spec.warp, probe)
        if ks.max() >= -1e-12 or np.ptp(ks) > 1e-8 * abs(ks.mean()) + 1e-12:
            raise ValueError(
                "poincare_disk chart needs constant negative curvature")
        kappa = math.sqrt(-float(ks.mean()))
        rho = _disk_radius(r, kappa)
    else:
        rho = r

    axis_fan = r[0] < 1e-9
    offset = 1 if axis_fan else 0  # the axis vertex comes first
    ring_r = rho[offset:]
    ring_t = t[offset:]
    m = ring_r.size
    k = angular_segments
    th = 2 * math.pi * np.arange(k) / k

    ring = np.empty((m, k, 3))
    ring[:, :, 0] = ring_t[:, None]
    ring[:, :, 1] = ring_r[:, None] * np.cos(th)
    ring[:, :, 2] = ring_r[:, None] * np.sin(th)
    verts = ring.reshape(-1, 3)
    attr_r, attr_t, attr_phi = (
        np.concatenate((v[:offset], np.repeat(v[offset:], k))) for v in (r, t, phi))

    # two triangles per quad between rings i and i + 1, ring by ring
    j = np.arange(k)
    jn = (j + 1) % k
    a = offset + k * np.arange(m - 1)[:, None]
    b = a + k
    faces = np.array([(a + j, b + j, b + jn), (a + j, b + jn, a + jn)])
    faces = faces.transpose(2, 3, 0, 1).reshape(-1, 3)
    if axis_fan:
        verts = np.vstack(((t[0], 0.0, 0.0), verts))
        fan = np.stack((np.zeros_like(j), offset + j, offset + jn), axis=-1)
        faces = np.vstack((fan, faces))

    return SolitonMesh(
        vertices=verts, faces=faces,
        attributes={"r": attr_r, "t": attr_t, "phi": attr_phi},
        chart=chart,
        meta={"family": spec.family, "c": spec.c, "n": spec.n,
              "angular_segments": k, "profile_samples": n_samples,
              "axis_fan": bool(axis_fan)})
