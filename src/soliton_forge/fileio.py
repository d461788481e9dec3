"""Deterministic artifact export and import.

All numeric output uses repr-faithful 17-significant-digit formatting
and '\n' newlines, so identical inputs produce byte-identical files.
Every CSV file is written by write_table and read by read_table: '# key=value'
comment lines with run metadata, one header line, then one row per sample.
OBJ files carry the same metadata as '#' comments before the vertex block.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .graph_solvers import SOLVER_RECORD, RadialGraph
from .mcf_flow import FLOW_RECORD
from .meshing import SolitonMesh
from .profile_solver import SampledCurve


def fmt(x) -> str:
    """Shortest round-trippable decimal form of a float."""
    return f"{float(x):.17g}"


def _write_lines(path, lines) -> Path:
    path = Path(path)
    if not path.parent.exists():
        raise FileNotFoundError(f"parent directory does not exist: {path.parent}")
    try:
        path.write_text("\n".join(lines) + "\n", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path


def _meta_lines(meta: dict):
    return [f"# {key}={value}" for key, value in sorted(meta.items())]


def _cell(value) -> str:
    if value != value:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return fmt(value)


def write_table(path, names, columns, meta=None) -> Path:
    """Metadata lines, the header `names`, one row per sample of equal columns.

    Numbers are written with fmt, NaN as an empty cell, flags as true/false.
    """
    lines = _meta_lines(meta or {}) + [",".join(names)]
    lines.extend(",".join(map(_cell, row)) for row in zip(*columns, strict=True))
    return _write_lines(path, lines)


_WORDS = {"": np.nan, "true": 1.0, "false": 0.0}


def _row(cells, width: int) -> list:
    if len(cells) != width:
        raise ValueError(f"{len(cells)} cells under {width} columns")
    try:
        return list(map(float, cells))
    except ValueError:
        return [_WORDS[c] if c in _WORDS else float(c) for c in cells]


def _header(cells) -> list:
    try:
        _row(cells, len(cells))
    except ValueError:
        return [c.strip() for c in cells]
    raise ValueError("a row of numbers where the header belongs")


def read_table(path) -> tuple:
    """Inverse of write_table: (meta, names, data) with one data row per line.

    Metadata values stay strings; an empty cell reads as NaN.  The first
    line that is neither blank nor a comment must be the header.
    """
    meta, names, rows = {}, None, []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        elif names is not None or line.strip():
            try:
                if names is None:
                    names = _header(line.split(","))
                else:
                    rows.append(_row(line.split(","), len(names)))
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    if names is None:
        raise ValueError(f"{path}: no header line")
    return meta, names, np.array(rows, dtype=float).reshape(-1, len(names))


def export_profile_csv(curve, path, n_samples: int = 2001, meta=None) -> Path:
    """Columns s, r, t, phi resampled uniformly in arc length."""
    s = np.linspace(*curve.s_span, n_samples)
    return write_table(path, ("s", "r", "t", "phi"), (s, *curve.sample(s)),
                       meta)


def read_profile_csv(path, spec=None) -> SampledCurve:
    """Rebuild a sampleable curve from an export of export_profile_csv."""
    meta, names, data = read_table(path)
    if names != ["s", "r", "t", "phi"]:
        raise ValueError(f"{path} has columns {','.join(names)}; a profile "
                         "CSV has s,r,t,phi")
    if len(data) < 4:
        raise ValueError(f"profile CSV {path} has too few samples")
    curve = SampledCurve(*data.T, spec=spec)
    curve.meta = meta
    return curve


def export_graph_csv(graph: RadialGraph, path, meta=None) -> Path:
    """Columns r, u, du on the solver grid; the solver record is left out,
    as a profile CSV leaves out the curve's diagnostics."""
    kept = {k: v for k, v in graph.meta.items() if k not in SOLVER_RECORD}
    return write_table(path, ("r", "u", "du"), (graph.r_grid, graph.u, graph.du),
                       {**kept, **(meta or {}), "chart": graph.chart})


def export_report_json(report, path) -> Path:
    """Diagnostics report as stable-ordered JSON."""
    payload = report.to_dict() if hasattr(report, "to_dict") else report
    return _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True,
                                          default=float)])


def export_trajectory_csv(trajectory, path, meta=None) -> Path:
    """Columns tau, F, D, dF_dtau (centered differences, blank at ends)."""
    kept = {k: v for k, v in trajectory.meta.items() if k not in FLOW_RECORD}
    F = trajectory.F_values
    dF = np.full_like(F, np.nan)
    dF[1:-1] = trajectory.dF_dtau()
    return write_table(path, ("tau", "F", "D", "dF_dtau"),
                       (trajectory.taus, F, trajectory.defect_values, dF),
                       {**kept, **(meta or {})})


def export_mesh_obj(mesh: SolitonMesh, path, meta=None) -> Path:
    """Wavefront OBJ with 1-based faces and a metadata comment header."""
    if mesh.n_vertices == 0 or mesh.n_faces == 0:
        raise ValueError("nothing to export: empty mesh")
    lines = _meta_lines({**mesh.meta, **(meta or {}), "chart": mesh.chart})
    lines += [f"v {fmt(x)} {fmt(y)} {fmt(z)}" for x, y, z in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces]
    return _write_lines(path, lines)


def load_obj(path):
    """Vertices and 0-based triangle faces of an OBJ file."""
    verts, faces = [], []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            idx = [int(tok.split("/")[0]) - 1 for tok in parts[1:4]]
            faces.append(idx)
    return np.asarray(verts, dtype=float), np.asarray(faces, dtype=int)


def export_points_csv(points, path, heights=None, meta=None) -> Path:
    """Hyperboloid point rows x0..xn, optionally with a height column."""
    data = np.array([getattr(p, "coords", p) for p in points], dtype=float)
    if data.size == 0:
        raise ValueError("nothing to export: empty point set")
    names = [f"x{i}" for i in range(data.shape[1])]
    if heights is None:
        return write_table(path, names, data.T, meta)
    return write_table(path, names + ["height"], [*data.T, heights], meta)


def read_points_csv(path):
    """Inverse of export_points_csv; returns (coords array, heights or None)."""
    _, names, data = read_table(path)
    if data.size == 0:
        raise ValueError(f"no point rows in {path}")
    return (data[:, :-1], data[:, -1]) if names[-1] == "height" else (data, None)
