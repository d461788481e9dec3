"""Deterministic artifact export and import.

All numeric output uses repr-faithful 17-significant-digit formatting
and '\n' newlines, so identical inputs produce byte-identical files.
Every CSV file is written by write_table and read by read_table: '# key=value'
comment lines with run metadata, one header line, then one row per sample.
OBJ files carry the same metadata as '#' comments before the vertex block.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .graph_solvers import RadialGraph
    from .meshing import SolitonMesh
    from .profile_solver import ProfileCurve


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


def _rows(template: str, data: np.ndarray) -> str:
    """The rows of the 2-d ``data``, each through ``template`` (one
    conversion per column), formatted in one pass and joined by '\n'."""
    return "\n".join([template] * len(data)) % tuple(data.ravel().tolist())


def write_table(path, names, columns, meta=None) -> Path:
    """Metadata lines, the header `names`, one row per sample of equal columns.

    Numbers are written with fmt, NaN as an empty cell, flags (columns of
    dtype bool) as true/false.  A table of numbers alone is formatted as
    one block; a NaN or a flag column sends it through the per-cell form.
    """
    lines = _meta_lines(meta or {}) + [",".join(names)]
    arrays = [np.asarray(column) for column in columns]
    data = None
    if arrays and all(a.dtype.kind in "iuf" for a in arrays):
        data = np.stack(arrays, axis=1).astype(float, copy=False)
    if data is None or np.isnan(data).any():
        lines.extend(",".join(map(_cell, row)) for row in zip(*columns, strict=True))
    elif len(data):
        lines.append(_rows(",".join(["%.17g"] * data.shape[1]), data))
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


def _number_block(lines, width: int) -> list | None:
    """The cells of ``lines`` read by float() in one pass, or None when a
    line needs the per-line reader: a width other than ``width``, or a
    cell float() rejects (an empty cell, a flag, a comment or a bad word)."""
    if not lines:
        return []
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    try:
        return list(map(float, ",".join(lines).split(",")))
    except ValueError:
        return None


def read_table(path) -> tuple:
    """Inverse of write_table: (meta, names, data) with one data row per line.

    Metadata values stay strings; an empty cell reads as NaN.  The first
    line that is neither blank nor a comment must be the header.
    """
    meta, names, body = {}, None, []
    lines = Path(path).read_text().splitlines()
    for lineno, line in enumerate(lines, 1):
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        elif names is not None or line.strip():
            try:
                if names is None:
                    names = _header(line.split(","))
                    block = _number_block(lines[lineno:], len(names))
                    if block is not None:
                        body = block
                        break
                else:
                    body.extend(_row(line.split(","), len(names)))
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    if names is None:
        raise ValueError(f"{path}: no header line")
    return meta, names, np.array(body, dtype=float).reshape(-1, len(names))


def export_profile_csv(curve, path, meta=None) -> Path:
    """Columns s, r, t, phi at PROFILE_ROWS arc lengths spaced uniformly
    over the curve's span."""
    from .profile_solver import PROFILE_ROWS
    s = np.linspace(*curve.s_span, PROFILE_ROWS)
    return write_table(path, ("s", "r", "t", "phi"), (s, *curve.sample(s)),
                       meta)


def read_profile_csv(path) -> ProfileCurve:
    """Rebuild a profile from an export of export_profile_csv: a
    ProfileCurve with no spec, its spline through the rows as the dense
    evaluator, and the file's metadata as its ``meta``."""
    from .profile_solver import ProfileCurve
    meta, names, data = read_table(path)
    if names != ["s", "r", "t", "phi"]:
        raise ValueError(f"{path} has columns {','.join(names)}; a profile "
                         "CSV has s,r,t,phi")
    if len(data) < 4:
        raise ValueError(f"profile CSV {path} has too few samples")
    return ProfileCurve(None, *data.T, meta=meta)


def export_graph_csv(graph: RadialGraph, path, meta=None) -> Path:
    """Columns r, u, du on the solver grid under the graph's meta."""
    return write_table(path, ("r", "u", "du"), (graph.r_grid, graph.u, graph.du),
                       {**graph.meta, **(meta or {}), "chart": graph.chart})


def export_report_json(report, path) -> Path:
    """Diagnostics report as stable-ordered JSON."""
    payload = report.to_dict() if hasattr(report, "to_dict") else report
    return _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True,
                                          default=float)])


def export_trajectory_csv(trajectory, path, meta=None) -> Path:
    """Columns tau, F, D, dF_dtau (centered differences, blank at ends)
    under the trajectory's meta."""
    F = trajectory.F_values
    dF = np.full_like(F, np.nan)
    dF[1:-1] = trajectory.dF_dtau()
    return write_table(path, ("tau", "F", "D", "dF_dtau"),
                       (trajectory.taus, F, trajectory.defect_values, dF),
                       {**trajectory.meta, **(meta or {})})


def export_mesh_obj(mesh: SolitonMesh, path, meta=None) -> Path:
    """Wavefront OBJ with 1-based faces and a metadata comment header."""
    if mesh.n_vertices == 0 or mesh.n_faces == 0:
        raise ValueError("nothing to export: empty mesh")
    lines = _meta_lines({**mesh.meta, **(meta or {}), "chart": mesh.chart})
    lines.append(_rows("v %.17g %.17g %.17g", mesh.vertices))
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces]
    return _write_lines(path, lines)


def export_points_csv(points, path, heights=None, meta=None) -> Path:
    """Hyperboloid point rows x0..xn, optionally with a height column;
    ``points`` is an (N, n+1) array or a sequence of LorentzPoints."""
    if not isinstance(points, np.ndarray):
        points = [getattr(p, "coords", p) for p in points]
    data = np.asarray(points, dtype=float)
    if data.size == 0:
        raise ValueError("nothing to export: empty point set")
    names = [f"x{i}" for i in range(data.shape[1])]
    if heights is None:
        return write_table(path, names, data.T, meta)
    if len(heights) != len(data):
        raise ValueError(f"{len(heights)} heights for {len(data)} points")
    return write_table(path, names + ["height"], [*data.T, heights], meta)


def read_points_csv(path):
    """Inverse of export_points_csv; returns (coords array, heights or None)."""
    _, names, data = read_table(path)
    if data.size == 0:
        raise ValueError(f"no point rows in {path}")
    return (data[:, :-1], data[:, -1]) if names[-1] == "height" else (data, None)
