"""Revolution meshes and deterministic artifact files."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_forge import (
    ProfileCurve, SolitonMesh, SolitonSpec, TerminationPolicy, revolve_profile,
    solve_bowl, solve_wing,
)
from soliton_forge.fileio import (
    export_graph_csv, export_mesh_obj, export_points_csv, export_profile_csv,
    export_trajectory_csv, read_points_csv, read_profile_csv, read_table,
    write_table,
)
from soliton_forge.profile_solver import PROFILE_ROWS


@pytest.fixture(scope="module")
def bowl_curve(hyperbolic_bowl_spec):
    return solve_bowl(hyperbolic_bowl_spec, stop=TerminationPolicy(r_max=4.0))


@pytest.fixture(scope="module")
def wing_curve(hyperbolic_warp):
    spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                       epsilon=0.5)
    return solve_wing(spec, branch=-1, stop=TerminationPolicy(r_max=4.0))


def euler_characteristic(mesh) -> int:
    """V - E + F, with E the mesh's unique undirected edges."""
    edges = np.vstack((mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]],
                       mesh.faces[:, [2, 0]]))
    n_edges = len(np.unique(np.sort(edges, axis=1), axis=0))
    return mesh.n_vertices - n_edges + mesh.n_faces


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
            faces.append([int(tok.split("/")[0]) - 1 for tok in parts[1:4]])
    return np.asarray(verts, dtype=float), np.asarray(faces, dtype=int)


def _loop_mesh(curve, k):
    """Vertex by vertex and face by face: the reference for revolve_profile's
    array build in the cylindrical chart, with each vertex's profile
    (r, t, phi)."""
    lo, hi = curve.s_span
    r, t, phi = curve.sample(
        np.linspace(lo, hi, min(max(64, curve.s.size), PROFILE_ROWS)))
    r = np.maximum(r, 0.0)
    first = 1 if r[0] < 1e-9 else 0
    verts, attrs, faces = [], [], []
    if first:
        verts.append((t[0], 0.0, 0.0))
        attrs.append((r[0], t[0], phi[0]))
        faces += [(0, 1 + j, 1 + (j + 1) % k) for j in range(k)]
    th = 2 * math.pi * np.arange(k) / k
    cos_th, sin_th = np.cos(th), np.sin(th)
    for i in range(first, r.size):
        for j in range(k):
            verts.append((t[i], r[i] * cos_th[j], r[i] * sin_th[j]))
            attrs.append((r[i], t[i], phi[i]))
    for i in range(r.size - first - 1):
        a, b = first + i * k, first + (i + 1) * k
        for j in range(k):
            jn = (j + 1) % k
            faces += [(a + j, b + j, b + jn), (a + j, b + jn, a + jn)]
    return np.array(verts), np.array(attrs), np.array(faces)


class TestRevolve:
    @pytest.mark.parametrize("which", ["bowl_curve", "wing_curve"])
    def test_matches_loop_reference(self, which, request):
        curve = request.getfixturevalue(which)
        mesh = revolve_profile(curve, angular_segments=16)
        verts, _, faces = _loop_mesh(curve, 16)
        np.testing.assert_array_equal(mesh.vertices, verts)
        np.testing.assert_array_equal(mesh.faces, faces)

    def test_bowl_is_a_disk(self, bowl_curve):
        mesh = revolve_profile(bowl_curve, angular_segments=32)
        assert euler_characteristic(mesh) == 1
        assert mesh.meta["axis_fan"]

    def test_axis_vertex(self, bowl_curve):
        mesh = revolve_profile(bowl_curve, angular_segments=32)
        t0 = bowl_curve.sample(bowl_curve.s_span[0])[1]
        assert mesh.vertices[0] == pytest.approx([t0, 0.0, 0.0], abs=1e-12)

    def test_wing_is_an_annulus(self, wing_curve):
        mesh = revolve_profile(wing_curve, angular_segments=32)
        assert euler_characteristic(mesh) == 0
        assert not mesh.meta["axis_fan"]

    def test_wing_inner_boundary_radius(self, wing_curve):
        mesh = revolve_profile(wing_curve, angular_segments=32)
        radii = np.hypot(mesh.vertices[:, 1], mesh.vertices[:, 2])
        assert float(np.min(radii)) == pytest.approx(0.5, abs=1e-9)

    def test_poincare_disk_radius(self, bowl_curve):
        mesh = revolve_profile(bowl_curve, chart="poincare_disk",
                               angular_segments=16)
        planar = np.hypot(mesh.vertices[:, 1], mesh.vertices[:, 2])
        # each vertex's profile radius, from the curve samples it revolves
        expected = np.tanh(_loop_mesh(bowl_curve, 16)[1][:, 0] / 2.0)
        assert np.max(np.abs(planar - expected)) < 1e-12
        assert planar.max() < 1.0

    def test_poincare_disk_needs_negative_curvature(self, euclidean_warp):
        spec = SolitonSpec(c=1.0, n=2, family="bowl", warp=euclidean_warp)
        curve = solve_bowl(spec, stop=TerminationPolicy(r_max=3.0))
        with pytest.raises(ValueError):
            revolve_profile(curve, chart="poincare_disk")

    def test_rings_capped_at_profile_rows(self, hyperbolic_bowl_spec):
        """A profile of many more samples than an exported CSV's rows (a
        solve of many short steps) meshes to PROFILE_ROWS rings."""
        s = np.linspace(0.0, 3.0, 50_000)
        curve = ProfileCurve(hyperbolic_bowl_spec, s, s, s**2 / 4, np.arctan(s / 2))
        mesh = revolve_profile(curve, angular_segments=8)
        assert mesh.meta["profile_samples"] == PROFILE_ROWS
        assert mesh.n_vertices == 1 + 8 * (PROFILE_ROWS - 1)

    def test_segment_minimum(self, bowl_curve):
        with pytest.raises(ValueError):
            revolve_profile(bowl_curve, angular_segments=4)

    def test_higher_dimension_rejected(self, hyperbolic_warp):
        spec = SolitonSpec(c=1.0, n=3, family="bowl", warp=hyperbolic_warp)
        curve = solve_bowl(spec, stop=TerminationPolicy(r_max=3.0))
        with pytest.raises(ValueError):
            revolve_profile(curve)

    def test_face_index_validation(self):
        with pytest.raises(ValueError):
            SolitonMesh(vertices=np.zeros((2, 3)), faces=[[0, 1, 5]])


class TestObjFiles:
    def test_round_trip(self, bowl_curve, tmp_path):
        mesh = revolve_profile(bowl_curve, angular_segments=16)
        path = export_mesh_obj(mesh, tmp_path / "bowl.obj")
        verts, faces = load_obj(path)
        assert np.array_equal(verts, mesh.vertices)
        assert np.array_equal(faces, mesh.faces)

    def test_byte_identical_reruns(self, bowl_curve, tmp_path):
        mesh = revolve_profile(bowl_curve, angular_segments=16)
        a = export_mesh_obj(mesh, tmp_path / "a.obj")
        b = export_mesh_obj(mesh, tmp_path / "b.obj")
        assert a.read_bytes() == b.read_bytes()

    def test_empty_mesh_rejected(self, tmp_path):
        empty = SolitonMesh(vertices=np.empty((0, 3)),
                            faces=np.empty((0, 3), dtype=int))
        with pytest.raises(ValueError, match="nothing to export"):
            export_mesh_obj(empty, tmp_path / "void.obj")


class TestCsvFiles:
    def test_profile_round_trip(self, bowl_curve, tmp_path):
        path = export_profile_csv(bowl_curve, tmp_path / "p.csv",
                                  meta={"tag": "demo"})
        back = read_profile_csv(path)
        assert back.meta["tag"] == "demo"
        s = np.linspace(*bowl_curve.s_span, 137)
        for orig, copy in zip(bowl_curve.sample(s), back.sample(s)):
            assert np.max(np.abs(np.asarray(orig) - np.asarray(copy))) < 1e-8

    def test_profile_determinism(self, bowl_curve, tmp_path):
        a = export_profile_csv(bowl_curve, tmp_path / "a.csv")
        b = export_profile_csv(bowl_curve, tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_graph_export_header(self, hyperbolic_bowl_spec, tmp_path):
        from soliton_forge import solve_radial_graph
        graph = solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 3.0))
        path = export_graph_csv(graph, tmp_path / "g.csv")
        text = path.read_text()
        assert "# chart=polar" in text
        assert text.splitlines()[-1].count(",") == 2

    def test_points_round_trip(self, tmp_path):
        from soliton_forge import embed_polar
        pts = [embed_polar(r, [1.0, 0.0]) for r in (0.0, 0.5, 1.5)]
        path = export_points_csv(pts, tmp_path / "pts.csv",
                                 heights=[0.0, 1.0, 4.0])
        coords, heights = read_points_csv(path)
        assert coords.shape == (3, 3)
        assert coords[2, 0] == pytest.approx(math.cosh(1.5), rel=1e-15)
        assert list(heights) == [0.0, 1.0, 4.0]

    def test_points_without_heights(self, tmp_path):
        from soliton_forge import embed_polar
        path = export_points_csv([embed_polar(1.0, [0.0, 1.0])],
                                 tmp_path / "one.csv")
        coords, heights = read_points_csv(path)
        assert heights is None
        assert coords.shape == (1, 3)

    def test_trajectory_columns(self, hyperbolic_warp, tmp_path):
        from soliton_forge import FlowProblem, discrete_soliton
        prob = FlowProblem(1.0, 2, hyperbolic_warp, r_max=5.0, n_nodes=201)
        traj = prob.run(discrete_soliton(prob), 1e-3, 5e-3,
                        scheme="implicit")
        path = export_trajectory_csv(traj, tmp_path / "t.csv")
        lines = [l for l in path.read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0] == "tau,F,D,dF_dtau"
        assert lines[1].endswith(",")  # no centered difference at the ends
        assert len(lines) == 1 + traj.taus.size

    def test_missing_directory(self, bowl_curve, tmp_path):
        with pytest.raises(FileNotFoundError):
            export_profile_csv(bowl_curve, tmp_path / "no" / "p.csv")


class TestTable:
    def test_layout(self, tmp_path):
        path = write_table(tmp_path / "t.csv", ("a", "b", "ok"),
                           ([0.1, -0.0], [math.nan, math.inf], [True, False]),
                           {"z": 1, "k": "v"})
        assert path.read_text() == ("# k=v\n# z=1\na,b,ok\n"
                                    "0.10000000000000001,,true\n-0,inf,false\n")
        meta, names, data = read_table(path)
        assert meta == {"k": "v", "z": "1"}
        assert names == ["a", "b", "ok"]
        assert data[:, 2].tolist() == [1.0, 0.0]

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ("a", "b"), ([1.0, 2.0], [3.0]))

    def test_header_only(self, tmp_path):
        path = write_table(tmp_path / "t.csv", ("a", "b"), ([], []))
        assert read_table(path)[2].shape == (0, 2)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("# tau=0\n1.0,0.0,0.0\n2.0,1.0,1.0\n")
        with pytest.raises(ValueError, match="bare.csv line 2: .*header"):
            read_table(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# k=v\n")
        with pytest.raises(ValueError, match="empty.csv: no header"):
            read_table(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged.csv line 3: 1 cells under 2"):
            read_table(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "word.csv"
        path.write_text("a,b\n1,2\n3,four\n")
        with pytest.raises(ValueError, match="word.csv line 3: .*'four'"):
            read_table(path)

    def test_profile_reader_checks_columns(self, tmp_path):
        from soliton_forge import embed_polar
        path = export_points_csv([embed_polar(r, [1.0, 0.0]) for r in range(4)],
                                 tmp_path / "pts.csv", heights=[0.0] * 4)
        with pytest.raises(ValueError, match="x0,x1,x2,height"):
            read_profile_csv(path)

    def test_points_need_a_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,0.0,0.0\n")
        with pytest.raises(ValueError, match="header"):
            read_points_csv(path)


_NAME = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda name: name not in ("inf", "nan", "true", "false"))
_META = st.dictionaries(_NAME, st.from_regex(r"[A-Za-z0-9_.+-]{0,10}",
                                             fullmatch=True), max_size=3)
# subnormals, both zeros, both infinities and NaN, besides what floats() draws
_SPECIAL = [5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0,
            math.inf, -math.inf, math.nan, 1.7976931348623157e308]


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(0, 6), st.integers(1, 4)), data=st.data())
def test_table_round_trip(shape, data):
    rows, width = shape
    names = data.draw(st.lists(_NAME, min_size=width, max_size=width))
    meta = data.draw(_META)
    cell = st.floats() | st.sampled_from(_SPECIAL)
    table = np.array(data.draw(st.lists(cell, min_size=rows * width,
                                        max_size=rows * width)),
                     dtype=float).reshape(rows, width)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_table(Path(tmp) / "t.csv", names, list(table.T), meta)
        back_meta, back_names, back = read_table(path)
    assert back_names == names
    assert back_meta == {key: str(value) for key, value in meta.items()}
    # NaN is written as an empty cell and reads back as the canonical NaN
    expected = np.where(np.isnan(table), np.nan, table)
    assert back.shape == table.shape
    assert back.tobytes() == expected.tobytes()


def test_table_special_values(tmp_path):
    path = write_table(tmp_path / "t.csv", ["v"], [_SPECIAL])
    back = read_table(path)[2][:, 0]
    assert back.tobytes() == np.array(_SPECIAL).tobytes()


def _per_cell_table(names, columns, meta) -> str:
    """The table text as write_table formatted it one cell at a time: the
    reference for the one-pass writer."""
    def cell(value):
        if value != value:
            return ""
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        return f"{float(value):.17g}"

    lines = [f"# {key}={value}" for key, value in sorted(meta.items())]
    lines.append(",".join(names))
    lines.extend(",".join(map(cell, row)) for row in zip(*columns, strict=True))
    return "\n".join(lines) + "\n"


def _per_cell_parse(text, width) -> np.ndarray:
    """The body of a table read one line and one float() at a time."""
    words = {"": math.nan, "true": 1.0, "false": 0.0}
    body = text.splitlines()[1:]
    return np.array([[words[c] if c in words else float(c) for c in line.split(",")]
                     for line in body], dtype=float).reshape(-1, width)


_CELL = st.floats() | st.sampled_from(_SPECIAL + [-1e308, 1e308])


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(0, 8), floats=st.integers(1, 4), flags=st.integers(0, 2),
       nan=st.booleans(), data=st.data())
def test_table_bytes_equal_per_cell_writer(rows, floats, flags, nan, data):
    cell = _CELL if nan else _CELL.filter(lambda v: v == v)
    columns = [np.array(data.draw(st.lists(cell, min_size=rows, max_size=rows)),
                        dtype=float) for _ in range(floats)]
    columns += [np.array(data.draw(st.lists(st.booleans(), min_size=rows,
                                            max_size=rows)), dtype=bool)
                for _ in range(flags)]
    order = data.draw(st.permutations(range(len(columns))))
    columns = [columns[i] for i in order]
    names = [f"c{i}" for i in range(len(columns))]
    meta = data.draw(_META)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_table(Path(tmp) / "t.csv", names, columns, meta)
        text = path.read_text()
        back = read_table(path)[2]
    assert text == _per_cell_table(names, columns, meta)
    expected = _per_cell_parse(text.split("\n", len(meta))[-1], len(columns))
    assert back.shape == expected.shape
    assert back.tobytes() == expected.tobytes()


_WRITTEN = st.sampled_from(["{:.17g}", "{!r}", "{:.3e}", " {:.6f} ", "{:+.20g}",
                            "{:.0f}"])
_LITERAL = st.sampled_from(["inf", "-inf", "+Infinity", "nan", "-NaN", "1_000.5",
                            "0x1p3", "1e400", "-1e-400", " 7 ", "\t-0\t", "",
                            "true", "false", "True", "tru"])


@settings(max_examples=80, deadline=None)
@given(width=st.integers(1, 4), rows=st.integers(0, 8), data=st.data())
def test_table_reader_equals_per_cell_float(width, rows, data):
    """Cells in any spelling float() takes, and ones it rejects: the
    one-pass reader returns the per-cell parse bit for bit, or raises for
    the same line as the per-line reader."""
    def text_cell(value):
        if data.draw(st.booleans()):
            return data.draw(_LITERAL)
        return data.draw(_WRITTEN).format(value)

    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=rows * width, max_size=rows * width))
    cells = [text_cell(v) for v in values]
    body = [",".join(cells[i * width:(i + 1) * width]) for i in range(rows)]
    text = "\n".join(["# k=v", ",".join(f"c{i}" for i in range(width)), *body]) + "\n"
    try:
        expected = _per_cell_parse(text.split("\n", 1)[1], width)
    except (ValueError, KeyError):
        expected = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(text)
        if expected is None:
            bad = next(i for i, line in enumerate(body) if not _parses(line))
            with pytest.raises(ValueError, match=rf"t.csv line {bad + 3}: "):
                read_table(path)
            return
        meta, names, back = read_table(path)
    assert meta == {"k": "v"} and len(names) == width
    assert back.shape == expected.shape
    assert back.tobytes() == expected.tobytes()


def _parses(line) -> bool:
    try:
        _per_cell_parse("h\n" + line, len(line.split(",")))
    except (ValueError, KeyError):
        return False
    return True


def test_malformed_row_after_many_numbers(tmp_path):
    # a row one cell short and the next one cell long keep the total count,
    # and a bad word sits among numbers: each still names its line
    rows = ["1,2,3"] * 50
    path = tmp_path / "short.csv"
    path.write_text("\n".join(["a,b,c", *rows, "4,5", "6,7,8,9", *rows]) + "\n")
    with pytest.raises(ValueError, match="short.csv line 52: 2 cells under 3"):
        read_table(path)
    path = tmp_path / "word.csv"
    path.write_text("\n".join(["# k=v", "a,b,c", *rows, "4,five,6", *rows]) + "\n")
    with pytest.raises(ValueError, match="word.csv line 53: .*'five'"):
        read_table(path)


def test_comment_and_blank_lines_in_the_body(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n1\n# late=yes\n\n2\n")
    meta, _, data = read_table(path)
    assert meta == {"late": "yes"}
    assert np.array_equal(data[:, 0], [1.0, np.nan, 2.0], equal_nan=True)
