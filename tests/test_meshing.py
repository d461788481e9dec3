"""Revolution meshes and deterministic artifact files."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_forge import (
    SolitonMesh, SolitonSpec, TerminationPolicy, revolve_profile, solve_bowl,
    solve_wing,
)
from soliton_forge.fileio import (
    export_graph_csv, export_mesh_obj, export_points_csv, export_profile_csv,
    export_trajectory_csv, load_obj, read_points_csv, read_profile_csv,
    read_table, write_table,
)


@pytest.fixture(scope="module")
def bowl_curve(hyperbolic_bowl_spec):
    return solve_bowl(hyperbolic_bowl_spec, stop=TerminationPolicy(r_max=4.0))


@pytest.fixture(scope="module")
def wing_curve(hyperbolic_warp):
    spec = SolitonSpec(c=1.0, n=2, family="wing", warp=hyperbolic_warp,
                       epsilon=0.5)
    return solve_wing(spec, branch=-1, stop=TerminationPolicy(r_max=4.0))


def _loop_mesh(curve, k):
    """Vertex by vertex and face by face: the reference for revolve_profile's
    array build in the cylindrical chart."""
    lo, hi = curve.s_span
    r, t, phi = curve.sample(np.linspace(lo, hi, max(64, curve.s.size)))
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
        verts, attrs, faces = _loop_mesh(curve, 16)
        np.testing.assert_array_equal(mesh.vertices, verts)
        np.testing.assert_array_equal(
            np.column_stack([mesh.attributes[key] for key in ("r", "t", "phi")]),
            attrs)
        np.testing.assert_array_equal(mesh.faces, faces)

    def test_bowl_is_a_disk(self, bowl_curve):
        mesh = revolve_profile(bowl_curve, angular_segments=32)
        assert mesh.euler_characteristic == 1
        assert mesh.meta["axis_fan"]

    def test_axis_vertex(self, bowl_curve):
        mesh = revolve_profile(bowl_curve, angular_segments=32)
        t0 = bowl_curve.sample(bowl_curve.s_span[0])[1]
        assert mesh.vertices[0] == pytest.approx([t0, 0.0, 0.0], abs=1e-12)

    def test_wing_is_an_annulus(self, wing_curve):
        mesh = revolve_profile(wing_curve, angular_segments=32)
        assert mesh.euler_characteristic == 0
        assert not mesh.meta["axis_fan"]

    def test_wing_inner_boundary_radius(self, wing_curve):
        mesh = revolve_profile(wing_curve, angular_segments=32)
        assert float(np.min(mesh.attributes["r"])) == pytest.approx(0.5,
                                                                    abs=1e-9)

    def test_poincare_disk_radius(self, bowl_curve):
        mesh = revolve_profile(bowl_curve, chart="poincare_disk",
                               angular_segments=16)
        planar = np.hypot(mesh.vertices[:, 1], mesh.vertices[:, 2])
        expected = np.tanh(mesh.attributes["r"] / 2.0)
        assert np.max(np.abs(planar - expected)) < 1e-12
        assert planar.max() < 1.0

    def test_poincare_disk_needs_negative_curvature(self, euclidean_warp):
        spec = SolitonSpec(c=1.0, n=2, family="bowl", warp=euclidean_warp)
        curve = solve_bowl(spec, stop=TerminationPolicy(r_max=3.0))
        with pytest.raises(ValueError):
            revolve_profile(curve, chart="poincare_disk")

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
                                  n_samples=1201, meta={"tag": "demo"})
        back = read_profile_csv(path, spec=bowl_curve.spec)
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
