import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyrep import (
    ColorScheme,
    DataError,
    InvalidPolyhedronError,
    PolygonFace,
    Polyhedron,
    Rejected,
    TriangleMesh,
    build_surface_graph,
    validate_polyhedron,
)
from polyrep.datasets import (
    PolyhedronRecord,
    _orient_convex,
    build_extrusion_dataset,
    color_coded_cube_dataset,
    decode_record,
    encode_record,
    import_obj,
    load_records,
    make_box,
    merge_coplanar_faces,
    parse_mtl,
    save_records,
    split_dataset,
    synthetic_dataset,
    triangulate,
    with_face_attrs,
)

from conftest import grid_cube_mesh, icosphere_mesh, overflowing_solid

CUBE_OBJ = """\
# twelve-triangle cube
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
usemtl paint
f 1 4 3
f 1 3 2
f 5 6 7
f 5 7 8
f 1 2 6
f 1 6 5
f 2 3 7
f 2 7 6
f 3 4 8
f 3 8 7
f 4 1 5
f 4 5 8
"""

CUBE_MTL = """\
newmtl paint
Kd 0.8 0.1 0.2
newmtl other
Kd 0.1 0.1 0.9
"""


class TestJsonCodec:
    def test_round_trip_bitwise(self, cube):
        colored = with_face_attrs(cube, np.linspace(0, 1, 18).reshape(6, 3))
        rec = PolyhedronRecord(colored, 3, "unit-cube")
        back = decode_record(encode_record(rec))
        assert np.array_equal(back.polyhedron.vertices, colored.vertices)
        assert back.label == 3 and back.source_id == "unit-cube"
        for f1, f2 in zip(colored.faces, back.polyhedron.faces):
            assert f1.loop == f2.loop
            assert np.array_equal(f1.attr, f2.attr)

    def test_awkward_floats_survive(self):
        verts = np.array(
            [[1 / 3, np.pi, 2**-40], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.4, 0.4, 1.0]]
        )
        solid = Polyhedron(
            verts,
            tuple(
                PolygonFace(loop, np.zeros(0))
                for loop in [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)]
            ),
        )
        back = decode_record(encode_record(PolyhedronRecord(solid, 0, "t")))
        assert np.array_equal(back.polyhedron.vertices, verts)

    def test_missing_loop_names_field(self, cube):
        doc = json.loads(encode_record(PolyhedronRecord(cube, 0, "x")))
        del doc["faces"][2]["loop"]
        with pytest.raises(DataError, match=r"faces\[2\]\.loop"):
            decode_record(json.dumps(doc))

    def test_attr_width_enforced(self, cube):
        text = encode_record(PolyhedronRecord(cube, 0, "x"))
        with pytest.raises(DataError, match="width"):
            decode_record(text, expected_attr_dim=3)

    def test_invalid_geometry_rejected(self, cube):
        doc = json.loads(encode_record(PolyhedronRecord(cube, 0, "x")))
        doc["faces"][0]["loop"] = list(reversed(doc["faces"][0]["loop"]))
        with pytest.raises(InvalidPolyhedronError):
            decode_record(json.dumps(doc))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_attribute_is_data_error(self, bad):
        doc = json.loads(encode_record(PolyhedronRecord(make_box(attr_dim=3), 0, "x")))
        doc["faces"][4]["attr"][1] = bad
        with pytest.raises(DataError, match=r"faces\[4\]\.attr: .*finite"):
            decode_record(json.dumps(doc))

    def test_solid_without_faces_is_invalid(self):
        with pytest.raises(InvalidPolyhedronError, match="no_faces at solid"):
            decode_record('{"vertices": [], "faces": [], "label": 0}')

    def test_out_of_range_index_is_data_error(self, cube):
        doc = json.loads(encode_record(PolyhedronRecord(cube, 0, "x")))
        doc["faces"][0]["loop"][0] = 99
        with pytest.raises(DataError, match=r"face.*0.* 99 out of range"):
            decode_record(json.dumps(doc))

    @pytest.mark.parametrize(
        "newell_only, code", [(False, "non_finite_scale"), (True, "non_finite_face")]
    )
    def test_overflowing_geometry_is_invalid(self, newell_only, code):
        text = encode_record(PolyhedronRecord(overflowing_solid(newell_only), 0, "x"))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidPolyhedronError, match=f"{code} at") as info:
                decode_record(text)
        assert set(info.value.report.codes()) == {code}

    def test_boolean_number_is_data_error(self):
        text = encode_record(PolyhedronRecord(make_box(attr_dim=3), 0, "x"))
        doc = json.loads(text)
        doc["vertices"][2][1] = True
        with pytest.raises(DataError, match=r"vertices\[2\]"):
            decode_record(json.dumps(doc))
        doc = json.loads(text)
        doc["faces"][4]["attr"][0] = False
        with pytest.raises(DataError, match=r"faces\[4\]\.attr"):
            decode_record(json.dumps(doc))

    def test_integer_beyond_float_range_is_data_error(self):
        text = encode_record(PolyhedronRecord(make_box(attr_dim=3), 0, "x"))
        doc = json.loads(text)
        doc["vertices"][2][1] = 10**400
        with pytest.raises(DataError, match=r"vertices\[2\]: .*too large"):
            decode_record(json.dumps(doc))
        doc = json.loads(text)
        doc["faces"][4]["attr"][0] = -(10**400)
        with pytest.raises(DataError, match=r"faces\[4\]\.attr: .*too large"):
            decode_record(json.dumps(doc))

    def test_corpus_file_round_trip(self, tmp_path, cube):
        records = [PolyhedronRecord(cube, i % 2, f"c{i}") for i in range(4)]
        path = tmp_path / "corpus.jsonl"
        save_records(records, path)
        back = load_records(path)
        assert len(back) == 4
        assert [r.label for r in back] == [0, 1, 0, 1]

    def test_manifest_rows(self, tmp_path, cube):
        single = tmp_path / "cube.json"
        single.write_text(encode_record(PolyhedronRecord(cube, 0, "cube")))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps({"path": "cube.json", "label": 5, "id": "m"}) + "\n")
        back = load_records(manifest)
        assert len(back) == 1
        assert back[0].label == 5 and back[0].source_id == "m"

    @pytest.mark.parametrize(
        "row, field",
        [
            ({"path": "cube.json", "label": "a"}, "label"),
            ({"path": "cube.json", "label": -3}, "label"),
            ({"path": "cube.json", "label": True}, "label"),
            ({"path": "cube.json", "label": 1.7}, "label"),
            ({"path": "cube.json", "label": 2**63}, "label"),
            ({"path": 5}, "path"),
            ({"path": "cube.json", "id": 7}, "id"),
        ],
        ids=["label-text", "label-negative", "label-bool", "label-float", "label-beyond-int64",
             "path-number", "id-number"],
    )
    def test_manifest_row_fields_follow_record_rules(self, tmp_path, cube, row, field):
        (tmp_path / "cube.json").write_text(encode_record(PolyhedronRecord(cube, 0, "cube")))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps({"path": "cube.json"}) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(DataError, match=rf"manifest\.jsonl:2: {field}: expected"):
            load_records(manifest)

    def test_inline_record_error_names_its_line(self, tmp_path, cube):
        good = encode_record(PolyhedronRecord(cube, 0))
        bad = json.loads(good)
        bad["vertices"][0] = ["x", 0, 0]
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join([good, good, json.dumps(bad)]) + "\n")
        message = f"{path}:3: vertices[0]: expected [x, y, z] numbers"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_records(path)

    def test_manifest_target_error_names_line_and_file(self, tmp_path, cube):
        bad = json.loads(encode_record(PolyhedronRecord(cube, 0)))
        bad["faces"][0]["loop"][0] = "x"
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(bad))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(encode_record(PolyhedronRecord(cube, 0)) + "\n"
                            + json.dumps({"path": "bad.json"}) + "\n")
        message = f"{manifest}:2: {target}: faces[0].loop: expected integer indices"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_records(manifest)

    @settings(max_examples=100)
    @given(
        st.one_of(
            st.integers().map(str),
            st.integers(2**63 - 3, 2**63 + 3).map(str),
            st.floats().map(json.dumps),
            st.sampled_from(["true", "null", '"3"', "[1]", "-0", "1" + "0" * 5000]),
        )
    )
    def test_json_label_is_int64_or_data_error(self, token):
        text = encode_record(PolyhedronRecord(make_box(), 0)).replace(
            '"label":0,', f'"label":{token},'
        )
        try:
            label = decode_record(text).label
        except DataError:
            return
        assert type(label) is int and np.int64(label) == label >= 0

    @pytest.mark.parametrize(
        "second, fourth, raised",
        [
            ("inline", "{not json", "line 2's solid"),
            ("manifest", "{not json", "line 2's solid"),
            ("inline", json.dumps({"vertices": []}), "line 2's solid"),
            ("not json", "invalid", r"corpus\.jsonl:2: not valid JSON"),
        ],
        ids=["inline-then-bad-json", "manifest-then-bad-json", "inline-then-bad-field",
             "bad-json-then-invalid"],
    )
    def test_first_defect_in_line_order(self, tmp_path, cube, second, fourth, raised):
        # Every line is decoded before the solids are validated together, yet
        # the first defect in line order is the one raised: line 3's solid
        # is invalid in another way than line 2's.
        first = cube.faces[0]
        flipped = Polyhedron(
            cube.vertices, (PolygonFace(first.loop[::-1], first.attr), *cube.faces[1:])
        )
        loose = Polyhedron(np.vstack([cube.vertices, [[5.0, 5.0, 5.0]]]), cube.faces)
        (tmp_path / "flipped.json").write_text(encode_record(PolyhedronRecord(flipped, 0)))
        rows = {
            "inline": encode_record(PolyhedronRecord(flipped, 0)),
            "manifest": json.dumps({"path": "flipped.json"}),
            "not json": "{not json",
            "invalid": encode_record(PolyhedronRecord(loose, 0)),
        }
        lines = [encode_record(PolyhedronRecord(cube, 0)), rows[second],
                 rows["invalid"], rows.get(fourth, fourth)]
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n")
        if raised == "line 2's solid":
            with pytest.raises(InvalidPolyhedronError) as info:
                load_records(path)
            assert info.value.report == validate_polyhedron(flipped)
        else:
            with pytest.raises(DataError, match=raised):
                load_records(path)


class TestObjImport:
    def test_cube_with_material(self, tmp_path):
        obj = tmp_path / "cube.obj"
        obj.write_text(CUBE_OBJ)
        mtl = tmp_path / "cube.mtl"
        mtl.write_text(CUBE_MTL)
        materials = parse_mtl(mtl)
        assert set(materials) == {"paint", "other"}
        mesh = import_obj(obj, materials)
        assert mesh.vertices.shape == (8, 3)
        assert mesh.n_triangles == 12
        assert np.all(mesh.attrs == np.array([0.8, 0.1, 0.2]))

    def test_negative_indices(self, tmp_path):
        obj = tmp_path / "tri.obj"
        obj.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
            "f 1 3 2\nf -4 -3 -1\nf 2 3 4\nf 1 4 3\n"
        )
        mesh = import_obj(obj)
        assert mesh.n_triangles == 4
        assert tuple(mesh.triangles[1]) == (0, 1, 3)

    def test_polygon_fan_triangulation(self, tmp_path):
        obj = tmp_path / "quadcube.obj"
        lines = ["v 0 0 0", "v 1 0 0", "v 1 1 0", "v 0 1 0",
                 "v 0 0 1", "v 1 0 1", "v 1 1 1", "v 0 1 1"]
        quads = [(1, 4, 3, 2), (5, 6, 7, 8), (1, 2, 6, 5),
                 (2, 3, 7, 6), (3, 4, 8, 7), (4, 1, 5, 8)]
        lines += ["f " + " ".join(str(v) for v in q) for q in quads]
        obj.write_text("\n".join(lines) + "\n")
        mesh = import_obj(obj)
        assert mesh.n_triangles == 12

    def test_out_of_range_face_index(self, tmp_path):
        obj = tmp_path / "bad.obj"
        obj.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 999\n")
        with pytest.raises(DataError, match="out of range"):
            import_obj(obj)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_vertex_names_line(self, tmp_path, bad):
        obj = tmp_path / "bad.obj"
        obj.write_text(CUBE_OBJ.replace("v 1 1 0\n", f"v 1 {bad} 0\n"))
        with pytest.raises(DataError, match=r"bad\.obj:4: vertex coordinates must be finite"):
            import_obj(obj)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("v 1 1 0\n", "v a 1 0\n", "bad.obj:4: vertex coordinates must be numbers"),
            ("f 1 3 2\n", "f 1 3 x\n", "bad.obj:12: face index 'x' is not an integer"),
            ("f 1 3 2\n", "f 1 3/1 /2\n", "bad.obj:12: face index '' is not an integer"),
        ],
    )
    def test_non_numeric_token_names_line(self, tmp_path, old, new, message):
        obj = tmp_path / "bad.obj"
        obj.write_text(CUBE_OBJ.replace(old, new))
        with pytest.raises(DataError, match=re.escape(message)):
            import_obj(obj, {"paint": [1.0]})

    @pytest.mark.parametrize(
        "kd, message",
        [("Kd a 0 0", "Kd values must be numbers"), ("Kd nan 0 0", "Kd values must be finite")],
    )
    def test_bad_kd_names_line(self, tmp_path, kd, message):
        mtl = tmp_path / "bad.mtl"
        mtl.write_text(CUBE_MTL.replace("Kd 0.1 0.1 0.9", kd))
        with pytest.raises(DataError, match=re.escape(f"bad.mtl:4: {message}")):
            parse_mtl(mtl)

    def test_non_finite_material_is_data_error(self, tmp_path):
        obj = tmp_path / "cube.obj"
        obj.write_text(CUBE_OBJ)
        with pytest.raises(DataError, match="triangle attributes must be finite"):
            import_obj(obj, {"paint": [np.nan]})

    def test_open_mesh_rejected(self, tmp_path):
        obj = tmp_path / "open.obj"
        obj.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(DataError, match="not closed"):
            import_obj(obj)

    def test_slash_forms_accepted(self, tmp_path):
        obj = tmp_path / "slash.obj"
        obj.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
            "f 1/1 3/2 2/3\nf 1//1 2//2 4//3\nf 2/1/1 3/2/2 4/3/3\nf 1 4 3\n"
        )
        assert import_obj(obj).n_triangles == 4


def _cube_mesh(triangles):
    """A TriangleMesh on the unit cube's vertices with the given triangles."""
    vertices = triangulate(make_box()).vertices
    return TriangleMesh(vertices, triangles, np.zeros((len(triangles), 0)))


class TestTriangleMesh:
    # triangulate(make_box()) gives (4,5,6) (4,6,7) (3,2,1) (3,1,0) (0,1,5)
    # (0,5,4) (1,2,6) (1,6,5) (2,3,7) (2,7,6) (3,0,4) (3,4,7).
    CUBE = triangulate(make_box()).triangles.tolist()

    def test_degenerate_edge_message(self):
        tris = self.CUBE[:3] + [[3, 3, 1]] + self.CUBE[4:]
        with pytest.raises(DataError, match=r"^triangle 3 has a degenerate edge$"):
            _cube_mesh(tris)

    def test_edge_used_twice_message(self):
        with pytest.raises(
            DataError,
            match=r"^directed edge \(0,5\) used twice: mesh is not consistently "
            r"oriented or not manifold$",
        ):
            _cube_mesh(self.CUBE + [self.CUBE[5]])

    def test_boundary_edge_message(self):
        with pytest.raises(DataError, match=r"^boundary edge \(7,4\): mesh is not closed$"):
            _cube_mesh(self.CUBE[:-1])

    def test_defects_reported_degenerate_then_duplicate_then_boundary(self):
        # A degenerate edge wins over an earlier repeated triangle, and a
        # repeated triangle wins over an earlier boundary edge.
        with pytest.raises(DataError, match="triangle 13 has a degenerate edge"):
            _cube_mesh(self.CUBE + [self.CUBE[5], [0, 0, 1]])
        with pytest.raises(DataError, match=r"directed edge \(0,5\) used twice"):
            _cube_mesh(self.CUBE[:-1] + [self.CUBE[5]])

    def test_no_triangles_is_data_error(self):
        with pytest.raises(DataError, match="no triangles"):
            TriangleMesh(make_box().vertices, [], np.zeros((0, 0)))

    def test_layout_is_the_triangles(self):
        mesh = _cube_mesh(self.CUBE)
        assert mesh.face_loops.verts.tolist() == sum(self.CUBE, [])
        assert mesh.face_loops.lengths.tolist() == [3] * 12


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _reference_merge(mesh, normal_tol=1e-6, max_faces=64):
    """The scalar merge ``merge_coplanar_faces`` replaced, kept as its
    oracle: a union-find over adjacent triangle pairs, a dict per region to
    chain its boundary, and a per-vertex collinearity loop.  Faces follow
    the union-find roots."""
    normals = mesh.triangle_normals()
    layout = mesh.face_loops
    across = layout.face[layout.edge_index[2]].tolist()
    tail, head = layout.verts.tolist(), layout.heads.tolist()

    uf = _UnionFind(mesh.n_triangles)
    for ti, tj in zip(layout.face.tolist(), across):
        if tj <= ti:
            continue
        if normals[ti] @ normals[tj] >= 1.0 - normal_tol and np.array_equal(
            mesh.attrs[ti], mesh.attrs[tj]
        ):
            uf.union(ti, tj)

    regions = {}
    for ti in range(mesh.n_triangles):
        regions.setdefault(uf.find(ti), []).append(ti)
    if len(regions) > max_faces:
        return Rejected(f"residual faces: {len(regions)} > {max_faces}")

    loops = []
    attrs = []
    for root, members in sorted(regions.items()):
        nxt = {}
        for ti in members:
            for s in range(3 * ti, 3 * ti + 3):
                if uf.find(across[s]) != root:
                    u = tail[s]
                    if u in nxt:
                        return Rejected(f"pinched region boundary at vertex {u}")
                    nxt[u] = head[s]
        if not nxt:
            raise DataError("region without boundary edges")
        start = min(nxt)
        loop = [start]
        v = nxt[start]
        while v != start:
            loop.append(v)
            v = nxt.get(v)
            if v is None:
                raise DataError("boundary chaining failure")
            if len(loop) > len(nxt):
                raise DataError("boundary chaining failure")
        if len(loop) != len(nxt):
            return Rejected(f"region with {len(nxt) - len(loop)} extra boundary edges")

        pts = mesh.vertices[loop]
        keep = []
        m = len(loop)
        for t in range(m):
            e_in = pts[t] - pts[(t - 1) % m]
            e_out = pts[(t + 1) % m] - pts[t]
            scale = np.linalg.norm(e_in) * np.linalg.norm(e_out)
            if (
                np.linalg.norm(np.cross(e_in, e_out)) < 1e-9 * scale
                and e_in @ e_out > 0
            ):
                continue
            keep.append(loop[t])
        if len(keep) < 3:
            raise DataError("region boundary collapsed below 3 vertices")
        loops.append(keep)
        attrs.append(mesh.attrs[members[0]])

    used = sorted({v for loop in loops for v in loop})
    remap = {v: i for i, v in enumerate(used)}
    faces = tuple(
        PolygonFace(tuple(remap[v] for v in loop), attr)
        for loop, attr in zip(loops, attrs)
    )
    poly = Polyhedron(mesh.vertices[used], faces)
    report = validate_polyhedron(poly)
    if not report.ok:
        raise InvalidPolyhedronError(report)
    return poly


def _merge_outcome(merge, mesh, **kwargs):
    """What a merge makes of ``mesh``: the solid's vertex bytes and its
    faces as (loop, attribute bytes), a rejection's reason, or an error's
    type and message."""
    try:
        result = merge(mesh, **kwargs)
    except (DataError, InvalidPolyhedronError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, Rejected):
        return "Rejected", result.reason
    faces = tuple((f.loop, f.attr.tobytes()) for f in result.faces)
    return "Polyhedron", result.vertices.tobytes(), faces


def _merge_corpus():
    """Meshes in their natural triangle order: the triangulated synthetic
    corpora of seeds 1-3 at attribute widths 3 and 0, grid cubes, the
    icosphere, and seeded two-colour grid cubes."""
    meshes = [
        triangulate(r.polyhedron)
        for seed in (1, 2, 3)
        for attr_dim in (3, 0)
        for r in synthetic_dataset(12, seed=seed, attr_dim=attr_dim)
    ]
    meshes += [grid_cube_mesh(k) for k in range(1, 6)] + [icosphere_mesh(1)]
    meshes += [grid_cube_mesh(k, colors=6) for k in (2, 3)]
    rng = np.random.default_rng(23)
    meshes += [grid_cube_mesh(k, colors=2, rng=rng) for k in (2, 3, 4, 5) for _ in range(12)]
    return meshes


def _painted_grid_cube(k, cells):
    """A k x k grid cube with one colour per face, and the listed (row,
    column) cells of its first face painted a colour of their own."""
    mesh = grid_cube_mesh(k, colors=6)
    attrs = np.array(mesh.attrs)
    for i, j in cells:
        attrs[2 * (i * k + j) : 2 * (i * k + j) + 2] = 9.0
    return TriangleMesh(mesh.vertices, mesh.triangles, attrs)


def _shuffled(mesh, rng):
    """``mesh`` with its triangles in a random order and each triangle's
    corners rotated by a random amount."""
    perm = rng.permutation(mesh.n_triangles)
    shift = rng.integers(0, 3, mesh.n_triangles)[:, None]
    tris = np.take_along_axis(mesh.triangles[perm], (np.arange(3) + shift) % 3, axis=1)
    return TriangleMesh(mesh.vertices, tris, mesh.attrs[perm])


class TestMerge:
    def test_triangulated_cube_merges_to_six_quads(self):
        mesh = triangulate(make_box())
        merged = merge_coplanar_faces(mesh)
        assert isinstance(merged, Polyhedron)
        assert merged.n_faces == 6
        assert all(len(f.loop) == 4 for f in merged.faces)
        assert validate_polyhedron(merged).ok

    def test_split_material_top_stays_split(self):
        cube = make_box()
        colored = with_face_attrs(cube, np.zeros((6, 3)))
        mesh = triangulate(colored)
        attrs = np.array(mesh.attrs)
        # Faces 0 (front cap) fan-triangulates into rows 0 and 1: recolor one.
        attrs[0] = [1.0, 0.0, 0.0]
        mesh = TriangleMesh(mesh.vertices, mesh.triangles, attrs)
        merged = merge_coplanar_faces(mesh)
        assert isinstance(merged, Polyhedron)
        assert merged.n_faces == 7

    def test_icosphere_rejected_on_residual_faces(self):
        mesh = icosphere_mesh(subdivisions=1)
        assert mesh.n_triangles == 80
        result = merge_coplanar_faces(mesh, max_faces=50)
        assert isinstance(result, Rejected)
        assert "residual" in result.reason

    def test_merge_recovers_face_partition(self):
        from polyrep.datasets import make_prism, make_pyramid, make_tetrahedron

        rng = np.random.default_rng(9)
        # Fan triangulation is only valid on convex faces, so jitter shapes
        # whose faces stay convex (triangles, boxes, regular caps).
        solids = [
            make_box(rng, jitter=0.2),
            make_tetrahedron(rng, jitter=0.2),
            make_prism(sides=5),
            make_prism(sides=8),
            make_pyramid(sides=6),
        ]
        for solid in solids:
            if solid.attr_dim == 0:
                solid = with_face_attrs(
                    solid, np.arange(solid.n_faces, dtype=float)[:, None]
                )
            merged = merge_coplanar_faces(triangulate(solid), max_faces=200)
            assert isinstance(merged, Polyhedron)
            assert merged.n_faces == solid.n_faces
            original = {tuple(sorted(f.loop)) for f in solid.faces}
            recovered = {tuple(sorted(f.loop)) for f in merged.faces}
            # Vertices may be renumbered; compare via loop lengths per attr.
            assert sorted(len(f.loop) for f in merged.faces) == sorted(
                len(f.loop) for f in solid.faces
            )
            assert len(original) == len(recovered)

    def test_merged_output_feeds_graph(self):
        merged = merge_coplanar_faces(triangulate(make_box()))
        g = build_surface_graph(merged)
        assert g.n_faces == 6

    def test_matches_reference_in_natural_order(self):
        for mesh in _merge_corpus():
            assert _merge_outcome(merge_coplanar_faces, mesh, max_faces=200) == (
                _merge_outcome(_reference_merge, mesh, max_faces=200)
            )

    def test_matches_reference_on_shuffles_up_to_face_order(self):
        # Which defective region reports first follows the triangle order in
        # both merges, so a refused mesh only has to be refused the same way.
        rng = np.random.default_rng(5)
        for mesh in _merge_corpus()[::2]:
            mesh = _shuffled(mesh, rng)
            got = _merge_outcome(merge_coplanar_faces, mesh, max_faces=200)
            want = _merge_outcome(_reference_merge, mesh, max_faces=200)
            assert got[0] == want[0]
            if got[0] == "Polyhedron":
                assert got[1] == want[1]
                assert sorted(got[2]) == sorted(want[2])

    def test_faces_follow_each_regions_smallest_triangle(self):
        mesh = _shuffled(grid_cube_mesh(2), np.random.default_rng(1))
        merged = merge_coplanar_faces(mesh)
        normals = np.round(mesh.triangle_normals()).astype(int).tolist()
        first = {}
        for t, n in enumerate(normals):
            first.setdefault(tuple(n), t)
        face_normals = np.round(build_surface_graph(merged).face_normals()).astype(int)
        smallest = [first[tuple(n)] for n in face_normals.tolist()]
        assert smallest == sorted(smallest)

    def test_pinched_region_message(self):
        # On the first face of a 4 x 4 grid cube, a ring of cells around an
        # enclosed cell meets itself at grid point (2, 2), vertex 12.
        mesh = _painted_grid_cube(4, [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (2, 2), (1, 1)])
        result = merge_coplanar_faces(mesh)
        assert result == Rejected("pinched region boundary at vertex 12")

    def test_region_with_a_hole_message(self):
        # One painted cell in the middle of a 3 x 3 face punches a hole
        # through the face's other cells.
        result = merge_coplanar_faces(_painted_grid_cube(3, [(1, 1)]))
        assert result == Rejected("region with 4 extra boundary edges")

    def test_region_without_boundary_edges_message(self):
        # A tolerance above 1 joins perpendicular triangles: the whole cube
        # becomes one region with no boundary.
        with pytest.raises(DataError, match=r"^region without boundary edges$"):
            merge_coplanar_faces(triangulate(make_box()), normal_tol=1.5)


class TestBuilders:
    def test_square_role_counts(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        records = build_extrusion_dataset(
            [(square, 7)], 1.0, ColorScheme.rgb_default(), rotate=False, seed=0
        )
        assert len(records) == 1
        solid = records[0].polyhedron
        scheme = ColorScheme.rgb_default()
        counts = {
            "front": sum(np.array_equal(f.attr, scheme.front) for f in solid.faces),
            "back": sum(np.array_equal(f.attr, scheme.back) for f in solid.faces),
            "bottom": sum(np.array_equal(f.attr, scheme.bottom_side) for f in solid.faces),
            "side": sum(np.array_equal(f.attr, scheme.side) for f in solid.faces),
        }
        assert counts == {"front": 1, "back": 1, "bottom": 1, "side": 3}
        assert records[0].label == 7

    def test_rotation_reproducible(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        a = build_extrusion_dataset([(square, 0)], 1.0, ColorScheme.empty(), True, seed=3)
        b = build_extrusion_dataset([(square, 0)], 1.0, ColorScheme.empty(), True, seed=3)
        assert np.array_equal(a[0].polyhedron.vertices, b[0].polyhedron.vertices)

    def test_invalid_polygon_skipped(self, caplog):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
        records = build_extrusion_dataset(
            [(bowtie, 0), (square, 1)], 1.0, ColorScheme.empty(), False, seed=0
        )
        assert len(records) == 1 and records[0].label == 1

    def test_orient_convex_matches_the_per_face_loop(self):
        # The per-face loop that the row-wise form replaced is the reference.
        def per_face(vertices, faces):
            centroid = vertices.mean(axis=0)
            out = []
            for loop in faces:
                pts = vertices[list(loop)]
                n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
                out.append(loop[::-1] if n @ (pts.mean(axis=0) - centroid) < 0 else loop)
            return out

        rng = np.random.default_rng(0)
        for sides in [3, 4, 5, 8, 15] * 40:
            ring = np.exp(2j * np.pi * np.arange(sides) / sides) * rng.uniform(0.7, 1.3, sides)
            vertices = np.vstack([np.column_stack([ring.real, ring.imag, np.zeros(sides)]),
                                  [*rng.uniform(-0.1, 0.1, 2), rng.uniform(0.9, 1.5)]])
            faces = [tuple(range(sides))] + [(i, (i + 1) % sides, sides) for i in range(sides)]
            faces = [f[::-1] if rng.random() < 0.5 else f for f in faces]
            assert _orient_convex(vertices, faces) == per_face(vertices, faces)

    def test_attribute_free_records(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        records = build_extrusion_dataset(
            [(square, 0)], 1.0, ColorScheme.empty(), False, seed=0
        )
        assert records[0].polyhedron.attr_dim == 0

    def test_synthetic_dataset_valid_and_balanced(self):
        records = synthetic_dataset(30, seed=4)
        assert len(records) == 30
        labels = [r.label for r in records]
        assert labels.count(0) == labels.count(1) == labels.count(2) == 10
        for rec in records:
            assert validate_polyhedron(rec.polyhedron).ok
            build_surface_graph(rec.polyhedron)

    def test_color_cubes_geometry_identical(self):
        records = color_coded_cube_dataset(4, seed=0)
        d0 = sorted(
            np.linalg.norm(
                records[0].polyhedron.vertices[:, None] - records[0].polyhedron.vertices,
                axis=2,
            ).ravel()
        )
        d1 = sorted(
            np.linalg.norm(
                records[1].polyhedron.vertices[:, None] - records[1].polyhedron.vertices,
                axis=2,
            ).ravel()
        )
        assert np.allclose(d0, d1)
        assert not np.array_equal(
            np.stack([f.attr for f in records[0].polyhedron.faces]),
            np.stack([f.attr for f in records[1].polyhedron.faces]),
        )


class TestSplit:
    def test_60_20_20(self):
        records = synthetic_dataset(100, seed=0)
        train, val, test = split_dataset(records, seed=1)
        assert (len(train), len(val), len(test)) == (60, 20, 20)

    def test_deterministic(self):
        records = synthetic_dataset(25, seed=0)
        a = split_dataset(records, seed=9)
        b = split_dataset(records, seed=9)
        assert all(
            [r.source_id for r in x] == [r.source_id for r in y]
            for x, y in zip(a, b)
        )

    def test_partition(self):
        records = synthetic_dataset(23, seed=0)
        train, val, test = split_dataset(records, seed=2)
        ids = sorted(r.source_id for r in train + val + test)
        assert ids == sorted(r.source_id for r in records)

    def test_too_few_records(self):
        with pytest.raises(DataError):
            split_dataset(synthetic_dataset(4, seed=0), seed=0)

    @given(st.integers(5, 200), st.integers(0, 10**6))
    def test_sizes_always_cover(self, n, seed):
        records = list(range(n))
        train, val, test = split_dataset(records, seed)
        assert len(train) == int(0.6 * n)
        assert len(val) == int(0.2 * n)
        assert len(train) + len(val) + len(test) == n
