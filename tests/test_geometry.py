import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyrep import (
    ColorScheme,
    GeometryError,
    InvalidPolyhedronError,
    InvalidTransformError,
    PolygonFace,
    Polyhedron,
    RigidTransform,
    apply_rigid_transform,
    build_surface_graph,
    extrude_polygon,
    kabsch_align,
    sample_random_rotation,
    validate_polyhedron,
)
from polyrep.datasets import make_box, make_tetrahedron
from polyrep.geometry import (
    FaceLoops,
    _newell,
    _segments_properly_intersect,
    disjoint_union,
    polygon_is_simple,
    validate_corpus,
)

from conftest import overflowing_solid, solid_corpus


class TestValidation:
    def test_unit_cube_ok(self, cube):
        report = validate_polyhedron(cube)
        assert report.ok
        assert report.issues == ()

    def test_reversed_face_unpairs_four_edges(self, cube):
        faces = list(cube.faces)
        faces[0] = PolygonFace(tuple(reversed(faces[0].loop)), faces[0].attr)
        report = validate_polyhedron(Polyhedron(cube.vertices, tuple(faces)))
        assert not report.ok
        unpaired = [i for i in report.issues if i.code == "unpaired_directed_edge"]
        assert len(unpaired) == 4

    def test_lifted_vertex_breaks_coplanarity(self, cube):
        verts = np.array(cube.vertices)
        # Vertex 0 sits on three faces; lifting it along z bends the two
        # side faces that contain it (the z=0 cap stays planar in x/y).
        verts[0] += np.array([0.1, 0.1, 0.1])
        report = validate_polyhedron(Polyhedron(verts, cube.faces))
        assert not report.ok
        assert "non_coplanar_face" in report.codes()

    def test_short_loop_reported(self, cube):
        faces = list(cube.faces) + [PolygonFace((0, 1), np.zeros(0))]
        report = validate_polyhedron(Polyhedron(cube.vertices, tuple(faces)))
        assert "short_loop" in report.codes()

    def test_repeated_vertex_reported(self, cube):
        faces = list(cube.faces)
        loop = faces[0].loop
        faces[0] = PolygonFace(loop[:3] + (loop[2],), faces[0].attr)
        report = validate_polyhedron(Polyhedron(cube.vertices, tuple(faces)))
        assert "repeated_vertex" in report.codes()

    def test_collinear_vertices_flagged(self):
        square = np.array(
            [[0, 0, 0], [1, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0]], dtype=float
        )
        # Vertex 1 lies on the segment 0-2.
        top = square + np.array([0, 0, 1.0])
        verts = np.vstack([square, top])
        n = 5
        faces = [
            PolygonFace(tuple(range(n, 2 * n)), np.zeros(0)),
            PolygonFace(tuple(reversed(range(n))), np.zeros(0)),
        ]
        for i in range(n):
            j = (i + 1) % n
            faces.append(PolygonFace((i, j, n + j, n + i), np.zeros(0)))
        report = validate_polyhedron(Polyhedron(verts, tuple(faces)))
        assert "collinear_vertices" in report.codes()

    def test_out_of_range_index_is_structural(self, cube):
        with pytest.raises(GeometryError):
            Polyhedron(cube.vertices, (PolygonFace((0, 1, 99), np.zeros(0)),))

    def test_inside_out_solid_only_warns(self, cube):
        # Reversing every loop keeps the edge pairing intact; the inward
        # normals are a convexity warning, not a hard failure.
        faces = tuple(
            PolygonFace(tuple(reversed(f.loop)), f.attr) for f in cube.faces
        )
        report = validate_polyhedron(Polyhedron(cube.vertices, faces))
        assert report.ok
        assert sum(w.code == "inward_normal" for w in report.warnings) == 6

    def test_nonfinite_coordinates_rejected(self):
        with pytest.raises(GeometryError):
            Polyhedron(np.array([[0, 0, np.nan]]), ())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_attribute_rejected(self, bad):
        with pytest.raises(GeometryError, match="finite"):
            PolygonFace((0, 1, 2), [0.5, bad, 0.5])

    def test_closed_surface_newell_sum(self):
        for solid in solid_corpus(12, seed=1):
            loops = solid.face_loops
            newell = _newell(solid.vertices[loops.verts], loops)[0]  # twice each vector area
            total_area = 0.5 * np.linalg.norm(newell, axis=1).sum()
            vec = 0.5 * newell.sum(axis=0)
            assert np.linalg.norm(vec) <= 1e-9 * total_area


def _with_loops(p, loops, vertices=None):
    verts = p.vertices if vertices is None else vertices
    return Polyhedron(verts, tuple(PolygonFace(loop, np.zeros(0)) for loop in loops))


def _unit_prism():
    return extrude_polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]), 2.0)


def _loops(p):
    return [f.loop for f in p.faces]


def _moved(p, vertex, to=None, by=None):
    verts = np.array(p.vertices)
    verts[vertex] = to if to is not None else verts[vertex] + by
    return verts


def _several_defects():
    cube = make_box()
    loops = _loops(cube)
    loops = [loops[0], (0, 1), tuple(reversed(loops[2]))] + loops[3:] + [(1, 1, 2)]
    verts = np.vstack([_moved(cube, 6, by=[0.0, 0.0, 0.2]), [[5.0, 5.0, 5.0]]])
    return _with_loops(cube, loops, verts)


# Each row: a defective solid built from the unit cube (vertices 0-3 at
# z = 0, 4-7 at z = 1; loops (4,5,6,7) (3,2,1,0) (0,1,5,4) (1,2,6,5)
# (2,3,7,6) (3,0,4,7)) or the triangular prism (loops (3,4,5) (2,1,0)
# (0,1,4,3) (1,2,5,4) (2,0,3,5)), and the exact (code, where) sequences of
# its issues and warnings.
VALIDATION_TABLE = [
    (
        "no_faces",
        lambda: Polyhedron(np.zeros((0, 3)), ()),
        [("no_faces", "solid")],
        [],
    ),
    (
        "short_loop",
        lambda: _with_loops(make_box(), _loops(make_box()) + [(0, 1)]),
        [("short_loop", "face 6")],
        [],
    ),
    (
        "empty_loop",
        lambda: _with_loops(make_box(), _loops(make_box()) + [()]),
        [("short_loop", "face 6")],
        [],
    ),
    (
        "repeated_vertex",
        lambda: _with_loops(make_box(), [(4, 5, 6, 6)] + _loops(make_box())[1:]),
        [
            ("repeated_vertex", "face 0"),
            ("zero_length_edge", "face 0 edge (6,6)"),
            ("unpaired_directed_edge", "edge (4,7)"),
            ("unpaired_directed_edge", "edge (6,4)"),
            ("unpaired_directed_edge", "edge (7,6)"),
        ],
        [],
    ),
    (
        "zero_length_edge",
        lambda: _with_loops(
            make_box(), _loops(make_box()), _moved(make_box(), 1, to=[0, 0, 0])
        ),
        [
            ("zero_length_edge", "face 1 edge (1,0)"),
            ("zero_length_edge", "face 2 edge (0,1)"),
            ("non_coplanar_face", "face 3"),
        ],
        [],
    ),
    (
        "collinear_vertices",
        lambda: extrude_polygon(
            np.array([[0, 0], [1, 0], [2, 0], [2, 2], [0, 2]], dtype=float), 1.0
        ),
        [
            ("collinear_vertices", "face 0 vertex 6"),
            ("collinear_vertices", "face 1 vertex 1"),
        ],
        [],
    ),
    (
        "degenerate_face",
        lambda: _with_loops(
            _unit_prism(), _loops(_unit_prism()), _moved(_unit_prism(), 2, to=[0.5, 0, 0])
        ),
        [
            ("collinear_vertices", "face 1 vertex 2"),
            ("collinear_vertices", "face 1 vertex 1"),
            ("collinear_vertices", "face 1 vertex 0"),
            ("degenerate_face", "face 1"),
            ("non_coplanar_face", "face 3"),
            ("non_coplanar_face", "face 4"),
        ],
        [],
    ),
    (
        "non_coplanar_face",
        lambda: _with_loops(
            make_box(), _loops(make_box()), _moved(make_box(), 0, by=[0.1, 0.1, 0.1])
        ),
        [
            ("non_coplanar_face", "face 1"),
            ("non_coplanar_face", "face 2"),
            ("non_coplanar_face", "face 5"),
        ],
        [],
    ),
    (
        "duplicate_directed_edge",
        lambda: _with_loops(make_box(), _loops(make_box()) + [(4, 5, 6, 7)]),
        [
            ("duplicate_directed_edge", "edge (4,5)"),
            ("duplicate_directed_edge", "edge (5,6)"),
            ("duplicate_directed_edge", "edge (6,7)"),
            ("duplicate_directed_edge", "edge (7,4)"),
        ],
        [],
    ),
    (
        "unpaired_directed_edge",
        lambda: _with_loops(_unit_prism(), _loops(_unit_prism())[1:]),
        [
            ("unpaired_directed_edge", "edge (3,5)"),
            ("unpaired_directed_edge", "edge (4,3)"),
            ("unpaired_directed_edge", "edge (5,4)"),
        ],
        [],
    ),
    (
        "reversed_face",
        lambda: _with_loops(make_box(), [(7, 6, 5, 4)] + _loops(make_box())[1:]),
        [
            ("duplicate_directed_edge", "edge (4,7)"),
            ("unpaired_directed_edge", "edge (4,7)"),
            ("duplicate_directed_edge", "edge (5,4)"),
            ("unpaired_directed_edge", "edge (5,4)"),
            ("duplicate_directed_edge", "edge (6,5)"),
            ("unpaired_directed_edge", "edge (6,5)"),
            ("duplicate_directed_edge", "edge (7,6)"),
            ("unpaired_directed_edge", "edge (7,6)"),
        ],
        [("inward_normal", "face 0")],
    ),
    (
        "vertex_in_few_faces",
        lambda: _with_loops(
            make_box(), _loops(make_box()), np.vstack([make_box().vertices, [[5.0, 5.0, 5.0]]])
        ),
        [("vertex_in_few_faces", "vertex 8")],
        [],
    ),
    (
        "inside_out",
        lambda: _with_loops(
            _unit_prism(), [tuple(reversed(loop)) for loop in _loops(_unit_prism())]
        ),
        [],
        [("inward_normal", f"face {fi}") for fi in range(5)],
    ),
    (
        "several_faces",
        _several_defects,
        [
            ("non_coplanar_face", "face 0"),
            ("short_loop", "face 1"),
            ("repeated_vertex", "face 6"),
            ("zero_length_edge", "face 6 edge (1,1)"),
            ("collinear_vertices", "face 6 vertex 2"),
            ("degenerate_face", "face 6"),
            ("duplicate_directed_edge", "edge (0,4)"),
            ("unpaired_directed_edge", "edge (0,4)"),
            ("unpaired_directed_edge", "edge (1,0)"),
            ("duplicate_directed_edge", "edge (1,2)"),
            ("unpaired_directed_edge", "edge (2,3)"),
            ("unpaired_directed_edge", "edge (3,0)"),
            ("duplicate_directed_edge", "edge (4,5)"),
            ("unpaired_directed_edge", "edge (4,5)"),
            ("duplicate_directed_edge", "edge (5,1)"),
            ("unpaired_directed_edge", "edge (5,1)"),
            ("vertex_in_few_faces", "vertex 8"),
        ],
        [("inward_normal", "face 2")],
    ),
]


@pytest.mark.parametrize(
    "build, issues, warnings",
    [row[1:] for row in VALIDATION_TABLE],
    ids=[row[0] for row in VALIDATION_TABLE],
)
def test_validation_report_is_pinned(build, issues, warnings):
    report = validate_polyhedron(build())
    assert [(i.code, i.where) for i in report.issues] == issues
    assert [(w.code, w.where) for w in report.warnings] == warnings
    assert report.ok == (not issues)


def _reference_validate(p, coplanarity_tol=1e-6):
    """The per-face loop form of validate_polyhedron, kept as the reference
    for the vectorized one: same checks, same order, same deviations."""
    issues, warnings = [], []
    scale = p.bbox_diagonal() or 1.0
    solid_centroid = p.vertices.mean(axis=0) if p.n_vertices else np.zeros(3)
    directed = {}
    faces_per_vertex = np.zeros(p.n_vertices, dtype=np.int64)
    for fi, face in enumerate(p.faces):
        loop = face.loop
        if len(loop) < 3:
            issues.append(("short_loop", f"face {fi}", float(len(loop))))
            continue
        if len(set(loop)) != len(loop):
            issues.append(("repeated_vertex", f"face {fi}", 0.0))
        faces_per_vertex[np.unique(list(loop))] += 1
        pts = p.vertices[list(loop)]
        nxt = np.roll(pts, -1, axis=0)
        for k, length in enumerate(np.linalg.norm(nxt - pts, axis=1)):
            if length < 1e-12 * scale:
                where = f"face {fi} edge ({loop[k]},{loop[(k + 1) % len(loop)]})"
                issues.append(("zero_length_edge", where, float(length)))
        e_in, e_out = pts - np.roll(pts, 1, axis=0), nxt - pts
        cross_norm = np.linalg.norm(np.cross(e_in, e_out), axis=1)
        len_prod = np.linalg.norm(e_in, axis=1) * np.linalg.norm(e_out, axis=1)
        bad = (cross_norm < 1e-12 * np.maximum(len_prod, 1e-300)) & (len_prod > 0)
        for k in np.nonzero(bad)[0]:
            issues.append(("collinear_vertices", f"face {fi} vertex {loop[k]}", 0.0))
        q = pts - pts.mean(axis=0)
        n = np.cross(q, np.roll(q, -1, axis=0)).sum(axis=0)
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            issues.append(("degenerate_face", f"face {fi}", float(norm)))
        else:
            n = n / norm
            dev = float(np.abs(q @ n).max())
            if dev > coplanarity_tol * scale:
                issues.append(("non_coplanar_face", f"face {fi}", dev))
            if float(n @ (pts.mean(axis=0) - solid_centroid)) < 0.0:
                warnings.append(("inward_normal", f"face {fi}", 0.0))
        for k in range(len(loop)):
            a, b = loop[k], loop[(k + 1) % len(loop)]
            if a != b:
                directed[(a, b)] = directed.get((a, b), 0) + 1
    for (a, b), count in sorted(directed.items()):
        if count > 1:
            issues.append(("duplicate_directed_edge", f"edge ({a},{b})", float(count)))
        if directed.get((b, a), 0) == 0:
            issues.append(("unpaired_directed_edge", f"edge ({a},{b})", 0.0))
    for v in np.nonzero(faces_per_vertex < 2)[0]:
        issues.append(("vertex_in_few_faces", f"vertex {v}", float(faces_per_vertex[v])))
    return issues, warnings


def _damaged(seed):
    """A generated solid with a few random defects of every kind."""
    rng = np.random.default_rng(seed)
    solid = solid_corpus(5, seed=seed)[int(rng.integers(5))]
    verts = np.array(solid.vertices)
    loops = _loops(solid)
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(8))
        f = int(rng.integers(len(loops)))
        v = int(rng.integers(len(verts)))
        if kind == 0:
            loops[f] = tuple(reversed(loops[f]))
        elif kind == 1:
            verts[v] += rng.normal(scale=0.05, size=3)
        elif kind == 2 and len(loops) > 1:
            del loops[f]
        elif kind == 3:
            loops.append(loops[f])
        elif kind == 4:
            short = rng.integers(len(verts), size=rng.integers(3))
            loops.insert(f, tuple(int(i) for i in short))
        elif kind == 5 and loops[f]:
            loops[f] = loops[f] + (loops[f][0],)
        elif kind == 6:
            verts[v] = verts[(v + 1) % len(verts)]
        else:
            verts = np.vstack([verts, rng.normal(size=(1, 3))])
    return _with_loops(solid, loops, verts)


@given(st.integers(0, 10**6))
def test_validation_matches_loop_reference(seed):
    p = _damaged(seed)
    report = validate_polyhedron(p)
    issues, warnings = _reference_validate(p)
    assert [(i.code, i.where) for i in report.issues] == [i[:2] for i in issues]
    assert [(w.code, w.where) for w in report.warnings] == [w[:2] for w in warnings]
    # Equal bit for bit except the non-coplanar distance: per face it is a
    # BLAS matrix-vector product, which may round differently.
    got = np.array([i.deviation for i in report.issues], dtype=float)
    want = np.array([i[2] for i in issues], dtype=float)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def _bits(report):
    """A report as (ok, issues, warnings), each deviation as its repr."""
    return report.ok, *(
        [(i.code, i.where, repr(i.deviation)) for i in issues]
        for issues in (report.issues, report.warnings)
    )


def test_corpus_reports_are_the_one_by_one_reports():
    # The damaged corpus, then solids that stay out of the pass or have no
    # vertex or no face: each solid's report is the one it gets alone.
    box = make_box()
    solids = [_damaged(seed) for seed in range(400)] + [
        overflowing_solid(),
        Polyhedron(np.zeros((0, 3)), ()),
        Polyhedron(box.vertices, ()),
        box,
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [_bits(validate_polyhedron(p)) for p in solids]
        together = validate_corpus([Polyhedron(p.vertices, p.faces) for p in solids])
    assert [_bits(report) for report in together] == alone


def test_union_edge_index_is_the_sort_of_the_union():
    # The union joins the solids' own indexes; sorting its keys afresh must
    # give the same order, keys and opposites, duplicates and short loops too.
    solids = [_damaged(seed) for seed in range(60)]
    union = disjoint_union(solids)[1]
    fresh = FaceLoops.from_lengths(union.verts, union.lengths)
    for joined, sorted_afresh in zip(union.edge_index, fresh.edge_index):
        assert np.array_equal(joined, sorted_afresh)


def _reference_edge_index(loops):
    """Slots sorted by (tail, head, slot), and each slot's opposite: the
    first slot in that order with the ends swapped, or -1."""
    tail, head = loops.verts.tolist(), loops.heads.tolist()
    order = sorted(range(len(tail)), key=lambda s: (tail[s], head[s], s))
    first = {}
    for s in order:
        first.setdefault((tail[s], head[s]), s)
    return order, [first.get((head[s], tail[s]), -1) for s in range(len(tail))]


@given(st.lists(st.lists(st.integers(0, 6), max_size=5), max_size=6))
def test_edge_index_matches_dict_reference(raw):
    # Few vertex ids and short loops: duplicates, unpaired edges,
    # self-loops, empty loops and the empty layout all come up.
    loops = FaceLoops.from_loops(raw)
    order, keys, opposite = loops.edge_index
    want_order, want_opposite = _reference_edge_index(loops)
    assert order.tolist() == want_order
    assert opposite.tolist() == want_opposite
    pairs = list(zip(loops.verts[order].tolist(), loops.heads[order].tolist()))
    # Equal keys exactly for equal (tail, head) pairs, increasing with them.
    assert [a == b for a, b in zip(keys[1:], keys[:-1])] == [
        a == b for a, b in zip(pairs[1:], pairs[:-1])
    ]
    assert np.all(np.diff(keys) >= 0)
    assert loops.heads.tolist() == loops.verts[loops.nxt].tolist()
    for arr in (loops.heads, order, keys, opposite):
        assert not arr.flags.writeable


class TestFaceLoops:
    def test_subset_keeps_the_given_face_order(self):
        loops = FaceLoops.from_loops([(0, 1, 2), (3, 4, 5, 6), (7, 8, 9)])
        for faces in ([1, 0], [2, 0, 1], [2], [0, 2]):
            sub = loops.subset(faces)
            want = FaceLoops.from_loops([loops.verts[loops.face == f] for f in faces])
            for name in ("verts", "starts", "lengths", "face", "nxt", "prv"):
                assert np.array_equal(getattr(sub, name), getattr(want, name)), (faces, name)

    def test_slots_follow_the_given_face_order(self):
        loops = FaceLoops.from_loops([(0, 1, 2), (3, 4, 5, 6), (7, 8, 9)])
        assert loops.slots([2, 0]).tolist() == [7, 8, 9, 0, 1, 2]
        assert loops.slots([]).tolist() == []


def normals(p):
    return build_surface_graph(p).face_normals()


class TestFaceNormal:
    def test_cube_cap_normals(self, cube):
        assert any(np.allclose(n, [0, 0, 1]) for n in normals(cube))
        assert any(np.allclose(n, [0, 0, -1]) for n in normals(cube))

    def test_tetrahedron_normals_outward(self, tetrahedron):
        centroid = tetrahedron.vertices.mean(axis=0)
        for face, n in zip(tetrahedron.faces, normals(tetrahedron)):
            face_centroid = tetrahedron.vertices[list(face.loop)].mean(axis=0)
            assert n @ (face_centroid - centroid) > 0

    def test_degenerate_face_raises(self):
        # Both sides of a flat triangle pair every edge, so only the zero
        # normals refuse it, before a graph exists.
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        flat = Polyhedron(verts, (((0, 1, 2), ()), ((2, 1, 0), ())))
        with pytest.raises(InvalidPolyhedronError) as exc:
            normals(flat)
        assert "degenerate_face" in exc.value.report.codes()

    def test_normal_rotation_equivariance(self, cube):
        t = sample_random_rotation(11)
        rotated = apply_rigid_transform(cube, t)
        expect = normals(cube) @ t.rotation.T
        assert np.abs(normals(rotated) - expect).max() < 1e-12


class TestRigidTransform:
    def test_identity_is_bitwise(self, cube):
        out = apply_rigid_transform(cube, RigidTransform.identity())
        assert np.array_equal(out.vertices, cube.vertices)

    def test_translation_keeps_normals(self, cube):
        t = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
        moved = apply_rigid_transform(cube, t)
        assert np.allclose(normals(moved), normals(cube), atol=1e-12)

    def test_quarter_turn_maps_plus_x(self, cube):
        angle = math.pi / 2
        r = np.array(
            [
                [math.cos(angle), -math.sin(angle), 0],
                [math.sin(angle), math.cos(angle), 0],
                [0, 0, 1],
            ]
        )
        rotated = apply_rigid_transform(cube, RigidTransform(r, np.zeros(3)))
        idx = next(i for i, n in enumerate(normals(cube)) if np.allclose(n, [1, 0, 0]))
        assert np.abs(normals(rotated)[idx] - np.array([0, 1, 0])).max() < 1e-12

    def test_non_orthonormal_rejected(self):
        with pytest.raises(InvalidTransformError):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))

    def test_reflection_rejected(self):
        with pytest.raises(InvalidTransformError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_composition_law(self, seed_a, seed_b):
        cube = make_box()
        t1 = sample_random_rotation(seed_a)
        t1 = RigidTransform(t1.rotation, np.array([0.5, -1.5, 2.0]))
        t2 = sample_random_rotation(seed_b)
        chained = apply_rigid_transform(apply_rigid_transform(cube, t1), t2)
        composed = apply_rigid_transform(cube, t2.compose(t1))
        assert np.abs(chained.vertices - composed.vertices).max() < 1e-12


class TestRandomRotation:
    def test_determinant_and_determinism(self):
        a = sample_random_rotation(42)
        b = sample_random_rotation(42)
        assert abs(np.linalg.det(a.rotation) - 1.0) < 1e-12
        assert np.array_equal(a.rotation, b.rotation)

    def test_uniformity_first_moment(self):
        # Monte-Carlo oracle: entries of a uniform rotation have mean zero.
        total = np.zeros((3, 3))
        n = 10_000
        for seed in range(n):
            total += sample_random_rotation(seed).rotation
        assert np.abs(total / n).max() < 0.05


class TestExtrusion:
    def test_square_becomes_cube(self):
        solid = extrude_polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]), 1.0)
        assert solid.n_faces == 6
        assert solid.n_vertices == 8
        centroid = solid.vertices.mean(axis=0)
        for face, n in zip(solid.faces, normals(solid)):
            assert n @ (solid.vertices[list(face.loop)].mean(axis=0) - centroid) > 0

    def test_triangle_counts(self):
        solid = extrude_polygon(np.array([[0, 0], [1, 0], [0.5, 1]]), 2.0)
        assert solid.n_faces == 5
        assert sum(len(f.loop) for f in solid.faces) == 18

    def test_l_shape_validates(self, l_shaped_solid):
        assert validate_polyhedron(l_shaped_solid).ok
        assert _reference_validate(l_shaped_solid, 1e-9)[0] == []

    def test_rejects_bad_inputs(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        with pytest.raises(GeometryError):
            extrude_polygon(square, 0.0)
        with pytest.raises(GeometryError):
            extrude_polygon(square[::-1], 1.0)  # clockwise
        with pytest.raises(GeometryError):
            extrude_polygon(square[:2], 1.0)
        bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
        with pytest.raises(GeometryError):
            extrude_polygon(bowtie, 1.0)

    @pytest.mark.parametrize(
        "polygon",
        [
            # vertex (2, 0) lies inside the non-adjacent bottom edge
            [(0, 0), (4, 0), (4, 3), (2, 0), (0, 3)],
            # edge (3, 0)-(1, 0) overlaps the collinear bottom edge
            [(0, 0), (4, 0), (4, 2), (3, 0), (1, 0), (0, 2)],
            # the loop passes through (2, 1) twice
            [(0, 0), (2, 1), (4, 0), (4, 2), (2, 1), (0, 2)],
        ],
        ids=["vertex-on-edge", "collinear-overlap", "repeated-point"],
    )
    def test_rejects_touching_polygon(self, polygon):
        with pytest.raises(GeometryError, match="self-intersecting"):
            extrude_polygon(np.array(polygon, dtype=float), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_point_without_warnings(self, bad):
        triangle = np.array([[bad, 0.0], [1.0, 0.0], [0.5, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="non-finite coordinate"):
                extrude_polygon(triangle, 1.0)

    def test_concave_simple_polygon_accepted(self):
        solid = extrude_polygon(np.array([[0, 0], [4, 0], [4, 4], [2, 1], [0, 4]]), 1.0)
        assert solid.n_faces == 7
        assert validate_polyhedron(solid).ok

    def test_scheme_roles_on_square(self):
        scheme = ColorScheme.rgb_default()
        solid = extrude_polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]), 1.0, scheme)
        attrs = [tuple(f.attr) for f in solid.faces]
        assert attrs.count(tuple(scheme.front)) == 1
        assert attrs.count(tuple(scheme.back)) == 1
        assert attrs.count(tuple(scheme.bottom_side)) == 1
        assert attrs.count(tuple(scheme.side)) == 3

    @given(st.integers(0, 10**6))
    def test_random_extrusions_validate(self, seed):
        from polyrep.datasets import random_simple_polygon

        rng = np.random.default_rng(seed)
        solid = extrude_polygon(random_simple_polygon(rng), float(rng.uniform(0.2, 3.0)))
        assert validate_polyhedron(solid).ok
        assert _reference_validate(solid, 1e-9)[0] == []


def _reference_polygon_is_simple(points2d):
    """The pair loop of ``polygon_is_simple`` on numpy scalars, kept as the
    reference for its run on Python floats."""
    n = len(points2d)
    for a in range(n):
        a2 = (a + 1) % n
        for b in range(a + 1, n):
            b2 = (b + 1) % n
            if a == b or a2 == b or a == b2:
                continue
            if _segments_properly_intersect(
                points2d[a], points2d[a2], points2d[b], points2d[b2]
            ):
                return False
    return True


_COORD = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)


@given(
    st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=11)
    | st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=11)
)
def test_polygon_is_simple_matches_numpy_loop(points):
    # Integer-grid points give collinear, touching and repeated vertices.
    pts = np.array(points, dtype=np.float64)
    assert polygon_is_simple(pts) == _reference_polygon_is_simple(pts)


class TestKabsch:
    def test_identity(self, tetrahedron):
        _, rmsd = kabsch_align(tetrahedron.vertices, tetrahedron.vertices)
        assert rmsd < 1e-12

    @given(st.integers(0, 10**6))
    def test_recovers_rigid_motion(self, seed):
        pts = make_tetrahedron().vertices
        rot = sample_random_rotation(seed)
        moved = pts @ rot.rotation.T + np.array([0.3, -2.0, 1.0])
        t, rmsd = kabsch_align(pts, moved)
        assert rmsd < 1e-9
        assert np.abs(t.rotation - rot.rotation).max() < 1e-9

    def test_mirror_of_chiral_set_keeps_residual(self):
        from conftest import chiral_tetrahedron

        pts = chiral_tetrahedron().vertices
        mirrored = pts * np.array([1.0, 1.0, -1.0])
        _, rmsd = kabsch_align(pts, mirrored)
        assert rmsd > 0.1

    def test_collinear_points_rejected(self):
        line = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
        with pytest.raises(GeometryError):
            kabsch_align(line, line)
