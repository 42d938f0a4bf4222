import copy
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyrep import (
    DisconnectedSurfaceError,
    GeometryError,
    IncompleteRigidSetError,
    InconsistentRigidSetError,
    RigidSet,
    PolygonFace,
    Polyhedron,
    RigidTransform,
    SurfaceTopology,
    apply_rigid_transform,
    build_surface_graph,
    compute_rigid_set,
    enumerate_paths,
    extrude_polygon,
    kabsch_align,
    read_rigid_set,
    reconstruct_polyhedron,
    rigid_sets_equal,
    sample_random_rotation,
    write_rigid_set,
)
from polyrep.datasets import make_box, make_prism, make_tetrahedron, random_simple_polygon
from polyrep.geometry import FaceLoops
from polyrep.rigid_features import (
    _dihedral_angles,
    _lay_flat,
    _path_geometry,
    _planar_angles,
    _rays,
)

from conftest import banded_column, chiral_tetrahedron, solid_corpus


def _reference_paths(g):
    """The per-edge loop form of enumerate_paths: e1 in (tail, head) order,
    then each out-edge of its head in (head) order."""
    e1, e2 = [], []
    order, starts = g._out_order, g._out_starts
    for first in order:
        for second in order[starts[g.edge_head[first]] : starts[g.edge_head[first] + 1]]:
            e1.append(first)
            e2.append(second)
    return np.array(e1, dtype=np.int64), np.array(e2, dtype=np.int64)


class TestEnumeration:
    def test_rows_match_loop_reference(self):
        for solid in solid_corpus(10, seed=7):
            g = build_surface_graph(solid)
            paths = enumerate_paths(g)
            e1, e2 = _reference_paths(g)
            assert np.array_equal(paths.e1, e1) and np.array_equal(paths.e2, e2)
            assert np.array_equal(paths.i, g.edge_tail[e1])
            assert np.array_equal(paths.j, g.edge_head[e1])
            assert np.array_equal(paths.k, g.edge_head[e2])

    def test_cube_72_paths(self, cube):
        paths = enumerate_paths(build_surface_graph(cube))
        assert len(paths) == 72

    def test_tetrahedron_36_paths(self, tetrahedron):
        paths = enumerate_paths(build_surface_graph(tetrahedron))
        assert len(paths) == 36

    def test_cube_backtracking_count(self, cube):
        paths = enumerate_paths(build_surface_graph(cube))
        assert int((paths.k == paths.i).sum()) == 24

    def test_lexicographic_grouping(self, cube):
        paths = enumerate_paths(build_surface_graph(cube))
        keys = np.stack([paths.i, paths.j, paths.k], axis=1)
        assert np.array_equal(keys, keys[np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))])


def _planar_angle(vi, vj, vk, n_ref):
    """The rigid features' planar angle of the one path (vi, vj, vk)."""
    u1, u2, cross12, _, _ = _rays(*np.atleast_2d(vi, vj, vk))
    return float(_planar_angles(u1, u2, np.atleast_2d(n_ref), cross12)[0])


def _dihedral_angle(vi, vj, vk, n1, n2, backtracking):
    """The rigid features' dihedral angle of the one path (vi, vj, vk)."""
    u1, _, cross12, _, _ = _rays(*np.atleast_2d(vi, vj, vk))
    phi = _dihedral_angles(u1, cross12, *np.atleast_2d(n1, n2), np.array([backtracking]))
    return float(phi[0])


class TestPlanarAngle:
    def test_backtracking_is_zero(self):
        vi, vj = np.array([1.0, 0, 0]), np.zeros(3)
        assert _planar_angle(vi, vj, vi, np.array([0, 0, 1.0])) == 0.0

    def test_ccw_square_corner(self):
        # Unit square (0,0),(1,0),(1,1),(0,1): consecutive corner under the
        # outward (+z) normal measures -pi/2.
        vi, vj, vk = np.array([0.0, 0, 0]), np.array([1.0, 0, 0]), np.array([1.0, 1, 0])
        theta = _planar_angle(vi, vj, vk, np.array([0, 0, 1.0]))
        assert abs(theta - (-math.pi / 2)) < 1e-12

    def test_equilateral_corner(self):
        # Direct evaluation of the formula on an equilateral triangle.
        vi, vj, vk = (
            np.array([0.0, 0, 0]),
            np.array([1.0, 0, 0]),
            np.array([0.5, math.sqrt(3) / 2, 0]),
        )
        theta = _planar_angle(vi, vj, vk, np.array([0, 0, 1.0]))
        assert abs(theta - (-math.pi / 3)) < 1e-12

    @given(st.integers(0, 10**6))
    def test_swap_negates(self, seed):
        rng = np.random.default_rng(seed)
        vj = rng.standard_normal(3)
        vi, vk = vj + rng.standard_normal(3), vj + rng.standard_normal(3)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        a = _planar_angle(vi, vj, vk, n)
        b = _planar_angle(vk, vj, vi, n)
        wrapped = (a + b + math.pi) % (2 * math.pi) - math.pi
        assert abs(wrapped) < 1e-9

    def test_mirror_negates(self):
        vi, vj, vk = np.array([1.0, 0.2, 0]), np.zeros(3), np.array([0.3, 1.0, 0.1])
        n = np.array([0.0, 0.1, 1.0])
        n /= np.linalg.norm(n)
        mirror = np.diag([1.0, 1.0, -1.0])
        a = _planar_angle(vi, vj, vk, n)
        b = _planar_angle(mirror @ vi, vj, mirror @ vk, mirror @ n)
        assert abs(a + b) < 1e-12


class TestDihedralAngle:
    def test_inner_parallel_normals(self):
        n = np.array([0.0, 0, 1])
        phi = _dihedral_angle(
            np.array([1.0, 0, 0]), np.zeros(3), np.array([0.0, 1, 0]), n, n, False
        )
        assert phi == 0.0

    def test_cube_hinge_is_plus_half_pi(self):
        # Backtracking path across the bottom/side edge of the unit cube,
        # evaluated directly from hand-built geometry.
        vi, vj = np.array([1.0, 1, 0]), np.array([1.0, 0, 0])
        n_bottom, n_side = np.array([0.0, 0, -1]), np.array([1.0, 0, 0])
        phi = _dihedral_angle(vi, vj, vi, n_bottom, n_side, True)
        assert abs(phi - math.pi / 2) < 1e-12

    def test_tetrahedron_hinge(self, tetrahedron):
        rs = compute_rigid_set(build_surface_graph(tetrahedron))
        back = rs.keys[:, 0] == rs.keys[:, 2]
        expected = math.acos(-1.0 / 3.0)
        assert np.allclose(rs.phi[back], expected, atol=1e-12)

    def test_antiparallel_maps_to_pi(self):
        n = np.array([0.0, 0, 1])
        phi = _dihedral_angle(
            np.array([1.0, 0, 0]), np.zeros(3), np.array([0.0, 1, 0]), n, -n, False
        )
        assert phi == math.pi

    def test_mirror_negates_hinge(self):
        # The backtracking (hinge) dihedral is what carries chirality into
        # the reconstruction; its sign reference is the edge direction, a
        # polar vector, so mirroring the geometry negates the angle.
        vi, vj = np.array([1.0, 0.2, 0.3]), np.zeros(3)
        edge = vj - vi
        edge /= np.linalg.norm(edge)
        rng = np.random.default_rng(7)
        n1 = np.cross(edge, rng.standard_normal(3))
        n1 /= np.linalg.norm(n1)
        n2 = np.cross(edge, rng.standard_normal(3))
        n2 /= np.linalg.norm(n2)
        mirror = np.diag([1.0, -1.0, 1.0])
        a = _dihedral_angle(vi, vj, vi, n1, n2, True)
        b = _dihedral_angle(mirror @ vi, vj, mirror @ vi, mirror @ n1, mirror @ n2, True)
        assert abs(a + b) < 1e-12


class TestScalarAnglesAreTheKernel:
    """One path through the kernels gives that path's row of the batch."""

    @pytest.mark.parametrize("solid", ["cube", "tetrahedron", "l_shaped_solid"])
    def test_bitwise_equal_to_path_geometry(self, solid, request):
        g = build_surface_graph(request.getfixturevalue(solid))
        paths = enumerate_paths(g)
        _, _, theta, phi, face1, face2 = _path_geometry(g, paths)
        normals = g.face_normals()
        for r in range(len(paths)):
            vi, vj, vk = g.coords[paths.i[r]], g.coords[paths.j[r]], g.coords[paths.k[r]]
            n1, n2 = normals[face1[r]], normals[face2[r]]
            assert _planar_angle(vi, vj, vk, n1) == theta[r]
            backtracking = paths.k[r] == paths.i[r]
            assert _dihedral_angle(vi, vj, vk, n1, n2, backtracking) == phi[r]

    def test_zero_length_ray_rejected(self):
        n = np.array([0.0, 0, 1])
        vi, vj = np.array([1.0, 0, 0]), np.zeros(3)
        with pytest.raises(GeometryError):
            _planar_angle(vj, vj, vi, n)
        with pytest.raises(GeometryError):
            _planar_angle(vi, vj, vj, n)
        with pytest.raises(GeometryError):
            _dihedral_angle(vj, vj, vi, n, np.array([1.0, 0, 0]), False)


class TestRigidSet:
    def test_cube_unit_distances(self, cube):
        rs = compute_rigid_set(build_surface_graph(cube))
        assert np.allclose(rs.d1, 1.0) and np.allclose(rs.d2, 1.0)

    def test_cube_inner_corners(self, cube):
        rs = compute_rigid_set(build_surface_graph(cube))
        assert np.allclose(rs.theta[rs.face1 == rs.face2], -math.pi / 2)

    def test_backtracking_tuples(self):
        for solid in solid_corpus(8, seed=5):
            rs = compute_rigid_set(build_surface_graph(solid))
            back = rs.keys[:, 0] == rs.keys[:, 2]
            assert np.all(rs.theta[back] == 0.0)
            assert np.allclose(rs.d1[back], rs.d2[back])
            assert np.all(rs.face1[back] != rs.face2[back])

    def test_path_type_matches_faces(self, cube):
        rs = compute_rigid_set(build_surface_graph(cube))
        assert np.all(rs.phi[rs.face1 == rs.face2] == 0.0)

    @given(st.integers(0, 10**6))
    def test_rigid_motion_invariance(self, seed):
        rng = np.random.default_rng(seed)
        for solid in solid_corpus(2, seed=seed):
            rs = compute_rigid_set(build_surface_graph(solid))
            rot = sample_random_rotation(seed + 1)
            move = RigidTransform(rot.rotation, rng.uniform(-10, 10, 3))
            moved = apply_rigid_transform(solid, move)
            rs2 = compute_rigid_set(build_surface_graph(moved))
            assert rigid_sets_equal(rs, rs2, 1e-9)

    def test_scale_breaks_equality(self, cube):
        from polyrep import Polyhedron

        rs = compute_rigid_set(build_surface_graph(cube))
        scaled = Polyhedron(np.asarray(cube.vertices) * 1.1, cube.faces)
        rs2 = compute_rigid_set(build_surface_graph(scaled))
        assert not rigid_sets_equal(rs, rs2, 1e-9)

    def test_reflexive_equality(self, cube):
        rs = compute_rigid_set(build_surface_graph(cube))
        assert rigid_sets_equal(rs, rs, 0.0)

    def test_wrap_aware_angle_comparison(self, cube):
        rs = compute_rigid_set(build_surface_graph(cube))
        nudged = RigidSet(
            rs.keys, rs.d1, rs.d2, rs.theta,
            np.where(rs.phi == math.pi, -math.pi + 1e-15, rs.phi),
            rs.face1, rs.face2,
        )
        assert rigid_sets_equal(rs, nudged, 1e-9)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["d1", "d2", "theta", "phi"])
    def test_non_finite_values_rejected(self, cube, field, bad):
        rs = compute_rigid_set(build_surface_graph(cube))
        values = {name: np.array(getattr(rs, name)) for name in ("d1", "d2", "theta", "phi")}
        values[field][np.flatnonzero(rs.face1 == rs.face2)[0]] = bad
        with pytest.raises(InconsistentRigidSetError):
            RigidSet(
                rs.keys, values["d1"], values["d2"], values["theta"], values["phi"],
                rs.face1, rs.face2,
            )

    @pytest.mark.parametrize("field", ["d1", "d2", "theta", "phi"])
    def test_non_finite_values_never_compare_equal(self, cube, field):
        # The constructor refuses NaN, so the set is patched after it; the
        # comparison must not rely on that check.
        rs = compute_rigid_set(build_surface_graph(cube))
        broken = copy.copy(rs)
        values = np.array(getattr(rs, field))
        values[0] = math.nan
        object.__setattr__(broken, field, values)
        assert not rigid_sets_equal(rs, broken, math.inf)
        assert not rigid_sets_equal(broken, broken, math.inf)

    @pytest.mark.parametrize("copy_row", [0, 17, 71])
    def test_duplicate_keys_rejected(self, cube, copy_row):
        rs = compute_rigid_set(build_surface_graph(cube))
        rows = np.append(np.arange(len(rs)), copy_row)
        with pytest.raises(InconsistentRigidSetError, match="duplicate"):
            RigidSet(
                rs.keys[rows], rs.d1[rows], rs.d2[rows], rs.theta[rows],
                rs.phi[rows], rs.face1[rows], rs.face2[rows],
            )

    def test_lookup_of_every_key(self, cube):
        rs = compute_rigid_set(build_surface_graph(cube))
        flipped = np.arange(len(rs))[::-1]
        shuffled = RigidSet(
            rs.keys[flipped], rs.d1[flipped], rs.d2[flipped], rs.theta[flipped],
            rs.phi[flipped], rs.face1[flipped], rs.face2[flipped],
        )
        for r, key in enumerate(shuffled.keys.tolist()):
            assert shuffled.rows([key])[0] == r
        rows = shuffled.rows(shuffled.keys)
        assert np.array_equal(rows, np.arange(len(rs)))
        for name in ("keys", "d1", "d2", "theta", "phi", "face1", "face2"):
            assert np.array_equal(getattr(shuffled, name)[rows], getattr(rs, name))

    def test_rows_of_many_keys(self):
        rs = compute_rigid_set(build_surface_graph(make_prism(sides=9)))
        flipped = np.arange(len(rs))[::-1]
        assert np.array_equal(rs.rows(rs.keys[flipped]), flipped)
        assert rs.rows(np.zeros((0, 3))).shape == (0,)
        keys = np.insert(rs.keys, 40, [0, 5, 0], axis=0)  # 0 -> 5 is not an edge
        with pytest.raises(IncompleteRigidSetError, match=r"\(0,5,0\)"):
            rs.rows(keys)

    @pytest.mark.parametrize(
        "key", [(0, 0, 0), (0, 1, 1), (0, 2, 0), (-1, 0, 1), (7, 6, 8), (8, 0, 1), (2**40, 0, 0)]
    )
    def test_missing_key_is_incomplete(self, cube, key):
        rs = compute_rigid_set(build_surface_graph(cube))
        with pytest.raises(IncompleteRigidSetError):
            rs.rows([key])


def _flat_face(rs, loop, face):
    """One loop laid flat by the reconstruction's kernel: (len(loop), 2)."""
    return _lay_flat(rs, FaceLoops.from_lengths(loop, [len(loop)]), [face])


class TestFaceReconstruction:
    def test_cube_face_square(self, cube):
        g = build_surface_graph(cube)
        rs = compute_rigid_set(g)
        loop = g.face_loop(0)
        pts = _flat_face(rs, loop, 0)
        assert pts.shape == (len(loop), 2)
        sides = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        assert np.allclose(sides, 1.0, atol=1e-12)
        diag = np.linalg.norm(pts[2] - pts[0])
        assert abs(diag - math.sqrt(2)) < 1e-12

    def test_perturbed_angle_fails_closure(self, cube):
        g = build_surface_graph(cube)
        rs = compute_rigid_set(g)
        theta = np.array(rs.theta)
        inner_rows = np.nonzero(rs.face1 == rs.face2)[0]
        theta[inner_rows[0]] += 0.1
        broken = RigidSet(rs.keys, rs.d1, rs.d2, theta, rs.phi, rs.face1, rs.face2)
        face = int(rs.face1[inner_rows[0]])
        with pytest.raises(InconsistentRigidSetError):
            _flat_face(broken, g.face_loop(face), face)

    def test_zero_length_fails_closure(self, cube):
        # A zero first edge turns every placed vertex into NaN, which no
        # closure tolerance may accept.
        g = build_surface_graph(cube)
        rs = compute_rigid_set(g)
        row = np.flatnonzero(rs.face1 == rs.face2)[0]
        d1 = np.array(rs.d1)
        d1[(rs.face1 == rs.face2) & (rs.face1 == rs.face1[row])] = 0.0
        broken = RigidSet(rs.keys, d1, rs.d2, rs.theta, rs.phi, rs.face1, rs.face2)
        face = int(rs.face1[row])
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(InconsistentRigidSetError):
                _flat_face(broken, g.face_loop(face), face)

    def test_missing_tuple_detected(self, cube):
        g = build_surface_graph(cube)
        rs = compute_rigid_set(g)
        keep = ~((rs.face1 == rs.face2) & (rs.face1 == 0))
        pruned = RigidSet(
            rs.keys[keep], rs.d1[keep], rs.d2[keep], rs.theta[keep],
            rs.phi[keep], rs.face1[keep], rs.face2[keep],
        )
        with pytest.raises(IncompleteRigidSetError):
            _flat_face(pruned, g.face_loop(0), 0)

    def test_triangle_round_trip(self, tetrahedron):
        g = build_surface_graph(tetrahedron)
        rs = compute_rigid_set(g)
        loop = g.face_loop(2)
        rebuilt = _flat_face(rs, loop, 2)
        original = g.coords[list(loop)]
        d_orig = np.linalg.norm(original[1] - original[2])
        d_flat = np.linalg.norm(rebuilt[1] - rebuilt[2])
        assert abs(d_orig - d_flat) < 1e-12


class TestSolidReconstruction:
    @pytest.mark.parametrize("maker", [make_box, make_tetrahedron, make_prism])
    def test_round_trip_named(self, maker):
        solid = maker()
        g = build_surface_graph(solid)
        rs = compute_rigid_set(g)
        rebuilt = reconstruct_polyhedron(rs, g.topology())
        _, rmsd = kabsch_align(rebuilt.vertices, solid.vertices)
        assert rmsd < 1e-9
        rs2 = compute_rigid_set(build_surface_graph(rebuilt))
        assert rigid_sets_equal(rs, rs2, 1e-6)

    def test_corpus_round_trips(self):
        for solid in solid_corpus(10, seed=6):
            g = build_surface_graph(solid)
            rs = compute_rigid_set(g)
            rebuilt = reconstruct_polyhedron(rs, g.topology())
            _, rmsd = kabsch_align(rebuilt.vertices, solid.vertices)
            assert rmsd < 1e-6 * solid.bbox_diagonal()

    def test_mirrored_set_builds_mirror_image(self, cube):
        g = build_surface_graph(cube)
        rs = compute_rigid_set(g)
        mirrored = RigidSet(
            rs.keys, rs.d1, rs.d2, -rs.theta, -rs.phi, rs.face1, rs.face2
        )
        rebuilt = reconstruct_polyhedron(mirrored, g.topology())
        flipped = np.asarray(cube.vertices) * np.array([1.0, 1.0, -1.0])
        _, rmsd_mirror = kabsch_align(rebuilt.vertices, flipped)
        assert rmsd_mirror < 1e-9

    def test_mirrored_chiral_solid_is_not_congruent(self):
        solid = chiral_tetrahedron()
        g = build_surface_graph(solid)
        rs = compute_rigid_set(g)
        mirrored = RigidSet(
            rs.keys, rs.d1, rs.d2, -rs.theta, -rs.phi, rs.face1, rs.face2
        )
        rebuilt = reconstruct_polyhedron(mirrored, g.topology())
        _, rmsd = kabsch_align(rebuilt.vertices, solid.vertices)
        assert rmsd > 1e-3

    def test_conflicting_hinge_detected(self, cube):
        g = build_surface_graph(cube)
        rs = compute_rigid_set(g)
        topo = g.topology()
        # Corrupt the hinge of the first edge the gluing sweep folds across;
        # the misrotated neighbor then disagrees with later placements.
        a, b = topo.loops[0][0], topo.loops[0][1]
        row = rs.rows([a, b, a])[0]
        phi = np.array(rs.phi)
        phi[row] += 0.5
        broken = RigidSet(rs.keys, rs.d1, rs.d2, rs.theta, phi, rs.face1, rs.face2)
        with pytest.raises(InconsistentRigidSetError):
            reconstruct_polyhedron(broken, topo)


    @pytest.mark.parametrize("scale", [1e-7, 1e-9, 1e-12])
    def test_tiny_solid_round_trips(self, scale):
        # Newell lengths shrink as the square of the size; the degenerate-face
        # test is relative to the bounding-box diagonal, so a tiny solid is
        # as valid as its unit-size original.
        prism = make_prism(np.random.default_rng(1), 0.1, sides=7)
        solid = Polyhedron(prism.vertices * scale, prism.faces)
        g = build_surface_graph(solid)
        rs = compute_rigid_set(g)
        rebuilt = reconstruct_polyhedron(rs, g.topology())
        _, rmsd = kabsch_align(rebuilt.vertices, solid.vertices)
        assert rmsd < 1e-12 * solid.bbox_diagonal()

    def test_deep_adjacency_tree_does_not_drift(self):
        # 12 sides cut into 40 stacked bands: the gluing sweep reaches the
        # bottom cap 41 folds away from the top cap, so placement errors
        # would pile up along the chain if they grew with depth.
        solid = banded_column(12, 40)
        g = build_surface_graph(solid)
        rs = compute_rigid_set(g)
        rebuilt = reconstruct_polyhedron(rs, g.topology())
        _, rmsd = kabsch_align(rebuilt.vertices, solid.vertices)
        assert rmsd < 1e-6 * solid.bbox_diagonal()
        assert rigid_sets_equal(rs, compute_rigid_set(build_surface_graph(rebuilt)), 1e-6)

    @pytest.mark.parametrize("sides, bands", [(6, 2), (12, 3), (24, 10), (12, 40)])
    def test_straight_banded_prism_round_trips(self, sides, bands):
        # Coplanar bands put some cross-face hinges exactly perpendicular to
        # the ray cross product in the source; the rebuilt solid has them at
        # about 1e-12, which must not flip the dihedral sign.
        solid = banded_column(sides, bands, straight=True)
        g = build_surface_graph(solid)
        rs = compute_rigid_set(g)
        rebuilt = reconstruct_polyhedron(rs, g.topology())
        assert rigid_sets_equal(rs, compute_rigid_set(build_surface_graph(rebuilt)), 1e-6)


def _fifo_sweep(topo):
    """The per-face FIFO queue form of ``SurfaceTopology.sweep``: the faces
    in gluing order, and the start edge, parent face and depth of each."""
    owner = {
        (loop[t], loop[(t + 1) % len(loop)]): f
        for f, loop in enumerate(topo.loops)
        for t in range(len(loop))
    }
    order, start = [0], {0: topo.loops[0][:2]}
    parent, depth = {0: None}, {0: 0}
    for f1 in order:
        loop = topo.loops[f1]
        for t in range(len(loop)):
            a, b = loop[t], loop[(t + 1) % len(loop)]
            f2 = owner[(b, a)]
            if f2 not in parent:
                order.append(f2)
                start[f2], parent[f2], depth[f2] = (b, a), f1, depth[f1] + 1
    return order, start, parent, depth


class TestSweep:
    @pytest.mark.parametrize("solid", [*solid_corpus(10, seed=9), banded_column(7, 5)])
    def test_matches_fifo_reference(self, solid):
        topo = build_surface_graph(solid).topology()
        loops, order, parent, levels = topo.sweep()
        ref_order, start, ref_parent, depth = _fifo_sweep(topo)
        assert order.tolist() == ref_order
        for q, f in enumerate(ref_order):
            turned = loops.verts[loops.starts[q] : loops.starts[q] + loops.lengths[q]]
            assert tuple(turned[:2]) == tuple(start[f])
            assert cyclic_equal(turned.tolist(), topo.loops[f])
            assert q == 0 or order[parent[q]] == ref_parent[f]
            assert levels[depth[f]] <= q < levels[depth[f] + 1]
        assert levels[-1] == len(order)


def _loop_reconstruction(rigid, topo):
    """The per-vertex loop form of ``reconstruct_polyhedron``: each face is
    walked corner by corner with 2D rotations of the previous edge, and
    glued with a Rodrigues matrix per hinge, in the FIFO sweep order."""

    def flat(start, face):
        chain = {
            tuple(rigid.keys[r, :2].tolist()): r
            for r in np.flatnonzero((rigid.face1 == face) & (rigid.face2 == face))
        }
        i0, j0 = start
        pos = {i0: np.array([-rigid.d1[chain[(i0, j0)]], 0.0]), j0: np.zeros(2)}
        a, b = i0, j0
        while True:
            r = chain[(a, b)]
            c = int(rigid.keys[r, 2])
            u = (pos[a] - pos[b]) / np.linalg.norm(pos[a] - pos[b])
            cs, sn = math.cos(rigid.theta[r]), math.sin(rigid.theta[r])
            if c in pos:
                if c == j0:
                    return pos
            else:
                turned = np.array([cs * u[0] - sn * u[1], sn * u[0] + cs * u[1]])
                pos[c] = pos[b] + rigid.d2[r] * turned
            a, b = b, c

    order, start, parent, _ = _fifo_sweep(topo)
    pos, normal = {}, {}
    for f in order:
        a, b = start[f][1], start[f][0]
        if parent[f] is None:
            origin, e_x, n2 = np.zeros(3), np.array([1.0, 0, 0]), np.array([0.0, 0, 1])
        else:
            axis = (pos[b] - pos[a]) / np.linalg.norm(pos[b] - pos[a])
            k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
            phi = rigid.phi[rigid.rows([a, b, a])[0]]
            n2 = (np.eye(3) + math.sin(phi) * k + (1 - math.cos(phi)) * (k @ k)) @ normal[parent[f]]
            origin, e_x = pos[a], -axis
        normal[f] = n2
        for node, xy in flat(start[f], f).items():
            pos.setdefault(node, origin + xy[0] * e_x + xy[1] * np.cross(n2, e_x))
    return np.stack([pos[v] for v in range(topo.n_nodes)])


class TestLoopReference:
    @pytest.mark.parametrize(
        "solid", [*solid_corpus(10, seed=4), banded_column(12, 40), make_prism(sides=96)]
    )
    def test_matches_loop_reconstruction(self, solid):
        # Headings and positions are now cumulative sums, so the rounding
        # differs from the corner-by-corner walk: allow float64 rounding over
        # a few thousand chained steps, relative to the size of the solid.
        g = build_surface_graph(solid)
        rs, topo = compute_rigid_set(g), g.topology()
        rebuilt = reconstruct_polyhedron(rs, topo).vertices
        deviation = np.abs(rebuilt - _loop_reconstruction(rs, topo)).max()
        assert deviation <= 1e-11 * solid.bbox_diagonal()


def cyclic_equal(a, b):
    doubled = tuple(b) + tuple(b)
    return len(a) == len(b) and any(doubled[s : s + len(a)] == tuple(a) for s in range(len(b)))


def _cube_parts():
    g = build_surface_graph(make_box())
    return compute_rigid_set(g), g.topology()


class TestTopologyFaults:
    def test_empty_topology(self):
        rs, _ = _cube_parts()
        with pytest.raises(DisconnectedSurfaceError, match="no faces"):
            reconstruct_polyhedron(rs, SurfaceTopology(0, (), np.zeros((0, 0))))

    def test_duplicate_directed_edge(self):
        rs, topo = _cube_parts()
        loops = topo.loops + (topo.loops[3],)
        broken = SurfaceTopology(topo.n_nodes, loops, np.zeros((len(loops), 0)))
        with pytest.raises(DisconnectedSurfaceError, match="duplicate directed edge"):
            reconstruct_polyhedron(rs, broken)

    def test_edge_without_opposite_face(self):
        rs, topo = _cube_parts()
        loops = topo.loops[:-1]  # one side face is gone
        broken = SurfaceTopology(topo.n_nodes, loops, np.zeros((len(loops), 0)))
        with pytest.raises(DisconnectedSurfaceError, match="no opposite face"):
            reconstruct_polyhedron(rs, broken)

    def test_two_components(self):
        cube, topo = _cube_parts()
        tg = build_surface_graph(make_tetrahedron())
        tet = compute_rigid_set(tg)
        shift = topo.n_nodes
        joined = RigidSet(
            np.vstack([cube.keys, tet.keys + shift]),
            np.concatenate([cube.d1, tet.d1]),
            np.concatenate([cube.d2, tet.d2]),
            np.concatenate([cube.theta, tet.theta]),
            np.concatenate([cube.phi, tet.phi]),
            np.concatenate([cube.face1, tet.face1 + len(topo.loops)]),
            np.concatenate([cube.face2, tet.face2 + len(topo.loops)]),
        )
        loops = topo.loops + tuple(
            tuple(v + shift for v in loop) for loop in tg.topology().loops
        )
        both = SurfaceTopology(shift + 4, loops, np.zeros((len(loops), 0)))
        with pytest.raises(DisconnectedSurfaceError, match="placed 6 of 10 faces"):
            reconstruct_polyhedron(joined, both)

    def test_node_never_placed(self):
        rs, topo = _cube_parts()
        extra = SurfaceTopology(topo.n_nodes + 1, topo.loops, topo.attrs)
        with pytest.raises(DisconnectedSurfaceError, match=r"never placed: \[8\]"):
            reconstruct_polyhedron(rs, extra)

    def test_more_nodes_than_loop_vertices(self):
        rs, topo = _cube_parts()
        huge = SurfaceTopology(10**15, topo.loops, topo.attrs)
        with pytest.raises(DisconnectedSurfaceError, match="cannot all lie on 24 slots"):
            reconstruct_polyhedron(rs, huge)

    def test_short_loop(self):
        rs, topo = _cube_parts()
        loops = topo.loops[:2] + (topo.loops[2][:2],) + topo.loops[3:]
        with pytest.raises(DisconnectedSurfaceError, match="face 2 has 2 vertices"):
            reconstruct_polyhedron(rs, SurfaceTopology(topo.n_nodes, loops, topo.attrs))

    @pytest.mark.parametrize("node", [-1, 8])
    def test_node_out_of_range(self, node):
        rs, topo = _cube_parts()
        loops = (topo.loops[0][:-1] + (node,),) + topo.loops[1:]
        with pytest.raises(GeometryError, match=f"references vertex {node} of 8"):
            reconstruct_polyhedron(rs, SurfaceTopology(topo.n_nodes, loops, topo.attrs))


class TestTextFormat:
    def test_round_trip(self, cube):
        rs = compute_rigid_set(build_surface_graph(cube))
        buf = io.StringIO()
        write_rigid_set(rs, buf)
        text = buf.getvalue()
        assert len(text.strip().splitlines()) == 72
        back = read_rigid_set(io.StringIO(text))
        assert rigid_sets_equal(rs, back, 0.0)
        assert np.array_equal(rs.keys, back.keys)

    def test_malformed_line_rejected(self):
        with pytest.raises(InconsistentRigidSetError):
            read_rigid_set(io.StringIO("1 2 3 0.5\n"))

    @staticmethod
    def _cube_text_with(row, field, token):
        buf = io.StringIO()
        write_rigid_set(compute_rigid_set(build_surface_graph(make_box())), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        parts = lines[row].split()
        parts[field] = token
        lines[row] = " ".join(parts) + "\n"
        return "".join(lines)

    @pytest.mark.parametrize(
        "field, token, message",
        [
            (3, "abc", "line 6: d1 'abc' is not a number"),
            (0, "1.5", "line 6: i '1.5' is not an integer"),
            (8, "0x1", "line 6: face2 '0x1' is not an integer"),
            (2, str(2**63), f"line 6: k '{2**63}' is not an integer"),
        ],
    )
    def test_bad_field_names_its_line(self, field, token, message):
        text = self._cube_text_with(5, field, token)
        with pytest.raises(InconsistentRigidSetError, match=f"^{message}$"):
            read_rigid_set(io.StringIO(text))

    def test_truncated_last_line(self):
        text = self._cube_text_with(71, 0, "0")
        truncated = text[: text.rindex(" ")]  # the last line loses its face2
        with pytest.raises(InconsistentRigidSetError, match="^line 72: expected 9 fields, got 8$"):
            read_rigid_set(io.StringIO(truncated))

    def test_first_bad_line_wins(self):
        text = self._cube_text_with(9, 4, "x").splitlines(keepends=True)
        text[40] = "1 2 3\n"
        with pytest.raises(InconsistentRigidSetError, match="^line 10: "):
            read_rigid_set(io.StringIO("".join(text)))

    def test_blank_lines_and_crlf_are_skipped(self, cube):
        rs = compute_rigid_set(build_surface_graph(cube))
        buf = io.StringIO()
        write_rigid_set(rs, buf)
        text = "\n" + buf.getvalue().replace("\n", "\r\n\n")
        back = read_rigid_set(io.StringIO(text))
        assert rigid_sets_equal(rs, back, 0.0) and np.array_equal(rs.keys, back.keys)

    def test_empty_text_is_empty_set(self):
        assert len(read_rigid_set(io.StringIO(""))) == 0

    # sha256 of ``write_rigid_set`` output, recorded before the writer was
    # vectorized: the text format is a file format, so it may not drift.
    PINNED = {
        "cube": (72, "c282ea0338b50ca4a2c593cb9c71a5f42fb73b9b84f9e241ede670fc3b148171"),
        "tetrahedron": (36, "4bd6fcb222560b013ab1ab87c066561e7b5f8beb81695a0e71b13b1c725980ba"),
        "extrusion96": (1728, "11b21f2db61f8faa22535926944e3708bc1076105f08067588a3fa33db779a83"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_bytes(self, name):
        solid = {
            "cube": make_box,
            "tetrahedron": make_tetrahedron,
            "extrusion96": lambda: extrude_polygon(
                random_simple_polygon(np.random.default_rng(96), 96, 96), 1.0
            ),
        }[name]()
        buf = io.StringIO()
        write_rigid_set(compute_rigid_set(build_surface_graph(solid)), buf)
        text = buf.getvalue()
        lines, digest = self.PINNED[name]
        assert len(text.splitlines()) == lines
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_bitwise_round_trip_of_edge_values(self):
        values = np.array([-0.0, 5e-324, 1e300, math.pi])
        rs = RigidSet(
            [[0, 1, 2], [1, 2, 0], [2, 0, 1], [3, 1, 0]],
            values, values[::-1], -values, np.roll(values, 1),
            [0, 1, 2, 3], [0, 4, 2, 5],
        )
        buf = io.StringIO()
        write_rigid_set(rs, buf)
        back = read_rigid_set(io.StringIO(buf.getvalue()))
        for name in ("keys", "d1", "d2", "theta", "phi", "face1", "face2"):
            a, b = getattr(rs, name), getattr(back, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
