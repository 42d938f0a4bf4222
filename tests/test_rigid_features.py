import copy
import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyrep import (
    GeometryError,
    IncompleteRigidSetError,
    InconsistentRigidSetError,
    RigidSet,
    RigidTransform,
    apply_rigid_transform,
    build_surface_graph,
    compute_rigid_set,
    enumerate_paths,
    kabsch_align,
    read_rigid_set,
    reconstruct_face,
    reconstruct_polyhedron,
    rigid_sets_equal,
    sample_random_rotation,
    signed_dihedral_angle,
    signed_planar_angle,
    write_rigid_set,
)
from polyrep.datasets import make_box, make_prism, make_tetrahedron
from polyrep.rigid_features import RigidTuple, _path_geometry

from conftest import chiral_tetrahedron, solid_corpus


def _reference_paths(g, include_backtracking):
    """The per-edge loop form of enumerate_paths: e1 in (tail, head) order,
    then each out-edge of its head in (head) order."""
    e1, e2 = [], []
    order, starts = g._out_order, g._out_starts
    for first in order:
        for second in order[starts[g.edge_head[first]] : starts[g.edge_head[first] + 1]]:
            if include_backtracking or second != g.opposite[first]:
                e1.append(first)
                e2.append(second)
    return np.array(e1, dtype=np.int64), np.array(e2, dtype=np.int64)


class TestEnumeration:
    @pytest.mark.parametrize("include_backtracking", [True, False])
    def test_rows_match_loop_reference(self, include_backtracking):
        for solid in solid_corpus(10, seed=7):
            g = build_surface_graph(solid)
            paths = enumerate_paths(g, include_backtracking)
            e1, e2 = _reference_paths(g, include_backtracking)
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

    def test_backtracking_excluded_on_request(self, cube):
        paths = enumerate_paths(build_surface_graph(cube), include_backtracking=False)
        assert len(paths) == 48
        assert not np.any(paths.k == paths.i)

    def test_lexicographic_grouping(self, cube):
        paths = enumerate_paths(build_surface_graph(cube))
        keys = np.stack([paths.i, paths.j, paths.k], axis=1)
        assert np.array_equal(keys, keys[np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))])


class TestPlanarAngle:
    def test_backtracking_is_zero(self):
        vi, vj = np.array([1.0, 0, 0]), np.zeros(3)
        assert signed_planar_angle(vi, vj, vi, np.array([0, 0, 1.0])) == 0.0

    def test_ccw_square_corner(self):
        # Unit square (0,0),(1,0),(1,1),(0,1): consecutive corner under the
        # outward (+z) normal measures -pi/2.
        vi, vj, vk = np.array([0.0, 0, 0]), np.array([1.0, 0, 0]), np.array([1.0, 1, 0])
        theta = signed_planar_angle(vi, vj, vk, np.array([0, 0, 1.0]))
        assert abs(theta - (-math.pi / 2)) < 1e-12

    def test_equilateral_corner(self):
        # Direct evaluation of the formula on an equilateral triangle.
        vi, vj, vk = (
            np.array([0.0, 0, 0]),
            np.array([1.0, 0, 0]),
            np.array([0.5, math.sqrt(3) / 2, 0]),
        )
        theta = signed_planar_angle(vi, vj, vk, np.array([0, 0, 1.0]))
        assert abs(theta - (-math.pi / 3)) < 1e-12

    @given(st.integers(0, 10**6))
    def test_swap_negates(self, seed):
        rng = np.random.default_rng(seed)
        vj = rng.standard_normal(3)
        vi, vk = vj + rng.standard_normal(3), vj + rng.standard_normal(3)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        a = signed_planar_angle(vi, vj, vk, n)
        b = signed_planar_angle(vk, vj, vi, n)
        wrapped = (a + b + math.pi) % (2 * math.pi) - math.pi
        assert abs(wrapped) < 1e-9

    def test_mirror_negates(self):
        vi, vj, vk = np.array([1.0, 0.2, 0]), np.zeros(3), np.array([0.3, 1.0, 0.1])
        n = np.array([0.0, 0.1, 1.0])
        n /= np.linalg.norm(n)
        mirror = np.diag([1.0, 1.0, -1.0])
        a = signed_planar_angle(vi, vj, vk, n)
        b = signed_planar_angle(mirror @ vi, vj, mirror @ vk, mirror @ n)
        assert abs(a + b) < 1e-12


class TestDihedralAngle:
    def test_inner_parallel_normals(self):
        n = np.array([0.0, 0, 1])
        phi = signed_dihedral_angle(
            np.array([1.0, 0, 0]), np.zeros(3), np.array([0.0, 1, 0]), n, n
        )
        assert phi == 0.0

    def test_cube_hinge_is_plus_half_pi(self):
        # Backtracking path across the bottom/side edge of the unit cube,
        # evaluated directly from hand-built geometry.
        vi, vj = np.array([1.0, 1, 0]), np.array([1.0, 0, 0])
        n_bottom, n_side = np.array([0.0, 0, -1]), np.array([1.0, 0, 0])
        phi = signed_dihedral_angle(vi, vj, vi, n_bottom, n_side)
        assert abs(phi - math.pi / 2) < 1e-12

    def test_tetrahedron_hinge(self, tetrahedron):
        rs = compute_rigid_set(build_surface_graph(tetrahedron))
        back = rs.keys[:, 0] == rs.keys[:, 2]
        expected = math.acos(-1.0 / 3.0)
        assert np.allclose(rs.phi[back], expected, atol=1e-12)

    def test_antiparallel_maps_to_pi(self):
        n = np.array([0.0, 0, 1])
        phi = signed_dihedral_angle(
            np.array([1.0, 0, 0]), np.zeros(3), np.array([0.0, 1, 0]), n, -n
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
        a = signed_dihedral_angle(vi, vj, vi, n1, n2)
        b = signed_dihedral_angle(
            mirror @ vi, vj, mirror @ vi, mirror @ n1, mirror @ n2
        )
        assert abs(a + b) < 1e-12


class TestScalarAnglesAreTheKernel:
    @pytest.mark.parametrize("solid", ["cube", "tetrahedron", "l_shaped_solid"])
    def test_bitwise_equal_to_path_geometry(self, solid, request):
        g = build_surface_graph(request.getfixturevalue(solid))
        paths = enumerate_paths(g)
        _, _, theta, phi, face1, face2 = _path_geometry(g, paths)
        normals = g.face_normals()
        for r in range(len(paths)):
            vi, vj, vk = g.coords[paths.i[r]], g.coords[paths.j[r]], g.coords[paths.k[r]]
            n1, n2 = normals[face1[r]], normals[face2[r]]
            assert signed_planar_angle(vi, vj, vk, n1) == theta[r]
            assert signed_dihedral_angle(vi, vj, vk, n1, n2) == phi[r]

    def test_zero_length_ray_rejected(self):
        n = np.array([0.0, 0, 1])
        vi, vj = np.array([1.0, 0, 0]), np.zeros(3)
        with pytest.raises(GeometryError):
            signed_planar_angle(vj, vj, vi, n)
        with pytest.raises(GeometryError):
            signed_planar_angle(vi, vj, vj, n)
        with pytest.raises(GeometryError):
            signed_dihedral_angle(vj, vj, vi, n, np.array([1.0, 0, 0]))


class TestRigidSet:
    def test_cube_unit_distances(self, cube):
        rs = compute_rigid_set(build_surface_graph(cube))
        assert np.allclose(rs.d1, 1.0) and np.allclose(rs.d2, 1.0)

    def test_cube_inner_corners(self, cube):
        rs = compute_rigid_set(build_surface_graph(cube))
        assert np.allclose(rs.theta[rs.inner_mask], -math.pi / 2)

    def test_backtracking_tuples(self):
        for solid in solid_corpus(8, seed=5):
            rs = compute_rigid_set(build_surface_graph(solid))
            back = rs.keys[:, 0] == rs.keys[:, 2]
            assert np.all(rs.theta[back] == 0.0)
            assert np.allclose(rs.d1[back], rs.d2[back])
            assert np.all(rs.face1[back] != rs.face2[back])

    def test_path_type_matches_faces(self, cube):
        rs = compute_rigid_set(build_surface_graph(cube))
        assert np.all(rs.phi[rs.inner_mask] == 0.0)

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
        values[field][np.flatnonzero(rs.inner_mask)[0]] = bad
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
        for r, (key, tup) in enumerate(shuffled.items()):
            assert shuffled.row(*key) == r
            assert shuffled.get(*key) == tup
            assert tup == RigidTuple(
                rs.d1[r], rs.d2[r], rs.theta[r], rs.phi[r], (rs.face1[r], rs.face2[r])
            )

    @pytest.mark.parametrize(
        "key", [(0, 0, 0), (0, 1, 1), (0, 2, 0), (-1, 0, 1), (7, 6, 8), (8, 0, 1), (2**40, 0, 0)]
    )
    def test_missing_key_is_incomplete(self, cube, key):
        rs = compute_rigid_set(build_surface_graph(cube))
        with pytest.raises(IncompleteRigidSetError):
            rs.row(*key)
        with pytest.raises(IncompleteRigidSetError):
            rs.get(*key)


class TestFaceReconstruction:
    def test_cube_face_square(self, cube):
        g = build_surface_graph(cube)
        rs = compute_rigid_set(g)
        loop = g.face_loop(0)
        flat = reconstruct_face(rs, (loop[0], loop[1]), 0)
        assert set(flat) == set(loop)
        pts = np.array([flat[v] for v in loop])
        sides = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        assert np.allclose(sides, 1.0, atol=1e-12)
        diag = np.linalg.norm(pts[2] - pts[0])
        assert abs(diag - math.sqrt(2)) < 1e-12

    def test_perturbed_angle_fails_closure(self, cube):
        g = build_surface_graph(cube)
        rs = compute_rigid_set(g)
        theta = np.array(rs.theta)
        inner_rows = np.nonzero(rs.inner_mask)[0]
        theta[inner_rows[0]] += 0.1
        broken = RigidSet(rs.keys, rs.d1, rs.d2, theta, rs.phi, rs.face1, rs.face2)
        face = int(rs.face1[inner_rows[0]])
        i, j = int(rs.keys[inner_rows[0], 0]), int(rs.keys[inner_rows[0], 1])
        with pytest.raises(InconsistentRigidSetError):
            reconstruct_face(broken, (i, j), face)

    def test_zero_length_fails_closure(self, cube):
        # A zero first edge turns every placed vertex into NaN, which no
        # closure tolerance may accept.
        rs = compute_rigid_set(build_surface_graph(cube))
        row = np.flatnonzero(rs.inner_mask)[0]
        d1 = np.array(rs.d1)
        d1[rs.inner_mask & (rs.face1 == rs.face1[row])] = 0.0
        broken = RigidSet(rs.keys, d1, rs.d2, rs.theta, rs.phi, rs.face1, rs.face2)
        i, j = int(rs.keys[row, 0]), int(rs.keys[row, 1])
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(InconsistentRigidSetError):
                reconstruct_face(broken, (i, j), int(rs.face1[row]))

    def test_missing_tuple_detected(self, cube):
        g = build_surface_graph(cube)
        rs = compute_rigid_set(g)
        keep = ~(rs.inner_mask & (rs.face1 == 0))
        pruned = RigidSet(
            rs.keys[keep], rs.d1[keep], rs.d2[keep], rs.theta[keep],
            rs.phi[keep], rs.face1[keep], rs.face2[keep],
        )
        loop = g.face_loop(0)
        with pytest.raises(IncompleteRigidSetError):
            reconstruct_face(pruned, (loop[0], loop[1]), 0)

    def test_triangle_round_trip(self, tetrahedron):
        g = build_surface_graph(tetrahedron)
        rs = compute_rigid_set(g)
        loop = g.face_loop(2)
        flat = reconstruct_face(rs, (loop[0], loop[1]), 2)
        original = g.coords[list(loop)]
        rebuilt = np.array([flat[v] for v in loop])
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
            assert rmsd < 1e-6 * solid.diameter()

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
        row = rs.row(a, b, a)
        phi = np.array(rs.phi)
        phi[row] += 0.5
        broken = RigidSet(rs.keys, rs.d1, rs.d2, rs.theta, phi, rs.face1, rs.face2)
        with pytest.raises(InconsistentRigidSetError):
            reconstruct_polyhedron(broken, topo)


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
