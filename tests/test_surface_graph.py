import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyrep import (
    ColorScheme,
    GeometryError,
    GnnConfig,
    InvalidPolyhedronError,
    PolygonFace,
    Polyhedron,
    build_surface_graph,
    extrude_polygon,
    precompute_graph_features,
)
from polyrep.datasets import make_box, make_tetrahedron, random_simple_polygon, synthetic_dataset

from conftest import overflowing_solid, solid_corpus


def cyclic_equal(a, b):
    if len(a) != len(b):
        return False
    doubled = tuple(b) + tuple(b)
    return any(doubled[s : s + len(a)] == tuple(a) for s in range(len(b)))


def neighbors(g, v):
    """Sorted heads of the directed edges leaving v."""
    return sorted(g.edge_head[g.edge_tail == v].tolist())


CUBE = make_box()
CUBE_LOOPS = [f.loop for f in CUBE.faces]  # face 0 is (4, 5, 6, 7), face 1 (3, 2, 1, 0)


def cube_with(loops):
    """The cube's vertices under other face loops."""
    return Polyhedron(CUBE.vertices, tuple(PolygonFace(loop, np.zeros(0)) for loop in loops))


def refusal_codes(p):
    """The issue codes with which the graph of ``p`` is refused."""
    with pytest.raises(InvalidPolyhedronError) as exc:
        build_surface_graph(p)
    return exc.value.report.codes()


class TestBuild:
    def test_cube_counts(self, cube):
        g = build_surface_graph(cube)
        assert (g.n_nodes, len(g.edge_tail), g.n_faces) == (8, 24, 6)

    def test_tetrahedron_counts(self, tetrahedron):
        g = build_surface_graph(tetrahedron)
        assert (g.n_nodes, len(g.edge_tail), g.n_faces) == (4, 12, 4)

    def test_prism_counts(self, triangular_prism):
        g = build_surface_graph(triangular_prism)
        assert (g.n_nodes, len(g.edge_tail), g.n_faces) == (6, 18, 5)

    def test_invalid_polyhedron_refused_with_report(self, cube):
        faces = list(cube.faces)
        faces[0] = PolygonFace(tuple(reversed(faces[0].loop)), faces[0].attr)
        bad = Polyhedron(cube.vertices, tuple(faces))
        with pytest.raises(InvalidPolyhedronError) as exc:
            build_surface_graph(bad)
        assert any(i.code == "unpaired_directed_edge" for i in exc.value.report.issues)

    def test_attrs_carried(self, cube):
        attrs = np.arange(18, dtype=float).reshape(6, 3)
        faces = tuple(
            PolygonFace(f.loop, attrs[i]) for i, f in enumerate(cube.faces)
        )
        g = build_surface_graph(Polyhedron(cube.vertices, faces))
        assert np.array_equal(g.attrs, attrs)


class TestRoundTrip:
    def test_cube_exact(self, cube):
        g = build_surface_graph(cube)
        back = g.to_polyhedron()
        assert np.array_equal(back.vertices, cube.vertices)
        assert all(
            f1.loop == f2.loop and np.array_equal(f1.attr, f2.attr)
            for f1, f2 in zip(cube.faces, back.faces)
        )

    @given(st.integers(0, 10**6))
    def test_corpus_round_trip_cyclic(self, seed):
        for solid in solid_corpus(3, seed=seed):
            back = build_surface_graph(solid).to_polyhedron()
            assert np.array_equal(back.vertices, solid.vertices)
            for f1, f2 in zip(solid.faces, back.faces):
                assert cyclic_equal(f1.loop, f2.loop)

    def test_rebuild_reproduces_graph(self, tetrahedron):
        g = build_surface_graph(tetrahedron)
        g2 = build_surface_graph(g.to_polyhedron())
        assert np.array_equal(g.edge_tail, g2.edge_tail)
        assert np.array_equal(g.edge_head, g2.edge_head)
        assert np.array_equal(g.edge_face, g2.edge_face)


class TestInvariants:
    def test_broken_chain_fails_fast(self):
        # Drop one vertex from a face loop: its closing edge has no opposite.
        loops = list(CUBE_LOOPS)
        loops[0] = loops[0][:-1]
        assert "unpaired_directed_edge" in refusal_codes(cube_with(loops))

    def test_missing_opposite_fails_fast(self):
        loops = list(CUBE_LOOPS)
        loops[3] = loops[3][1:]
        assert "unpaired_directed_edge" in refusal_codes(cube_with(loops))

    def test_opposite_is_involution_across_faces(self):
        for solid in solid_corpus(6, seed=3):
            g = build_surface_graph(solid)
            for e in range(len(g.edge_tail)):
                o = g.opposite[e]
                assert g.opposite[o] == e
                assert g.edge_face[o] != g.edge_face[e]
                assert g.edge_tail[o] == g.edge_head[e]
                assert g.edge_head[o] == g.edge_tail[e]

    def test_edge_count_even_and_degree_balance(self):
        for solid in solid_corpus(6, seed=4):
            g = build_surface_graph(solid)
            assert len(g.edge_tail) % 2 == 0
            out_deg = np.bincount(g.edge_tail, minlength=g.n_nodes)
            in_deg = np.bincount(g.edge_head, minlength=g.n_nodes)
            assert np.array_equal(out_deg, in_deg)
            for v in range(g.n_nodes):
                incident_faces = {
                    int(g.edge_face[e])
                    for e in range(len(g.edge_tail))
                    if g.edge_tail[e] == v
                }
                assert out_deg[v] == len(incident_faces)



def _first_loop(loop):
    return [loop, *CUBE_LOOPS[1:]]


# Each row corrupts the cube's face loops in a way a surface graph could not
# hold and names the validation issue that refuses the solid before a graph
# exists; an endpoint out of range already fails ``Polyhedron`` construction.
# One attribute row per face holds by construction.
CORRUPTIONS = [
    ("endpoint_range", _first_loop((8, 5, 6, 7)), None),
    ("self_loop", _first_loop((5, 5, 6, 7)), "repeated_vertex"),
    ("no_faces", [], "no_faces"),
    ("duplicate", _first_loop(CUBE_LOOPS[1]), "duplicate_directed_edge"),
    # 4-6 and 6-1 are face diagonals, so no other face has these edges.
    ("same_face_opposite", _first_loop((4, 6, 1, 6)), "repeated_vertex"),
    ("short_chain", _first_loop((4, 5)), "short_loop"),
]


@pytest.mark.parametrize(
    "loops, code", [row[1:] for row in CORRUPTIONS], ids=[row[0] for row in CORRUPTIONS]
)
def test_each_corruption_is_refused_by_validation(loops, code):
    build_surface_graph(cube_with(CUBE_LOOPS))  # the uncorrupted loops pass
    if code is None:
        with pytest.raises(GeometryError, match="vertex 8 out of range"):
            cube_with(loops)
    else:
        assert code in refusal_codes(cube_with(loops))

class TestQueries:
    def test_face_normals_match_per_face_newell(self):
        # The loop form the vectorized kernel replaced: centroid-centered
        # cross products summed around one loop at a time.
        for solid in solid_corpus(10, seed=8):
            g = build_surface_graph(solid)
            for fi, normal in enumerate(g.face_normals()):
                pts = g.coords[list(g.face_loop(fi))]
                q = pts - pts.mean(axis=0)
                n = np.cross(q, np.roll(q, -1, axis=0)).sum(axis=0)
                assert np.allclose(normal, n / np.linalg.norm(n), rtol=0, atol=1e-15)

    def test_overflowing_normal_raises(self, cube):
        # Its overflowing Newell vectors would give this cube zero normals,
        # and so phi 1.0 where the cube has |phi| <= 0.5; validation refuses
        # it before a graph exists.
        cfg = GnnConfig(layers=1, hidden_dim=4)
        phi = precompute_graph_features(build_surface_graph(cube), cfg).feats[:, 3]
        assert np.abs(phi).max() == 0.5
        with np.errstate(over="ignore"):
            codes = refusal_codes(overflowing_solid(newell_only=True))
        assert codes == ["non_finite_face"] * 6

    def test_cube_neighbors(self, cube):
        g = build_surface_graph(cube)
        for v in range(8):
            assert len(neighbors(g, v)) == 3

    def test_tetrahedron_neighbors_complete(self, tetrahedron):
        g = build_surface_graph(tetrahedron)
        for v in range(4):
            assert neighbors(g, v) == sorted(set(range(4)) - {v})

    def test_prism_neighbors(self, triangular_prism):
        g = build_surface_graph(triangular_prism)
        assert all(len(neighbors(g, v)) == 3 for v in range(6))

    def test_opposite_lookup_on_cube(self, cube):
        g = build_surface_graph(cube)
        # Pick the cap edge 4->5 (front face at z=top); its opposite must be
        # the side face's 5->4.
        e = next(
            e for e in range(len(g.edge_tail))
            if g.edge_tail[e] == 4 and g.edge_head[e] == 5
        )
        o = g.opposite[e]
        assert (g.edge_tail[o], g.edge_head[o]) == (5, 4)
        assert g.edge_face[o] != g.edge_face[e]

    def test_topology_strips_coordinates(self, cube):
        g = build_surface_graph(cube)
        topo = g.topology()
        assert topo.n_nodes == 8
        assert len(topo.loops) == 6
        assert topo.loops[0] == g.face_loop(0)


class TestPinnedFeaturization:
    """sha256 over every ``GraphFeatures`` array, the topology loops and the
    neighbors of every node, recorded before the graph stored its faces as
    slot ranges of the face-loop layout: the representation may change, what
    it yields may not."""

    PINNED = {
        "cube": "c76ad4edc56ac7311dea3fe7919cbd323297c14be23e1516f41edd5e65193adc",
        "tetrahedron": "27d3bc31bbe92c7f72c6f2b187a8e5b67f109c2acff373195d1471bd9141d920",
        "extrusion96-reversed": "08f4f303198321920bfbdb681e96d7315df6641dce2713299b932f31b01f850b",
        "synthetic12": "df02a3bc02436ce1b918c6e0aa90f9ef37f5a14793482f1f010e17bf17535209",
    }

    @staticmethod
    def _case(name):
        if name.startswith("extrusion96"):
            poly = random_simple_polygon(np.random.default_rng(96), 96, 96)
            solid = extrude_polygon(poly, 1.0, ColorScheme.rgb_default())
            return [solid], GnnConfig(attr_dim=3)
        solids = {
            "cube": lambda: [make_box()],
            "tetrahedron": lambda: [make_tetrahedron()],
            "synthetic12": lambda: [r.polyhedron for r in synthetic_dataset(12, seed=0)],
        }[name]()
        return solids, GnnConfig()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_digest(self, name):
        solids, cfg = self._case(name)
        h = hashlib.sha256()
        for solid in solids:
            g = build_surface_graph(solid)
            f = precompute_graph_features(g, cfg)
            for a in (f.path_i, f.path_j, f.path_k, f.feats, f.inner):
                h.update(f"{a.dtype}{a.shape}".encode())
                h.update(np.ascontiguousarray(a).tobytes())
            heads = [neighbors(g, v) for v in range(g.n_nodes)]
            h.update(repr((f.n_nodes, g.topology().loops, heads)).encode())
        assert h.hexdigest() == self.PINNED[name]
