import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyrep import (
    GraphError,
    InvalidPolyhedronError,
    PolygonFace,
    Polyhedron,
    build_surface_graph,
)
from polyrep.datasets import make_box
from polyrep.surface_graph import SurfaceGraph

from conftest import solid_corpus


def cyclic_equal(a, b):
    if len(a) != len(b):
        return False
    doubled = tuple(b) + tuple(b)
    return any(doubled[s : s + len(a)] == tuple(a) for s in range(len(b)))


class TestBuild:
    def test_cube_counts(self, cube):
        g = build_surface_graph(cube)
        assert (g.n_nodes, g.n_edges, g.n_faces) == (8, 24, 6)

    def test_tetrahedron_counts(self, tetrahedron):
        g = build_surface_graph(tetrahedron)
        assert (g.n_nodes, g.n_edges, g.n_faces) == (4, 12, 4)

    def test_prism_counts(self, triangular_prism):
        g = build_surface_graph(triangular_prism)
        assert (g.n_nodes, g.n_edges, g.n_faces) == (6, 18, 5)

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
    def test_broken_chain_fails_fast(self, cube):
        g = build_surface_graph(cube)
        # Drop one edge from a face chain: the loop no longer closes.
        face_edges = list(g.face_edges)
        face_edges[0] = face_edges[0][:-1]
        with pytest.raises(GraphError):
            SurfaceGraph(
                g.coords, g.edge_tail, g.edge_head, g.edge_face,
                tuple(face_edges), g.attrs,
            )

    def test_missing_opposite_fails_fast(self, cube):
        g = build_surface_graph(cube)
        keep = np.arange(g.n_edges - 1)
        face_edges = [fe[np.isin(fe, keep)] for fe in g.face_edges]
        with pytest.raises(GraphError):
            SurfaceGraph(
                g.coords, g.edge_tail[keep], g.edge_head[keep], g.edge_face[keep],
                tuple(face_edges), g.attrs,
            )

    def test_opposite_is_involution_across_faces(self):
        for solid in solid_corpus(6, seed=3):
            g = build_surface_graph(solid)
            for e in range(g.n_edges):
                o = g.opposite_edge(e)
                assert g.opposite_edge(o) == e
                assert g.edge_face[o] != g.edge_face[e]
                assert g.edge_tail[o] == g.edge_head[e]
                assert g.edge_head[o] == g.edge_tail[e]

    def test_edge_count_even_and_degree_balance(self):
        for solid in solid_corpus(6, seed=4):
            g = build_surface_graph(solid)
            assert g.n_edges % 2 == 0
            out_deg = np.bincount(g.edge_tail, minlength=g.n_nodes)
            in_deg = np.bincount(g.edge_head, minlength=g.n_nodes)
            assert np.array_equal(out_deg, in_deg)
            for v in range(g.n_nodes):
                incident_faces = {
                    int(g.edge_face[e])
                    for e in range(g.n_edges)
                    if g.edge_tail[e] == v
                }
                assert out_deg[v] == len(incident_faces)



def _cube_parts():
    g = build_surface_graph(make_box())
    return dict(
        coords=g.coords,
        edge_tail=g.edge_tail,
        edge_head=g.edge_head,
        edge_face=g.edge_face,
        face_edges=list(g.face_edges),
        attrs=g.attrs,
    )


def _replaced(arr, index, value):
    out = np.array(arr)
    out[index] = value
    return out


def _first_chain(parts, chain):
    return {"face_edges": [chain] + parts["face_edges"][1:]}


def _duplicate(parts):
    return {
        "edge_tail": _replaced(parts["edge_tail"], 1, parts["edge_tail"][0]),
        "edge_head": _replaced(parts["edge_head"], 1, parts["edge_head"][0]),
    }


def _same_face_opposite(parts):
    opposite = build_surface_graph(make_box()).opposite[0]
    return {"edge_face": _replaced(parts["edge_face"], opposite, parts["edge_face"][0])}


def _uncovered(parts):
    # One more opposite pair across faces 0 and 1, listed in no chain.
    return {
        "edge_tail": np.append(parts["edge_tail"], [4, 6]),
        "edge_head": np.append(parts["edge_head"], [6, 4]),
        "edge_face": np.append(parts["edge_face"], [0, 1]),
    }


# Each row replaces some of the cube graph's parts and names the message of
# the invariant that must reject the result.
GRAPH_CORRUPTIONS = [
    ("edge_lengths", lambda p: {"edge_face": p["edge_face"][:-1]}, "equal length"),
    ("endpoint_range", lambda p: {"edge_head": _replaced(p["edge_head"], 0, 8)}, "node ids"),
    (
        "self_loop",
        lambda p: {"edge_head": _replaced(p["edge_head"], 0, p["edge_tail"][0])},
        "distinct",
    ),
    ("attr_rows", lambda p: {"attrs": np.zeros((5, 3))}, "attribute row"),
    ("duplicate", _duplicate, "duplicate directed edge"),
    ("same_face_opposite", _same_face_opposite, "share face"),
    ("short_chain", lambda p: _first_chain(p, p["face_edges"][0][:2]), "shorter"),
    ("chain_range", lambda p: _first_chain(p, p["face_edges"][0] + 100), "edge ids"),
    ("foreign_edge", lambda p: _first_chain(p, p["face_edges"][1]), "owned by"),
    (
        "edge_in_two_chains",
        lambda p: _first_chain(p, np.append(p["face_edges"][0], p["face_edges"][0][0])),
        "two face chains",
    ),
    ("chain_break", lambda p: _first_chain(p, p["face_edges"][0][::-1]), "breaks"),
    ("uncovered_edge", _uncovered, "no face chain"),
]


@pytest.mark.parametrize(
    "corrupt, message",
    [row[1:] for row in GRAPH_CORRUPTIONS],
    ids=[row[0] for row in GRAPH_CORRUPTIONS],
)
def test_each_invariant_raises_graph_error(corrupt, message):
    parts = _cube_parts()
    SurfaceGraph(**parts)  # the uncorrupted parts pass
    parts.update(corrupt(parts))
    with pytest.raises(GraphError, match=message):
        SurfaceGraph(**parts)

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

    def test_cube_neighbors(self, cube):
        g = build_surface_graph(cube)
        for v in range(8):
            assert len(g.neighbors(v)) == 3

    def test_tetrahedron_neighbors_complete(self, tetrahedron):
        g = build_surface_graph(tetrahedron)
        for v in range(4):
            assert g.neighbors(v) == sorted(set(range(4)) - {v})

    def test_prism_neighbors(self, triangular_prism):
        g = build_surface_graph(triangular_prism)
        assert all(len(g.neighbors(v)) == 3 for v in range(6))

    def test_opposite_lookup_on_cube(self, cube):
        g = build_surface_graph(cube)
        # Pick the cap edge 4->5 (front face at z=top); its opposite must be
        # the side face's 5->4.
        e = next(
            e for e in range(g.n_edges)
            if g.edge_tail[e] == 4 and g.edge_head[e] == 5
        )
        o = g.opposite_edge(e)
        assert (g.edge_tail[o], g.edge_head[o]) == (5, 4)
        assert g.edge_face[o] != g.edge_face[e]

    def test_topology_strips_coordinates(self, cube):
        g = build_surface_graph(cube)
        topo = g.topology()
        assert topo.n_nodes == 8
        assert len(topo.loops) == 6
        assert topo.loops[0] == g.face_loop(0)
