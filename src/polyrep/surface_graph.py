"""Directed surface graph of a polyhedron, with face loops carrying attributes.

A graph is built only from solids that pass :func:`validate_polyhedron`,
so it holds no check of its own.  Several solids make one graph, their
disjoint union, so that a corpus is featurized in one pass.  Nodes are the
polyhedron's vertices.  Every consecutive vertex pair of every face
contributes one directed edge owned by that face, so each undirected edge
of the solid appears as two opposite directed edges in two different faces.
The graph holds the solid's flat face-loop layout (:class:`polyrep.geometry.FaceLoops`) as it
is: edge ``e`` is slot ``e``, running from ``verts[e]`` to ``heads[e]``, and
a face is its slot range plus an attribute vector.  Each edge's opposite and
the out-edge order are the layout's
:attr:`~polyrep.geometry.FaceLoops.edge_index`, which validation reads too,
so a solid's edges are sorted once.  The conversion is lossless:
:meth:`SurfaceGraph.to_polyhedron` is an exact inverse of ``SurfaceGraph(p)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedSurfaceError,
    GeometryError,
    GraphError,
    InvalidPolyhedronError,
)
from .geometry import (
    FaceLoops,
    PolygonFace,
    Polyhedron,
    _newell,
    _ro,
    _rowdot,
    disjoint_union,
    validate_corpus,
    validate_polyhedron,
)


@dataclass(frozen=True)
class SurfaceTopology:
    """Connectivity of a surface graph with coordinates withheld."""

    n_nodes: int
    loops: tuple
    attrs: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "loops", tuple(tuple(int(v) for v in loop) for loop in self.loops)
        )
        attrs = np.atleast_2d(np.array(self.attrs, dtype=np.float64))
        if attrs.size == 0:
            attrs = attrs.reshape(len(self.loops), 0)
        attrs.setflags(write=False)
        object.__setattr__(self, "attrs", attrs)
        if attrs.shape[0] != len(self.loops):
            raise GraphError("one attribute row per face loop required")

    def sweep(self):
        """Faces in gluing order, each loop turned to start at its glued edge.

        This is the order in which :func:`reconstruct_polyhedron` folds the
        faces together.  Face 0 comes first, from its own first edge.  The
        breadth-first sweep takes faces off a FIFO queue and scans their edges
        in loop order; a face not reached yet is glued across the first such
        edge (a, b), so its loop starts at the opposite edge (b, a).  Returns
        the turned loops in sweep order, their face ids, the sweep index of
        each one's parent, and the sweep index at which each breadth-first
        level starts, then the end.  Faults of the topology itself (no faces,
        short loops, more nodes than loop slots, repeated or unpaired directed
        edges, faces or nodes the sweep never reaches) raise
        :class:`DisconnectedSurfaceError`, and a node id outside
        ``[0, n_nodes)`` raises :class:`GeometryError`.
        """
        if not self.loops:
            raise DisconnectedSurfaceError("topology has no faces")
        topo = FaceLoops.from_loops(self.loops)
        verts, heads, n = topo.verts, topo.heads, self.n_nodes
        if np.any(topo.lengths < 3):
            f = int(np.argmax(topo.lengths < 3))
            raise DisconnectedSurfaceError(f"face {f} has {topo.lengths[f]} vertices")
        if n > len(verts):  # before any array of n entries is made
            raise DisconnectedSurfaceError(f"{n} nodes cannot all lie on {len(verts)} slots")
        if np.any((verts < 0) | (verts >= n)):
            s = int(np.argmax((verts < 0) | (verts >= n)))
            raise GeometryError(f"face {topo.face[s]} references vertex {verts[s]} of {n}")
        by_key, keys, opposite = topo.edge_index
        if np.any(keys[1:] == keys[:-1]):
            s = int(by_key[1:][keys[1:] == keys[:-1]].min())
            raise DisconnectedSurfaceError(
                f"duplicate directed edge ({verts[s]}, {heads[s]}) in topology"
            )

        via = np.full(len(topo.lengths), -1)  # the slot each face is glued across
        levels = [np.zeros(1, dtype=np.int64)]  # faces of each level, in sweep order
        while len(levels[-1]):
            slots = topo.slots(levels[-1])
            if np.any(opposite[slots] < 0):
                s = slots[np.argmax(opposite[slots] < 0)]
                raise DisconnectedSurfaceError(
                    f"edge ({verts[s]},{heads[s]}) has no opposite face"
                )
            reached = topo.face[opposite[slots]]
            fresh = np.flatnonzero((via[reached] < 0) & (reached != 0))
            glue = fresh[np.sort(np.unique(reached[fresh], return_index=True)[1])]
            via[reached[glue]] = slots[glue]
            levels.append(reached[glue])
        order = np.concatenate(levels)
        if len(order) != len(topo.lengths):
            raise DisconnectedSurfaceError(f"placed {len(order)} of {len(topo.lengths)} faces")
        missing = np.flatnonzero(np.bincount(verts, minlength=n) == 0)
        if len(missing):
            raise DisconnectedSurfaceError(f"nodes never placed: {missing[:5].tolist()}")

        lens, base = topo.lengths[order], topo.starts[order]
        turn = np.append(0, opposite[via[order[1:]]] - base[1:])  # face 0 keeps its start
        loop = np.repeat(np.arange(len(order)), lens)
        step = np.arange(len(verts)) - (np.cumsum(lens) - lens)[loop]
        slots = base[loop] + (turn[loop] + step) % lens[loop]
        turned = FaceLoops.from_lengths(verts[slots], lens)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        parent = rank[topo.face[via[order]]]  # meaningless for face 0, which has none
        return turned, order, parent, np.cumsum([0, *map(len, levels[:-1])])


class SurfaceGraph:
    """Directed graph with face hyperedges of validated solids, held as their
    face-loop layout.

    ``SurfaceGraph(p)`` is the graph of one solid, and ``SurfaceGraph(p, q,
    ...)`` the disjoint union of theirs: solid ``s`` owns the nodes
    ``node_starts[s] : node_starts[s + 1]`` and the edges ``edge_starts[s] :
    edge_starts[s + 1]``, and its graph alone has the same arrays less those
    offsets.  The solids without a cached report are validated together
    (:func:`validate_corpus`), and the first whose
    :func:`validate_polyhedron` report is not ok is refused with
    :class:`InvalidPolyhedronError`; solids of different attribute widths
    are a :class:`GraphError`.  The graph checks nothing of its own:
    validation has already found every face to be a loop of three or more
    distinct vertices with a finite, non-degenerate normal, and every
    directed edge to be unique with its opposite in another face.  Edge
    ``e`` is slot ``e`` of ``face_loops``: it runs from ``edge_tail[e]`` to
    ``edge_head[e]``, belongs to face ``edge_face[e]`` and is paired with
    ``opposite[e]``.  Every array is read-only.
    """

    def __init__(self, *polys: Polyhedron):
        validate_corpus(polys)
        for p in polys:
            report = validate_polyhedron(p)
            if not report.ok:
                raise InvalidPolyhedronError(report)
        widths = sorted({p.attr_dim for p in polys})
        if len(widths) != 1:
            raise GraphError(f"a graph needs solids of one attribute width, got {widths}")
        self.coords, loops, self.node_starts, face_starts = disjoint_union(polys)
        order, _, self.opposite = loops.edge_index
        self.face_loops = loops
        self.edge_starts = _ro(np.searchsorted(loops.face, face_starts))
        self.attrs = _ro(np.stack([f.attr for p in polys for f in p.faces]))
        self.edge_tail, self.edge_head, self.edge_face = loops.verts, loops.heads, loops.face
        # CSR-style out-edge index ordered by (tail, head): path enumeration
        # reads straight off it in deterministic order.
        self._out_order = order
        nodes = np.arange(len(self.coords) + 1)
        self._out_starts = _ro(np.searchsorted(loops.verts[order], nodes))

    @property
    def n_solids(self):
        return len(self.node_starts) - 1

    @property
    def n_nodes(self):
        return self.coords.shape[0]

    @property
    def n_faces(self):
        return len(self.face_loops.lengths)

    @property
    def attr_dim(self):
        return self.attrs.shape[1]

    def face_loop(self, fi: int) -> tuple:
        """Vertex loop of a face: the vertices of its slot range."""
        loops = self.face_loops
        start = loops.starts[fi]
        return tuple(loops.verts[start : start + loops.lengths[fi]].tolist())

    def face_normals(self) -> np.ndarray:
        """Outward unit normals per face (Newell over each loop)."""
        loops = self.face_loops
        newell = _newell(self.coords[loops.verts], loops)[0]
        return newell / np.sqrt(_rowdot(newell, newell))[:, None]

    def mean_edge_lengths(self) -> np.ndarray:
        """Each solid's mean edge length, an ``np.mean`` over its own edges
        (a segment sum would add them in another order)."""
        d = self.coords[self.edge_head] - self.coords[self.edge_tail]
        lengths = np.linalg.norm(d, axis=1)
        ends = self.edge_starts.tolist()
        return np.array([lengths[a:b].mean() for a, b in zip(ends[:-1], ends[1:])])

    def topology(self) -> SurfaceTopology:
        """Connectivity with coordinates stripped (loops + attributes)."""
        return SurfaceTopology(
            self.n_nodes, tuple(self.face_loop(fi) for fi in range(self.n_faces)), self.attrs
        )

    def to_polyhedron(self) -> Polyhedron:
        """Exact inverse of the constructor (coordinates bitwise)."""
        faces = tuple(
            PolygonFace(self.face_loop(fi), self.attrs[fi]) for fi in range(self.n_faces)
        )
        return Polyhedron(self.coords, faces)


def build_surface_graph(*polys: Polyhedron) -> SurfaceGraph:
    return SurfaceGraph(*polys)
