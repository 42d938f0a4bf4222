"""Directed surface graph of a polyhedron, with face loops carrying attributes.

Nodes are the polyhedron's vertices.  Every consecutive vertex pair of every
face contributes one directed edge owned by that face, so each undirected
edge of the solid appears as two opposite directed edges in two different
faces.  The graph holds the solid's flat face-loop layout
(:class:`polyrep.geometry.FaceLoops`) as it is: edge ``e`` is slot ``e``,
running from ``verts[e]`` to ``heads[e]``, and a face is its slot range
plus an attribute vector.  Each edge's opposite and the out-edge order are
the layout's :attr:`~polyrep.geometry.FaceLoops.edge_index`, which validation
reads too, so a solid's edges are sorted once.  The conversion is lossless:
:meth:`SurfaceGraph.to_polyhedron` is an exact inverse of
:meth:`SurfaceGraph.from_polyhedron`.
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
    DEGENERATE_NORMAL_TOL,
    FaceLoops,
    PolygonFace,
    Polyhedron,
    _newell,
    _ro,
    _rowdot,
    bbox_diagonal,
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


@dataclass(frozen=True)
class SurfaceGraph:
    """Immutable directed graph with face hyperedges, held as a face-loop layout.

    Edge ``e`` is slot ``e`` of ``face_loops``: it runs from ``verts[e]`` to
    ``verts[nxt[e]]`` and belongs to face ``face[e]``, and face ``f`` is the
    slot range ``starts[f] : starts[f] + lengths[f]``.  Each face's edges
    therefore link head-to-tail into one closed loop, and the faces
    partition the edges, by construction.  Invariants checked at
    construction: at least one face, one attribute row per face, loops of
    length >= 3, node ids in range, distinct endpoints, no duplicate
    directed edge, and every edge has an opposite owned by a different face.
    Construction fails fast on violations, so queries never have to
    re-check.
    """

    coords: np.ndarray
    face_loops: FaceLoops
    attrs: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.float64)
        coords.setflags(write=False)
        loops = self.face_loops
        n_faces = len(loops.lengths)
        if n_faces == 0:
            raise GraphError("surface graph has no faces")
        attrs = np.atleast_2d(np.array(self.attrs, dtype=np.float64))
        if attrs.size == 0:
            attrs = attrs.reshape(n_faces, -1)
        attrs.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "attrs", attrs)
        tail, head = loops.verts, loops.heads
        object.__setattr__(self, "edge_tail", tail)
        object.__setattr__(self, "edge_head", head)
        object.__setattr__(self, "edge_face", loops.face)

        n_nodes = len(coords)
        if attrs.shape[0] != n_faces:
            raise GraphError("one attribute row per face required")
        short = np.flatnonzero(loops.lengths < 3)
        if len(short):
            raise GraphError(f"face {short[0]} chain shorter than 3 edges")
        if np.any((tail < 0) | (tail >= n_nodes)):
            raise GraphError(f"edge endpoints must be node ids below {n_nodes}")
        if np.any(tail == head):
            raise GraphError("directed edges must join distinct nodes")

        # The edge index puts a duplicate next to its twin.
        order, sorted_keys, opposite = loops.edge_index
        twin = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
        if len(twin):
            e = order[twin[0]]
            raise GraphError(f"duplicate directed edge {(int(tail[e]), int(head[e]))}")
        missing = opposite < 0
        bad = np.flatnonzero(missing | (loops.face[opposite] == loops.face))
        if len(bad):
            e = bad[0]
            if missing[e]:
                raise GraphError(f"edge ({tail[e]},{head[e]}) has no opposite")
            raise GraphError(
                f"edge ({tail[e]},{head[e]}) and its opposite share face {loops.face[e]}"
            )
        object.__setattr__(self, "opposite", opposite)

        # CSR-style out-edge index ordered by (tail, head): neighbors and
        # path enumeration read straight off it in deterministic order.
        starts = np.searchsorted(tail[order], np.arange(n_nodes + 1))
        object.__setattr__(self, "_out_order", order)
        object.__setattr__(self, "_out_starts", _ro(starts))

    # -- construction -------------------------------------------------------

    @classmethod
    def from_polyhedron(cls, p: Polyhedron) -> "SurfaceGraph":
        """Build the graph; refuses invalid polyhedra with their report.

        Edge ids are the slots of ``p.face_loops``.
        """
        report = validate_polyhedron(p)
        if not report.ok:
            raise InvalidPolyhedronError(report)
        attrs = np.stack([f.attr for f in p.faces]) if p.faces else np.zeros((0, 0))
        return cls(p.vertices, p.face_loops, attrs)

    # -- queries -------------------------------------------------------------

    @property
    def n_nodes(self):
        return self.coords.shape[0]

    @property
    def n_edges(self):
        return self.edge_tail.shape[0]

    @property
    def n_faces(self):
        return len(self.face_loops.lengths)

    @property
    def attr_dim(self):
        return self.attrs.shape[1]

    def neighbors(self, v: int) -> list:
        """Sorted heads of the directed edges leaving v (unique, since no
        directed edge repeats)."""
        out = self._out_order[self._out_starts[v] : self._out_starts[v + 1]]
        return self.edge_head[out].tolist()

    def face_loop(self, fi: int) -> tuple:
        """Vertex loop of a face: the vertices of its slot range."""
        loops = self.face_loops
        start = loops.starts[fi]
        return tuple(loops.verts[start : start + loops.lengths[fi]].tolist())

    def face_normals(self) -> np.ndarray:
        """Outward unit normals per face (Newell over each loop)."""
        loops = self.face_loops
        newell = _newell(self.coords[loops.verts], loops)[0]
        norm = np.sqrt(_rowdot(newell, newell))
        scale = bbox_diagonal(self.coords) or 1.0
        degenerate = np.flatnonzero(norm / scale / scale < DEGENERATE_NORMAL_TOL)
        if len(degenerate):
            raise GraphError(f"degenerate face {degenerate[0]} in surface graph")
        # An overflowing length would make zero normals; a NaN one (from a
        # non-finite Newell vector) gives NaN normals, which features refuse.
        overflow = np.flatnonzero(np.isinf(norm))
        if len(overflow):
            raise GraphError(f"face {overflow[0]} normal overflows in surface graph")
        return newell / norm[:, None]

    def mean_edge_length(self) -> float:
        d = self.coords[self.edge_head] - self.coords[self.edge_tail]
        return float(np.linalg.norm(d, axis=1).mean())

    def topology(self) -> SurfaceTopology:
        """Connectivity with coordinates stripped (loops + attributes)."""
        return SurfaceTopology(
            self.n_nodes, tuple(self.face_loop(fi) for fi in range(self.n_faces)), self.attrs
        )

    def to_polyhedron(self) -> Polyhedron:
        """Exact inverse of :meth:`from_polyhedron` (coordinates bitwise)."""
        faces = tuple(
            PolygonFace(self.face_loop(fi), self.attrs[fi]) for fi in range(self.n_faces)
        )
        return Polyhedron(self.coords, faces)


def build_surface_graph(p: Polyhedron) -> SurfaceGraph:
    return SurfaceGraph.from_polyhedron(p)
