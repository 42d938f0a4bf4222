"""Directed surface graph of a polyhedron, with face loops carrying attributes.

Nodes are the polyhedron's vertices.  Every consecutive vertex pair of every
face contributes one directed edge owned by that face, so each undirected
edge of the solid appears as two opposite directed edges in two different
faces.  A face is stored as the ordered chain of its edge ids plus an
attribute vector.  The conversion is lossless: :meth:`SurfaceGraph.to_polyhedron`
is an exact inverse of :meth:`SurfaceGraph.from_polyhedron`.

The face chains concatenated are the flat face-loop layout of
:mod:`polyrep.geometry` with edge ids in the slots: a graph built from a
polyhedron numbers its edges by slot, so edge ``e`` runs from
``verts[e]`` to ``verts[nxt[e]]`` of the solid's ``face_loops``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphError, InvalidPolyhedronError
from .geometry import (
    DEFAULT_COPLANARITY_TOL,
    DEGENERATE_NORMAL_TOL,
    FaceLoops,
    PolygonFace,
    Polyhedron,
    _newell,
    _rowdot,
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
            attrs = attrs.reshape(len(self.loops), -1)
        attrs.setflags(write=False)
        object.__setattr__(self, "attrs", attrs)
        if attrs.shape[0] != len(self.loops):
            raise GraphError("one attribute row per face loop required")


@dataclass(frozen=True)
class SurfaceGraph:
    """Immutable directed graph with face hyperedges.

    Invariants checked at construction: every directed edge has a unique
    opposite owned by a different face, every face chain links head-to-tail
    into a single closed loop of length >= 3, and the face chains partition
    the edge set.  Construction fails fast on violations, so queries never
    have to re-check.
    """

    coords: np.ndarray
    edge_tail: np.ndarray
    edge_head: np.ndarray
    edge_face: np.ndarray
    face_edges: tuple
    attrs: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.float64)
        coords.setflags(write=False)
        tail = np.array(self.edge_tail, dtype=np.int64)
        head = np.array(self.edge_head, dtype=np.int64)
        eface = np.array(self.edge_face, dtype=np.int64)
        for arr in (tail, head, eface):
            arr.setflags(write=False)
        attrs = np.atleast_2d(np.array(self.attrs, dtype=np.float64))
        if attrs.size == 0:
            attrs = attrs.reshape(len(self.face_edges), -1)
        attrs.setflags(write=False)
        n_faces = len(self.face_edges)
        lengths = np.fromiter(map(len, self.face_edges), dtype=np.int64, count=n_faces)
        chains = np.concatenate([np.zeros(0, dtype=np.int64), *self.face_edges])
        chains = chains.astype(np.int64, copy=False)
        chains.setflags(write=False)
        # Views into one read-only array, one per face.
        face_edges = tuple(np.split(chains, np.cumsum(lengths)[:-1])) if n_faces else ()
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "edge_tail", tail)
        object.__setattr__(self, "edge_head", head)
        object.__setattr__(self, "edge_face", eface)
        object.__setattr__(self, "face_edges", face_edges)
        object.__setattr__(self, "attrs", attrs)

        n_nodes, n_edges = len(coords), len(tail)
        if not (len(head) == len(eface) == n_edges):
            raise GraphError("edge arrays must have equal length")
        ends = np.concatenate([tail, head])
        if np.any((ends < 0) | (ends >= n_nodes)):
            raise GraphError(f"edge endpoints must be node ids below {n_nodes}")
        if np.any(tail == head):
            raise GraphError("directed edges must join distinct nodes")
        if attrs.shape[0] != n_faces:
            raise GraphError("one attribute row per face required")

        # Sorting by (tail, head) puts a duplicate next to its twin and lets
        # every edge find its opposite by binary search.
        order = np.lexsort((head, tail))
        sorted_keys = tail[order] * n_nodes + head[order]
        twin = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
        if len(twin):
            e = order[twin[0]]
            raise GraphError(f"duplicate directed edge {(int(tail[e]), int(head[e]))}")
        reversed_keys = head * n_nodes + tail
        at = np.minimum(np.searchsorted(sorted_keys, reversed_keys), n_edges - 1)
        opposite = order[at]
        missing = sorted_keys[at] != reversed_keys
        bad = np.flatnonzero(missing | (eface[opposite] == eface))
        if len(bad):
            e = bad[0]
            if missing[e]:
                raise GraphError(f"edge ({tail[e]},{head[e]}) has no opposite")
            raise GraphError(
                f"edge ({tail[e]},{head[e]}) and its opposite share face {eface[e]}"
            )
        opposite.setflags(write=False)
        object.__setattr__(self, "opposite", opposite)

        short = np.flatnonzero(lengths < 3)
        if len(short):
            raise GraphError(f"face {short[0]} chain shorter than 3 edges")
        if np.any((chains < 0) | (chains >= n_edges)):
            raise GraphError(f"face chains must list edge ids below {n_edges}")
        loops = FaceLoops.from_lengths(tail[chains], lengths)
        foreign = np.flatnonzero(eface[chains] != loops.face)
        if len(foreign):
            e = chains[foreign[0]]
            raise GraphError(
                f"edge {e} listed in face {loops.face[foreign[0]]} but owned by {eface[e]}"
            )
        uses = np.bincount(chains, minlength=n_edges)
        if np.any(uses > 1):
            raise GraphError(f"edge {np.flatnonzero(uses > 1)[0]} appears in two face chains")
        breaks = np.flatnonzero(head[chains] != loops.verts[loops.nxt])
        if len(breaks):
            raise GraphError(
                f"face {loops.face[breaks[0]]} chain breaks at edge {chains[breaks[0]]}"
            )
        if np.any(uses == 0):
            raise GraphError("some edges belong to no face chain")
        object.__setattr__(self, "face_loops", loops)

        # CSR-style out-edge index ordered by (tail, head): neighbors and
        # path enumeration read straight off it in deterministic order.
        starts = np.searchsorted(tail[order], np.arange(n_nodes + 1))
        order.setflags(write=False)
        starts.setflags(write=False)
        object.__setattr__(self, "_out_order", order)
        object.__setattr__(self, "_out_starts", starts)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_polyhedron(
        cls, p: Polyhedron, coplanarity_tol: float = DEFAULT_COPLANARITY_TOL
    ) -> "SurfaceGraph":
        """Build the graph; refuses invalid polyhedra with their report.

        Edge ids are the slots of ``p.face_loops``.
        """
        report = validate_polyhedron(p, coplanarity_tol)
        if not report.ok:
            raise InvalidPolyhedronError(report)
        loops = p.face_loops
        face_edges = np.split(np.arange(len(loops.verts)), loops.starts[1:])
        attrs = np.stack([f.attr for f in p.faces]) if p.faces else np.zeros((0, 0))
        heads = loops.verts[loops.nxt]
        return cls(p.vertices, loops.verts, heads, loops.face, tuple(face_edges), attrs)

    # -- queries -------------------------------------------------------------

    @property
    def n_nodes(self):
        return self.coords.shape[0]

    @property
    def n_edges(self):
        return self.edge_tail.shape[0]

    @property
    def n_faces(self):
        return len(self.face_edges)

    @property
    def attr_dim(self):
        return self.attrs.shape[1]

    def opposite_edge(self, e: int) -> int:
        """The unique edge with swapped endpoints, owned by the other face."""
        return int(self.opposite[e])

    def out_edges(self, v: int) -> np.ndarray:
        """Edge ids with tail v, ordered by head id."""
        return self._out_order[self._out_starts[v] : self._out_starts[v + 1]]

    def neighbors(self, v: int) -> list:
        """Sorted unique heads of the directed edges leaving v."""
        return sorted({int(self.edge_head[e]) for e in self.out_edges(v)})

    def face_loop(self, fi: int) -> tuple:
        """Vertex loop of a face, read off its edge chain."""
        return tuple(self.edge_tail[self.face_edges[fi]].tolist())

    def face_normals(self) -> np.ndarray:
        """Outward unit normals per face (Newell over each loop)."""
        loops = self.face_loops
        newell = _newell(self.coords[loops.verts], loops)[0]
        norm = np.sqrt(_rowdot(newell, newell))
        degenerate = np.flatnonzero(norm < DEGENERATE_NORMAL_TOL)
        if len(degenerate):
            raise GraphError(f"degenerate face {degenerate[0]} in surface graph")
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


def build_surface_graph(
    p: Polyhedron, coplanarity_tol: float = DEFAULT_COPLANARITY_TOL
) -> SurfaceGraph:
    return SurfaceGraph.from_polyhedron(p, coplanarity_tol)
