"""Rigid-motion-invariant features of two-hop paths, and their inversion.

Every ordered edge pair (i -> j, j -> k) of a surface graph yields a
five-tuple: the two edge lengths, the signed in-plane angle at the middle
node, the signed dihedral angle between the owning faces, and the owning
face pair itself.  The full keyed set of tuples determines the solid up to
rotation and translation, and :func:`reconstruct_polyhedron` performs that
inversion by laying out one face flat and folding its neighbors across the
shared edges by the recorded dihedral angles.

Sign conventions (one consistent choice is all that is needed; extraction
and reconstruction share it):

* theta is the counterclockwise rotation about the outward normal of the
  first edge's face, carrying the unit ray j->i onto the unit ray j->k.
* phi has magnitude arccos(n1 . n2) between outward normals; its sign is the
  sign of (n1 x n2) . w, where w is the edge direction j - i for back-
  tracking paths and the ray cross product for other cross-face paths
  (falling back to the edge direction, then to +1, when the projection is
  below 1e-9, so rounding noise in a rebuilt solid cannot flip it).

Angles live in (-pi, pi]: exactly antiparallel normals map to pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    GeometryError,
    IncompleteRigidSetError,
    InconsistentRigidSetError,
)
from .geometry import FaceLoops, PolygonFace, Polyhedron, _cross, _ro
from .surface_graph import SurfaceGraph, SurfaceTopology

_PARALLEL_TOL = 1e-12
_SIGN_TOL = 1e-9  # a rebuilt solid's hinge projection drifts to 1.5e-12 from 0
_DEGENERATE_PROJECTION = 1e-9
_LAST = np.iinfo(np.int64).max


@dataclass(frozen=True)
class PathSet:
    """Two-hop paths (i, j, k) with their edge ids, sorted by node triple."""

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __len__(self):
        return len(self.i)


def enumerate_paths(g: SurfaceGraph) -> PathSet:
    """All ordered edge pairs (i->j, j->k), grouped by start node i.

    The backtracking case k = i (second edge is the opposite of the first)
    is included; it is the only path whose edges live in the two faces
    adjacent across the undirected edge {i, j}, which is what carries the
    hinge dihedral needed to fold faces back together.
    """
    # Edges sorted by (tail, head) are grouped by i then j; each e1 = i -> j
    # is followed by the out-edges of j, a contiguous run of the same order.
    order, starts = g._out_order, g._out_starts
    mid = g.edge_head[order]
    run_start, run_len = starts[mid], starts[mid + 1] - starts[mid]
    e1_arr = np.repeat(order, run_len)
    offset = np.repeat(run_start - (np.cumsum(run_len) - run_len), run_len)
    e2_arr = order[np.arange(len(e1_arr)) + offset]
    return PathSet(
        i=g.edge_tail[e1_arr],
        j=g.edge_head[e1_arr],
        k=g.edge_head[e2_arr],
        e1=e1_arr,
        e2=e2_arr,
    )


@dataclass(frozen=True)
class RigidSet:
    """Map from (i, j, k) node triples to rigid tuples, as parallel arrays.

    Rows are kept in lexicographic key order, so iteration and the text
    export are deterministic.
    """

    keys: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    face1: np.ndarray
    face2: np.ndarray

    def __post_init__(self):
        keys = np.array(self.keys, dtype=np.int64).reshape(-1, 3)
        order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
        object.__setattr__(self, "keys", _ro(keys[order]))
        for name in ("d1", "d2", "theta", "phi"):
            arr = np.array(getattr(self, name), dtype=np.float64)[order]
            if not np.all(np.isfinite(arr)):
                raise InconsistentRigidSetError(f"non-finite {name} in rigid set")
            object.__setattr__(self, name, _ro(arr))
        for name in ("face1", "face2"):
            arr = np.array(getattr(self, name), dtype=np.int64)[order]
            object.__setattr__(self, name, _ro(arr))
        if np.any(np.all(self.keys[1:] == self.keys[:-1], axis=1)):
            raise InconsistentRigidSetError("duplicate path keys in rigid set")

    def __len__(self):
        return len(self.keys)

    @cached_property
    def _index(self):
        """Sorted distinct node ids, and one int64 code per row, from the
        ids' ranks, that keeps the key order.  Both end in a sentinel, so
        every search lands inside them."""
        ids = np.append(np.unique(self.keys), _LAST)
        if len(ids) ** 3 > _LAST:
            raise InconsistentRigidSetError(f"{len(ids) - 1} node ids are too many to index")
        return ids, np.append(_encode(np.searchsorted(ids, self.keys), len(ids)), _LAST)

    def rows(self, keys) -> np.ndarray:
        """Rows of the (n, 3) ``keys``, by one binary search over the encoded keys."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
        ids, codes = self._index
        rank = np.searchsorted(ids, keys)
        want = _encode(rank, len(ids))
        rows = np.searchsorted(codes, want)
        found = (codes[rows] == want) & np.all(ids[rank] == keys, axis=1)
        if not np.all(found):
            i, j, k = keys[np.argmin(found)].tolist()
            raise IncompleteRigidSetError(f"no tuple for path ({i},{j},{k})")
        return rows


def _encode(rank, base):
    """One int64 per row of (n, 3) ranks below ``base``, in lexicographic order."""
    return (rank[:, 0] * base + rank[:, 1]) * base + rank[:, 2]


def _wrap_angle(a):
    """Wrap to (-pi, pi]; the -pi boundary maps to +pi."""
    out = np.mod(np.asarray(a, dtype=np.float64) + np.pi, 2 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


def _unit_rows(v, what):
    """Rows of ``v`` scaled to unit length, and their lengths."""
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms < 1e-300):
        raise GeometryError(f"zero-length {what}")
    return v / norms[:, None], norms


def _planar_angles(u1, u2, n1, cross12):
    """Signed angle per row from unit ray ``u1`` to unit ray ``u2``, CCW about
    the unit normal ``n1``; ``cross12`` is ``u1 x u2``.

    In-plane antiparallel rays sit on the boundary of (-pi, pi] and are
    pinned to +pi, so the sign cannot flip with rounding.  When ``u2`` is
    perpendicular to the plane (possible on cross-face paths; the in-plane
    direction then vanishes and the formula would be numerically arbitrary),
    the angle is pinned to +-pi/2 by the side of the plane the ray leaves on:
    rotation invariant, and the configuration itself is mirror-symmetric, so
    no sign choice loses chirality information there.
    """
    y = np.einsum("pc,pc->p", cross12, n1)
    x = np.einsum("pc,pc->p", u1, u2)
    theta = np.where((np.abs(y) < _PARALLEL_TOL) & (x < 0), np.pi, np.arctan2(y, x))
    out_of_plane = np.einsum("pc,pc->p", u2, n1)
    proj_norm = np.linalg.norm(u2 - out_of_plane[:, None] * n1, axis=1)
    theta = np.where(
        proj_norm < _DEGENERATE_PROJECTION,
        np.copysign(np.pi / 2, out_of_plane),
        theta,
    )
    return _wrap_angle(theta)


def _dihedral_angles(u1, cross12, n1, n2, backtracking):
    """Signed angle per row between outward normals ``n1`` and ``n2``.

    Magnitude arccos(n1 . n2); sign from the hinge rule (see module note),
    with ``-u1`` as the unit edge direction j - i and ``cross12`` as the ray
    cross product.  Parallel normals give 0, antiparallel ones pi.
    """
    dot = np.clip(np.einsum("pc,pc->p", n1, n2), -1.0, 1.0)
    hinge = _cross(n1, n2)
    hw_cross = np.einsum("pc,pc->p", hinge, cross12)
    use_edge = backtracking | (np.abs(hw_cross) < _SIGN_TOL)
    hw = np.where(use_edge, np.einsum("pc,pc->p", hinge, -u1), hw_cross)
    s = np.where(np.abs(hw) < _SIGN_TOL, 1.0, np.sign(hw))
    parallel = np.linalg.norm(hinge, axis=1) < _PARALLEL_TOL
    phi = np.where(parallel, np.where(dot > 0, 0.0, np.pi), s * np.arccos(dot))
    return _wrap_angle(phi)


def _rays(vi, vj, vk):
    """Unit rays j->i and j->k per path (rows of the three (P, 3) coordinate
    arrays), their cross product and their lengths."""
    u1, d1 = _unit_rows(vi - vj, "edge (i, j)")
    u2, d2 = _unit_rows(vk - vj, "edge (j, k)")
    return u1, u2, _cross(u1, u2), d1, d2


def _path_geometry(g: SurfaceGraph, paths: PathSet):
    """Vectorized five-tuple ingredients for every path."""
    coords = g.coords
    normals = g.face_normals()
    u1, u2, cross12, d1, d2 = _rays(coords[paths.i], coords[paths.j], coords[paths.k])
    face1 = g.edge_face[paths.e1]
    face2 = g.edge_face[paths.e2]
    n1 = normals[face1]
    n2 = normals[face2]

    theta = _planar_angles(u1, u2, n1, cross12)
    phi = _dihedral_angles(u1, cross12, n1, n2, paths.k == paths.i)
    phi = np.where(face1 == face2, 0.0, phi)  # inner paths short-circuit
    return d1, d2, theta, phi, face1, face2


def compute_rigid_set(g: SurfaceGraph) -> RigidSet:
    """One rigid tuple per enumerated two-hop path, keyed by node triple."""
    paths = enumerate_paths(g)
    d1, d2, theta, phi, face1, face2 = _path_geometry(g, paths)
    keys = np.stack([paths.i, paths.j, paths.k], axis=1)
    return RigidSet(keys, d1, d2, theta, phi, face1, face2)


def rigid_sets_equal(a: RigidSet, b: RigidSet, tol: float) -> bool:
    """Same keys; distances within tol * max(d, 1); wrap-aware angles; same faces.

    A non-finite value never compares equal: every test is "within tol",
    which NaN fails.
    """
    if len(a) != len(b) or not np.array_equal(a.keys, b.keys):
        return False
    if not np.array_equal(a.face1, b.face1) or not np.array_equal(a.face2, b.face2):
        return False
    for da, db in ((a.d1, b.d1), (a.d2, b.d2)):
        bound = tol * np.maximum(np.maximum(np.abs(da), np.abs(db)), 1.0)
        if not np.all(np.abs(da - db) <= bound):
            return False
    for ta, tb in ((a.theta, b.theta), (a.phi, b.phi)):
        if not np.all(np.abs(_wrap_angle(ta - tb)) <= tol):
            return False
    return True


# ---------------------------------------------------------------------------
# Reconstruction


def _lay_flat(rigid: RigidSet, loops: FaceLoops, faces) -> np.ndarray:
    """Every loop laid flat from its inner tuples: (n_slots, 2) positions.

    ``faces`` holds the rigid-set face id of each loop.  A loop's frame puts
    its first edge's head at the origin and its tail at (-d1, 0), with the
    face's outward normal out of the plane.  Each corner turns the heading
    by pi + theta, so the headings are a cumulative sum, and so are the
    positions, of d2 * (cos, sin).  The walk ends on two more points that
    must fall back on the first edge's tail and head within 1e-6 of the
    perimeter: its d1 plus the m - 2 placing d2s.
    """
    v, nxt, first = loops.verts, loops.nxt, loops.starts
    rows = rigid.rows(np.stack([v, v[nxt], v[nxt[nxt]]], axis=1))
    face = np.asarray(faces)[loops.face]
    stray = (rigid.face1[rows] != face) | (rigid.face2[rows] != face)
    if np.any(stray):
        s = int(np.argmax(stray))
        raise IncompleteRigidSetError(
            f"no inner tuple for edge ({v[s]},{v[nxt[s]]}) of face {face[s]}"
        )
    d1, d2 = rigid.d1[rows[first]], rigid.d2[rows]
    if not (np.all(d1 > 0) and np.all(d2 > 0)):
        raise InconsistentRigidSetError("non-positive edge length in a face")
    heading = loops.cumsums(np.pi + rigid.theta[rows])
    tip = loops.cumsums(d2[:, None] * np.column_stack([np.cos(heading), np.sin(heading)]))
    # Tip t of a loop is its vertex t + 2; the last two come back to 0 and 1.
    step = np.arange(len(v)) - first[loops.face]
    xy = tip[first[loops.face] + (step - 2) % loops.lengths[loops.face]]
    tail = np.column_stack([-d1, np.zeros_like(d1)])
    residual = np.maximum(
        np.linalg.norm(xy[first] - tail, axis=1), np.linalg.norm(xy[first + 1], axis=1)
    )
    perimeter = d1 + loops.cumsums(d2)[first + loops.lengths - 3]
    if not np.all(residual <= 1e-6 * perimeter):  # NaN fails too
        f = int(np.argmin(residual <= 1e-6 * perimeter))
        raise InconsistentRigidSetError(
            f"face {faces[f]} loop closure residual {residual[f]:.3e} "
            f"exceeds tolerance for perimeter {perimeter[f]:.3e}"
        )
    xy[first], xy[first + 1] = tail, 0.0
    return xy


def reconstruct_polyhedron(rigid: RigidSet, topology: SurfaceTopology) -> Polyhedron:
    """Rebuild a solid congruent to the source of ``rigid``.

    Face 0 is laid out in the z = 0 plane with its outward normal along +z
    and its first edge on the x-axis.  A breadth-first sweep then glues each
    unplaced neighbor: the hinge dihedral comes from the backtracking tuple
    of the shared edge, the neighbor's normal is the placed face's normal
    rotated about the shared edge by that angle, and the neighbor's flat
    layout is mapped onto the shared edge in that plane.  A vertex keeps its
    first placement; every later one must coincide with it within 1e-6 of
    the bounding-box diagonal of the vertices placed before.  Faults of the
    topology itself raise :class:`DisconnectedSurfaceError`.
    """
    loops, order, parent, levels = topology.sweep()
    xy = _lay_flat(rigid, loops, order)
    v, first = loops.verts, loops.starts
    # A glued loop starts at (b, a), the reverse of its parent's edge (a, b),
    # whose backtracking tuple (a, b, a) holds the hinge dihedral.
    a, b = v[first + 1], v[first]
    phi = np.append(0.0, rigid.phi[rigid.rows(np.stack([a, b, a], axis=1)[1:])])
    placed_at = np.unique(v, return_index=True)[1]  # first slot of each node
    world = np.empty((len(v), 3))
    normal, origin = np.empty((len(first), 3)), np.zeros((len(first), 3))
    frame = np.empty((len(first), 2, 3))  # in-plane axes (e_x, e_y) of each loop
    normal[0], frame[0] = (0.0, 0.0, 1.0), np.eye(3)[:2]
    for lo, hi in zip(levels[:-1], levels[1:]):
        if lo:
            q = np.arange(lo, hi)
            origin[q] = world[placed_at[a[q]]]
            axis, _ = _unit_rows(world[placed_at[b[q]]] - origin[q], "hinge edge")
            n1, sin, cos = normal[parent[q]], np.sin(phi[q, None]), np.cos(phi[q, None])
            normal[q] = n1 + sin * _cross(axis, n1) + (1 - cos) * _cross(axis, _cross(axis, n1))
            frame[q, 0], frame[q, 1] = -axis, _cross(normal[q], -axis)
        s = slice(first[lo], first[hi - 1] + loops.lengths[hi - 1])
        world[s] = origin[loops.face[s]] + (xy[s, None, :] @ frame[loops.face[s]])[:, 0]

    kept = np.zeros(len(v), dtype=bool)
    kept[placed_at] = True
    low = np.minimum.accumulate(np.where(kept[:, None], world, np.inf), axis=0)
    high = np.maximum.accumulate(np.where(kept[:, None], world, -np.inf), axis=0)
    tol = 1e-6 * np.maximum(np.linalg.norm(high - low, axis=1), 1e-12)
    dev = np.linalg.norm(world - world[placed_at[v]], axis=1)
    if not np.all(kept | (dev <= tol)):  # NaN fails too
        s = int(np.argmin(kept | (dev <= tol)))
        raise InconsistentRigidSetError(
            f"vertex {v[s]} re-placed {dev[s]:.3e} away (tol {tol[s]:.3e})"
        )
    faces = tuple(
        PolygonFace(loop, topology.attrs[fi]) for fi, loop in enumerate(topology.loops)
    )
    return Polyhedron(world[placed_at], faces)


# ---------------------------------------------------------------------------
# Text export (for oracle cross-checks)

_FIELDS = ("i", "j", "k", "d1", "d2", "theta", "phi", "face1", "face2")
_KINDS = (int,) * 3 + (float,) * 4 + (int,) * 2
_LINE = "{} {} {} {:.17g} {:.17g} {:.17g} {:.17g} {} {}\n"


def write_rigid_set(rigid: RigidSet, fp) -> None:
    """Lines of "i j k d1 d2 theta phi face1 face2", 17 significant digits."""
    columns = (*rigid.keys.T, rigid.d1, rigid.d2, rigid.theta, rigid.phi, rigid.face1, rigid.face2)
    fp.write("".join(map(_LINE.format, *(c.tolist() for c in columns))))


def read_rigid_set(fp) -> RigidSet:
    """Parse the text of :func:`write_rigid_set`; errors name the line."""
    lines = fp.read().split("\n")
    rows = [parts for parts in map(str.split, lines) if parts]
    try:
        if not set(map(len, rows)) <= {9}:
            raise ValueError
        columns = [
            np.fromiter(map(kind, column), kind, len(rows))
            for kind, column in zip(_KINDS, list(zip(*rows)) or [()] * 9)
        ]
    except (ValueError, OverflowError):
        raise _bad_line(lines) from None
    return RigidSet(np.stack(columns[:3], axis=1), *columns[3:])


def _bad_line(lines) -> InconsistentRigidSetError:
    """The error for the first line that is not a rigid tuple."""
    for lineno, parts in enumerate(map(str.split, lines), start=1):
        if parts and len(parts) != 9:
            return InconsistentRigidSetError(f"line {lineno}: expected 9 fields, got {len(parts)}")
        for name, kind, token in zip(_FIELDS, _KINDS, parts):
            try:
                np.array(kind(token), dtype=kind)  # ints must fit in int64
            except (ValueError, OverflowError):
                what = "an integer" if kind is int else "a number"
                return InconsistentRigidSetError(f"line {lineno}: {name} {token!r} is not {what}")
