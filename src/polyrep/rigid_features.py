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
  (falling back to the edge direction, then to +1, when degenerate).

Angles live in (-pi, pi]: exactly antiparallel normals map to pi.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GeometryError,
    IncompleteRigidSetError,
    InconsistentRigidSetError,
    DisconnectedSurfaceError,
)
from .geometry import PolygonFace, Polyhedron, _cross, _ro, rotation_about_axis
from .surface_graph import SurfaceGraph, SurfaceTopology

_PARALLEL_TOL = 1e-12
_DEGENERATE_PROJECTION = 1e-9


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


def enumerate_paths(g: SurfaceGraph, include_backtracking: bool = True) -> PathSet:
    """All ordered edge pairs (i->j, j->k), grouped by start node i.

    The backtracking case k = i (second edge is the opposite of the first)
    is included by default; it is the only path whose edges live in the two
    faces adjacent across the undirected edge {i, j}, which is what carries
    the hinge dihedral needed to fold faces back together.
    """
    # Edges sorted by (tail, head) are grouped by i then j; each e1 = i -> j
    # is followed by the out-edges of j, a contiguous run of the same order.
    order, starts = g._out_order, g._out_starts
    mid = g.edge_head[order]
    run_start, run_len = starts[mid], starts[mid + 1] - starts[mid]
    e1_arr = np.repeat(order, run_len)
    offset = np.repeat(run_start - (np.cumsum(run_len) - run_len), run_len)
    e2_arr = order[np.arange(len(e1_arr)) + offset]
    if not include_backtracking:
        keep = e2_arr != g.opposite[e1_arr]
        e1_arr, e2_arr = e1_arr[keep], e2_arr[keep]
    return PathSet(
        i=g.edge_tail[e1_arr],
        j=g.edge_head[e1_arr],
        k=g.edge_head[e2_arr],
        e1=e1_arr,
        e2=e2_arr,
    )


@dataclass(frozen=True)
class RigidTuple:
    d1: float
    d2: float
    theta: float
    phi: float
    faces: tuple

    @property
    def is_inner(self):
        return self.faces[0] == self.faces[1]


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

    @property
    def inner_mask(self):
        return self.face1 == self.face2

    def row(self, i: int, j: int, k: int):
        """Row of key (i, j, k), by binary search over the sorted keys."""
        key = [i, j, k]
        r = bisect.bisect_left(self.keys, key, key=np.ndarray.tolist)
        if r == len(self) or self.keys[r].tolist() != key:
            raise IncompleteRigidSetError(f"no tuple for path ({i},{j},{k})")
        return r

    def _tuple(self, r) -> RigidTuple:
        return RigidTuple(
            float(self.d1[r]),
            float(self.d2[r]),
            float(self.theta[r]),
            float(self.phi[r]),
            (int(self.face1[r]), int(self.face2[r])),
        )

    def get(self, i: int, j: int, k: int) -> RigidTuple:
        return self._tuple(self.row(i, j, k))

    def items(self):
        for r, key in enumerate(self.keys):
            yield tuple(int(v) for v in key), self._tuple(r)


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
    use_edge = backtracking | (np.abs(hw_cross) < _PARALLEL_TOL)
    hw_edge = np.einsum("pc,pc->p", hinge, -u1)
    s = np.where(use_edge, np.sign(hw_edge), np.sign(hw_cross))
    s = np.where(s == 0.0, 1.0, s)
    parallel = np.linalg.norm(hinge, axis=1) < _PARALLEL_TOL
    phi = np.where(parallel, np.where(dot > 0, 0.0, np.pi), s * np.arccos(dot))
    return _wrap_angle(phi)


def _rows(v):
    return np.asarray(v, dtype=np.float64).reshape(-1, 3)


def _rays(vi, vj, vk):
    """Unit rays j->i and j->k per path, their cross product and their lengths."""
    u1, d1 = _unit_rows(_rows(vi) - _rows(vj), "edge (i, j)")
    u2, d2 = _unit_rows(_rows(vk) - _rows(vj), "edge (j, k)")
    return u1, u2, _cross(u1, u2), d1, d2


def signed_planar_angle(vi, vj, vk, n_ref) -> float:
    """Signed angle at vj between rays to vi and to vk, CCW about ``n_ref``.

    Zero when the two rays coincide (backtracking).  ``n_ref`` must be the
    unit normal of the plane the sign is measured in.  One row of the
    kernel the rigid features use (see ``_planar_angles``).
    """
    u1, u2, cross12, _, _ = _rays(vi, vj, vk)
    return float(_planar_angles(u1, u2, _rows(n_ref), cross12)[0])


def signed_dihedral_angle(vi, vj, vk, n1, n2, backtracking: bool | None = None) -> float:
    """Signed angle between outward face normals across the path at vj.

    Magnitude arccos(n1 . n2); sign from the hinge rule (see module note).
    With ``backtracking=None`` the backtracking case is inferred from exact
    coordinate equality of vi and vk.  One row of the kernel the rigid
    features use (see ``_dihedral_angles``).
    """
    if backtracking is None:
        backtracking = np.array_equal(vi, vk)
    u1, _, cross12, _, _ = _rays(vi, vj, vk)
    phi = _dihedral_angles(u1, cross12, _rows(n1), _rows(n2), np.array([bool(backtracking)]))
    return float(phi[0])


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


def compute_rigid_set(g: SurfaceGraph, include_backtracking: bool = True) -> RigidSet:
    """One rigid tuple per enumerated two-hop path, keyed by node triple.

    Reconstruction needs the backtracking tuples; drop them only for feature
    sets feeding the network.
    """
    paths = enumerate_paths(g, include_backtracking)
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


def _rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def reconstruct_face(rigid: RigidSet, start_edge, face: int) -> dict:
    """Rebuild one face's loop in 2D from its inner tuples.

    The local frame puts the start edge's head at the origin with the edge
    along +x (tail at (-d, 0)) and the face's outward normal out of the
    plane.  Each next vertex is the previous ray rotated by the recorded
    in-plane angle and scaled by the recorded length.  Returns vertex
    positions keyed by node id, in loop order starting at the edge tail.

    Raises if a required tuple is missing or the loop fails to close within
    1e-6 of its perimeter.
    """
    i0, j0 = int(start_edge[0]), int(start_edge[1])
    chain = {}
    inner_rows = np.nonzero((rigid.face1 == face) & (rigid.face2 == face))[0]
    for r in inner_rows:
        chain[(int(rigid.keys[r, 0]), int(rigid.keys[r, 1]))] = r
    if (i0, j0) not in chain:
        raise IncompleteRigidSetError(
            f"no inner tuple for edge ({i0},{j0}) of face {face}"
        )

    first = chain[(i0, j0)]
    pos = {i0: np.array([-rigid.d1[first], 0.0]), j0: np.zeros(2)}
    perimeter = float(rigid.d1[first])
    a, b = i0, j0
    closure = []
    for _ in range(len(inner_rows) + 2):
        r = chain.get((a, b))
        if r is None:
            raise IncompleteRigidSetError(
                f"no inner tuple for edge ({a},{b}) of face {face}"
            )
        c = int(rigid.keys[r, 2])
        u = pos[a] - pos[b]
        u /= np.linalg.norm(u)
        cand = pos[b] + rigid.d2[r] * (_rot2(rigid.theta[r]) @ u)
        if c in pos:
            closure.append(float(np.linalg.norm(cand - pos[c])))
            if c == j0:
                break
        else:
            pos[c] = cand
            perimeter += float(rigid.d2[r])
        a, b = b, c
    else:
        raise InconsistentRigidSetError(f"face {face} chain does not close")
    if not max(closure) <= 1e-6 * perimeter:  # NaN fails too
        raise InconsistentRigidSetError(
            f"face {face} loop closure residual {max(closure):.3e} "
            f"exceeds tolerance for perimeter {perimeter:.3e}"
        )
    return pos


def _topology_edges(topo: SurfaceTopology):
    """Directed-edge -> face map and per-face edge lists from vertex loops."""
    edge_face = {}
    for fi, loop in enumerate(topo.loops):
        m = len(loop)
        for t in range(m):
            key = (loop[t], loop[(t + 1) % m])
            if key in edge_face:
                raise DisconnectedSurfaceError(
                    f"duplicate directed edge {key} in topology"
                )
            edge_face[key] = fi
    return edge_face


def reconstruct_polyhedron(rigid: RigidSet, topology: SurfaceTopology) -> Polyhedron:
    """Rebuild a solid congruent to the source of ``rigid``.

    Face 0 is laid out in the z = 0 plane with its outward normal along +z
    and its first edge on the x-axis.  A breadth-first sweep then glues each
    unplaced neighbor: the hinge dihedral comes from the backtracking tuple
    of the shared edge, the neighbor's normal is the placed face's normal
    rotated about the shared edge by that angle, and the neighbor's flat
    layout is mapped onto the shared edge in that plane.  Already-placed
    vertices must coincide within 1e-6 of the running bounding-box diagonal.
    """
    if not topology.loops:
        raise DisconnectedSurfaceError("topology has no faces")
    edge_face = _topology_edges(topology)

    pos = {}
    lo = np.full(3, np.inf)
    hi = np.full(3, -np.inf)

    def place(node, at):
        nonlocal lo, hi
        if node in pos:
            diag = float(np.linalg.norm(hi - lo))
            tol = 1e-6 * max(diag, 1e-12)
            dev = float(np.linalg.norm(at - pos[node]))
            if not dev <= tol:  # NaN fails too
                raise InconsistentRigidSetError(
                    f"vertex {node} re-placed {dev:.3e} away (tol {tol:.3e})"
                )
            return
        pos[node] = at
        lo = np.minimum(lo, at)
        hi = np.maximum(hi, at)

    normals = {}
    first_loop = topology.loops[0]
    flat = reconstruct_face(rigid, (first_loop[0], first_loop[1]), 0)
    for node, xy in flat.items():
        place(node, np.array([xy[0], xy[1], 0.0]))
    normals[0] = np.array([0.0, 0.0, 1.0])

    queue = [0]
    placed = {0}
    while queue:
        f1 = queue.pop(0)
        loop = topology.loops[f1]
        m = len(loop)
        for t in range(m):
            a, b = loop[t], loop[(t + 1) % m]
            f2 = edge_face.get((b, a))
            if f2 is None:
                raise DisconnectedSurfaceError(f"edge ({a},{b}) has no opposite face")
            if f2 in placed:
                continue
            hinge = rigid.get(a, b, a)  # backtracking tuple with e1 in f1
            axis = pos[b] - pos[a]
            axis = axis / np.linalg.norm(axis)
            n2 = rotation_about_axis(axis, hinge.phi) @ normals[f1]

            flat2 = reconstruct_face(rigid, (b, a), f2)
            e_x = -axis  # unit(pos[a] - pos[b]): local +x of the (b, a) frame
            e_y = np.cross(n2, e_x)
            origin = pos[a]
            for node, xy in flat2.items():
                place(node, origin + xy[0] * e_x + xy[1] * e_y)
            normals[f2] = n2
            placed.add(f2)
            queue.append(f2)

    if len(placed) != len(topology.loops):
        raise DisconnectedSurfaceError(
            f"placed {len(placed)} of {len(topology.loops)} faces"
        )
    missing = [v for v in range(topology.n_nodes) if v not in pos]
    if missing:
        raise DisconnectedSurfaceError(f"nodes never placed: {missing[:5]}")

    vertices = np.stack([pos[v] for v in range(topology.n_nodes)])
    faces = tuple(
        PolygonFace(loop, topology.attrs[fi]) for fi, loop in enumerate(topology.loops)
    )
    return Polyhedron(vertices, faces)


# ---------------------------------------------------------------------------
# Text export (for oracle cross-checks)


def write_rigid_set(rigid: RigidSet, fp) -> None:
    """Lines of "i j k d1 d2 theta phi face1 face2", 17 significant digits."""
    for r in range(len(rigid)):
        i, j, k = (int(v) for v in rigid.keys[r])
        fp.write(
            f"{i} {j} {k} {rigid.d1[r]:.17g} {rigid.d2[r]:.17g} "
            f"{rigid.theta[r]:.17g} {rigid.phi[r]:.17g} "
            f"{int(rigid.face1[r])} {int(rigid.face2[r])}\n"
        )


def read_rigid_set(fp) -> RigidSet:
    keys, d1, d2, theta, phi, f1, f2 = [], [], [], [], [], [], []
    for lineno, line in enumerate(fp, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 9:
            raise InconsistentRigidSetError(
                f"line {lineno}: expected 9 fields, got {len(parts)}"
            )
        keys.append([int(parts[0]), int(parts[1]), int(parts[2])])
        d1.append(float(parts[3]))
        d2.append(float(parts[4]))
        theta.append(float(parts[5]))
        phi.append(float(parts[6]))
        f1.append(int(parts[7]))
        f2.append(int(parts[8]))
    return RigidSet(np.array(keys), d1, d2, theta, phi, f1, f2)
