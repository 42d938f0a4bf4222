"""Polyhedron data model and rigid-motion utilities.

A polyhedron is a closed solid bounded by flat polygonal faces.  Faces are
stored as ordered vertex-index loops, counterclockwise when viewed from the
outside, so the right-hand rule yields outward normals.  Each face may carry
a fixed-width attribute vector (e.g. an RGB color); width zero is allowed.

All values are immutable after construction: coordinate arrays are marked
read-only, so instances are safe to share across threads.

Flat face-loop layout
---------------------
Every per-face computation (validation, Newell normals, the surface graph's
edges) runs as array code over one flat layout of all face loops, built once
per solid, on first use, as :attr:`Polyhedron.face_loops` (a
:class:`FaceLoops`).  The loops are concatenated face by face into *slots*;
slot ``s`` holds

* ``verts[s]``: the vertex id at that loop position,
* ``face[s]``: the face owning it,
* ``nxt[s]`` / ``prv[s]``: the slot of the next / previous vertex of the same
  loop, wrapping from the last slot of a loop to its first and back,

and face ``f`` owns the slots ``starts[f] : starts[f] + lengths[f]``.  Slot
``s`` is also the directed edge ``verts[s] -> heads[s]`` (``heads`` is
``verts[nxt]``), so the slot ids are the surface graph's edge ids, and
:attr:`FaceLoops.edge_index` pairs each edge with its opposite by one stable
sort of the keys ``tail * base + head`` and one binary search per reversed
key.  ``base = verts.max() + 1`` exceeds every head, so the keys sort by
(tail, head) without a vertex count.  Validation, the surface graph, the
reconstruction sweep and triangle meshes all read this one cached index,
which cannot go stale: the arrays it derives from are read-only.  Many
solids share one layout as their :func:`disjoint_union`, in which each
solid's vertex, face and slot ids follow those of the solids before it, so
a corpus is validated, and its surface graph built, in one pass; the union
joins the solids' own layouts and indexes, so each solid's edges are
sorted once.  Per-face sums are
:meth:`FaceLoops.sums`, per-face maxima ``np.maximum.reduceat`` over
``starts`` (which needs every loop to be non-empty), and per-slot dot
products :func:`_rowdot`.  Both add their terms as a per-face
``rows.sum(axis=0)`` and ``a @ b`` add them, so the vectorized Newell
normals keep the bits of per-face code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError, InvalidTransformError

# Newell vectors shorter than this times the squared bounding-box diagonal
# are considered degenerate (the length grows as the square of the size).
DEGENERATE_NORMAL_TOL = 1e-12

# Relative coplanarity tolerance (scaled by the bounding-box diagonal).
COPLANARITY_TOL = 1e-6


def _ro(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FaceLoops:
    """All face loops of a solid as flat slot arrays (layout in the module note)."""

    verts: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    face: np.ndarray
    nxt: np.ndarray
    prv: np.ndarray

    @classmethod
    def from_lengths(cls, verts, lengths) -> "FaceLoops":
        """Layout of the loops ``verts`` holds back to back, ``lengths`` long."""
        verts = np.asarray(verts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        slot = np.arange(len(verts))
        nxt, prv = slot + 1, slot - 1
        filled = lengths > 0
        first, last = starts[filled], (starts + lengths - 1)[filled]
        nxt[last] = first
        prv[first] = last
        face = np.repeat(np.arange(len(lengths)), lengths)
        return cls(*(_ro(a) for a in (verts, starts, lengths, face, nxt, prv)))

    @classmethod
    def from_loops(cls, loops) -> "FaceLoops":
        lengths = np.fromiter(map(len, loops), dtype=np.int64, count=len(loops))
        verts = np.fromiter(
            itertools.chain.from_iterable(loops), dtype=np.int64, count=int(lengths.sum())
        )
        return cls.from_lengths(verts, lengths)

    def slots(self, faces) -> np.ndarray:
        """The slots of the listed faces, face by face in the given order."""
        lens = self.lengths[faces]
        slots = np.repeat(self.starts[faces] - np.cumsum(lens) + lens, lens)
        return slots + np.arange(len(slots))

    def subset(self, faces) -> "FaceLoops":
        """Layout of the listed faces only, renumbered in the given order."""
        return FaceLoops.from_lengths(self.verts[self.slots(faces)], self.lengths[faces])

    def sums(self, rows) -> np.ndarray:
        """Per-loop sums of (n_slots, 3) slot rows.

        Each loop's rows are added one at a time in slot order, as
        ``rows[loop].sum(axis=0)`` adds them; ``np.add.reduceat`` groups the
        terms differently and changes the last bits.
        """
        return _sums(self._xyz_bins, rows, len(self.lengths))

    def cumsums(self, x) -> np.ndarray:
        """Cumulative sums of slot rows along each loop, restarting at each loop."""
        total = np.cumsum(x, axis=0)
        return total - np.repeat(total[self.starts] - x[self.starts], self.lengths, axis=0)

    @cached_property
    def heads(self) -> np.ndarray:
        """Head vertex of each slot's directed edge, ``verts[nxt]``."""
        return _ro(self.verts[self.nxt])

    @cached_property
    def edge_index(self) -> tuple:
        """(order, keys, opposite): the slots sorted by (tail, head), ties in
        slot order; their sorted keys (module note); and per slot the first
        slot in that order with swapped ends, or -1.  Ids must be >= 0."""
        tail, head = self.verts, self.heads
        base = int(tail.max()) + 1 if len(tail) else 1
        keys = tail * base + head
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        reverse = head * base + tail
        at = np.minimum(np.searchsorted(keys, reverse), len(keys) - 1)
        opposite = np.where(keys[at] == reverse, order[at], -1)
        return _ro(order), _ro(keys), _ro(opposite)

    @cached_property
    def _xyz_bins(self):
        return _xyz_bins(self.face)


def _xyz_bins(keys):
    """Bins of the (n, 3) entries of rows keyed by ``keys``, for :func:`_sums`."""
    return (3 * keys[:, None] + np.arange(3)).ravel()


def _sums(bins, rows, n):
    """Per-key sums of (m, 3) ``rows`` into ``n`` rows, ``bins`` from
    :func:`_xyz_bins`.  Each key's rows are added one at a time in order, as
    ``rows[keys == k].sum(axis=0)`` adds them."""
    return np.bincount(bins, rows.ravel(), minlength=3 * n).reshape(-1, 3)


def disjoint_union(polys):
    """Coordinates and face-loop layout of the solids' disjoint union, whose
    vertex, face and slot ids run solid after solid, and where each solid's
    vertices and faces start (one entry more than the solids).  The union
    joins the solids' own cached layouts and edge indexes, so a solid's
    edges are sorted once, whatever corpora it joins; one solid is its own
    union."""
    node_starts = _ro(np.array([0, *itertools.accumulate(p.n_vertices for p in polys)]))
    face_starts = _ro(np.array([0, *itertools.accumulate(p.n_faces for p in polys)]))
    layouts = [p.face_loops for p in polys]
    if len(layouts) == 1:
        return polys[0].vertices, layouts[0], node_starts, face_starts
    sizes = [len(loops.verts) for loops in layouts]
    slot_shift = np.repeat(np.array([0, *itertools.accumulate(sizes)])[:-1], sizes)
    union = FaceLoops.from_lengths(
        np.concatenate([loops.verts for loops in layouts]) + np.repeat(node_starts[:-1], sizes),
        np.concatenate([loops.lengths for loops in layouts]),
    )
    # Each solid's ids follow those of the solids before it, so the union's
    # (tail, head) order is the solids' own orders one after another, and
    # every opposite lies in its own solid.
    order = np.concatenate([loops.edge_index[0] for loops in layouts]) + slot_shift
    opposite = np.concatenate([loops.edge_index[2] for loops in layouts])
    opposite = np.where(opposite >= 0, opposite + slot_shift, -1)
    base = int(union.verts.max()) + 1 if len(union.verts) else 1
    keys = union.verts[order] * base + union.heads[order]
    vars(union)["edge_index"] = (_ro(order), _ro(keys), _ro(opposite))  # the cached property
    coords = _ro(np.concatenate([p.vertices for p in polys]))
    return coords, union, node_starts, face_starts


def _cross(a, b):
    """Row-wise cross product of (n, 3) arrays; equal to ``np.cross`` bit for
    bit, without its axis handling, which dominates on small arrays."""
    ax, ay, az = a[:, 0], a[:, 1], a[:, 2]
    bx, by, bz = b[:, 0], b[:, 1], b[:, 2]
    return np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx], axis=1)


def _rowdot(a, b):
    """Row-wise dot products of (n, 3) arrays, as a stack of ``a[r] @ b[r]``.

    With numpy 2.4 and OpenBLAS these round like the one-vector ``a @ b``
    and ``np.linalg.norm`` of per-face code; ``np.einsum`` does not.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _newell(pts, loops: FaceLoops):
    """Newell vector of every loop at once: twice its vector area.

    ``pts`` holds the coordinates of each slot.  Centering each loop on its
    centroid keeps the sum well conditioned far from the origin, and the sum
    of cross products is robust for near-collinear vertex triples, unlike a
    single cross product.  Returns the Newell vectors, the loop centroids
    and the centered slot coordinates.  Every loop must be non-empty.
    """
    centroids = loops.sums(pts) / loops.lengths[:, None]
    centered = pts - centroids[loops.face]
    return loops.sums(_cross(centered, centered[loops.nxt])), centroids, centered


def bbox_diagonal(points):
    """Length of the bounding-box diagonal of (n, 3) points; 0 when empty."""
    return float(np.linalg.norm(np.ptp(points, axis=0))) if len(points) else 0.0


@dataclass(frozen=True)
class PolygonFace:
    """One face: an ordered vertex-index loop plus an attribute vector."""

    loop: tuple
    attr: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "loop", tuple(int(i) for i in self.loop))
        attr = np.atleast_1d(np.array(self.attr, dtype=np.float64))
        if attr.ndim != 1:
            raise GeometryError("face attribute must be a flat vector")
        if not all(map(math.isfinite, attr.tolist())):  # cheaper than numpy on a few values
            raise GeometryError("face attribute must be finite")
        attr.setflags(write=False)
        object.__setattr__(self, "attr", attr)

    def __len__(self):
        return len(self.loop)


@dataclass(frozen=True)
class Polyhedron:
    """Vertex coordinates plus outward-oriented face loops.

    Construction enforces only structural well-formedness (finite
    coordinates, in-range indices, uniform attribute width); geometric
    soundness is the job of :func:`validate_polyhedron`.
    """

    vertices: np.ndarray
    faces: tuple

    def __post_init__(self):
        verts = np.array(self.vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise GeometryError(f"vertices must be (N, 3), got {verts.shape}")
        if not np.all(np.isfinite(verts)):
            raise GeometryError("vertex coordinates must be finite")
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

        faces = tuple(
            f if isinstance(f, PolygonFace) else PolygonFace(*f) for f in self.faces
        )
        n = len(verts)
        dims = set()
        for fi, face in enumerate(faces):
            for v in face.loop:
                if v < 0 or v >= n:
                    raise GeometryError(f"face {fi} vertex {v} out of range for {n} vertices")
            dims.add(face.attr.shape[0])
        if len(dims) > 1:
            raise GeometryError(f"inconsistent attribute widths: {sorted(dims)}")
        object.__setattr__(self, "faces", faces)

    @cached_property
    def face_loops(self) -> FaceLoops:
        """Flat layout of the face loops (see the module note), built on first use."""
        return FaceLoops.from_loops([face.loop for face in self.faces])

    @cached_property
    def _report(self) -> ValidationReport:
        """:func:`validate_polyhedron`'s report, run once (or filled in by
        :func:`validate_corpus`); the arrays are read-only and the faces
        frozen, so it cannot go stale."""
        return _validate(self)[0]

    @cached_property
    def _graph_features(self) -> dict:
        """Memo of this solid's path features, keyed by attribute width; it is
        filled only by ``training.features_for_records``."""
        return {}

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def attr_dim(self):
        return self.faces[0].attr.shape[0] if self.faces else 0

    def bbox_diagonal(self):
        return bbox_diagonal(self.vertices)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    where: str
    deviation: float = 0.0


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_polyhedron`; ok iff no issues (warnings aside)."""

    ok: bool
    issues: tuple
    warnings: tuple = ()

    def codes(self):
        return [i.code for i in self.issues]


def validate_polyhedron(p: Polyhedron) -> ValidationReport:
    """Check closedness, orientation pairing, and face planarity.

    The report is computed once per solid and cached on it;
    :func:`validate_corpus` computes those of many solids in one pass, and
    this is its corpus of one.

    Every defect lands in the report rather than raising: no faces at all,
    short or repeated loops, zero-length edges, non-coplanar faces
    (point-to-plane distance above ``COPLANARITY_TOL`` times the
    bounding-box diagonal), collinear loop vertices, unpaired or duplicated
    directed edges, and vertices that belong to fewer than two faces.
    Inward-pointing normals are reported as warnings only, since the
    centroid test is meaningful just for convex solids.

    Issues come face by face (short loop, repeated vertex, zero-length edges
    and collinear vertices in loop order, then degenerate, non-coplanar or
    non-finite face), then per directed edge in (tail, head) order, then per
    vertex.  Loops shorter than three take part in no other check.

    Finite coordinates can still overflow.  A bounding-box diagonal beyond
    the float64 range is reported as the single issue ``non_finite_scale``,
    since no tolerance relative to it means anything; a finite one bounds
    every edge vector.  A face whose Newell vector or its length is not
    finite is ``non_finite_face``.
    """
    return p._report


def validate_corpus(polys) -> list:
    """The :func:`validate_polyhedron` report of each solid.  The solids
    without a cached report are validated together, in one pass over their
    disjoint union, and each report is cached on its solid."""
    fresh = list({id(p): p for p in polys if "_report" not in vars(p)}.values())
    for p, report in zip(fresh, _validate(*fresh) if fresh else ()):
        vars(p)["_report"] = report  # where the cached property keeps it
    return [p._report for p in polys]


def _bbox_diagonals(coords, node_starts, node_counts):
    """Each solid's :func:`bbox_diagonal`, from its ``node_counts[s]`` rows
    of ``coords`` at ``node_starts[s]``."""
    diag = np.zeros(len(node_counts))
    filled = node_counts > 0
    if filled.any():
        starts = node_starts[:-1][filled]
        ptp = np.maximum.reduceat(coords, starts) - np.minimum.reduceat(coords, starts)
        diag[filled] = np.sqrt(_rowdot(ptp, ptp))
    return diag


def _validate(*polys) -> list:
    """The reports of the given solids, from one pass over their disjoint
    union.  Each solid keeps its own scale and centroid, and its issues name
    its own ids, in the order a pass over it alone gives them."""
    coords, loops, node_starts, face_starts = disjoint_union(polys)
    node_counts = node_starts[1:] - node_starts[:-1]
    diag = _bbox_diagonals(coords, node_starts, node_counts)
    if not np.isfinite(diag).all():
        # No tolerance relative to an overflowing diagonal means anything:
        # such a solid's report is that one issue, and the others go on.
        finite = np.isfinite(diag).tolist()
        rest = iter(_validate(*(p for p, ok in zip(polys, finite) if ok)) if any(finite) else ())
        return [
            next(rest) if ok else ValidationReport(
                ok=False, issues=(ValidationIssue("non_finite_scale", "solid", d),)
            )
            for ok, d in zip(finite, diag.tolist())
        ]
    scale = np.where(diag > 0.0, diag, 1.0)  # a single point has no size
    nv, n = len(coords), len(polys)
    solid_of_node = np.repeat(np.arange(n), node_counts)
    solid_of_face = np.repeat(np.arange(n), face_starts[1:] - face_starts[:-1])
    # The mean of each solid's vertices: a bincount adds them in np.mean's order.
    size = np.maximum(node_counts, 1)[:, None]
    solid_centroid = _sums(_xyz_bins(solid_of_node), coords, n) / size
    sof, son = solid_of_face.tolist(), solid_of_node.tolist()
    first_face, first_node = face_starts.tolist(), node_starts.tolist()

    def lface(f):  # a face's id within its own solid
        return f - first_face[sof[f]]

    def lnode(v):  # a vertex's id within its own solid
        return v - first_node[son[v]]

    # Face issues sort by (face, check, slot); the checks run over all faces
    # at once, so their findings are collected first and ordered at the end.
    found = []
    lengths = loops.lengths
    short = np.flatnonzero(lengths < 3)
    found += [
        ((f, 0, 0), ValidationIssue("short_loop", f"face {lface(f)}", float(m)))
        for f, m in zip(short.tolist(), lengths[short].tolist())
    ]
    kept = np.flatnonzero(lengths >= 3)
    loops = loops.subset(kept) if len(short) else loops
    fid = kept.tolist()  # face id of each kept loop
    owner = kept[loops.face].tolist()  # face id of each slot
    verts, heads = loops.verts, loops.heads
    face_scale = scale[solid_of_face[kept]]

    # One sort of (face, vertex) pairs finds repeats within a loop and the
    # number of distinct faces around each vertex.
    pairs = np.sort(loops.face * nv + verts)
    first = np.diff(pairs, prepend=-1) != 0
    found += [
        ((fid[f], 1, 0), ValidationIssue("repeated_vertex", f"face {lface(fid[f])}"))
        for f in np.unique(pairs[~first] // nv).tolist()
    ]
    faces_per_vertex = np.bincount(pairs[first] % nv, minlength=nv)

    pts = coords[verts]
    edge = pts[loops.nxt] - pts
    edge_len = np.linalg.norm(edge, axis=1)
    found += [
        (
            (owner[s], 2, s),
            ValidationIssue(
                "zero_length_edge",
                f"face {lface(owner[s])} edge ({lnode(verts[s])},{lnode(heads[s])})",
                float(edge_len[s]),
            ),
        )
        for s in np.flatnonzero(edge_len < 1e-12 * face_scale[loops.face]).tolist()
    ]

    # Collinear (or spiked) vertices make in-plane angles ill defined
    # downstream, so they are flagged as issues and rejected.
    cross_norm = np.linalg.norm(_cross(edge[loops.prv], edge), axis=1)
    len_prod = edge_len[loops.prv] * edge_len
    collinear = (cross_norm < 1e-12 * np.maximum(len_prod, 1e-300)) & (len_prod > 0)
    found += [
        (
            (owner[s], 3, s),
            ValidationIssue(
                "collinear_vertices", f"face {lface(owner[s])} vertex {lnode(verts[s])}"
            ),
        )
        for s in np.flatnonzero(collinear).tolist()
    ]

    newell, centroids, centered = _newell(pts, loops)
    norm = np.sqrt(_rowdot(newell, newell))
    degenerate = norm / face_scale / face_scale < DEGENERATE_NORMAL_TOL
    unit = newell / np.where(degenerate, 1.0, norm)[:, None]
    dev = np.maximum.reduceat(np.abs(_rowdot(centered, unit[loops.face])), loops.starts)
    non_coplanar = ~degenerate & (dev > COPLANARITY_TOL * face_scale)
    outward = centroids - solid_centroid[solid_of_face[kept]]
    inward = ~degenerate & (_rowdot(unit, outward) < 0.0)
    for code, faces, value in (
        ("degenerate_face", degenerate, norm),
        ("non_coplanar_face", non_coplanar, dev),
        ("non_finite_face", ~np.isfinite(norm), norm),
    ):
        found += [
            ((fid[f], 4, 0), ValidationIssue(code, f"face {lface(fid[f])}", float(value[f])))
            for f in np.flatnonzero(faces).tolist()
        ]
    found.sort(key=lambda item: item[0])
    issues = [[] if p.n_faces else [ValidationIssue("no_faces", "solid")] for p in polys]
    for (f, _, _), issue in found:
        issues[sof[f]].append(issue)
    warnings = [[] for _ in polys]
    for f in kept[inward].tolist():
        warnings[sof[f]].append(ValidationIssue("inward_normal", f"face {lface(f)}"))

    # A run of equal keys is one directed edge used several times; self-loops
    # are skipped, as the repeated-vertex check reports them.
    order, keys, opposite = loops.edge_index
    runs = np.flatnonzero(np.diff(keys, prepend=-1) != 0)
    counts = np.diff(runs, append=len(keys))
    lead = order[runs]
    bad = (verts[lead] != heads[lead]) & ((counts > 1) | (opposite[lead] < 0))
    for s, count in zip(lead[bad].tolist(), counts[bad].tolist()):
        where = f"edge ({lnode(verts[s])},{lnode(heads[s])})"
        if count > 1:
            issues[sof[owner[s]]].append(ValidationIssue("duplicate_directed_edge", where, count))
        if opposite[s] < 0:
            issues[sof[owner[s]]].append(ValidationIssue("unpaired_directed_edge", where))

    for v in np.flatnonzero(faces_per_vertex < 2).tolist():
        issues[son[v]].append(
            ValidationIssue("vertex_in_few_faces", f"vertex {lnode(v)}", float(faces_per_vertex[v]))
        )

    return [
        ValidationReport(ok=not i, issues=tuple(i), warnings=tuple(w))
        for i, w in zip(issues, warnings)
    ]


@dataclass(frozen=True)
class RigidTransform:
    """Proper rotation (det +1) plus translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=np.float64)
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise InvalidTransformError(f"rotation must be 3x3, got {r.shape}")
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-12:
            raise InvalidTransformError("rotation is not orthonormal within 1e-12")
        if abs(np.linalg.det(r) - 1.0) > 1e-12:
            raise InvalidTransformError("rotation determinant is not +1 within 1e-12")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation


def apply_rigid_transform(p: Polyhedron, t: RigidTransform) -> Polyhedron:
    """Map every vertex v -> R v + t; faces and attributes are untouched."""
    return Polyhedron(t.apply(p.vertices), p.faces)


def sample_random_rotation(seed: int) -> RigidTransform:
    """Rotation uniform on SO(3) (normalized Gaussian quaternion), zero shift."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    r = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return RigidTransform(r, np.zeros(3))


# ---------------------------------------------------------------------------
# Extrusion


@dataclass(frozen=True)
class ColorScheme:
    """Attribute vectors per face role of an extruded solid.

    Roles: ``front`` (+z cap), ``back`` (-z cap), ``side`` (lateral faces),
    and ``bottom_side`` (lateral faces whose pre-rotation outward normal
    points downward, within a configurable cone of -y).
    """

    front: np.ndarray
    back: np.ndarray
    side: np.ndarray
    bottom_side: np.ndarray

    def __post_init__(self):
        for name in ("front", "back", "side", "bottom_side"):
            value = np.array(np.atleast_1d(getattr(self, name)), dtype=np.float64)
            object.__setattr__(self, name, _ro(value))
        dims = {getattr(self, n).shape[0] for n in ("front", "back", "side", "bottom_side")}
        if len(dims) != 1:
            raise GeometryError("color scheme vectors must share one width")

    @property
    def attr_dim(self):
        return self.front.shape[0]

    @classmethod
    def empty(cls):
        z = np.zeros(0)
        return cls(z, z, z, z)

    @classmethod
    def rgb_default(cls):
        """Red front, blue back, green sides, purple bottom-facing sides."""
        return cls(
            front=np.array([1.0, 0.0, 0.0]),
            back=np.array([0.0, 0.0, 1.0]),
            side=np.array([0.0, 1.0, 0.0]),
            bottom_side=np.array([0.5, 0.0, 0.5]),
        )


def _segments_properly_intersect(p1, p2, p3, p4):
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if v > 0:
            return 1
        if v < 0:
            return -1
        return 0

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
    o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(p1, p2, p3):
        return True
    if o2 == 0 and on_segment(p1, p2, p4):
        return True
    if o3 == 0 and on_segment(p3, p4, p1):
        return True
    if o4 == 0 and on_segment(p3, p4, p2):
        return True
    return False


def polygon_is_simple(points2d: np.ndarray) -> bool:
    """Brute-force check that no two non-adjacent edges intersect."""
    points2d = points2d.tolist()  # Python floats: several times faster than numpy scalars
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


def polygon_signed_area(points2d: np.ndarray) -> float:
    x, y = points2d[:, 0], points2d[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# A side face is a bottom side when its outward normal lies within 22.5
# degrees of -y.
_BOTTOM_CONE_COS = math.cos(math.radians(22.5))


def extrude_polygon(poly2d, height: float, scheme: ColorScheme | None = None) -> Polyhedron:
    """Stretch a simple CCW polygon along +z into a closed prismatic solid.

    The front cap sits at z = height with the original loop order (outward
    normal +z); the back cap at z = 0 with the loop reversed; each 2D edge
    becomes one quad whose winding makes its normal point outward.  Face
    attributes come from ``scheme`` (empty scheme when None).
    """
    pts = np.array(poly2d, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"expected (n, 2) polygon, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise GeometryError("polygon has a non-finite coordinate")
    n = len(pts)
    if n < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    if not (height > 0):
        raise GeometryError(f"extrusion height must be positive, got {height}")
    edge = np.roll(pts, -1, axis=0) - pts
    if np.any(np.linalg.norm(edge, axis=1) == 0.0):
        raise GeometryError("polygon has a zero-length edge")
    if polygon_signed_area(pts) <= 0:
        raise GeometryError("polygon must be counterclockwise")
    if not polygon_is_simple(pts):
        raise GeometryError("polygon is self-intersecting")

    scheme = scheme or ColorScheme.empty()
    back = np.column_stack([pts, np.zeros(n)])
    front = np.column_stack([pts, np.full(n, float(height))])
    vertices = np.vstack([back, front])

    faces = [
        PolygonFace(tuple(range(n, 2 * n)), scheme.front),
        PolygonFace(tuple(reversed(range(n))), scheme.back),
    ]
    for i in range(n):
        j = (i + 1) % n
        # Outward side normal of a CCW polygon is (dy, -dx); it is within the
        # bottom cone of -y exactly when dx / |edge| >= cos(cone).
        downness = edge[i, 0] / np.linalg.norm(edge[i])
        attr = scheme.bottom_side if downness >= _BOTTOM_CONE_COS else scheme.side
        faces.append(PolygonFace((i, j, n + j, n + i), attr))
    return Polyhedron(vertices, tuple(faces))


# ---------------------------------------------------------------------------
# Alignment


def kabsch_align(a, b):
    """Best proper rotation + translation mapping point set ``a`` onto ``b``.

    Points correspond by index.  Reflections are not permitted: the rotation
    determinant is forced to +1, so mirror images keep a positive residual.
    Returns ``(transform, rmsd)``.
    """
    pa = np.array(a, dtype=np.float64)
    pb = np.array(b, dtype=np.float64)
    if pa.shape != pb.shape or pa.ndim != 2 or pa.shape[1] != 3:
        raise GeometryError(f"point sets must match as (N, 3); got {pa.shape}, {pb.shape}")
    if len(pa) < 3:
        raise GeometryError("kabsch needs at least 3 points")
    ca, cb = pa.mean(axis=0), pb.mean(axis=0)
    qa, qb = pa - ca, pb - cb
    for q in (qa, qb):
        s = np.linalg.svd(q, compute_uv=False)
        if s[1] < 1e-9 * max(s[0], 1e-300):
            raise GeometryError("rank-deficient point set (collinear or coincident)")
    h = qa.T @ qb
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = cb - r @ ca
    residual = qb - qa @ r.T
    rmsd = float(np.sqrt((residual**2).sum() / len(pa)))
    return RigidTransform(r, t), rmsd
