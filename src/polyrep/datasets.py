"""Dataset formats and builders.

Covers the polyhedron JSON codec (lossless, 17-significant-digit decimals),
a small OBJ/MTL reader, merging of coplanar same-attribute triangles into
polygonal faces, the extrusion dataset builder with directional coloring,
seeded splits, and a synthetic solid generator used throughout the tests.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, GeometryError, InvalidPolyhedronError
from .geometry import (
    ColorScheme,
    FaceLoops,
    PolygonFace,
    Polyhedron,
    _cross,
    _rowdot,
    apply_rigid_transform,
    extrude_polygon,
    sample_random_rotation,
    validate_corpus,
    validate_polyhedron,
)
from .surface_graph import SurfaceTopology

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PolyhedronRecord:
    polyhedron: Polyhedron
    label: int
    source_id: str = ""


# ---------------------------------------------------------------------------
# JSON codec


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def encode_record(rec: PolyhedronRecord) -> str:
    """Serialize to the record schema with >= 17 significant digits, so that
    decode(encode(r)) reproduces coordinates bitwise."""
    p = rec.polyhedron
    verts = ",".join(
        "[" + ",".join(_fmt(c) for c in v) + "]" for v in np.asarray(p.vertices)
    )
    faces = ",".join(
        '{"loop":[' + ",".join(str(i) for i in f.loop) + '],'
        '"attr":[' + ",".join(_fmt(a) for a in f.attr) + "]}"
        for f in p.faces
    )
    return (
        '{"vertices":[' + verts + '],"faces":[' + faces + "],"
        '"label":' + str(int(rec.label)) + ',"id":' + json.dumps(rec.source_id) + "}"
    )


def _want(obj, key, kinds, path):
    if key not in obj:
        raise DataError(f"{path}.{key}: missing")
    val = obj[key]
    if not isinstance(val, kinds):
        raise DataError(f"{path}.{key}: expected {kinds}, got {type(val).__name__}")
    return val


def _numbers(val, field, expected="a number list", length=None):
    """A JSON list of numbers as floats; else a DataError naming ``field``."""
    # type(), not isinstance(): JSON true and false decode as bool, an int.
    if (
        not isinstance(val, list)
        or length not in (None, len(val))
        or not all(type(c) in (int, float) for c in val)
    ):
        raise DataError(f"{field}: expected {expected}")
    try:
        return [float(c) for c in val]
    except OverflowError as exc:
        raise DataError(f"{field}: {exc}") from exc


def _face(face, field):
    """The loop (a tuple of ints) and attributes (floats) of a JSON face
    object; else a DataError naming ``field``, for records and topologies."""
    if not isinstance(face, dict):
        raise DataError(f"{field}: expected an object")
    loop = _want(face, "loop", list, field)
    if not all(type(i) is int for i in loop):
        raise DataError(f"{field}.loop: expected integer indices")
    return tuple(loop), _numbers(face.get("attr", []), f"{field}.attr")


def _label_and_id(label, source_id, where=""):
    """A record's label, a nonnegative JSON integer, and its id, a string;
    else a DataError naming the field, for records and manifest rows."""
    if type(label) is not int or label < 0:
        raise DataError(f"{where}label: expected a nonnegative integer")
    if not isinstance(source_id, str):
        raise DataError(f"{where}id: expected a string")
    return label, source_id


def decode_record(text: str, expected_attr_dim: int | None = None) -> PolyhedronRecord:
    """Parse and verify one record; diagnostics name the offending field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"not valid JSON: {exc}") from exc
    record = _record(doc, expected_attr_dim)
    _require_valid([record])
    return record


def _record(doc, expected_attr_dim) -> PolyhedronRecord:
    """The record a parsed JSON document holds, not yet validated."""
    if not isinstance(doc, dict):
        raise DataError("top level: expected an object")
    verts = [
        _numbers(v, f"vertices[{vi}]", "[x, y, z] numbers", 3)
        for vi, v in enumerate(_want(doc, "vertices", list, "$"))
    ]
    faces = []
    for fi, f in enumerate(_want(doc, "faces", list, "$")):
        loop, attr = _face(f, f"faces[{fi}]")
        if expected_attr_dim is not None and len(attr) != expected_attr_dim:
            raise DataError(
                f"faces[{fi}].attr: width {len(attr)} != expected {expected_attr_dim}"
            )
        try:
            faces.append(PolygonFace(loop, np.array(attr, dtype=np.float64)))
        except GeometryError as exc:
            raise DataError(f"faces[{fi}].attr: {exc}") from exc
    label, source_id = _label_and_id(doc.get("label", 0), doc.get("id", ""))
    try:
        poly = Polyhedron(np.array(verts, dtype=np.float64).reshape(-1, 3), tuple(faces))
    except GeometryError as exc:
        raise DataError(str(exc)) from exc
    return PolyhedronRecord(poly, label, source_id)


def _require_valid(records) -> None:
    """Validate the records' solids in one pass; the first invalid one, in
    order, raises :class:`InvalidPolyhedronError`."""
    validate_corpus([r.polyhedron for r in records])
    for r in records:
        report = validate_polyhedron(r.polyhedron)
        if not report.ok:
            raise InvalidPolyhedronError(report)


def save_records(records, path) -> None:
    """JSON-lines corpus, one record per line."""
    with open(path, "w", encoding="utf-8") as fp:
        for rec in records:
            fp.write(encode_record(rec) + "\n")


def load_records(path, expected_attr_dim: int | None = None) -> list:
    """Read a JSON-lines corpus; manifest rows ({path, label, id}) load the
    referenced file relative to the corpus location.  Every line is decoded
    first and the solids validated together; the first defect in line
    order, of either kind, raises."""
    path = Path(path)
    records = []
    try:
        with open(path, encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, start=1):
                line = line.strip()
                if line:
                    records.append(_load_line(path, lineno, line, expected_attr_dim))
    except (DataError, InvalidPolyhedronError, UnicodeDecodeError):
        _require_valid(records)  # a solid on an earlier line comes first
        raise
    _require_valid(records)
    return records


def _load_line(path, lineno, line, expected_attr_dim) -> PolyhedronRecord:
    """The record of one corpus line: unvalidated when inline, validated
    when a manifest row names its file."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    if not (isinstance(doc, dict) and "path" in doc and "vertices" not in doc):
        return _record(doc, expected_attr_dim)
    where = f"{path}:{lineno}: "
    if not isinstance(doc["path"], str):
        raise DataError(f"{where}path: expected a string")
    target = path.parent / doc["path"]
    try:
        text = target.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{where}cannot read {target}: {exc}")
    rec = decode_record(text, expected_attr_dim)
    fields = doc.get("label", rec.label), doc.get("id", rec.source_id)
    return PolyhedronRecord(rec.polyhedron, *_label_and_id(*fields, where))


def load_polygons(path) -> list:
    """Read a polygons file, a JSON list of ``{"points": [[x, y], ...],
    "label": n}`` rows, as (points, label) pairs for
    :func:`build_extrusion_dataset`; each diagnostic names the file, the row
    and the field."""
    with open(path, encoding="utf-8") as fp:
        try:
            doc = json.load(fp)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise DataError(f"{path}: top level: expected a list")
    polygons = []
    for ri, row in enumerate(doc):
        where = f"{path}: [{ri}]"
        if not isinstance(row, dict):
            raise DataError(f"{where}: expected an object")
        points = [
            _numbers(pt, f"{where}.points[{pi}]", "[x, y] numbers", 2)
            for pi, pt in enumerate(_want(row, "points", list, where))
        ]
        label, _ = _label_and_id(row.get("label"), "", f"{where}.")
        polygons.append((np.array(points, dtype=np.float64).reshape(-1, 2), label))
    return polygons


def load_topology(path) -> SurfaceTopology:
    """Read a topology file, ``{"n_nodes": n, "faces": [{"loop": [...],
    "attr": [...]}, ...]}``, under the record codec's field rules; each
    diagnostic names the file and the field."""
    with open(path, encoding="utf-8") as fp:
        try:
            doc = json.load(fp)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: top level: expected an object")
    n_nodes = doc.get("n_nodes")
    if type(n_nodes) is not int or n_nodes < 0:
        raise DataError(f"{path}: n_nodes: expected a nonnegative integer")
    loops, attrs = [], []
    for fi, face in enumerate(_want(doc, "faces", list, f"{path}: $")):
        loop, attr = _face(face, f"{path}: faces[{fi}]")
        if not all(map(math.isfinite, attr)):
            raise DataError(f"{path}: faces[{fi}].attr: face attribute must be finite")
        loops.append(loop)
        attrs.append(attr)
    width = max((len(a) for a in attrs), default=0)
    if any(len(a) not in (0, width) for a in attrs):
        raise DataError(f"{path}: inconsistent attr widths")
    attr_arr = np.array([a or [0.0] * width for a in attrs], dtype=np.float64)
    return SurfaceTopology(n_nodes, tuple(loops), attr_arr.reshape(len(loops), width))


def dump_topology(topo: SurfaceTopology, path) -> None:
    doc = {
        "n_nodes": topo.n_nodes,
        "faces": [
            {"loop": list(loop), "attr": [float(a) for a in topo.attrs[fi]]}
            for fi, loop in enumerate(topo.loops)
        ],
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)


# ---------------------------------------------------------------------------
# Triangle meshes and OBJ input


@dataclass(frozen=True)
class TriangleMesh:
    """Closed, consistently oriented triangle mesh with per-triangle attrs."""

    vertices: np.ndarray
    triangles: np.ndarray
    attrs: np.ndarray

    def __post_init__(self):
        verts = np.array(self.vertices, dtype=np.float64).reshape(-1, 3)
        tris = np.array(self.triangles, dtype=np.int64).reshape(-1, 3)
        if not len(tris):
            raise DataError("mesh has no triangles")
        attrs = np.atleast_2d(np.array(self.attrs, dtype=np.float64))
        if attrs.size == 0:
            attrs = attrs.reshape(len(tris), -1)
        if len(attrs) != len(tris):
            raise DataError("one attribute row per triangle required")
        if not np.isfinite(attrs).all():
            raise DataError("triangle attributes must be finite")
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            raise DataError("triangle index out of range")
        for arr in (verts, tris, attrs):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "attrs", attrs)

        tail, head = self.face_loops.verts, self.face_loops.heads
        if np.any(tail == head):
            raise DataError(f"triangle {np.argmax(tail == head) // 3} has a degenerate edge")
        order, keys, opposite = self.face_loops.edge_index
        repeats = order[1:][keys[1:] == keys[:-1]]
        if len(repeats):
            s = repeats.min()
            raise DataError(
                f"directed edge ({tail[s]},{head[s]}) used twice: mesh is not "
                "consistently oriented or not manifold"
            )
        if np.any(opposite < 0):
            s = np.argmax(opposite < 0)
            raise DataError(f"boundary edge ({tail[s]},{head[s]}): mesh is not closed")

    @cached_property
    def face_loops(self) -> FaceLoops:
        """The triangles as a face-loop layout: slot ``3 t + i`` is corner ``i``."""
        return FaceLoops.from_lengths(self.triangles.ravel(), np.full(len(self.triangles), 3))

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def attr_dim(self):
        return self.attrs.shape[1]

    def triangle_normals(self):
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        n = np.cross(b - a, c - a)
        norms = np.linalg.norm(n, axis=1, keepdims=True)
        if np.any(norms < 1e-300):
            raise DataError("zero-area triangle")
        return n / norms


def parse_mtl(path) -> dict:
    """Material name -> diffuse RGB, from newmtl/Kd directives."""
    materials = {}
    current = None
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "newmtl" and len(parts) >= 2:
                current = parts[1]
                materials[current] = np.zeros(3)
            elif parts[0] == "Kd" and current is not None:
                if len(parts) < 4:
                    raise DataError(f"{path}:{lineno}: malformed Kd line: {line.strip()}")
                materials[current] = np.array(_finite(parts[1:4], f"{path}:{lineno}: Kd values"))
    return materials


def _finite(tokens, what):
    """OBJ/MTL number tokens as finite floats; else a DataError naming ``what``."""
    try:
        vals = [float(x) for x in tokens]
    except ValueError as exc:
        raise DataError(f"{what} must be numbers") from exc
    if not all(map(math.isfinite, vals)):
        raise DataError(f"{what} must be finite")
    return vals


def import_obj(path, materials: dict | None = None) -> TriangleMesh:
    """Load v/f/usemtl directives; polygonal faces are fan-triangulated.

    Indices are 1-based; negative indices count back from the current vertex
    list.  Unknown directives are ignored.  ``materials`` maps usemtl names
    to attribute vectors (triangles before any usemtl get zeros); with no
    table the mesh is attribute-free.
    """
    attr_dim = 0
    if materials:
        widths = {len(v) for v in materials.values()}
        if len(widths) != 1:
            raise DataError("material attribute vectors must share one width")
        attr_dim = widths.pop()
    current_attr = np.zeros(attr_dim)
    verts, tris, attrs = [], [], []
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            cmd = parts[0]
            if cmd == "v":
                if len(parts) < 4:
                    raise DataError(f"{path}:{lineno}: malformed vertex")
                verts.append(_finite(parts[1:4], f"{path}:{lineno}: vertex coordinates"))
            elif cmd == "usemtl":
                name = parts[1] if len(parts) > 1 else ""
                if materials is None or name not in materials:
                    raise DataError(f"{path}:{lineno}: unknown material {name!r}")
                current_attr = np.asarray(materials[name], dtype=np.float64)
            elif cmd == "f":
                idx = []
                for token in parts[1:]:
                    head = token.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError as exc:
                        msg = f"{path}:{lineno}: face index {head!r} is not an integer"
                        raise DataError(msg) from exc
                    if i < 0:
                        i = len(verts) + i
                    else:
                        i = i - 1
                    if i < 0 or i >= len(verts):
                        raise DataError(
                            f"{path}:{lineno}: face index {head} out of range"
                        )
                    idx.append(i)
                if len(idx) < 3:
                    raise DataError(f"{path}:{lineno}: face with <3 vertices")
                for t in range(1, len(idx) - 1):
                    tris.append([idx[0], idx[t], idx[t + 1]])
                    attrs.append(current_attr)
    if not tris:
        raise DataError(f"{path}: no faces found")
    return TriangleMesh(
        np.array(verts), np.array(tris), np.array(attrs).reshape(len(tris), attr_dim)
    )


# ---------------------------------------------------------------------------
# Coplanar merging


@dataclass(frozen=True)
class Rejected:
    """A mesh the merge procedure drops rather than converts."""

    reason: str


def merge_coplanar_faces(
    mesh: TriangleMesh, normal_tol: float = 1e-6, max_faces: int = 64
):
    """Fuse edge-adjacent triangles with matching normals and attributes.

    Triangles join one region when they share an undirected edge, their unit
    normals satisfy n_a . n_b >= 1 - normal_tol, and their attribute vectors
    are identical.  Each region's boundary (directed edges whose opposite
    lies outside the region) must chain into exactly one loop; regions with
    holes or pinches are rejected, as are results with more than
    ``max_faces`` faces.  Collinear boundary vertices are dropped.  Faces,
    and the defect reported first, follow each region's smallest triangle.
    Returns a validated :class:`Polyhedron` or :class:`Rejected`.
    """
    normals = mesh.triangle_normals()
    # The triangle across each slot's edge; a TriangleMesh is closed, so
    # every edge has an opposite.
    layout = mesh.face_loops
    own, across = layout.face, layout.face[layout.edge_index[2]]
    same = np.all(mesh.attrs[own] == mesh.attrs[across], axis=1)
    joined = same & (_rowdot(normals[own], normals[across]) >= 1.0 - normal_tol)
    # Label each triangle with its region's smallest triangle: min-label
    # propagation over the joined slots, with pointer jumping.
    label, prev = np.arange(mesh.n_triangles), None
    while not np.array_equal(label, prev):
        prev, label = label, label.copy()
        np.minimum.at(label, own[joined], prev[across[joined]])
        label = label[label]
    first_tri, region = np.unique(label, return_inverse=True)
    n = len(first_tri)
    if n > max_faces:
        return Rejected(f"residual faces: {n} > {max_faces}")

    # Boundary slots sorted by (region, tail), ties in slot order.  A tail that
    # repeats within a region pinches it, at the repeat first in slot order.
    bnd = np.flatnonzero(region[own] != region[across])
    n_v = len(mesh.vertices)
    key = region[own[bnd]] * n_v + layout.verts[bnd]
    bnd, key = bnd[np.argsort(key, kind="stable")], np.sort(key)
    reg = key // n_v
    counts = np.bincount(reg, minlength=n)
    repeat = np.flatnonzero(key[1:] == key[:-1]) + 1
    pinch = np.full(n, len(own))
    np.minimum.at(pinch, reg[repeat], bnd[repeat])

    # Walk each unpinched region's boundary from its smallest tail.  In a closed,
    # oriented mesh a boundary leaves each vertex as often as it enters it.
    succ = np.searchsorted(key, reg * n_v + layout.heads[bnd]).tolist()
    walk = []
    for start in (np.cumsum(counts) - counts)[(pinch == len(own)) & (counts > 0)].tolist():
        walk.append(start)
        while (i := succ[walk[-1]]) != start:
            walk.append(i)
    walked = np.bincount(reg[walk], minlength=n)

    # Drop the straight-through vertices of every chained loop at once.
    loops = FaceLoops.from_lengths(layout.verts[bnd[walk]], walked)
    pts = mesh.vertices[loops.verts]
    e_in, e_out = pts - pts[loops.prv], pts[loops.nxt] - pts
    cross = _cross(e_in, e_out)
    scale = np.sqrt(_rowdot(e_in, e_in)) * np.sqrt(_rowdot(e_out, e_out))
    drop = (np.sqrt(_rowdot(cross, cross)) < 1e-9 * scale) & (_rowdot(e_in, e_out) > 0)
    kept = np.bincount(loops.face[~drop], minlength=n)

    # The first region that fails a check reports its first failing check.
    failed = np.flatnonzero((walked != counts) | (kept < 3))
    if len(failed):
        r = failed[0]
        if pinch[r] < len(own):
            return Rejected(f"pinched region boundary at vertex {layout.verts[pinch[r]]}")
        if counts[r] == 0:
            raise DataError("region without boundary edges")
        if walked[r] < counts[r]:
            return Rejected(f"region with {counts[r] - walked[r]} extra boundary edges")
        raise DataError("region boundary collapsed below 3 vertices")

    used, loop_verts = np.unique(loops.verts[~drop], return_inverse=True)
    faces = tuple(
        PolygonFace(loop, mesh.attrs[t])
        for loop, t in zip(np.split(loop_verts, np.cumsum(kept)[:-1]), first_tri)
    )
    poly = Polyhedron(mesh.vertices[used], faces)
    report = validate_polyhedron(poly)
    if not report.ok:
        raise InvalidPolyhedronError(report)
    return poly


def triangulate(p: Polyhedron) -> TriangleMesh:
    """Fan-triangulate every face (valid for convex faces), keeping attrs."""
    tris, attrs = [], []
    for face in p.faces:
        loop = face.loop
        for t in range(1, len(loop) - 1):
            tris.append([loop[0], loop[t], loop[t + 1]])
            attrs.append(face.attr)
    return TriangleMesh(
        p.vertices, np.array(tris), np.array(attrs).reshape(len(tris), p.attr_dim)
    )


# ---------------------------------------------------------------------------
# Builders


def build_extrusion_dataset(
    polygons, height: float, scheme: ColorScheme, rotate: bool, seed: int
) -> list:
    """Extrude labeled 2D polygons into colored records with ids ``poly-<index>``.

    ``polygons`` is a sequence of (points2d, label).  Invalid polygons are
    skipped with a log entry.  With ``rotate`` each record gets its own
    seeded random orientation; otherwise solids stay axis-aligned.
    """
    records = []
    for idx, (points, label) in enumerate(polygons):
        try:
            solid = extrude_polygon(points, height, scheme)
        except GeometryError as exc:
            logger.warning("skipping polygon %d: %s", idx, exc)
            continue
        if rotate:
            solid = apply_rigid_transform(solid, sample_random_rotation(seed + idx))
        records.append(PolyhedronRecord(solid, int(label), f"poly-{idx}"))
    return records


def split_dataset(records, seed: int):
    """Seeded shuffle then 60/20/20 split (train/val take the floors)."""
    records = list(records)
    if len(records) < 5:
        raise DataError(f"need at least 5 records to split, got {len(records)}")
    order = np.random.default_rng(seed).permutation(len(records))
    n_train = int(0.6 * len(records))
    n_val = int(0.2 * len(records))
    train = [records[i] for i in order[:n_train]]
    val = [records[i] for i in order[n_train : n_train + n_val]]
    test = [records[i] for i in order[n_train + n_val :]]
    return train, val, test


# ---------------------------------------------------------------------------
# Synthetic solids (bundled generator for tests and desk-scale experiments)


def _orient_convex(vertices, faces):
    """Wind each face of a convex solid so its normal points away from the
    vertex centroid."""
    vertices = np.asarray(vertices, dtype=np.float64)
    centroid = vertices.mean(axis=0)
    out = []
    for loop in faces:
        pts = vertices[list(loop)]
        n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        if n @ (pts.mean(axis=0) - centroid) < 0:
            loop = tuple(reversed(loop))
        out.append(tuple(loop))
    return out


def make_tetrahedron(rng=None, jitter: float = 0.0, attr_dim: int = 0) -> Polyhedron:
    base = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    if rng is not None and jitter > 0:
        base = base + rng.uniform(-jitter, jitter, size=base.shape)
    loops = _orient_convex(base, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    attrs = _random_attrs(rng, 4, attr_dim)
    faces = tuple(PolygonFace(loop, attrs[i]) for i, loop in enumerate(loops))
    return Polyhedron(base, faces)


def make_box(rng=None, jitter: float = 0.0, attr_dim: int = 0) -> Polyhedron:
    sx = sy = sz = 1.0
    if rng is not None and jitter > 0:
        sx, sy, sz = 1.0 + rng.uniform(-jitter, jitter, size=3)
    square = np.array([[0.0, 0.0], [sx, 0.0], [sx, sy], [0.0, sy]])
    solid = extrude_polygon(square, sz)
    if attr_dim:
        attrs = _random_attrs(rng, solid.n_faces, attr_dim)
        solid = with_face_attrs(solid, attrs)
    return solid


def make_prism(rng=None, jitter: float = 0.0, sides: int = 6, attr_dim: int = 0) -> Polyhedron:
    angles = 2 * np.pi * np.arange(sides) / sides
    radii = np.ones(sides)
    height = 1.0
    if rng is not None and jitter > 0:
        radii = radii + rng.uniform(-jitter, jitter, size=sides)
        height = 1.0 + rng.uniform(-jitter, jitter)
    points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    solid = extrude_polygon(points, height)
    if attr_dim:
        attrs = _random_attrs(rng, solid.n_faces, attr_dim)
        solid = with_face_attrs(solid, attrs)
    return solid


def make_pyramid(rng=None, jitter: float = 0.0, sides: int = 4, attr_dim: int = 0) -> Polyhedron:
    angles = 2 * np.pi * np.arange(sides) / sides
    radii = np.ones(sides)
    apex = np.array([0.0, 0.0, 1.2])
    if rng is not None and jitter > 0:
        radii = radii + rng.uniform(-jitter, jitter, size=sides)
        apex = apex + np.append(rng.uniform(-jitter, jitter, size=2) * 0.3, rng.uniform(-jitter, jitter))
    base = np.column_stack([radii * np.cos(angles), radii * np.sin(angles), np.zeros(sides)])
    vertices = np.vstack([base, apex[None, :]])
    loops = [tuple(reversed(range(sides)))]
    for i in range(sides):
        loops.append((i, (i + 1) % sides, sides))
    loops = _orient_convex(vertices, loops)
    attrs = _random_attrs(rng, len(loops), attr_dim)
    faces = tuple(PolygonFace(loop, attrs[i]) for i, loop in enumerate(loops))
    return Polyhedron(vertices, faces)


def random_simple_polygon(rng, n_min: int = 5, n_max: int = 10) -> np.ndarray:
    """Star-shaped polygon around the origin: always simple and CCW.

    Angles come from normalized bounded gaps, so every angular gap stays
    well below pi; each edge then lies inside its own angular wedge and no
    two edges can cross (sorted angles alone do not guarantee that when a
    gap exceeds pi and a chord passes the far side of the origin).
    """
    n = int(rng.integers(n_min, n_max + 1))
    gaps = rng.uniform(0.6, 1.4, size=n)
    angles = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    radii = rng.uniform(0.5, 1.5, size=n)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def with_face_attrs(p: Polyhedron, attrs) -> Polyhedron:
    attrs = np.atleast_2d(np.asarray(attrs, dtype=np.float64))
    if attrs.shape[0] != p.n_faces:
        raise DataError("one attribute row per face required")
    faces = tuple(
        PolygonFace(face.loop, attrs[fi]) for fi, face in enumerate(p.faces)
    )
    return Polyhedron(p.vertices, faces)


def _random_attrs(rng, n_faces, attr_dim):
    if attr_dim == 0:
        return np.zeros((n_faces, 0))
    if rng is None:
        return np.zeros((n_faces, attr_dim))
    return rng.uniform(0.0, 1.0, size=(n_faces, attr_dim))


_MAKERS = {
    "tetrahedron": make_tetrahedron,
    "box": make_box,
    "prism": make_prism,
    "pyramid": make_pyramid,
}


def synthetic_solid(
    kind: str, rng, jitter: float = 0.1, attr_dim: int = 0
) -> Polyhedron:
    try:
        maker = _MAKERS[kind]
    except KeyError:
        raise DataError(f"unknown solid kind {kind!r}; choose from {sorted(_MAKERS)}")
    return maker(rng=rng, jitter=jitter, attr_dim=attr_dim)


def synthetic_dataset(
    n: int,
    kinds=("tetrahedron", "box", "prism"),
    seed: int = 0,
    jitter: float = 0.1,
    rotate: bool = True,
    attr_dim: int = 0,
) -> list:
    """Balanced labeled corpus of jittered solids, one class per kind."""
    rng = np.random.default_rng(seed)
    records = []
    for idx in range(n):
        label = idx % len(kinds)
        solid = synthetic_solid(kinds[label], rng, jitter, attr_dim)
        if rotate:
            solid = apply_rigid_transform(solid, sample_random_rotation(seed + 1000 + idx))
        records.append(PolyhedronRecord(solid, label, f"{kinds[label]}-{idx}"))
    return records


def color_coded_cube_dataset(n: int, seed: int = 0) -> list:
    """Geometrically identical cubes whose only difference is face color.

    Class 0 paints one face red, class 1 paints it blue; the remaining five
    faces are gray.  Random orientations make geometry useless for telling
    the classes apart, so any separation must come from the attributes.
    """
    records = []
    gray = np.array([0.5, 0.5, 0.5])
    marks = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    for idx in range(n):
        label = idx % 2
        cube = make_box()
        attrs = np.tile(gray, (cube.n_faces, 1))
        attrs[0] = marks[label]
        cube = with_face_attrs(cube, attrs)
        cube = apply_rigid_transform(cube, sample_random_rotation(seed + idx))
        records.append(PolyhedronRecord(cube, label, f"cube-{idx}"))
    return records
