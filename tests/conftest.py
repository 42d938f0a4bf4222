"""Shared solid factories for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import settings

from polyrep import Polyhedron, PolygonFace, extrude_polygon
from polyrep.datasets import (
    TriangleMesh,
    make_box,
    make_prism,
    make_pyramid,
    make_tetrahedron,
    random_simple_polygon,
    synthetic_solid,
)
from polyrep.nn import BN_EPS

settings.register_profile("suite", max_examples=25, deadline=None)
settings.register_profile("deep", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))


@pytest.fixture
def cube():
    return make_box()


@pytest.fixture
def tetrahedron():
    return make_tetrahedron()


@pytest.fixture
def triangular_prism():
    return extrude_polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]), 2.0)


@pytest.fixture
def l_shaped_solid():
    loop = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]])
    return extrude_polygon(loop, 1.0)


def solid_corpus(n, seed=0, jitter=0.1):
    """Mixed bag of generated solids for round-trip style tests."""
    rng = np.random.default_rng(seed)
    kinds = ("tetrahedron", "box", "prism", "pyramid")
    solids = []
    for idx in range(n):
        if idx % 5 == 4:
            solids.append(
                extrude_polygon(random_simple_polygon(rng), float(rng.uniform(0.5, 2.0)))
            )
        else:
            solids.append(synthetic_solid(kinds[idx % 4], rng, jitter=jitter))
    return solids


def icosphere_mesh(subdivisions=1):
    """Subdivided icosahedron projected to the unit sphere: no two adjacent
    triangles are coplanar, so coplanar merging leaves every face alone."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [np.array(v, dtype=np.float64) / np.linalg.norm(v) for v in verts]
    tris = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        cache = {}
        new_tris = []

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in tris:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_tris += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        tris = new_tris
    return TriangleMesh(
        np.array(verts), np.array(tris), np.zeros((len(tris), 0))
    )


def grid_cube_mesh(k, colors=None, rng=None):
    """Unit cube with each face cut into a k x k grid, two triangles per
    cell, in face, row, column order.  With ``colors`` each cell gets a
    one-wide colour attribute: drawn from ``colors`` colours by ``rng``, or
    without ``rng`` one colour per face.  Without ``colors`` the mesh has
    no attributes and merges back to six quads."""
    index = {}
    tris, cell_color = [], []
    for face, (axis, side) in enumerate((a, s) for a in range(3) for s in (0, 1)):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        if side == 0:
            u, v = v, u  # keeps every face's normal pointing outward
        corners = np.zeros((k + 1, k + 1), dtype=np.int64)
        for i in range(k + 1):
            for j in range(k + 1):
                point = [0, 0, 0]
                point[axis], point[u], point[v] = side * k, i, j
                corners[i, j] = index.setdefault(tuple(point), len(index))
        for i in range(k):
            for j in range(k):
                p00, p10 = corners[i, j], corners[i + 1, j]
                p11, p01 = corners[i + 1, j + 1], corners[i, j + 1]
                tris += [(p00, p10, p11), (p00, p11, p01)]
                color = face if rng is None else rng.integers(colors or 1)
                cell_color += [color, color]
    vertices = np.array(list(index), dtype=np.float64) / k
    attrs = np.zeros((len(tris), 0)) if colors is None else np.array(cell_color, float)[:, None]
    return TriangleMesh(vertices, np.array(tris), attrs)


def chiral_tetrahedron():
    """Scalene tetrahedron with no mirror symmetry."""
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.2, 1.1, 0.0], [0.3, 0.2, 1.4]]
    )
    centroid = verts.mean(axis=0)
    faces = []
    for loop in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
        pts = verts[list(loop)]
        if np.cross(pts[1] - pts[0], pts[2] - pts[0]) @ (pts.mean(axis=0) - centroid) < 0:
            loop = tuple(reversed(loop))
        faces.append(PolygonFace(loop, np.zeros(0)))
    return Polyhedron(verts, tuple(faces))


def banded_column(sides, bands, seed=12, straight=False):
    """Column over a random star polygon whose sides are cut by hand into
    ``bands`` stacked quads.  Face 0 is the top cap and face 1 the bottom
    cap, as in ``extrude_polygon``.

    Ring ``r`` is the polygon scaled by its own factor at its own height, so
    every band is a planar trapezoid and no two stacked bands are coplanar.
    With ``straight`` every ring keeps the polygon's own size: the column is
    a straight prism and the bands of each side are coplanar, which puts
    some cross-face hinges exactly perpendicular to their sign direction.
    """
    rng = np.random.default_rng(seed)
    poly = random_simple_polygon(rng, sides, sides)
    heights = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, bands))])
    scales = np.ones(bands + 1) if straight else rng.uniform(0.8, 1.2, bands + 1)
    vertices = np.vstack(
        [np.column_stack([s * poly, np.full(sides, z)]) for s, z in zip(scales, heights)]
    )
    faces = [
        PolygonFace(tuple(range(bands * sides, (bands + 1) * sides)), []),
        PolygonFace(tuple(reversed(range(sides))), []),
    ]
    for band in range(bands):
        low, high = band * sides, (band + 1) * sides
        for i in range(sides):
            j = (i + 1) % sides
            faces.append(PolygonFace((low + i, low + j, high + j, high + i), []))
    return Polyhedron(vertices, tuple(faces))


def overflowing_solid(newell_only=False):
    """A closed solid with finite coordinates whose derived geometry overflows
    float64: a tetrahedron at 1e308, whose bounding-box diagonal is inf, or,
    with ``newell_only``, a cube at 1e150, where only the face Newell
    vectors (which scale as the square of the size) do."""
    p = make_box() if newell_only else make_tetrahedron()
    return Polyhedron(p.vertices * (1e150 if newell_only else 1e308), p.faces)


# Eval outputs of the folded blocks against ``unfolded_eval``, relative to
# the largest output: folding reorders a few roundings per entry (about
# 4e-15 at most on random batchnorm statistics, hidden width 64).
FOLD_RTOL = 1e-12


def unfolded_eval(mlp, x):
    """An eval-mode MLP written out block by block: affine, then batchnorm
    with its running statistics, then ReLU, each into a new array.  Only a
    block without batchnorm has a bias."""
    for block in mlp.blocks:
        x = x @ block.w
        if block.batchnorm:
            x = (x - block.running_mean) / np.sqrt(block.running_var + BN_EPS) * block.gamma
            x = x + block.beta
        else:
            x = x + block.b
        if block.relu:
            x = np.maximum(x, 0.0)
    return x


def randomize_batchnorm(registry, rng):
    """Give every batchnorm of ``registry`` its own gamma, beta and running
    statistics, in place."""
    for name, arr in registry.named_state():
        if name.endswith(("bn.gamma", "bn.running_var")):
            arr[...] = rng.uniform(0.5, 2.0, arr.shape)
        elif name.endswith(("bn.beta", "bn.running_mean")):
            arr[...] = rng.normal(0.0, 0.5, arr.shape)


def assert_flat_views(params):
    """Every array of ``params`` and every gradient is the view of its flat
    vector (``theta``, ``grad``, ``running_mean``, ``running_var``) at the
    array's walk offset."""
    state = params.named_state()
    layouts = {
        "theta": params.named_parameters(),
        "grad": params.named_grads(),
        "running_mean": [(n, a) for n, a in state if n.endswith(".running_mean")],
        "running_var": [(n, a) for n, a in state if n.endswith(".running_var")],
    }
    for key, named in layouts.items():
        flat, offset = getattr(params, key), 0
        for name, arr in named:
            at = slice(offset, offset + arr.size)
            assert np.shares_memory(arr, flat[at]), name
            assert not np.shares_memory(arr, flat[: at.start]), name
            assert not np.shares_memory(arr, flat[at.stop :]), name
            assert np.array_equal(arr.ravel(), flat[at]), name
            offset = at.stop
        assert offset == flat.size, key
