"""Each benchmark check passes the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest perfbench -q
"""

import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from polyrep import (  # noqa: E402
    RigidSet,
    build_surface_graph,
    classification_metrics,
    compute_rigid_set,
    extrude_polygon,
    read_rigid_set,
    reconstruct_polyhedron,
    retrieval_metrics,
    write_rigid_set,
)
from polyrep.datasets import make_box, random_simple_polygon  # noqa: E402


@pytest.fixture
def solid():
    rng = np.random.default_rng(5)
    return extrude_polygon(random_simple_polygon(rng, 9, 9), 1.3)


def loops(p):
    return [face.loop for face in p.faces]


def test_path_count_is_sum_of_squared_degrees():
    assert checks.expected_path_count(loops(make_box())) == 8 * 3**2


def test_path_count_accepts_rigid_set_and_rejects_dropped_path(solid):
    rigid = compute_rigid_set(build_surface_graph(solid))
    assert checks.path_count_problem("solid", loops(solid), len(rigid)) is None
    keep = np.arange(len(rigid)) != 17
    dropped = RigidSet(
        rigid.keys[keep], rigid.d1[keep], rigid.d2[keep], rigid.theta[keep],
        rigid.phi[keep], rigid.face1[keep], rigid.face2[keep],
    )
    assert checks.path_count_problem("solid", loops(solid), len(dropped)) is not None


def text_of(rigid):
    buf = io.StringIO()
    write_rigid_set(rigid, buf)
    return buf.getvalue()


def test_reread_accepts_round_trip_and_rejects_changed_digit(solid):
    rigid = compute_rigid_set(build_surface_graph(solid))
    text = text_of(rigid)
    reread = read_rigid_set(io.StringIO(text))
    assert checks.reread_problem("solid", rigid, reread, text, text_of(reread)) is None

    fields = text.splitlines()[3].split()
    fields[3] = repr(float(np.nextafter(float(fields[3]), np.inf)))  # one ulp up
    lines = text.splitlines(keepends=True)
    lines[3] = " ".join(fields) + "\n"
    corrupt = "".join(lines)
    reread = read_rigid_set(io.StringIO(corrupt))
    assert checks.reread_problem("solid", rigid, reread, corrupt, text_of(reread)) is not None


def test_reread_rejects_text_that_rewrites_differently(solid):
    rigid = compute_rigid_set(build_surface_graph(solid))
    text = text_of(rigid)
    reread = read_rigid_set(io.StringIO(text))
    padded = text.replace("\n", " \n", 1)
    assert checks.reread_problem("solid", rigid, reread, padded, text_of(reread)) is not None


def test_congruence_accepts_reconstruction(solid):
    graph = build_surface_graph(solid)
    rebuilt = reconstruct_polyhedron(compute_rigid_set(graph), graph.topology())
    assert checks.congruence_problem("solid", solid.vertices, rebuilt.vertices) is None


def test_congruence_accepts_rigid_motion_and_rejects_mirror(solid):
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotation = q * np.sign(np.linalg.det(q))
    moved = solid.vertices @ rotation.T + np.array([3.0, -1.0, 7.0])
    assert checks.congruence_problem("solid", solid.vertices, moved) is None
    mirrored = moved * np.array([-1.0, 1.0, 1.0])
    assert checks.congruence_problem("solid", solid.vertices, mirrored) is not None


def test_congruence_rejects_moved_vertex_and_nan(solid):
    bent = solid.vertices.copy()
    bent[4] += 1e-5 * checks.diameter(solid.vertices)
    assert checks.congruence_problem("solid", solid.vertices, bent) is not None
    bent[4] = np.nan
    assert checks.congruence_problem("solid", solid.vertices, bent) is not None


@pytest.fixture
def clustered():
    rng = np.random.default_rng(8)
    labels = np.repeat([0, 1, 2], 7)
    centers = rng.standard_normal((3, 6)) * 3
    return centers[labels] + rng.standard_normal((len(labels), 6)), labels


def test_retrieval_accepts_program_metrics(clustered):
    emb, labels = clustered
    reported = retrieval_metrics(emb, labels)
    assert checks.retrieval_problem("retrieval", emb, labels, reported) is None


def test_retrieval_rejects_permuted_embeddings(clustered):
    emb, labels = clustered
    reported = retrieval_metrics(emb, labels)
    permuted = emb[np.random.default_rng(1).permutation(len(emb))]
    assert checks.retrieval_problem("retrieval", permuted, labels, reported) is not None


def test_accuracy_accepts_program_metrics_and_rejects_swapped_rows():
    rng = np.random.default_rng(3)
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    logits = 0.1 * rng.standard_normal((8, 3))
    logits[np.arange(8), labels] += 3.0
    logits[0] = [-5.0, 5.0, 0.0]  # one miss
    reported = classification_metrics(logits, labels).accuracy
    assert checks.accuracy_problem("acc", logits, labels, reported) is None
    swapped = logits[[0, 1, 2, 5, 4, 3, 6, 7]]  # rows of classes 0 and 2
    assert checks.accuracy_problem("acc", swapped, labels, reported) is not None


def test_invariance_rejects_drift_and_nan():
    emb = np.random.default_rng(4).standard_normal((5, 8))
    assert checks.invariance_problem("emb", emb, emb * (1 + 1e-9)) is None
    drifted = emb.copy()
    drifted[2, 3] += 1e-4
    assert checks.invariance_problem("emb", emb, drifted) is not None
    drifted[2, 3] = np.nan
    assert checks.invariance_problem("emb", emb, drifted) is not None


def logistic_problem():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20, 4))
    y = (rng.uniform(size=20) < 0.5).astype(float)
    w = [rng.standard_normal(4), rng.standard_normal(1)]

    def loss_fn():
        z = x @ w[0] + w[1][0]
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    z = x @ w[0] + w[1][0]
    r = (1.0 / (1.0 + np.exp(-z)) - y) / len(y)
    return loss_fn, w, [x.T @ r, np.array([r.sum()])]


def test_gradients_accept_analytic_and_reject_corrupted_entry():
    loss_fn, params, grads = logistic_problem()
    rng = np.random.default_rng(0)
    assert checks.gradient_problem("grad", loss_fn, params, grads, rng) is None
    grads[0][2] *= 1.01
    rng = np.random.default_rng(0)
    assert checks.gradient_problem("grad", loss_fn, params, grads, rng) is not None


def test_gradients_skip_kinks_but_not_too_many():
    w = [np.array([2e-6, 3e-6, 0.5, 0.7])]  # two entries sit on a ReLU kink

    def loss_fn():
        return float(np.maximum(w[0], 0.0).sum())

    grads = [np.ones(4)]
    assert checks.gradient_problem("grad", loss_fn, w, grads, np.random.default_rng(0)) is not None
    w[0][1] = 0.9
    assert checks.gradient_problem("grad", loss_fn, w, grads, np.random.default_rng(0)) is None


def test_finite_and_floor():
    assert checks.finite_problem("loss", [[0.3, 0.2]]) is None
    assert checks.finite_problem("loss", [[0.3, np.nan]]) is not None
    assert checks.floor_problem("acc", 0.9, 0.8) is None
    assert checks.floor_problem("acc", 0.7, 0.8) is not None
    assert checks.floor_problem("acc", float("nan"), 0.8) is not None


def test_self_time_excludes_children():
    from tracing import Tracer

    tracer = Tracer()
    with tracer.span("headline"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(20000))
    spans = {name: (sid, parent, root, end - start)
             for sid, parent, root, name, start, end in tracer.spans}
    outer_self = tracer.self_s[("headline", "outer")]
    assert outer_self == pytest.approx(spans["outer"][3] - spans["inner"][3])
    assert spans["inner"][1] == spans["outer"][0]
    assert spans["inner"][2] == spans["headline"][0]
    assert tracer.calls[("headline", "inner")] == 1
