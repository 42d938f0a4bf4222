"""Acceptance criteria, one test per criterion.

Each test prints a [PASS]/[FAIL] line (visible under ``pytest -s``) and
enforces its stated tolerance and runtime budget.  The expensive training
run is shared between the learning criterion and the determinism criterion.
"""

import json
import time

import numpy as np
import pytest

from polyrep import (
    GnnConfig,
    GnnParams,
    Polyhedron,
    Rejected,
    RigidTransform,
    TrainConfig,
    apply_rigid_transform,
    build_surface_graph,
    collate,
    compute_rigid_set,
    embed_graph,
    gnn_forward,
    kabsch_align,
    precompute_graph_features,
    reconstruct_polyhedron,
    rigid_sets_equal,
    sample_random_rotation,
    save_checkpoint,
    train,
)
from polyrep.datasets import (
    color_coded_cube_dataset,
    make_box,
    split_dataset,
    synthetic_dataset,
    synthetic_solid,
    triangulate,
    with_face_attrs,
    TriangleMesh,
    merge_coplanar_faces,
)
from polyrep.metrics import retrieval_metrics
from polyrep.model import gnn_loss_and_grads
from polyrep.nn import cross_entropy, grad_check
from polyrep.training import evaluate_classification

from conftest import icosphere_mesh, solid_corpus


def report(criterion, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def cyclic_equal(a, b):
    if len(a) != len(b):
        return False
    doubled = tuple(b) + tuple(b)
    return any(doubled[s : s + len(a)] == tuple(a) for s in range(len(b)))


LEARN_CONFIG = TrainConfig(
    hidden_dim=64, layers=2, attr_dim=0, lr=0.001, batch_size=32,
    max_epochs=200, seed=11,
)


@pytest.fixture(scope="module")
def learn_records():
    return synthetic_dataset(300, kinds=("tetrahedron", "box", "prism"), seed=11)


@pytest.fixture(scope="module")
def learn_run(learn_records):
    started = time.time()
    result = train(LEARN_CONFIG, learn_records)
    return result, time.time() - started


def test_criterion_01_graph_round_trip():
    started = time.time()
    solids = solid_corpus(200, seed=21)
    for solid in solids:
        back = build_surface_graph(solid).to_polyhedron()
        assert np.array_equal(back.vertices, solid.vertices)
        for f1, f2 in zip(solid.faces, back.faces):
            assert cyclic_equal(f1.loop, f2.loop)
    elapsed = time.time() - started
    report(1, elapsed < 10, f"200 solids round-trip exactly in {elapsed:.2f}s (< 10s)")


def test_criterion_02_rigid_motion_invariance():
    started = time.time()
    solids = solid_corpus(100, seed=22)
    cfg = GnnConfig(layers=2, hidden_dim=16, attr_dim=0, n_classes=2, seed=22)
    params = GnnParams(cfg)
    rng = np.random.default_rng(22)
    worst_embed = 0.0
    for idx, solid in enumerate(solids):
        g = build_surface_graph(solid)
        rigid = compute_rigid_set(g)
        h = embed_graph(params, collate([precompute_graph_features(g, cfg)]))
        for trial in range(5):
            rot = sample_random_rotation(1000 * idx + trial)
            move = RigidTransform(rot.rotation, rng.uniform(-10, 10, 3))
            g2 = build_surface_graph(apply_rigid_transform(solid, move))
            assert rigid_sets_equal(rigid, compute_rigid_set(g2), 1e-9)
            h2 = embed_graph(params, collate([precompute_graph_features(g2, cfg)]))
            rel = float(np.linalg.norm(h - h2) / (1e-300 + np.linalg.norm(h)))
            worst_embed = max(worst_embed, rel)
            assert rel <= 1e-6
    elapsed = time.time() - started
    report(
        2,
        elapsed < 60,
        f"100 solids x 5 motions: rigid sets within 1e-9, embeddings within "
        f"{worst_embed:.2e} rel (<= 1e-6), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_03_reconstruction():
    started = time.time()
    solids = solid_corpus(100, seed=23)
    worst_rmsd = 0.0
    for solid in solids:
        g = build_surface_graph(solid)
        rigid = compute_rigid_set(g)
        rebuilt = reconstruct_polyhedron(rigid, g.topology())
        recomputed = compute_rigid_set(build_surface_graph(rebuilt))
        assert rigid_sets_equal(rigid, recomputed, 1e-6)
        _, rmsd = kabsch_align(rebuilt.vertices, solid.vertices)
        assert rmsd < 1e-6 * solid.bbox_diagonal()
        worst_rmsd = max(worst_rmsd, rmsd / solid.bbox_diagonal())
    elapsed = time.time() - started
    report(
        3,
        elapsed < 120,
        f"100 solids rebuilt: rigid sets match at 1e-6, worst rmsd/diameter "
        f"{worst_rmsd:.2e} (< 1e-6), {elapsed:.1f}s (< 120s)",
    )


def test_criterion_04_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(24)
    cfg = GnnConfig(layers=2, hidden_dim=4, attr_dim=3, n_classes=2, seed=24)
    params = GnnParams(cfg)
    solids = [
        synthetic_solid("box", rng, 0.1, attr_dim=3),
        synthetic_solid("tetrahedron", rng, 0.1, attr_dim=3),
    ]
    batch = collate(
        [precompute_graph_features(build_surface_graph(s), cfg) for s in solids]
    )
    labels = np.array([0, 1])
    gnn_loss_and_grads(params, batch, labels, update_stats=False)
    grad = params.grad.copy()

    def loss_fn():
        out, _ = gnn_forward(params, batch, mode="train", update_stats=False)
        return cross_entropy(out.logits, labels)[0]

    err = grad_check(loss_fn, params.theta, grad)
    elapsed = time.time() - started
    report(
        4,
        err < 1e-4 and elapsed < 300,
        f"full-model finite differences: max rel error {err:.2e} (< 1e-4), "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_criterion_05_desk_scale_learning(learn_run):
    result, elapsed = learn_run
    metrics = evaluate_classification(result.checkpoint.params, result.test_records)
    epochs = len(result.log)
    report(
        5,
        metrics.accuracy >= 0.95 and epochs <= 200 and elapsed < 600,
        f"3-class synthetic solids: test accuracy {metrics.accuracy:.3f} "
        f"(>= 0.95) after {epochs} epochs in {elapsed:.0f}s (< 600s)",
    )


def test_criterion_06_attribute_ablation():
    records = color_coded_cube_dataset(200, seed=26)
    cfg = TrainConfig(
        hidden_dim=32, layers=2, attr_dim=3, batch_size=32, max_epochs=120, seed=26
    )
    with_attrs = train(cfg, records)
    acc_with = evaluate_classification(
        with_attrs.checkpoint.params, with_attrs.test_records
    ).accuracy

    masked_records = [
        type(r)(
            with_face_attrs(r.polyhedron, np.zeros((r.polyhedron.n_faces, 3))),
            r.label,
            r.source_id,
        )
        for r in records
    ]
    masked = train(cfg, masked_records)
    acc_masked = evaluate_classification(
        masked.checkpoint.params, masked.test_records
    ).accuracy
    report(
        6,
        acc_with >= 0.95 and acc_masked <= 0.60,
        f"color-coded cubes: accuracy {acc_with:.3f} with attributes (>= 0.95), "
        f"{acc_masked:.3f} masked (<= 0.60)",
    )


def test_criterion_07_distinctness():
    cfg = GnnConfig(layers=2, hidden_dim=16, attr_dim=0, n_classes=2, seed=27)
    params = GnnParams(cfg)
    rng = np.random.default_rng(27)
    kinds = ("tetrahedron", "box", "prism", "pyramid")
    for pair in range(50):
        kind = kinds[pair % 4]
        a = synthetic_solid(kind, rng, jitter=0.15)
        b = synthetic_solid(kind, rng, jitter=0.15)
        ha = embed_graph(
            params, collate([precompute_graph_features(build_surface_graph(a), cfg)])
        )
        hb = embed_graph(
            params, collate([precompute_graph_features(build_surface_graph(b), cfg)])
        )
        scale = 1.0 + max(np.linalg.norm(ha), np.linalg.norm(hb))
        assert np.linalg.norm(ha - hb) > 1e-6 * scale, f"pair {pair} collided"

        rot = sample_random_rotation(5000 + pair)
        move = RigidTransform(rot.rotation, rng.uniform(-3, 3, 3))
        congruent = apply_rigid_transform(a, move)
        hc = embed_graph(
            params,
            collate([precompute_graph_features(build_surface_graph(congruent), cfg)]),
        )
        assert np.linalg.norm(ha - hc) < 1e-6 * (1.0 + np.linalg.norm(ha))
    report(7, True, "50 non-congruent pairs separated; congruent pairs collide")


def test_criterion_08_mesh_merge_oracle():
    cube6 = merge_coplanar_faces(triangulate(make_box()))
    ok_six = isinstance(cube6, Polyhedron) and cube6.n_faces == 6 and all(
        len(f.loop) == 4 for f in cube6.faces
    )

    colored = with_face_attrs(make_box(), np.zeros((6, 3)))
    mesh = triangulate(colored)
    attrs = np.array(mesh.attrs)
    attrs[0] = [1.0, 0.0, 0.0]
    split_top = merge_coplanar_faces(TriangleMesh(mesh.vertices, mesh.triangles, attrs))
    ok_seven = isinstance(split_top, Polyhedron) and split_top.n_faces == 7

    sphere = merge_coplanar_faces(icosphere_mesh(1), max_faces=50)
    ok_reject = isinstance(sphere, Rejected)

    report(
        8,
        ok_six and ok_seven and ok_reject,
        "cube -> 6 quads, split-material top -> 7 faces, icosphere rejected",
    )


def test_criterion_09_retrieval_metric_oracle():
    degs = np.array([0.0, 10.0, 30.0, 22.0, 40.0, 61.0])
    labels = np.array([0, 0, 0, 1, 1, 1])
    rads = np.radians(degs)
    emb = np.column_stack([np.cos(rads), np.sin(rads)])
    m = retrieval_metrics(emb, labels)
    c = 1.0 / np.log2(3)
    expected_map = (5 / 6 + 5 / 6 + 5 / 12 + 11 / 30 + 7 / 12 + 5 / 6) / 6
    expected_ndcg = (3 / (1 + c) + c / (1 + c)) / 6
    ok = abs(m.map - expected_map) < 1e-12 and abs(m.ndcg - expected_ndcg) < 1e-12
    report(
        9,
        ok,
        f"six-item oracle: MAP {m.map:.12f} vs {expected_map:.12f}, "
        f"NDCG {m.ndcg:.12f} vs {expected_ndcg:.12f} (1e-12)",
    )


def test_criterion_10_determinism(learn_run, learn_records, tmp_path):
    first, _ = learn_run
    second = train(LEARN_CONFIG, learn_records)
    log_a = "\n".join(json.dumps(row, sort_keys=True) for row in first.log)
    log_b = "\n".join(json.dumps(row, sort_keys=True) for row in second.log)
    path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(first.checkpoint, path_a)
    save_checkpoint(second.checkpoint, path_b)
    same_logs = log_a == log_b
    same_bytes = path_a.read_bytes() == path_b.read_bytes()
    report(
        10,
        same_logs and same_bytes,
        f"repeat run: epoch logs identical = {same_logs}, "
        f"checkpoint bytes identical = {same_bytes}",
    )
