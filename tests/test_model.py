from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyrep import (
    GeometryError,
    GnnConfig,
    GnnParams,
    PolygonFace,
    Polyhedron,
    RigidTransform,
    apply_rigid_transform,
    build_surface_graph,
    collate,
    embed_graph,
    gnn_forward,
    gnn_train_step,
    precompute_graph_features,
    sample_random_rotation,
)
from polyrep import model
from polyrep.datasets import make_box, make_tetrahedron, synthetic_solid, with_face_attrs
from polyrep.model import gnn_backward, gnn_loss_and_grads
from polyrep.nn import AdamState, cross_entropy, grad_check

from conftest import (
    FOLD_RTOL,
    assert_flat_views,
    randomize_batchnorm,
    solid_corpus,
    unfolded_eval,
)


def features_of(solid, cfg):
    return precompute_graph_features(build_surface_graph(solid), cfg)


class TestPrecompute:
    def test_cube_with_attrs(self, cube):
        cfg = GnnConfig(layers=1, hidden_dim=4, attr_dim=3)
        colored = with_face_attrs(cube, np.linspace(0, 1, 18).reshape(6, 3))
        feats = features_of(colored, cfg)
        assert feats.feats.shape == (72, 10)
        assert feats.n_nodes == 8

    def test_attr_dim_zero_guide_width(self, cube):
        cfg = GnnConfig(layers=1, hidden_dim=4, attr_dim=0)
        feats = features_of(cube, cfg)
        assert feats.feats.shape[1] == 4
        assert cfg.guide_in_dim == 4

    def test_attr_width_mismatch(self, cube):
        cfg = GnnConfig(layers=1, hidden_dim=4, attr_dim=3)
        with pytest.raises(ValueError):
            features_of(cube, cfg)

    def test_rotation_leaves_features(self, cube):
        cfg = GnnConfig(layers=1, hidden_dim=4, attr_dim=0)
        a = features_of(cube, cfg)
        t = sample_random_rotation(3)
        b = features_of(apply_rigid_transform(cube, t), cfg)
        assert np.abs(a.feats - b.feats).max() < 1e-9
        assert np.array_equal(a.path_i, b.path_i)

    def test_attributes_come_from_reversed_edges(self, cube):
        attrs = np.arange(18, dtype=float).reshape(6, 3)
        colored = with_face_attrs(cube, attrs)
        rev = features_of(colored, GnnConfig(layers=1, hidden_dim=4, attr_dim=3))
        g = build_surface_graph(colored)
        from polyrep.rigid_features import enumerate_paths

        paths = enumerate_paths(g)
        # The attribute of e1 is that of the face across it, not its own.
        np.testing.assert_array_equal(
            rev.feats[:, 4:7], g.attrs[g.edge_face[g.opposite[paths.e1]]]
        )

    def test_non_finite_feature_raises(self, cube, monkeypatch):
        # Validation refuses every solid whose geometry overflows, so a path
        # geometry with a NaN phi column stands in for one.
        real = model._path_geometry

        def nan_phi(g, paths):
            d1, d2, theta, phi, face1, face2 = real(g, paths)
            return d1, d2, theta, np.full_like(phi, np.nan), face1, face2

        monkeypatch.setattr(model, "_path_geometry", nan_phi)
        with pytest.raises(GeometryError, match=r"non-finite feature on path \(0,1,0\)"):
            features_of(cube, GnnConfig())


class TestForward:
    def test_eval_bitwise_deterministic(self, cube):
        cfg = GnnConfig(layers=2, hidden_dim=8, attr_dim=0, n_classes=3, seed=1)
        params = GnnParams(cfg)
        batch = collate([features_of(cube, cfg)])
        a = gnn_forward(params, batch, mode="eval")
        b = gnn_forward(params, batch, mode="eval")
        assert np.array_equal(a.h_graph, b.h_graph)
        assert np.array_equal(a.logits, b.logits)

    def test_rigid_motion_invariance(self):
        cfg = GnnConfig(layers=2, hidden_dim=16, attr_dim=0, n_classes=2, seed=2)
        params = GnnParams(cfg)
        for idx, solid in enumerate(solid_corpus(6, seed=11)):
            rot = sample_random_rotation(idx + 100)
            move = RigidTransform(rot.rotation, np.array([2.0, -1.0, 0.5]))
            h1 = embed_graph(params, collate([features_of(solid, cfg)]))
            h2 = embed_graph(
                params, collate([features_of(apply_rigid_transform(solid, move), cfg)])
            )
            assert np.linalg.norm(h1 - h2) <= 1e-6 * (1 + np.linalg.norm(h1))

    def test_path_order_irrelevant(self, cube):
        cfg = GnnConfig(layers=2, hidden_dim=8, attr_dim=0, n_classes=2, seed=3)
        params = GnnParams(cfg)
        feats = features_of(cube, cfg)
        perm = np.random.default_rng(0).permutation(len(feats.path_i))
        from dataclasses import replace

        shuffled = replace(
            feats,
            path_i=feats.path_i[perm],
            path_j=feats.path_j[perm],
            path_k=feats.path_k[perm],
            feats=feats.feats[perm],
            inner=feats.inner[perm],
        )
        h1 = embed_graph(params, collate([feats]))
        h2 = embed_graph(params, collate([shuffled]))
        assert np.abs(h1 - h2).max() < 1e-9

    def test_node_relabeling_leaves_embedding(self, cube):
        cfg = GnnConfig(layers=2, hidden_dim=8, attr_dim=0, n_classes=2, seed=4)
        params = GnnParams(cfg)
        perm = np.random.default_rng(1).permutation(cube.n_vertices)
        inverse = np.argsort(perm)
        relabeled = Polyhedron(
            np.asarray(cube.vertices)[perm],
            tuple(
                PolygonFace(tuple(int(inverse[v]) for v in f.loop), f.attr)
                for f in cube.faces
            ),
        )
        h1 = embed_graph(params, collate([features_of(cube, cfg)]))
        h2 = embed_graph(params, collate([features_of(relabeled, cfg)]))
        assert np.abs(h1 - h2).max() < 1e-9

    def test_cross_messages_matter(self, cube):
        cfg = GnnConfig(layers=2, hidden_dim=8, attr_dim=0, n_classes=2, seed=5)
        params = GnnParams(cfg)
        batch = collate([features_of(cube, cfg)])
        h1 = embed_graph(params, batch)
        for layer in params.layers:
            layer.w_cross[...] = 0.0
        h2 = embed_graph(params, batch)
        assert np.abs(h1 - h2).max() > 1e-6

    def test_embed_matches_forward(self, cube):
        cfg = GnnConfig(layers=2, hidden_dim=8, attr_dim=0, n_classes=2, seed=6)
        params = GnnParams(cfg)
        batch = collate([features_of(cube, cfg)])
        out = gnn_forward(params, batch, mode="eval")
        emb = embed_graph(params, batch)
        assert np.array_equal(out.h_graph, emb)

    def test_distinct_solids_distinct_embeddings(self):
        cfg = GnnConfig(layers=2, hidden_dim=16, attr_dim=0, n_classes=2, seed=7)
        params = GnnParams(cfg)
        rng = np.random.default_rng(8)
        a = synthetic_solid("tetrahedron", rng, jitter=0.2)
        b = synthetic_solid("tetrahedron", rng, jitter=0.2)
        ha = embed_graph(params, collate([features_of(a, cfg)]))
        hb = embed_graph(params, collate([features_of(b, cfg)]))
        assert np.linalg.norm(ha - hb) > 1e-6 * (1 + max(
            np.linalg.norm(ha), np.linalg.norm(hb)
        ))


class TestTrainStep:
    def test_full_gradient_check(self):
        rng = np.random.default_rng(1)
        cfg = GnnConfig(layers=2, hidden_dim=4, attr_dim=3, n_classes=2, seed=3)
        params = GnnParams(cfg)
        solids = [
            synthetic_solid("box", rng, 0.1, attr_dim=3),
            synthetic_solid("tetrahedron", rng, 0.1, attr_dim=3),
        ]
        batch = collate([features_of(s, cfg) for s in solids])
        labels = np.array([0, 1])
        gnn_loss_and_grads(params, batch, labels, update_stats=False)
        grad = params.grad.copy()

        def loss_fn():
            out, _ = gnn_forward(params, batch, mode="train", update_stats=False)
            return cross_entropy(out.logits, labels)[0]

        err = grad_check(loss_fn, params.theta, grad)
        assert err < 1e-4

    def test_zero_lr_keeps_params(self, cube, tetrahedron):
        cfg = GnnConfig(layers=1, hidden_dim=4, attr_dim=0, n_classes=2, seed=9)
        params = GnnParams(cfg)
        batch = collate([features_of(cube, cfg), features_of(tetrahedron, cfg)])
        before = [p.copy() for p in params.parameters()]
        state = AdamState.for_params(params.theta)
        loss = gnn_train_step(params, batch, np.array([0, 1]), state, lr=0.0)
        assert np.isfinite(loss)
        for b, p in zip(before, params.parameters()):
            assert np.array_equal(b, p)

    def test_train_step_updates_state_in_place(self):
        cfg, batch, labels = _reference_batch(n_solids=3, hidden_dim=4)
        params = GnnParams(cfg)
        before = [(name, id(arr), arr.copy()) for name, arr in params.named_state()]
        gnn_train_step(params, batch, labels, AdamState.for_params(params.theta), 1e-3)
        for (name, ident, old), (_, arr) in zip(before, params.named_state()):
            assert id(arr) == ident, name
            if ".bn.running_" in name:
                assert not np.array_equal(arr, old), name

    def test_train_steps_from_cloned_state_are_bitwise_equal(self):
        cfg, batch, labels = _reference_batch(n_solids=3, hidden_dim=4)
        runs = []
        base = GnnParams(cfg)
        for _ in range(2):
            params = base.clone()
            state = AdamState.for_params(params.theta)
            losses = [gnn_train_step(params, batch, labels, state, 1e-3) for _ in range(2)]
            runs.append((losses, params))
        (losses_a, a), (losses_b, b) = runs
        assert losses_a == losses_b
        for (name, x), (_, y) in zip(a.named_state(), b.named_state()):
            assert np.array_equal(x, y), name
        for (name, x), (_, y) in zip(a.named_grads(), b.named_grads()):
            assert np.array_equal(x, y), name

    def test_parameters_stay_views_of_the_flat_buffers(self):
        cfg, batch, labels = _reference_batch(n_solids=3, hidden_dim=4)
        params = GnnParams(cfg)
        assert_flat_views(params)
        gnn_train_step(params, batch, labels, AdamState.for_params(params.theta), 1e-3)
        assert_flat_views(params)

    def test_clone_owns_its_buffers(self):
        cfg, batch, labels = _reference_batch(n_solids=3, hidden_dim=4)
        source = GnnParams(cfg)
        state = AdamState.for_params(source.theta)
        gnn_train_step(source, batch, labels, state, 1e-3)
        twin = source.clone()
        assert_flat_views(twin)

        def arrays(params):
            return params.named_state() + [("theta", params.theta), ("grad", params.grad)]

        for (name, a), (_, b) in zip(arrays(twin), arrays(source)):
            assert np.array_equal(a, b), name
        for name, a in arrays(twin):
            assert not any(np.shares_memory(a, b) for _, b in arrays(source)), name
        frozen = [(name, a.copy()) for name, a in arrays(twin)]
        for _ in range(2):
            gnn_train_step(source, batch, labels, state, 1e-3)
        assert not np.array_equal(source.theta, twin.theta)
        for (name, old), (_, a) in zip(frozen, arrays(twin)):
            assert np.array_equal(old, a), name

    def test_overfits_tiny_problem(self):
        cfg = GnnConfig(layers=2, hidden_dim=16, attr_dim=0, n_classes=3, seed=10)
        params = GnnParams(cfg)
        rng = np.random.default_rng(11)
        kinds = ("tetrahedron", "box", "prism")
        solids = [synthetic_solid(kinds[i % 3], rng, 0.05) for i in range(12)]
        labels = np.array([i % 3 for i in range(12)])
        batch = collate([features_of(s, cfg) for s in solids])
        state = AdamState.for_params(params.theta)
        for _ in range(200):
            gnn_train_step(params, batch, labels, state, lr=0.001)
        out = gnn_forward(params, batch, mode="eval")
        assert (out.logits.argmax(axis=1) == labels).mean() == 1.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            collate([])

    def test_pathless_batch_rejected(self):
        from polyrep.model import GraphBatch

        cfg = GnnConfig(layers=1, hidden_dim=4, attr_dim=0, n_classes=2, seed=0)
        params = GnnParams(cfg)
        empty = GraphBatch(
            path_i=np.zeros(0, dtype=np.int64),
            path_j=np.zeros(0, dtype=np.int64),
            path_k=np.zeros(0, dtype=np.int64),
            feats=np.zeros((0, 4)),
            inner=np.zeros(0, dtype=bool),
            node_graph=np.zeros(3, dtype=np.int64),
            n_nodes=3,
            n_graphs=1,
        )
        with pytest.raises(ValueError, match="no paths"):
            gnn_forward(params, empty, mode="eval")


class TestCollate:
    """One graph is a batch of one, and collating batches nests."""

    FIELDS = ("path_i", "path_j", "path_k", "feats", "inner", "node_graph", "n_nodes", "n_graphs")

    @staticmethod
    def _three():
        cfg = GnnConfig(attr_dim=3)
        rng = np.random.default_rng(5)
        kinds = ("box", "tetrahedron", "prism")
        return [features_of(synthetic_solid(k, rng, jitter=0.1, attr_dim=3), cfg) for k in kinds]

    def _assert_same(self, got, want):
        for name in self.FIELDS:
            a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    def test_nested_collate_equals_flat_collate(self):
        a, b, c = self._three()
        flat = collate([a, b, c])
        self._assert_same(collate([collate([a, b]), c]), flat)
        self._assert_same(collate([a, collate([b, c])]), flat)
        assert flat.n_graphs == 3
        assert np.array_equal(np.unique(flat.node_graph), [0, 1, 2])

    def test_one_graph_is_a_batch_of_one(self):
        for x in self._three():
            assert x.n_graphs == 1
            assert np.array_equal(x.node_graph, np.zeros(x.n_nodes, dtype=np.int64))
            self._assert_same(collate([x]), x)


# The materialized form of the network, kept as a reference: the first psi
# layer multiplies hstack(h[i], h[j], h[k], g) with one row per path, and
# every segment sum is an np.add.at scatter.
def _add_at(values, segments, n_segments):
    out = np.zeros((n_segments, values.shape[1]))
    np.add.at(out, segments, values)
    return out


def reference_forward(params, batch, mode="eval", update_stats=True):
    train = mode == "train"

    def run(mlp, x):
        return mlp.forward(x, True, update_stats) if train else unfolded_eval(mlp, x)

    d = params.cfg.hidden_dim
    inner = batch.inner
    cross = ~inner
    h = np.zeros((batch.n_nodes, d))
    caches = []
    layer_sums = []
    for layer in params.layers:
        g = run(layer.guide, batch.feats)
        msg_in = np.hstack([h[batch.path_i], h[batch.path_j], h[batch.path_k], g])
        m = np.zeros((len(batch.path_i), d))
        y_inner = y_cross = None
        if inner.any():
            y_inner = run(layer.psi_inner, msg_in[inner])
            m[inner] = layer.w_inner[0] * y_inner
        if cross.any():
            y_cross = run(layer.psi_cross, msg_in[cross])
            m[cross] = layer.w_cross[0] * y_cross
        h = _add_at(m, batch.path_i, batch.n_nodes)
        layer_sums.append(_add_at(h, batch.node_graph, batch.n_graphs))
        caches.append((y_inner, y_cross))
    h_graph = np.hstack(layer_sums)
    logits = run(params.classifier, h_graph)
    return h_graph, logits, caches


def reference_backward(params, batch, caches, d_logits):
    d = params.cfg.hidden_dim
    inner = batch.inner
    cross = ~inner
    d_hg = params.classifier.backward(d_logits)
    dh = np.zeros((batch.n_nodes, d))
    for li in range(params.cfg.layers - 1, -1, -1):
        layer = params.layers[li]
        y_inner, y_cross = caches[li]
        dh = dh + d_hg[:, li * d : (li + 1) * d][batch.node_graph]
        dm = dh[batch.path_i]
        dmsg = np.zeros((len(batch.path_i), 4 * d))
        if inner.any():
            layer.gw_inner += (dm[inner] * y_inner).sum()
            dmsg[inner] = layer.psi_inner.backward(layer.w_inner[0] * dm[inner])
        if cross.any():
            layer.gw_cross += (dm[cross] * y_cross).sum()
            dmsg[cross] = layer.psi_cross.backward(layer.w_cross[0] * dm[cross])
        dh_prev = np.zeros((batch.n_nodes, d))
        np.add.at(dh_prev, batch.path_i, dmsg[:, 0:d])
        np.add.at(dh_prev, batch.path_j, dmsg[:, d : 2 * d])
        np.add.at(dh_prev, batch.path_k, dmsg[:, 2 * d : 3 * d])
        layer.guide.backward(dmsg[:, 3 * d : 4 * d])
        dh = dh_prev


def _reference_batch(n_solids=6, layers=2, hidden_dim=8, seed=0):
    cfg = GnnConfig(layers=layers, hidden_dim=hidden_dim, attr_dim=0, n_classes=3, seed=seed)
    batch = collate([features_of(s, cfg) for s in solid_corpus(n_solids, seed=21)])
    return cfg, batch, np.arange(n_solids) % 3


def _shuffled(batch, seed=0):
    perm = np.random.default_rng(seed).permutation(len(batch.path_i))
    return replace(
        batch,
        path_i=batch.path_i[perm],
        path_j=batch.path_j[perm],
        path_k=batch.path_k[perm],
        feats=batch.feats[perm],
        inner=batch.inner[perm],
    )


def _without_paths_from(batch, node):
    keep = batch.path_i != node
    return replace(
        batch,
        path_i=batch.path_i[keep],
        path_j=batch.path_j[keep],
        path_k=batch.path_k[keep],
        feats=batch.feats[keep],
        inner=batch.inner[keep],
    )


def _reachable_arrays(obj, seen=None):
    """Every array reachable from ``obj`` through attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    return [a for child in children for a in _reachable_arrays(child, seen)]


def _close(a, b, scale):
    return np.abs(a - b).max() <= 1e-12 * (1 + scale)


class TestAgainstMaterializedReference:
    """The per-node projection and sorted segment sums sum in another order
    than the materialized form, so agreement is to 1e-12 at a global scale:
    biases ahead of a batchnorm have analytically zero gradients whose
    rounding noise makes a per-array relative check meaningless."""

    def check(self, cfg, batch, labels):
        params = GnnParams(cfg)
        ref = params.clone()
        params.zero_grads()
        (out, caches) = gnn_forward(params, batch, mode="train")
        loss, d_logits = cross_entropy(out.logits, labels)
        gnn_backward(params, batch, caches, d_logits)

        ref.zero_grads()
        h_graph, logits, ref_caches = reference_forward(ref, batch, mode="train")
        ref_loss, ref_d_logits = cross_entropy(logits, labels)
        reference_backward(ref, batch, ref_caches, ref_d_logits)

        assert _close(out.h_graph, h_graph, np.abs(h_graph).max())
        assert _close(out.logits, logits, np.abs(logits).max())
        assert abs(loss - ref_loss) <= 1e-12 * (1 + abs(ref_loss))
        grads = dict(params.named_grads())
        ref_grads = dict(ref.named_grads())
        assert list(grads) == list(ref_grads)
        scale = max(np.abs(g).max() for g in ref_grads.values())
        for name, g in ref_grads.items():
            assert _close(grads[name], g, scale), name
        state = dict(params.named_state())
        for name, arr in ref.named_state():
            assert _close(state[name], arr, np.abs(arr).max()), name
        return params, ref

    def test_real_batch(self):
        self.check(*_reference_batch())

    def test_shuffled_path_order(self):
        cfg, batch, labels = _reference_batch()
        shuffled = _shuffled(batch)
        assert np.any(np.diff(shuffled.path_i) < 0)
        self.check(cfg, shuffled, labels)

    @pytest.mark.parametrize("inner", [True, False])
    def test_single_path_type(self, inner):
        cfg, batch, labels = _reference_batch()
        one_type = replace(batch, inner=np.full(len(batch.path_i), inner))
        params, _ = self.check(cfg, one_type, labels)
        unused = params.layers[0].psi_cross if inner else params.layers[0].psi_inner
        assert all(not g.any() for g in unused.grads())

    def test_node_without_outgoing_paths(self):
        cfg, batch, labels = _reference_batch()
        node = batch.path_j[0]
        pruned = _without_paths_from(batch, node)
        assert node not in pruned.path_i and node in pruned.path_j
        self.check(cfg, pruned, labels)

    def test_isolated_node(self):
        cfg, batch, labels = _reference_batch()
        padded = replace(
            batch,
            n_nodes=batch.n_nodes + 1,
            node_graph=np.append(batch.node_graph, batch.n_graphs - 1),
        )
        self.check(cfg, padded, labels)

    @pytest.mark.parametrize("layers", [1, 3])
    def test_layer_counts(self, layers):
        self.check(*_reference_batch(layers=layers))

    def test_eval_mode(self):
        cfg, batch, _ = _reference_batch()
        params = GnnParams(cfg)
        gnn_forward(params, batch, mode="train")  # nontrivial running statistics
        out = gnn_forward(params, _shuffled(batch), mode="eval")
        h_graph, logits, _ = reference_forward(params, batch, mode="eval")
        assert _close(out.h_graph, h_graph, np.abs(h_graph).max())
        assert _close(out.logits, logits, np.abs(logits).max())

    def test_eval_matches_unfolded_reference(self):
        cfg, batch, _ = _reference_batch()
        params = GnnParams(cfg)
        randomize_batchnorm(params, np.random.default_rng(4))
        out = gnn_forward(params, batch, mode="eval")
        h_graph, logits, _ = reference_forward(params, batch, mode="eval")
        assert np.abs(out.h_graph - h_graph).max() <= FOLD_RTOL * np.abs(h_graph).max()
        assert np.abs(out.logits - logits).max() <= FOLD_RTOL * np.abs(logits).max()

    def test_eval_is_repeatable_and_leaves_state_unchanged(self):
        cfg, batch, _ = _reference_batch()
        params = GnnParams(cfg)
        randomize_batchnorm(params, np.random.default_rng(5))
        before = [(name, arr.copy()) for name, arr in params.named_state()]
        first = gnn_forward(params, batch, mode="eval")
        second = gnn_forward(params, batch, mode="eval")
        assert np.array_equal(first.h_graph, second.h_graph)
        assert np.array_equal(first.logits, second.logits)
        for (name, old), (_, new) in zip(before, params.named_state()):
            assert np.array_equal(old, new), name

    def test_eval_drops_training_activations(self):
        # A model cloned after evaluation (the best epoch's snapshot in
        # training) must copy its state and grads only, not the last batch.
        cfg, batch, labels = _reference_batch()
        params = GnnParams(cfg)
        gnn_train_step(params, batch, labels, AdamState.for_params(params.theta), 1e-3)
        gnn_forward(params, batch, mode="eval")
        owned = {id(a) for _, a in params.named_state()} | {id(g) for g in params.grads()}
        owned |= {id(getattr(params, f)) for f in ("theta", "grad", "running_mean", "running_var")}
        extra = [a.shape for a in _reachable_arrays(params) if id(a) not in owned]
        assert extra == []

    def test_gradient_check_on_shuffled_batch(self):
        cfg, batch, labels = _reference_batch(n_solids=3, hidden_dim=4, seed=3)
        batch = _shuffled(batch, seed=1)
        params = GnnParams(cfg)
        gnn_loss_and_grads(params, batch, labels, update_stats=False)
        grad = params.grad.copy()

        def loss_fn():
            out, _ = gnn_forward(params, batch, mode="train", update_stats=False)
            return cross_entropy(out.logits, labels)[0]

        assert grad_check(loss_fn, params.theta, grad) < 1e-4
