"""Heterogeneous message passing over two-hop paths of a surface graph.

Node embeddings start at zero.  At each layer, every path (i, j, k) emits a
message: a guide vector is computed from the path's rigid features and the
face attributes of its two reversed edges, concatenated with the three node
embeddings, and pushed through a path-type-specific MLP (one for paths whose
edges share a face, one for paths that cross faces), scaled by a learnable
per-type weight.  Messages sum into the start node.  The readout
concatenates the per-layer sums of all node embeddings into one graph
vector, which feeds a classifier head.

Because every input is invariant to rotation and translation of the solid,
so is the graph vector.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .nn import AdamState, Mlp, adam_step, cross_entropy
from .rigid_features import enumerate_paths, _path_geometry
from .surface_graph import SurfaceGraph


@dataclass(frozen=True)
class GnnConfig:
    layers: int = 2
    hidden_dim: int = 64
    attr_dim: int = 0
    n_classes: int = 2
    include_backtracking: bool = True
    attr_edge_orientation: str = "reversed"  # or "forward"
    seed: int = 0

    def __post_init__(self):
        if self.layers < 1 or self.hidden_dim < 1 or self.attr_dim < 0:
            raise ValueError("need layers >= 1, hidden_dim >= 1, attr_dim >= 0")
        if self.attr_edge_orientation not in ("reversed", "forward"):
            raise ValueError(f"unknown orientation {self.attr_edge_orientation!r}")

    @property
    def guide_in_dim(self):
        return 4 + 2 * self.attr_dim

    @property
    def readout_dim(self):
        return self.layers * self.hidden_dim


@dataclass(frozen=True)
class GraphFeatures:
    """Precomputed per-graph path features: node ids, scaled rigid features
    plus the two face-attribute vectors, and the inner/cross flag."""

    path_i: np.ndarray
    path_j: np.ndarray
    path_k: np.ndarray
    feats: np.ndarray
    inner: np.ndarray
    n_nodes: int


def precompute_graph_features(g: SurfaceGraph, cfg: GnnConfig) -> GraphFeatures:
    """Path features for one graph.

    Distances are divided by the graph's mean edge length and angles by pi;
    both scalings are rigid-motion invariant, and they keep batch
    normalization comfortable across object scales.  Attribute columns are
    taken from the faces owning the reversed edges (j -> i, k -> j) by
    default; ``cfg.attr_edge_orientation = "forward"`` switches to the
    forward edges' own faces.
    """
    if g.attr_dim != cfg.attr_dim:
        raise ValueError(
            f"graph has attribute width {g.attr_dim}, config expects {cfg.attr_dim}"
        )
    paths = enumerate_paths(g, cfg.include_backtracking)
    if len(paths) == 0:
        raise ValueError("graph yields no two-hop paths")
    d1, d2, theta, phi, face1, face2 = _path_geometry(g, paths)
    scale = g.mean_edge_length()
    cols = [d1 / scale, d2 / scale, theta / np.pi, phi / np.pi]
    feats = np.column_stack(cols)
    if cfg.attr_dim > 0:
        if cfg.attr_edge_orientation == "reversed":
            a1 = g.attrs[g.edge_face[g.opposite[paths.e1]]]
            a2 = g.attrs[g.edge_face[g.opposite[paths.e2]]]
        else:
            a1 = g.attrs[face1]
            a2 = g.attrs[face2]
        feats = np.column_stack([feats, a1, a2])
    return GraphFeatures(
        path_i=paths.i.copy(),
        path_j=paths.j.copy(),
        path_k=paths.k.copy(),
        feats=feats,
        inner=(face1 == face2),
        n_nodes=g.n_nodes,
    )


def mask_attributes(features: GraphFeatures) -> GraphFeatures:
    """Zero the attribute columns; identical to building from a solid whose
    face attributes are all zero."""
    feats = features.feats.copy()
    feats[:, 4:] = 0.0
    return replace(features, feats=feats)


@dataclass(frozen=True)
class GraphBatch:
    """Several graphs packed into one set of arrays with node-id offsets."""

    path_i: np.ndarray
    path_j: np.ndarray
    path_k: np.ndarray
    feats: np.ndarray
    inner: np.ndarray
    node_graph: np.ndarray
    n_nodes: int
    n_graphs: int


def collate(graphs) -> GraphBatch:
    graphs = list(graphs)
    if not graphs:
        raise ValueError("empty batch")
    pi, pj, pk, feats, inner, node_graph = [], [], [], [], [], []
    offset = 0
    for gi, g in enumerate(graphs):
        pi.append(g.path_i + offset)
        pj.append(g.path_j + offset)
        pk.append(g.path_k + offset)
        feats.append(g.feats)
        inner.append(g.inner)
        node_graph.append(np.full(g.n_nodes, gi, dtype=np.int64))
        offset += g.n_nodes
    return GraphBatch(
        path_i=np.concatenate(pi),
        path_j=np.concatenate(pj),
        path_k=np.concatenate(pk),
        feats=np.vstack(feats),
        inner=np.concatenate(inner),
        node_graph=np.concatenate(node_graph),
        n_nodes=offset,
        n_graphs=len(graphs),
    )


class GnnLayer:
    def __init__(self, rng, cfg: GnnConfig):
        d = cfg.hidden_dim
        self.guide = Mlp(rng, [cfg.guide_in_dim, d], batchnorm_output=True)
        self.psi_inner = Mlp(rng, [4 * d, d, d, d, d], batchnorm_output=True)
        self.psi_cross = Mlp(rng, [4 * d, d, d, d, d], batchnorm_output=True)
        self.w_inner = np.ones(1)
        self.w_cross = np.ones(1)
        self.gw_inner = np.zeros(1)
        self.gw_cross = np.zeros(1)


class GnnParams:
    """All model state: per-layer message/guide nets and the classifier."""

    def __init__(self, cfg: GnnConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        d = cfg.hidden_dim
        self.layers = [GnnLayer(rng, cfg) for _ in range(cfg.layers)]
        self.classifier = Mlp(
            rng, [cfg.readout_dim, d, d, d, cfg.n_classes], batchnorm_output=False
        )

    def named_parameters(self):
        out = []
        for li, layer in enumerate(self.layers):
            out += layer.guide.named_parameters(f"layer{li}.guide.")
            out += layer.psi_inner.named_parameters(f"layer{li}.psi_inner.")
            out += layer.psi_cross.named_parameters(f"layer{li}.psi_cross.")
            out.append((f"layer{li}.w_inner", layer.w_inner))
            out.append((f"layer{li}.w_cross", layer.w_cross))
        out += self.classifier.named_parameters("classifier.")
        return out

    def named_grads(self):
        out = []
        for li, layer in enumerate(self.layers):
            out += layer.guide.named_grads(f"layer{li}.guide.")
            out += layer.psi_inner.named_grads(f"layer{li}.psi_inner.")
            out += layer.psi_cross.named_grads(f"layer{li}.psi_cross.")
            out.append((f"layer{li}.w_inner", layer.gw_inner))
            out.append((f"layer{li}.w_cross", layer.gw_cross))
        out += self.classifier.named_grads("classifier.")
        return out

    def named_state(self):
        """Parameters plus batchnorm running statistics (checkpoint payload)."""
        out = []
        for li, layer in enumerate(self.layers):
            out += layer.guide.named_state(f"layer{li}.guide.")
            out += layer.psi_inner.named_state(f"layer{li}.psi_inner.")
            out += layer.psi_cross.named_state(f"layer{li}.psi_cross.")
            out.append((f"layer{li}.w_inner", layer.w_inner))
            out.append((f"layer{li}.w_cross", layer.w_cross))
        out += self.classifier.named_state("classifier.")
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def grads(self):
        return [g for _, g in self.named_grads()]

    def zero_grads(self):
        for g in self.grads():
            g[...] = 0.0

    def clone(self):
        return copy.deepcopy(self)


@dataclass(frozen=True)
class EmbeddingOutput:
    h_graph: np.ndarray  # (n_graphs, layers * hidden_dim)
    logits: np.ndarray | None


def _segment_sum(values, segments, n_segments):
    out = np.zeros((n_segments, values.shape[1]))
    np.add.at(out, segments, values)
    return out


def gnn_forward(
    params: GnnParams,
    batch: GraphBatch,
    mode: str = "eval",
    update_stats: bool = True,
    with_logits: bool = True,
):
    """Run the network over a batch; train mode keeps caches for backward.

    Batchnorm statistics span all paths (message/guide nets) or all graphs
    (classifier) in the batch.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    train = mode == "train"
    cfg = params.cfg
    d = cfg.hidden_dim
    if batch.feats.shape[1] != cfg.guide_in_dim:
        raise ValueError(
            f"batch feature width {batch.feats.shape[1]} != {cfg.guide_in_dim}"
        )
    if len(batch.path_i) == 0:
        raise ValueError("batch contains a graph with no paths")

    inner = batch.inner
    cross = ~inner
    h = np.zeros((batch.n_nodes, d))
    caches = []
    layer_sums = []
    for layer in params.layers:
        g = layer.guide.forward(batch.feats, train, update_stats)
        msg_in = np.hstack([h[batch.path_i], h[batch.path_j], h[batch.path_k], g])
        m = np.zeros((len(batch.path_i), d))
        y_inner = y_cross = None
        if inner.any():
            y_inner = layer.psi_inner.forward(msg_in[inner], train, update_stats)
            m[inner] = layer.w_inner[0] * y_inner
        if cross.any():
            y_cross = layer.psi_cross.forward(msg_in[cross], train, update_stats)
            m[cross] = layer.w_cross[0] * y_cross
        h = _segment_sum(m, batch.path_i, batch.n_nodes)
        layer_sums.append(_segment_sum(h, batch.node_graph, batch.n_graphs))
        if train:
            caches.append((y_inner, y_cross))
    h_graph = np.hstack(layer_sums)
    logits = params.classifier.forward(h_graph, train, update_stats) if with_logits else None
    out = EmbeddingOutput(h_graph=h_graph, logits=logits)
    return (out, caches) if train else out


def gnn_backward(params: GnnParams, batch: GraphBatch, caches, d_logits):
    """Analytic gradients for a preceding train-mode forward, accumulated
    into the parameter grad slots."""
    cfg = params.cfg
    d = cfg.hidden_dim
    inner = batch.inner
    cross = ~inner
    d_hg = params.classifier.backward(d_logits)
    dh = np.zeros((batch.n_nodes, d))
    for li in range(cfg.layers - 1, -1, -1):
        layer = params.layers[li]
        y_inner, y_cross = caches[li]
        # Readout contribution of this layer's output embeddings.
        dh = dh + d_hg[:, li * d : (li + 1) * d][batch.node_graph]
        dm = dh[batch.path_i]
        dmsg = np.zeros((len(batch.path_i), 4 * d))
        if inner.any():
            dmi = dm[inner]
            layer.gw_inner += (dmi * y_inner).sum()
            dmsg[inner] = layer.psi_inner.backward(layer.w_inner[0] * dmi)
        if cross.any():
            dmc = dm[cross]
            layer.gw_cross += (dmc * y_cross).sum()
            dmsg[cross] = layer.psi_cross.backward(layer.w_cross[0] * dmc)
        dh_prev = np.zeros((batch.n_nodes, d))
        np.add.at(dh_prev, batch.path_i, dmsg[:, 0:d])
        np.add.at(dh_prev, batch.path_j, dmsg[:, d : 2 * d])
        np.add.at(dh_prev, batch.path_k, dmsg[:, 2 * d : 3 * d])
        layer.guide.backward(dmsg[:, 3 * d : 4 * d])
        dh = dh_prev
    # dh now holds the gradient wrt the all-zero initial embeddings: discard.


def gnn_loss_and_grads(params: GnnParams, batch: GraphBatch, labels, update_stats=True):
    """One train-mode forward/backward; returns the loss with grads filled."""
    params.zero_grads()
    (out, caches) = gnn_forward(
        params, batch, mode="train", update_stats=update_stats
    )
    loss, d_logits = cross_entropy(out.logits, labels)
    gnn_backward(params, batch, caches, d_logits)
    return loss


def gnn_train_step(
    params: GnnParams, batch: GraphBatch, labels, state: AdamState, lr: float
) -> float:
    loss = gnn_loss_and_grads(params, batch, labels)
    adam_step(params.parameters(), params.grads(), state, lr)
    return loss


def embed_graph(params: GnnParams, batch: GraphBatch) -> np.ndarray:
    """Eval-mode graph vectors only (no classifier)."""
    out = gnn_forward(params, batch, mode="eval", with_logits=False)
    return out.h_graph
