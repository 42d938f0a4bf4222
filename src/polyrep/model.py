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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, GeometryError
from .geometry import _ro
from .nn import FLAT_VECTORS, AdamState, Mlp, ParameterRegistry, adam_step, cross_entropy
from .rigid_features import enumerate_paths, _path_geometry
from .surface_graph import SurfaceGraph


@dataclass(frozen=True)
class GnnConfig:
    layers: int = 2
    hidden_dim: int = 64
    attr_dim: int = 0
    n_classes: int = 2
    seed: int = 0

    def __post_init__(self):
        counts = (self.layers, self.hidden_dim, self.n_classes)
        if min(counts) < 1 or min(self.attr_dim, self.seed) < 0:
            raise ValueError("need layers, hidden_dim, n_classes >= 1 and attr_dim, seed >= 0")

    @property
    def guide_in_dim(self):
        return 4 + 2 * self.attr_dim

    @property
    def readout_dim(self):
        return self.layers * self.hidden_dim

    def flat_sizes(self):
        """Lengths of ``theta`` and of each running statistic of ``GnnParams(self)``,
        in Python ints: per layer a guide block, two psi nets of four batchnorm
        blocks and two type weights, then the classifier."""
        d, c, n = self.hidden_dim, self.n_classes, self.layers
        per_layer = self.guide_in_dim * d + 2 * d + 2 * (7 * d * d + 8 * d) + 2
        classifier = n * d * d + 2 * d * d + 6 * d + d * c + c
        return n * per_layer + classifier, n * 9 * d + 3 * d


@dataclass(frozen=True)
class GraphBatch:
    """Graphs packed into one set of arrays: path node ids, scaled rigid
    features plus the two face-attribute vectors, the inner/cross flag, and
    each node's graph.  One graph is a batch of one."""

    path_i: np.ndarray
    path_j: np.ndarray
    path_k: np.ndarray
    feats: np.ndarray
    inner: np.ndarray
    node_graph: np.ndarray
    n_nodes: int
    n_graphs: int


def precompute_graph_features(g: SurfaceGraph, cfg: GnnConfig) -> GraphBatch:
    """Path features of a graph, one batch entry per solid of it: a graph of
    one solid is a batch of one, and the union of several is bitwise the
    ``collate`` of their own batches.

    Distances are divided by the owning solid's mean edge length and angles
    by pi; both scalings are rigid-motion invariant, and they keep batch
    normalization comfortable across object scales.  Attribute columns are
    taken from the faces owning the reversed edges (j -> i, k -> j).  The
    first solid, in order, that yields no path raises ``ValueError``, or
    that has a non-finite feature :class:`GeometryError` naming the path in
    its own node ids, so that no network ever reads one.
    """
    if g.attr_dim != cfg.attr_dim:
        raise ValueError(
            f"graph has attribute width {g.attr_dim}, config expects {cfg.attr_dim}"
        )
    paths = enumerate_paths(g)
    # Paths come sorted by start node, so each solid's are one run of rows.
    rows = np.searchsorted(paths.i, g.node_starts)
    counts = rows[1:] - rows[:-1]
    d1, d2, theta, phi, face1, face2 = _path_geometry(g, paths)
    scale = np.repeat(g.mean_edge_lengths(), counts)
    feats = np.column_stack([d1 / scale, d2 / scale, theta / np.pi, phi / np.pi])
    if cfg.attr_dim > 0:
        a1 = g.attrs[g.edge_face[g.opposite[paths.e1]]]
        a2 = g.attrs[g.edge_face[g.opposite[paths.e2]]]
        feats = np.column_stack([feats, a1, a2])
    if not (counts.all() and np.isfinite(feats).all()):  # whole-array tests
        _refuse_first_fault(g, paths, rows, feats)
    return GraphBatch(
        path_i=_ro(paths.i),
        path_j=_ro(paths.j),
        path_k=_ro(paths.k),
        feats=_ro(feats),
        inner=_ro(face1 == face2),
        node_graph=_ro(np.repeat(np.arange(g.n_solids), g.node_starts[1:] - g.node_starts[:-1])),
        n_nodes=g.n_nodes,
        n_graphs=g.n_solids,
    )


def _refuse_first_fault(g, paths, rows, feats):
    """Raise for the first solid, in order, that yields no path or has a
    non-finite feature; solid ``s`` owns the rows ``rows[s] : rows[s + 1]``."""
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    solid = np.searchsorted(rows, bad[0], side="right") - 1 if len(bad) else g.n_solids
    if not np.diff(rows[: solid + 1]).all():
        raise ValueError("graph yields no two-hop paths")
    r = bad[0]
    i, j, k = np.array([paths.i[r], paths.j[r], paths.k[r]]) - g.node_starts[solid]
    raise GeometryError(f"non-finite feature on path ({i},{j},{k})")


def collate(batches) -> GraphBatch:
    """Join batches in order into one; node ids and graph ids are offset by
    the nodes and graphs of the batches before them."""
    batches = list(batches)
    if not batches:
        raise ValueError("empty batch")
    node_off = np.cumsum([0] + [b.n_nodes for b in batches]).tolist()
    graph_off = np.cumsum([0] + [b.n_graphs for b in batches]).tolist()

    def joined(field, offsets):
        return np.concatenate([getattr(b, field) + o for b, o in zip(batches, offsets)])

    return GraphBatch(
        path_i=joined("path_i", node_off),
        path_j=joined("path_j", node_off),
        path_k=joined("path_k", node_off),
        feats=np.vstack([b.feats for b in batches]),
        inner=np.concatenate([b.inner for b in batches]),
        node_graph=joined("node_graph", graph_off),
        n_nodes=node_off[-1],
        n_graphs=graph_off[-1],
    )


def split_batch(batch: GraphBatch) -> list:
    """The one-graph batches that ``collate`` joins into ``batch``, in order;
    each graph's paths must be one run of rows, as ``collate`` and
    :func:`precompute_graph_features` leave them.  The arrays are read-only,
    and the feature rows views of the batch's."""
    graphs = np.arange(batch.n_graphs + 1)
    nodes = np.searchsorted(batch.node_graph, graphs).tolist()
    rows = np.searchsorted(batch.node_graph[batch.path_i], graphs).tolist()
    zeros = _ro(np.zeros(int(np.diff(nodes).max(initial=0)), dtype=np.int64))
    return [
        GraphBatch(
            path_i=_ro(batch.path_i[r0:r1] - n0),
            path_j=_ro(batch.path_j[r0:r1] - n0),
            path_k=_ro(batch.path_k[r0:r1] - n0),
            feats=_ro(batch.feats[r0:r1]),
            inner=_ro(batch.inner[r0:r1]),
            node_graph=zeros[: n1 - n0],
            n_nodes=n1 - n0,
            n_graphs=1,
        )
        for n0, n1, r0, r1 in zip(nodes[:-1], nodes[1:], rows[:-1], rows[1:])
    ]


class GnnLayer:
    def __init__(self, rng, cfg: GnnConfig):
        d = cfg.hidden_dim
        self.guide = Mlp(rng, [cfg.guide_in_dim, d], batchnorm_output=True)
        self.psi_inner = Mlp(rng, [4 * d, d, d, d, d], batchnorm_output=True)
        self.psi_cross = Mlp(rng, [4 * d, d, d, d, d], batchnorm_output=True)
        self.w_inner, self.w_cross = np.ones(1), np.ones(1)
        self.gw_inner, self.gw_cross = np.zeros(1), np.zeros(1)

    def message_nets(self):
        """(psi net, type weight, its grad) for inner, then cross paths."""
        return (
            (self.psi_inner, self.w_inner, self.gw_inner),
            (self.psi_cross, self.w_cross, self.gw_cross),
        )


class _NoDraws:
    """Stands in for the generator while a model whose every value is about
    to be copied in is built: each Kaiming draw comes out zero, unpaid."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


class GnnParams(ParameterRegistry):
    """All model state: per-layer message/guide nets and the classifier,
    with Kaiming-uniform weights drawn from ``cfg.seed``."""

    def __init__(self, cfg: GnnConfig):
        self._build(cfg, np.random.default_rng(cfg.seed))

    @classmethod
    def _blank(cls, cfg: GnnConfig) -> "GnnParams":
        """A model of ``cfg`` with zero weights, for values about to be
        copied in (``clone``, ``load_checkpoint``)."""
        params = cls.__new__(cls)
        params._build(cfg, _NoDraws)
        return params

    def _build(self, cfg, rng):
        self.cfg = cfg
        d = cfg.hidden_dim
        self.layers = [GnnLayer(rng, cfg) for _ in range(cfg.layers)]
        self.classifier = Mlp(
            rng, [cfg.readout_dim, d, d, d, cfg.n_classes], batchnorm_output=False
        )
        self.flatten()

    def _walk(self):
        for li, layer in enumerate(self.layers):
            name = f"layer{li}."
            for net in ("guide", "psi_inner", "psi_cross"):
                yield from getattr(layer, net)._walk(f"{name}{net}.")
            yield name + "w_inner", layer, "w_inner", True
            yield name + "w_cross", layer, "w_cross", True
        yield from self.classifier._walk("classifier.")

    def clone(self):
        """A copy of the state and gradients, without train-mode activations."""
        twin = GnnParams._blank(self.cfg)
        for flat in FLAT_VECTORS:
            getattr(twin, flat)[...] = getattr(self, flat)
        return twin


@dataclass(frozen=True)
class EmbeddingOutput:
    h_graph: np.ndarray  # (n_graphs, layers * hidden_dim)
    logits: np.ndarray  # (n_graphs, n_classes)


class _SegmentSum:
    """Sums of value rows grouped by integer key, as one ``np.add.reduceat``
    over the rows in stable key order.  Built once per key array and
    applied to many value arrays; keys need not be sorted, and keys with no
    rows sum to zero."""

    def __init__(self, keys, n_segments):
        self.n_segments = n_segments
        self.order = None if np.all(keys[1:] >= keys[:-1]) else np.argsort(keys, kind="stable")
        counts = np.bincount(keys, minlength=n_segments)
        self.present = np.flatnonzero(counts)
        self.starts = (np.cumsum(counts) - counts)[self.present]

    def __call__(self, values):
        if self.order is not None:
            values = values[self.order]
        sums = np.add.reduceat(values, self.starts, axis=0)
        if len(self.present) == self.n_segments:
            return sums
        out = np.zeros((self.n_segments, values.shape[1]))
        out[self.present] = sums
        return out


class _PathType:
    """The rows of one path type (inner or cross) and their node ids."""

    def __init__(self, batch, mask):
        self.rows = np.flatnonzero(mask)
        self.i = batch.path_i[self.rows]
        self.j = batch.path_j[self.rows]
        self.k = batch.path_k[self.rows]
        self.n_nodes = batch.n_nodes

    @functools.cached_property
    def node_sums(self):
        """Segment sums over this type's i, j and k node ids (backward only)."""
        return [_SegmentSum(ids, self.n_nodes) for ids in (self.i, self.j, self.k)]


def _psi_affine(w, b, g, h, part):
    """First psi affine ``w``, ``b`` (``None``: no bias) on ``hstack(h[i], h[j],
    h[k], g)`` for the rows of ``part``, with the node blocks of ``w`` applied
    once per node and then gathered; ``h is None`` stands for zero embeddings."""
    d = g.shape[1]
    a = g[part.rows] @ w[3 * d :]
    if b is not None:
        a += b
    if h is not None:
        for x, ids in enumerate((part.i, part.j, part.k)):
            a += (h @ w[x * d : (x + 1) * d])[ids]
    return a


def gnn_forward(
    params: GnnParams, batch: GraphBatch, mode: str = "eval", update_stats: bool = True
):
    """Run the network over a batch; train mode keeps caches for backward.

    Batchnorm statistics span all paths (message/guide nets) or all graphs
    (classifier) in the batch; eval mode folds in the running statistics.
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
    n_paths = len(batch.path_i)
    if n_paths == 0:
        raise ValueError("batch contains a graph with no paths")

    parts = [_PathType(batch, batch.inner), _PathType(batch, ~batch.inner)]
    messages = _SegmentSum(batch.path_i, batch.n_nodes)
    readout = _SegmentSum(batch.node_graph, batch.n_graphs)
    h = None  # the initial embeddings are all zero
    layer_caches = []
    layer_sums = []
    for layer in params.layers:
        g = layer.guide.forward(batch.feats, train, update_stats)
        m = np.empty((n_paths, d))
        ys = []
        for (psi, w, _), part in zip(layer.message_nets(), parts):
            y = None
            if len(part.rows):
                first = psi.blocks[0]  # a batchnorm block: no bias in train mode
                wb = (first.w, None) if train else first.folded()
                y = psi.forward_from_affine(_psi_affine(*wb, g, h, part), train, update_stats)
                m[part.rows] = w[0] * y
            ys.append(y)
        if train:
            layer_caches.append((g, h, ys))
        h = messages(m)
        layer_sums.append(readout(h))
    h_graph = np.hstack(layer_sums)
    out = EmbeddingOutput(h_graph, params.classifier.forward(h_graph, train, update_stats))
    return (out, (parts, layer_caches)) if train else out


def gnn_backward(params: GnnParams, batch: GraphBatch, caches, d_logits):
    """Analytic gradients for a preceding train-mode forward, accumulated
    into the parameter grad slots.

    For the first psi layer ``a = g W_g + (h W_i)[i] + (h W_j)[j] +
    (h W_k)[k]``, so with ``S_x = segsum(da, x)`` over nodes: ``dW_x = hᵀ
    S_x``, ``dh = Σ_x S_x W_xᵀ``, ``dW_g = gᵀ da`` and ``dg = da W_gᵀ``.
    """
    parts, layer_caches = caches
    cfg = params.cfg
    d = cfg.hidden_dim
    n_nodes = batch.n_nodes
    d_hg = params.classifier.backward(d_logits)
    dh = np.zeros((n_nodes, d))
    for li in range(cfg.layers - 1, -1, -1):
        layer = params.layers[li]
        g, h_in, ys = layer_caches[li]
        # Readout contribution of this layer's output embeddings.
        dh = dh + d_hg[:, li * d : (li + 1) * d][batch.node_graph]
        dg = np.empty_like(g)
        dh_prev = None if h_in is None else np.zeros((n_nodes, d))
        for (psi, w, gw), part, y in zip(layer.message_nets(), parts, ys):
            if y is None:
                continue
            dm = dh[part.i]
            gw += (dm * y).sum()
            da = psi.backward_to_affine(w[0] * dm)
            first = psi.blocks[0]
            first.gw[3 * d :] += g[part.rows].T @ da
            dg[part.rows] = da @ first.w[3 * d :].T
            if h_in is not None:
                for x, segsum in enumerate(part.node_sums):
                    s = segsum(da)
                    first.gw[x * d : (x + 1) * d] += h_in.T @ s
                    dh_prev += s @ first.w[x * d : (x + 1) * d].T
        layer.guide.backward(dg)
        dh = dh_prev
    # Layer 0 saw the all-zero initial embeddings: no gradient flows past it.


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
    """One forward/backward and Adam update; a non-finite loss or gradient
    raises ``DivergenceError`` before the update."""
    loss = gnn_loss_and_grads(params, batch, labels)
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss}")
    if not np.isfinite(params.grad).all():  # a whole-buffer test; entries only to name one
        index = np.flatnonzero(~np.isfinite(params.grad))[0]
        raise DivergenceError(f"non-finite gradient {params.name_at(index)}")
    adam_step(params.theta, params.grad, state, lr)
    return loss


def embed_graph(params: GnnParams, batch: GraphBatch) -> np.ndarray:
    """Eval-mode graph vectors."""
    return gnn_forward(params, batch, mode="eval").h_graph
