"""Training loop and evaluation harness.

One seeded configuration fully determines the run: the split, the parameter
init, every shuffle, and therefore the epoch log and the checkpoint bytes.
The scheduler watches validation loss (min mode); early stopping watches
validation accuracy and restores the best parameters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .datasets import load_records, split_dataset
from .errors import DataError, DivergenceError
from .metrics import (
    ClassificationMetrics,
    RetrievalMetrics,
    classification_metrics,
    retrieval_metrics,
)
from .model import (
    GnnConfig,
    GnnParams,
    collate,
    gnn_forward,
    gnn_train_step,
    precompute_graph_features,
    split_batch,
)
from .nn import AdamState, PlateauState, cross_entropy, plateau_step
from .surface_graph import build_surface_graph

logger = logging.getLogger(__name__)


EVAL_CHUNK = 8  # graphs per eval-mode forward of both evaluations

# The JSON value types each TrainConfig field accepts, by annotation.
_JSON_KINDS = {
    "str": ((str,), "string"), "int": ((int,), "integer"), "float": ((int, float), "number")
}


@dataclass
class TrainConfig:
    data: str = ""
    hidden_dim: int = 64
    layers: int = 2
    attr_dim: int = 0
    lr: float = 0.001
    batch_size: int = 32
    max_epochs: int = 500
    early_stop_patience: int = 50
    scheduler_factor: float = 0.5
    scheduler_patience: int = 10
    min_lr: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        finite = math.isfinite
        rules = {
            "hidden_dim": (self.hidden_dim >= 1, ">= 1"),
            "layers": (self.layers >= 1, ">= 1"),
            "attr_dim": (self.attr_dim >= 0, ">= 0"),
            "lr": (finite(self.lr) and self.lr > 0, "finite and > 0"),
            "batch_size": (self.batch_size >= 2, ">= 2"),
            "max_epochs": (self.max_epochs >= 0, ">= 0"),
            "early_stop_patience": (self.early_stop_patience >= 0, ">= 0"),
            "scheduler_factor": (0 < self.scheduler_factor < 1, "> 0 and < 1"),
            "scheduler_patience": (self.scheduler_patience >= 0, ">= 0"),
            "min_lr": (finite(self.min_lr) and self.min_lr >= 0, "finite and >= 0"),
            "seed": (self.seed >= 0, ">= 0"),
        }
        for name, (ok, rule) in rules.items():
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """The config a JSON document describes; a document that is not an
        object, an unknown key, a value of the wrong JSON type (booleans are
        not numbers; integers are floats) or an out-of-range value is a
        ``DataError``."""
        if not isinstance(doc, dict):
            raise DataError("train config must be a JSON object")
        kinds = {f.name: _JSON_KINDS[f.type] for f in dataclasses.fields(cls)}
        unknown = set(doc) - set(kinds)
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        for name, value in doc.items():
            types, what = kinds[name]
            if isinstance(value, bool) or not isinstance(value, types):
                raise DataError(f"train config: {name} must be a JSON {what}")
        try:
            return cls(**doc)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"train config: {exc}") from exc

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()[:16]

    def gnn_config(self, n_classes: int) -> GnnConfig:
        return GnnConfig(
            layers=self.layers,
            hidden_dim=self.hidden_dim,
            attr_dim=self.attr_dim,
            n_classes=n_classes,
            seed=self.seed,
        )


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    best_epoch: int
    log: list
    train_records: list
    val_records: list
    test_records: list


def features_for_records(records, cfg: GnnConfig):
    """Each record's one-graph batch, memoized on its solid by attribute
    width, so every caller shares one read-only batch.  The solids the memo
    lacks are featurized together: one union graph, one feature call, split
    per solid.  Only ``cfg.attr_dim`` shapes the features; a width the solid
    does not have misses the memo and raises ``ValueError``."""
    polys = [r.polyhedron for r in records]
    misses = list({id(p): p for p in polys if cfg.attr_dim not in p._graph_features}.values())
    # A solid of another width cannot join the union; featurized alone after
    # the solids before it, it raises in record order.
    cut = next((n for n, p in enumerate(misses) if p.attr_dim != cfg.attr_dim), len(misses))
    for part in (misses[:cut], misses[cut : cut + 1]):
        if part:
            batch = precompute_graph_features(build_surface_graph(*part), cfg)
            for p, one in zip(part, split_batch(batch)):
                p._graph_features[cfg.attr_dim] = one
    return [p._graph_features[cfg.attr_dim] for p in polys]


def _minibatches(n, batch_size, rng):
    order = rng.permutation(n)
    batches = [order[s : s + batch_size] for s in range(0, n, batch_size)]
    # A trailing singleton cannot feed train-mode batchnorm; fold it back.
    if len(batches) > 1 and len(batches[-1]) == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def _eval_outputs(params, features, chunk):
    """Eval-mode graph vectors and logits, over chunks of ``chunk`` graphs in
    the order given."""
    outs = [
        gnn_forward(params, collate(features[s : s + chunk]), mode="eval")
        for s in range(0, len(features), chunk)
    ]
    return np.vstack([o.h_graph for o in outs]), np.vstack([o.logits for o in outs])


def train(cfg: TrainConfig, records=None) -> TrainResult:
    """Run the full loop and return the best-validation checkpoint + log.

    A non-finite loss or gradient raises ``DivergenceError`` at once.
    """
    if records is None:
        if not cfg.data:
            raise DataError("no records given and no data path configured")
        records = load_records(cfg.data, expected_attr_dim=cfg.attr_dim)
    records = list(records)
    train_recs, val_recs, test_recs = split_dataset(records, cfg.seed)

    n_classes = _class_count(records, train_recs)
    gnn_cfg = cfg.gnn_config(n_classes)
    feats_train = features_for_records(train_recs, gnn_cfg)
    feats_val = features_for_records(val_recs, gnn_cfg)
    y_train = np.array([r.label for r in train_recs], dtype=np.int64)
    y_val = np.array([r.label for r in val_recs], dtype=np.int64)

    params = GnnParams(gnn_cfg)
    adam = AdamState.for_params(params.theta)
    scheduler = PlateauState(
        lr=cfg.lr,
        factor=cfg.scheduler_factor,
        patience=cfg.scheduler_patience,
        min_lr=cfg.min_lr,
    )
    shuffle_rng = np.random.default_rng([cfg.seed, 17])

    log = []
    best_acc = -1.0
    best_epoch = -1
    best_params = None
    bad_epochs = 0
    lr = cfg.lr

    for epoch in range(cfg.max_epochs):
        batch_losses = []
        batch_sizes = []
        for b, idx in enumerate(_minibatches(len(feats_train), cfg.batch_size, shuffle_rng)):
            batch = collate([feats_train[i] for i in idx])
            try:
                loss = gnn_train_step(params, batch, y_train[idx], adam, lr)
            except DivergenceError as exc:
                raise DivergenceError(f"epoch {epoch}, batch {b}: {exc}") from exc
            batch_losses.append(loss)
            batch_sizes.append(len(idx))
        train_loss = float(
            np.average(batch_losses, weights=batch_sizes) if batch_losses else 0.0
        )

        _, val_logits = _eval_outputs(params, feats_val, cfg.batch_size)
        val_loss, _ = cross_entropy(val_logits, y_val)
        if not np.isfinite(val_loss):
            raise DivergenceError(f"epoch {epoch}, validation: non-finite loss {val_loss}")
        val_acc = float((val_logits.argmax(axis=1) == y_val).mean())
        lr = plateau_step(scheduler, val_loss)
        log.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_loss": val_loss,
                "val_acc": val_acc,
                "lr": lr,
            }
        )

        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_params = params.clone()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.early_stop_patience:
                logger.info("early stop at epoch %d (best %d)", epoch, best_epoch)
                break

    if best_params is None:
        raise DataError("training ran zero epochs; nothing to checkpoint")
    ckpt = Checkpoint(config=cfg.to_dict() | {"n_classes": n_classes}, params=best_params)
    return TrainResult(ckpt, best_epoch, log, train_recs, val_recs, test_recs)


def _class_count(records, train_recs):
    """``max(label) + 1`` over ``records``; classes below it that no training
    record has are a ``DataError`` naming at most five, found without a walk
    over the class range."""
    n_classes = max(r.label for r in records) + 1
    present = sorted({r.label for r in train_recs})
    missing, start = [], 0
    for label in [*present, n_classes]:
        missing += range(start, min(label, start + 5 - len(missing)))
        start = label + 1
    if missing:
        more = n_classes - len(present) - len(missing)
        tail = f" and {more} more" if more else ""
        raise DataError(f"classes {missing}{tail} have no training samples")
    return n_classes


def _labels(records):
    """The records' labels; no records at all is a ``DataError``."""
    if not records:
        raise DataError("no records to evaluate")
    return np.array([r.label for r in records], dtype=np.int64)


def evaluate_classification(params: GnnParams, records) -> ClassificationMetrics:
    """Classification metrics of ``records``; a set the metrics are not
    defined on (no records, or one class only) is a ``DataError``."""
    labels = _labels(records)
    if labels.max() >= params.cfg.n_classes:
        raise DataError(
            f"test labels reach {labels.max()} but the model has "
            f"{params.cfg.n_classes} classes"
        )
    if len(np.unique(labels)) < 2:
        raise DataError("AUC undefined on a single-class test set")
    feats = features_for_records(records, params.cfg)
    _, logits = _eval_outputs(params, feats, EVAL_CHUNK)
    return classification_metrics(_finite(logits, records, "logit"), labels)


def evaluate_retrieval(params: GnnParams, records, similarity: str = "cosine") -> RetrievalMetrics:
    """Retrieval metrics of ``records``; a set with no query (no records, or
    every class a singleton) is a ``DataError``."""
    labels = _labels(records)
    if np.unique(labels, return_counts=True)[1].max() < 2:
        raise DataError("no usable retrieval queries (all classes singletons)")
    feats = features_for_records(records, params.cfg)
    embs, _ = _eval_outputs(params, feats, EVAL_CHUNK)
    return retrieval_metrics(_finite(embs, records, "graph vector"), labels, similarity)


def _finite(outputs, records, what):
    """``outputs`` (one row per record) if all finite; else ``DivergenceError``
    naming the first record whose row is not, so no non-finite output is scored."""
    if not np.isfinite(outputs).all():  # a whole-array test; rows only to name one
        r = int(np.flatnonzero(~np.isfinite(outputs).all(axis=1))[0])
        raise DivergenceError(f"non-finite {what} for graph {r} ({records[r].source_id!r})")
    return outputs
