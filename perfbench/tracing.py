"""Spans around the calls the program makes between its modules.

A :class:`Tracer` keeps spans in memory: id, parent id, root id (the
set-up, headline or featurize phase of the round that caused it), name,
start and end.  Self time, a span's duration minus the time its child
spans cover, is summed per (root name, span name) as spans close, and so
is the number of calls.

:func:`installed` swaps the module attributes listed in ``PATCHES`` for
timing wrappers and restores them on exit, so untraced rounds run the
program's own functions untouched.  Each entry names the module whose
global the caller looks up, which is why some functions appear once per
calling module.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from polyrep import (
    checkpoint,
    datasets,
    model,
    rigid_features,
    surface_graph,
    training,
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack = []
        self._next_id = 0

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        frame = {
            "id": self._next_id,
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else self._next_id,
            "root_name": parent["root_name"] if parent else name,
            "name": name,
            "children_s": 0.0,
        }
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if parent:
                parent["children_s"] += duration
            key = (frame["root_name"], name)
            self.self_s[key] += duration - frame["children_s"]
            self.calls[key] += 1
            self.spans.append(
                (frame["id"], frame["parent"], frame["root"], name, start, end)
            )

    def self_time(self, roots, name):
        return sum(self.self_s[(root, name)] for root in roots)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fp:
            for sid, parent, root, name, start, end in self.spans:
                fp.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "root": root, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return "model.forward_train" if mode == "train" else "model.forward_eval"


PATCHES = [
    (surface_graph, "validate_polyhedron", "geometry.validate"),
    (datasets, "validate_polyhedron", "geometry.validate"),
    (surface_graph, "build_surface_graph", "surface_graph.build"),
    (training, "build_surface_graph", "surface_graph.build"),
    (rigid_features, "enumerate_paths", "rigid_features.enumerate_paths"),
    (model, "enumerate_paths", "rigid_features.enumerate_paths"),
    (model, "precompute_graph_features", "model.precompute_features"),
    (training, "precompute_graph_features", "model.precompute_features"),
    (model, "gnn_forward", _forward_name),
    (training, "gnn_forward", _forward_name),
    (model, "gnn_backward", "model.backward"),
    (training, "collate", "model.collate"),
    (model, "adam_step", "nn.adam"),
    (rigid_features, "compute_rigid_set", "rigid_features.compute_rigid_set"),
    (rigid_features, "write_rigid_set", "rigid_features.write"),
    (rigid_features, "read_rigid_set", "rigid_features.read"),
    (rigid_features, "reconstruct_polyhedron", "rigid_features.reconstruct"),
    (rigid_features, "rigid_sets_equal", "rigid_features.compare"),
    (datasets, "load_records", "datasets.load_records"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (training, "classification_metrics", "metrics.classification"),
    (training, "retrieval_metrics", "metrics.retrieval"),
    (training, "train", "training.train"),
    (training, "evaluate_classification", "training.evaluate_classification"),
    (training, "evaluate_retrieval", "training.evaluate_retrieval"),
]


def _wrap(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        with tracer.span(label):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def installed(tracer):
    """Route the listed calls through ``tracer`` for the duration."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
    try:
        for (mod, attr, name), (_, _, fn) in zip(PATCHES, saved):
            setattr(mod, attr, _wrap(tracer, fn, name))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
