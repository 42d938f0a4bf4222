"""The benchmark's three workloads.

Every round times three phases: ``setup`` builds the workload's inputs from
the seed, ``headline`` does the work the workload is named after, and
``featurize`` computes the surface graph and path features of every solid
of its corpus.  After each round ``check_round`` judges that round's outputs;
``check_final`` runs the heavier checks once, on the last round's outputs.
Failed checks are collected in ``problems``.

All program calls go through module attributes (``training.train``, not a
name imported from it), so the tracer's wrappers see them.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np

import checks
from polyrep import (
    checkpoint,
    datasets,
    geometry,
    model,
    nn,
    rigid_features,
    surface_graph,
    training,
)
from polyrep.errors import PolyrepError

EVAL_BATCH = 8  # the batch size evaluate_classification/_retrieval use


def _loops(p):
    return [face.loop for face in p.faces]


def _features(polys, cfg):
    return [
        model.precompute_graph_features(surface_graph.build_surface_graph(p), cfg)
        for p in polys
    ]


def _eval_logits(params, polys):
    feats = _features(polys, params.cfg)
    return np.vstack(
        [
            model.gnn_forward(params, model.collate(feats[s : s + EVAL_BATCH]), mode="eval").logits
            for s in range(0, len(feats), EVAL_BATCH)
        ]
    )


def _embeddings(params, polys):
    feats = _features(polys, params.cfg)
    return np.vstack(
        [
            model.embed_graph(params, model.collate(feats[s : s + EVAL_BATCH]))
            for s in range(0, len(feats), EVAL_BATCH)
        ]
    )


def _extruded(seed, stream, sides, scheme, labels=None):
    """Extruded star-shaped polygons with the given side counts, randomly
    rotated.  Both the shapes and the rotations come from (seed, stream)."""
    rng = np.random.default_rng([seed, stream])
    labels = labels or [0] * len(sides)
    polygons = [
        (datasets.random_simple_polygon(rng, n, n), label) for n, label in zip(sides, labels)
    ]
    records = datasets.build_extrusion_dataset(
        polygons, 1.0, scheme, rotate=True, seed=(seed * 8 + stream) * 1000
    )
    if len(records) != len(sides):
        raise RuntimeError(f"{len(sides) - len(records)} generated polygons were refused")
    return records


class Workload:
    name = ""
    corpus_size = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.problems = []
        self.corpus = []
        self.feature_cfg = model.GnnConfig()

    def note(self, problem):
        if problem is not None:
            self.problems.append(problem)

    def featurize(self):
        self.features = _features(self.corpus, self.feature_cfg)

    def check_final(self):
        pass

    def check_featurize(self):
        for i, (p, f) in enumerate(zip(self.corpus, self.features)):
            self.note(checks.path_count_problem(f"features of solid {i}", _loops(p), len(f.path_i)))


class TrainSynth(Workload):
    """``training.train`` on tetrahedra, boxes and prisms for a fixed number
    of epochs; the training seed stays 0, so the split, and with it the
    amount of work, is the same for every corpus seed."""

    name = "train-synth"
    corpus_size = 90
    epochs = 12
    accuracy_floor = 0.8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = training.TrainConfig(
            hidden_dim=64,
            layers=2,
            batch_size=16,
            lr=0.003,
            max_epochs=self.epochs,
            early_stop_patience=self.epochs + 1,
            seed=0,
        )
        self.feature_cfg = self.config.gnn_config(3)
        self.n_train = int(0.6 * self.corpus_size)
        self.first_log = None

    def setup(self):
        self.records = datasets.synthetic_dataset(self.corpus_size, seed=self.seed)
        self.corpus = [r.polyhedron for r in self.records]

    def headline(self):
        ops = self.epochs * self.n_train
        try:
            self.result = training.train(self.config, self.records)
        except PolyrepError:
            self.result = None
            return ops, ops
        return ops, 0

    def check_round(self):
        self.check_featurize()
        if self.result is None:
            return
        log = self.result.log
        if len(log) != self.epochs:
            self.note(f"training ran {len(log)} epochs, not {self.epochs}")
        self.note(
            checks.finite_problem("losses", [[e["train_loss"], e["val_loss"]] for e in log])
        )
        if self.first_log is None:
            self.first_log = log
        elif log != self.first_log:
            self.note("training log differs between rounds with the same inputs")

    def check_final(self):
        if self.result is None:
            return
        params = self.result.checkpoint.params.clone()
        batch_recs = self.result.train_records[:4]
        batch = model.collate(_features([r.polyhedron for r in batch_recs], params.cfg))
        labels = np.array([r.label for r in batch_recs])
        model.gnn_loss_and_grads(params, batch, labels, update_stats=False)
        grads = [g.copy() for g in params.grads()]

        def loss_fn():
            out, _ = model.gnn_forward(params, batch, mode="train", update_stats=False)
            return nn.cross_entropy(out.logits, labels)[0]

        self.note(
            checks.gradient_problem(
                "trained-model gradients",
                loss_fn,
                params.parameters(),
                grads,
                np.random.default_rng([self.seed, 7]),
            )
        )
        test = self.result.test_records
        logits = _eval_logits(self.result.checkpoint.params, [r.polyhedron for r in test])
        acc = checks.accuracy(logits, [r.label for r in test])
        self.note(checks.floor_problem("held-out accuracy", acc, self.accuracy_floor))


class InferAttr(Workload):
    """A checkpoint saved in set-up is loaded with a held-out corpus of
    RGB-attributed extruded polygons, then both evaluations run on it."""

    name = "infer-attr"
    corpus_size = 60
    sides = (6, 8, 10)  # class c is the solid with sides[c] sides
    train_corpus = 30
    invariance_samples = 6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = training.TrainConfig(
            hidden_dim=64,
            layers=2,
            attr_dim=3,
            batch_size=16,
            lr=0.003,
            max_epochs=3,
            early_stop_patience=4,
            seed=0,
        )
        self.feature_cfg = self.config.gnn_config(len(self.sides))
        self.ckpt_path = os.path.join(workdir, "model.ckpt")
        self.data_path = os.path.join(workdir, "held_out.jsonl")
        self.first_metrics = None

    def _records(self, stream, count):
        labels = [i % len(self.sides) for i in range(count)]
        sides = [self.sides[c] for c in labels]
        return _extruded(self.seed, stream, sides, geometry.ColorScheme.rgb_default(), labels)

    def setup(self):
        train_records = self._records(1, self.train_corpus)
        held_out = self._records(2, self.corpus_size)
        result = training.train(self.config, train_records)
        checkpoint.save_checkpoint(result.checkpoint, self.ckpt_path)
        datasets.save_records(held_out, self.data_path)
        self.corpus = [r.polyhedron for r in held_out]

    def headline(self):
        try:
            ckpt = checkpoint.load_checkpoint(self.ckpt_path)
            records = datasets.load_records(
                self.data_path, expected_attr_dim=self.config.attr_dim
            )
            self.classification = training.evaluate_classification(ckpt.params, records)
            self.retrieval = training.evaluate_retrieval(ckpt.params, records)
        except PolyrepError:
            self.params = None
            return self.corpus_size, self.corpus_size
        self.params, self.records = ckpt.params, records
        return self.corpus_size, 0

    def check_round(self):
        self.check_featurize()
        if self.params is None:
            return
        found = (self.classification.as_dict(), self.retrieval.as_dict())
        if self.first_metrics is None:
            self.first_metrics = found
        elif found != self.first_metrics:
            self.note("evaluation metrics differ between rounds with the same inputs")

    def check_final(self):
        if self.params is None:
            return
        polys = [r.polyhedron for r in self.records]
        labels = [r.label for r in self.records]
        self.note(
            checks.accuracy_problem(
                "classification",
                _eval_logits(self.params, polys),
                labels,
                self.classification.accuracy,
            )
        )
        self.note(
            checks.retrieval_problem(
                "retrieval", _embeddings(self.params, polys), labels, self.retrieval
            )
        )
        rng = np.random.default_rng([self.seed, 3])
        picked = rng.choice(len(polys), size=self.invariance_samples, replace=False)
        moved = []
        for i in picked:
            rotation = geometry.sample_random_rotation(int(rng.integers(2**31))).rotation
            motion = geometry.RigidTransform(rotation, rng.uniform(-10.0, 10.0, size=3))
            moved.append(geometry.apply_rigid_transform(polys[i], motion))
        self.note(
            checks.invariance_problem(
                "embeddings of moved copies",
                _embeddings(self.params, [polys[i] for i in picked]),
                _embeddings(self.params, moved),
            )
        )


def _write_topology(topo, path):
    doc = {
        "n_nodes": topo.n_nodes,
        "faces": [
            {"loop": list(loop), "attr": [float(a) for a in topo.attrs[fi]]}
            for fi, loop in enumerate(topo.loops)
        ],
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)


def _read_topology(path):
    with open(path, encoding="utf-8") as fp:
        doc = json.load(fp)
    faces = doc["faces"]
    loops = tuple(tuple(int(v) for v in f["loop"]) for f in faces)
    width = len(faces[0]["attr"]) if faces else 0
    attrs = np.array([f["attr"] for f in faces], dtype=np.float64).reshape(len(faces), width)
    return surface_graph.SurfaceTopology(int(doc["n_nodes"]), loops, attrs)


class RoundtripLarge(Workload):
    """Large extruded solids through the calls of ``polyrep features`` and
    ``polyrep reconstruct``; no network runs."""

    name = "roundtrip-large"
    sides = (24, 36, 48, 60, 72, 84, 96)
    corpus_size = len(sides)

    def setup(self):
        records = _extruded(self.seed, 4, self.sides, geometry.ColorScheme.empty())
        self.corpus = [r.polyhedron for r in records]

    def _roundtrip(self, i, p):
        rigid_path = os.path.join(self.workdir, f"solid{i}.rigid")
        topo_path = os.path.join(self.workdir, f"solid{i}.topo.json")
        graph = surface_graph.build_surface_graph(p)
        rigid = rigid_features.compute_rigid_set(graph)
        with open(rigid_path, "w", encoding="utf-8") as fp:
            rigid_features.write_rigid_set(rigid, fp)
        _write_topology(graph.topology(), topo_path)
        with open(rigid_path, encoding="utf-8") as fp:
            reread = rigid_features.read_rigid_set(fp)
        topo = _read_topology(topo_path)
        rebuilt = rigid_features.reconstruct_polyhedron(reread, topo)
        recomputed = rigid_features.compute_rigid_set(surface_graph.build_surface_graph(rebuilt))
        if not rigid_features.rigid_sets_equal(reread, recomputed, 1e-6):
            return None
        return rigid, reread, topo, rebuilt

    def headline(self):
        self.outputs = []
        for i, p in enumerate(self.corpus):
            try:
                self.outputs.append(self._roundtrip(i, p))
            except PolyrepError:
                self.outputs.append(None)
        return len(self.corpus), sum(out is None for out in self.outputs)

    def check_round(self):
        self.check_featurize()
        for i, (p, out) in enumerate(zip(self.corpus, self.outputs)):
            if out is None:
                continue
            rigid, reread, topo, rebuilt = out
            what = f"solid {i} ({len(p.faces) - 2} sides)"
            self.note(checks.path_count_problem(what, _loops(p), len(rigid)))
            with open(os.path.join(self.workdir, f"solid{i}.rigid"), encoding="utf-8") as fp:
                text = fp.read()
            rewritten = io.StringIO()
            rigid_features.write_rigid_set(reread, rewritten)
            self.note(checks.reread_problem(what, rigid, reread, text, rewritten.getvalue()))
            if [tuple(loop) for loop in topo.loops] != [tuple(loop) for loop in _loops(p)]:
                self.note(f"{what}: topology file does not give back the face loops")
            self.note(checks.congruence_problem(what, p.vertices, rebuilt.vertices))


WORKLOADS = {w.name: w for w in (TrainSynth, InferAttr, RoundtripLarge)}
