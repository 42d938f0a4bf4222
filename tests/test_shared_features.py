"""A solid is validated once at the default tolerance and featurized once per
attribute width; the shared batches are read-only, and every result stays
what a fresh decode gives."""

import collections
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from polyrep import (
    GnnConfig,
    GnnParams,
    PolygonFace,
    Polyhedron,
    TrainConfig,
    geometry,
    model,
    train,
    training,
)
from polyrep.datasets import (
    PolyhedronRecord,
    build_extrusion_dataset,
    load_records,
    make_box,
    make_prism,
    make_tetrahedron,
    random_simple_polygon,
    save_records,
    synthetic_dataset,
)
from polyrep.errors import GeometryError, GraphError, InvalidPolyhedronError
from polyrep.model import collate, split_batch
from polyrep.rigid_features import PathSet
from polyrep.geometry import ColorScheme, validate_corpus, validate_polyhedron
from polyrep.training import evaluate_classification, evaluate_retrieval, features_for_records


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    """Nine RGB-attributed extruded solids in three classes, saved to disk."""
    rng = np.random.default_rng(5)
    polygons = [(random_simple_polygon(rng, 5, 8), i % 3) for i in range(9)]
    records = build_extrusion_dataset(
        polygons, 1.0, ColorScheme.rgb_default(), rotate=True, seed=40
    )
    path = tmp_path_factory.mktemp("corpus") / "held_out.jsonl"
    save_records(records, path)
    return path


def _bits(batch):
    """Every array of a batch as (dtype, bytes), and its two counts."""
    arrays = (batch.path_i, batch.path_j, batch.path_k, batch.feats, batch.inner, batch.node_graph)
    return [(a.dtype.str, a.tobytes()) for a in arrays], batch.n_nodes, batch.n_graphs


def _params(attr_dim=3):
    return GnnParams(GnnConfig(hidden_dim=8, attr_dim=attr_dim, n_classes=3, seed=1))


def _metrics(params, records):
    found = (
        evaluate_classification(params, records).as_dict(),
        evaluate_retrieval(params, records).as_dict(),
    )
    return json.dumps(found)  # NaN-safe and bitwise: floats print round-trip


def _calls(monkeypatch, module, name):
    """The arguments of every call of ``module.name``, each call a tuple of ids."""
    calls = []
    fn = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(tuple(map(id, args)))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


class TestOncePerSolid:
    def test_load_and_both_evaluations(self, corpus_path, monkeypatch):
        validated = _calls(monkeypatch, geometry, "_validate")
        built = _calls(monkeypatch, training, "build_surface_graph")
        featurized = _calls(monkeypatch, training, "precompute_graph_features")
        records = load_records(corpus_path, expected_attr_dim=3)
        params = _params()
        evaluate_classification(params, records)
        evaluate_retrieval(params, records)
        solids = tuple(id(r.polyhedron) for r in records)
        # One validation pass computes every report, once per solid; one
        # corpus call featurizes every solid, and the second evaluation
        # reads the memo.
        assert validated == [solids]
        assert built == [solids]
        assert len(featurized) == 1

    def test_fresh_decode_gives_bitwise_equal_metrics(self, corpus_path):
        params = _params()
        records = load_records(corpus_path, expected_attr_dim=3)
        first = _metrics(params, records)
        assert _metrics(params, records) == first  # every batch from the memo
        assert _metrics(params, load_records(corpus_path, expected_attr_dim=3)) == first

    def test_memo_matches_unshared_features(self, corpus_path):
        records = load_records(corpus_path, expected_attr_dim=3)
        cfg = _params().cfg
        shared = features_for_records(records, cfg)
        for rec, batch in zip(records, shared):
            fresh = Polyhedron(rec.polyhedron.vertices, rec.polyhedron.faces)
            alone = training.precompute_graph_features(
                training.build_surface_graph(fresh), cfg
            )
            assert _bits(batch) == _bits(alone)
        assert all(a is b for a, b in zip(shared, features_for_records(records, cfg)))

    def test_wrong_attr_dim_still_raises_on_memoized_records(self, corpus_path):
        records = load_records(corpus_path, expected_attr_dim=3)
        evaluate_classification(_params(), records)
        with pytest.raises(ValueError, match="attribute width"):
            evaluate_classification(_params(attr_dim=0), records)
        with pytest.raises(ValueError, match="attribute width"):
            evaluate_retrieval(_params(attr_dim=2), records)

    def test_two_trainings_of_other_widths_featurize_once(self, monkeypatch):
        from polyrep.datasets import synthetic_dataset

        records = synthetic_dataset(12, seed=3)
        built = _calls(monkeypatch, training, "build_surface_graph")
        featurized = _calls(monkeypatch, training, "precompute_graph_features")
        for hidden in (4, 6):
            train(TrainConfig(hidden_dim=hidden, max_epochs=1, batch_size=4, seed=2), records)
        # One corpus call for the training split and one for the validation
        # split; the second training reads the memo.
        solids = collections.Counter(solid for args in built for solid in args)
        assert len(built) == len(featurized) == 2
        assert len(solids) == 7 + 2 and set(solids.values()) == {1}


class TestValidationCache:
    def test_default_report_is_computed_once(self, monkeypatch):
        validated = _calls(monkeypatch, geometry, "_validate")
        solid = make_box()
        first = validate_polyhedron(solid)
        assert validate_polyhedron(solid) is first is solid._report
        assert validate_corpus([solid, solid])[1] is first
        assert validated == [(id(solid),)]


class TestReadOnlyFeatures:
    def test_in_place_writes_raise(self, corpus_path):
        records = load_records(corpus_path, expected_attr_dim=3)
        batch = features_for_records(records[:1], _params().cfg)[0]
        with pytest.raises(ValueError, match="read-only"):
            batch.feats[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            batch.path_i[0] += 1
        with pytest.raises(ValueError, match="read-only"):
            batch.inner[:] = True

    def test_training_and_both_evaluations_run_on_shared_batches(self, corpus_path):
        records = load_records(corpus_path, expected_attr_dim=3)
        cfg = TrainConfig(hidden_dim=4, attr_dim=3, max_epochs=2, batch_size=4, seed=1)
        before = [f.feats.copy() for f in features_for_records(records, cfg.gnn_config(3))]
        result = train(cfg, records)
        params = result.checkpoint.params
        evaluate_classification(params, records)
        evaluate_retrieval(params, records)
        after = features_for_records(records, params.cfg)
        assert all(np.array_equal(a, b.feats) for a, b in zip(before, after))


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workload_corpora(tmp_path_factory):
    """(solids, feature config) of each benchmark workload's corpus at seed 1:
    the training corpus, the held-out corpus and the large extrusions."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
    corpora = {}
    for name, workload in workloads.WORKLOADS.items():
        run = workload(1, str(tmp_path_factory.mktemp(name)))
        if name == "infer-attr":  # set-up would also train the model it loads
            corpus = [r.polyhedron for r in run._records(2, run.corpus_size)]
        else:
            run.setup()
            corpus = run.corpus
        corpora[name] = corpus, run.feature_cfg
    return corpora


def _fresh(p):
    """An unvalidated, unfeaturized copy of a solid."""
    return Polyhedron(p.vertices, p.faces)


def _records(solids):
    return [PolyhedronRecord(p, 0) for p in solids]


def _scaled_mix():
    """Attributed solids of every kind, scaled by 1e-9 to 1e3."""
    records = synthetic_dataset(13, kinds=("tetrahedron", "box", "prism", "pyramid"), attr_dim=3)
    return [Polyhedron(r.polyhedron.vertices * 10.0**k, r.polyhedron.faces)
            for k, r in zip(range(-9, 4), records)]


class TestCorpusPass:
    @pytest.mark.parametrize("name", ["train-synth", "infer-attr", "roundtrip-large", "scales"])
    def test_union_features_are_the_collated_solo_features(self, workload_corpora, name):
        solids, cfg = workload_corpora.get(name) or (_scaled_mix(), GnnConfig(attr_dim=3))
        union = training.precompute_graph_features(
            training.build_surface_graph(*map(_fresh, solids)), cfg
        )
        solo = [
            training.precompute_graph_features(training.build_surface_graph(_fresh(p)), cfg)
            for p in solids
        ]
        assert _bits(union) == _bits(collate(solo))
        assert [_bits(b) for b in split_batch(union)] == [_bits(b) for b in solo]

    def test_first_failing_record_raises_in_its_own_node_ids(self, monkeypatch):
        # Tetrahedra (4 nodes) get no paths and prisms (12) a NaN angle;
        # whichever kind comes first raises, as a solid featurized alone would.
        real_paths, real_geometry = model.enumerate_paths, model._path_geometry

        def solid_sizes(g, ids):
            return np.diff(g.node_starts)[np.searchsorted(g.node_starts, ids, side="right") - 1]

        def no_tetrahedron_paths(g):
            paths = real_paths(g)
            keep = solid_sizes(g, paths.i) != 4
            return PathSet(*(getattr(paths, f)[keep] for f in ("i", "j", "k", "e1", "e2")))

        def nan_prism_angles(g, paths):
            d1, d2, theta, phi, face1, face2 = real_geometry(g, paths)
            theta = np.where(solid_sizes(g, paths.i) == 12, np.nan, theta)
            return d1, d2, theta, phi, face1, face2

        monkeypatch.setattr(model, "enumerate_paths", no_tetrahedron_paths)
        monkeypatch.setattr(model, "_path_geometry", nan_prism_angles)
        box, tetrahedron, prism = make_box(), make_tetrahedron(), make_prism()
        cfg = GnnConfig()
        with pytest.raises(GeometryError, match=r"^non-finite feature on path \(0,1,0\)$"):
            features_for_records(_records([box, prism, box, tetrahedron]), cfg)
        with pytest.raises(ValueError, match="^graph yields no two-hop paths$"):
            features_for_records(_records([_fresh(box), tetrahedron, prism]), cfg)

    def test_first_record_of_another_width_raises(self):
        solids = [make_box(attr_dim=3), make_prism(attr_dim=3), make_box(), make_box(attr_dim=2)]
        with pytest.raises(ValueError, match="^graph has attribute width 0, config expects 3$"):
            features_for_records(_records(solids), GnnConfig(attr_dim=3))
        # The solids before it were featurized and kept.
        assert [3 in p._graph_features for p in solids] == [True, True, False, False]

    def test_first_invalid_solid_raises(self):
        box = make_box()
        loose = Polyhedron(np.vstack([box.vertices, [[5.0, 5.0, 5.0]]]), box.faces)
        first = box.faces[0]
        reversed_first = PolygonFace(first.loop[::-1], first.attr)
        flipped = Polyhedron(box.vertices, (reversed_first, *box.faces[1:]))
        with pytest.raises(InvalidPolyhedronError) as info:
            training.build_surface_graph(make_prism(), loose, box, flipped)
        assert info.value.report.codes() == ["vertex_in_few_faces"]

    def test_one_graph_holds_one_attribute_width(self):
        with pytest.raises(GraphError, match=r"one attribute width, got \[0, 3\]"):
            training.build_surface_graph(make_box(attr_dim=3), make_box())
