"""A solid is validated once at the default tolerance and featurized once per
attribute width; the shared batches are read-only, and every result stays
what a fresh decode gives."""

import collections
import json

import numpy as np
import pytest

from polyrep import GnnConfig, GnnParams, Polyhedron, TrainConfig, geometry, train, training
from polyrep.datasets import (
    build_extrusion_dataset,
    load_records,
    make_box,
    random_simple_polygon,
    save_records,
)
from polyrep.geometry import ColorScheme, validate_polyhedron
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


def _params(attr_dim=3):
    return GnnParams(GnnConfig(hidden_dim=8, attr_dim=attr_dim, n_classes=3, seed=1))


def _metrics(params, records):
    found = (
        evaluate_classification(params, records).as_dict(),
        evaluate_retrieval(params, records).as_dict(),
    )
    return json.dumps(found)  # NaN-safe and bitwise: floats print round-trip


def _counted(monkeypatch, module, name):
    """Count calls of ``module.name`` by the identity of their first argument."""
    calls = collections.Counter()
    fn = getattr(module, name)

    def counted(first, *args, **kwargs):
        calls[id(first)] += 1
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestOncePerSolid:
    def test_load_and_both_evaluations(self, corpus_path, monkeypatch):
        validated = _counted(monkeypatch, geometry, "_validate")
        built = _counted(monkeypatch, training, "build_surface_graph")
        featurized = _counted(monkeypatch, training, "precompute_graph_features")
        records = load_records(corpus_path, expected_attr_dim=3)
        params = _params()
        evaluate_classification(params, records)
        evaluate_retrieval(params, records)
        solids = {id(r.polyhedron) for r in records}
        for calls in (validated, built):
            assert set(calls) == solids and set(calls.values()) == {1}
        assert sum(featurized.values()) == len(solids)

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
            for field in ("path_i", "path_j", "path_k", "feats", "inner", "node_graph"):
                assert np.array_equal(getattr(batch, field), getattr(alone, field))
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
        built = _counted(monkeypatch, training, "build_surface_graph")
        featurized = _counted(monkeypatch, training, "precompute_graph_features")
        for hidden in (4, 6):
            train(TrainConfig(hidden_dim=hidden, max_epochs=1, batch_size=4, seed=2), records)
        assert built and set(built.values()) == {1}
        assert sum(featurized.values()) == len(built)


class TestValidationCache:
    def test_default_report_is_computed_once(self, monkeypatch):
        validated = _counted(monkeypatch, geometry, "_validate")
        solid = make_box()
        first = validate_polyhedron(solid)
        assert validate_polyhedron(solid) is first is solid._report
        assert validated[id(solid)] == 1


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
