import hashlib
import json
import re

import numpy as np
import pytest

from polyrep import DataError, DivergenceError, InvalidPolyhedronError, TrainConfig, model, train
from polyrep.datasets import PolyhedronRecord, synthetic_dataset
from polyrep.training import (
    evaluate_classification,
    evaluate_retrieval,
    features_for_records,
)

from conftest import overflowing_solid


def _relabel(record, labels):
    return PolyhedronRecord(record.polyhedron, labels.get(record.label, record.label),
                            record.source_id)


def quick_config(**overrides):
    base = dict(hidden_dim=32, layers=2, attr_dim=0, seed=3, max_epochs=40, batch_size=16)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_run():
    records = synthetic_dataset(90, seed=2)
    return train(quick_config(), records), records


class TestTrainLoop:
    def test_learns_tiny_problem(self, tiny_run):
        result, _ = tiny_run
        assert result.log[-1]["val_acc"] >= 0.8
        metrics = evaluate_classification(result.checkpoint.params, result.test_records)
        assert metrics.accuracy >= 0.75

    def test_log_schema(self, tiny_run):
        result, _ = tiny_run
        for row in result.log:
            assert set(row) == {"epoch", "train_loss", "val_loss", "val_acc", "lr"}

    def test_determinism_same_seed(self, tiny_run):
        result, records = tiny_run
        again = train(quick_config(), records)
        assert json.dumps(result.log) == json.dumps(again.log)
        a = result.checkpoint.params.parameters()
        b = again.checkpoint.params.parameters()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_negligible_lr_never_learns(self):
        from polyrep import GnnParams

        records = synthetic_dataset(30, seed=4)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        cfg = quick_config(lr=1e-300, max_epochs=4)
        result = train(cfg, records)
        assert all(np.isfinite(row["train_loss"]) for row in result.log)
        # Adam moved nothing, so the checkpoint parameters still equal a
        # fresh seeded init.  (The logged losses are not constant because
        # batch statistics and shuffles change even under a null update.)
        fresh = GnnParams(cfg.gnn_config(3))
        for a, b in zip(result.checkpoint.params.parameters(), fresh.parameters()):
            assert np.abs(a - b).max() < 1e-250

    def test_missing_class_in_train_split(self):
        # The class count is max(label) + 1; no record holds class 2.
        records = [_relabel(r, {2: 3}) for r in synthetic_dataset(40, seed=5)]
        cfg = quick_config(max_epochs=2)
        with pytest.raises(DataError, match=r"^classes \[2\] have no training samples$"):
            train(cfg, records)

    @pytest.mark.parametrize(
        "top, message",
        [(9, r"classes \[2, 3, 4, 5, 6\] and 2 more"),
         (10**12, rf"classes \[2, 3, 4, 5, 6\] and {10**12 - 7} more")],
        ids=["nine", "huge"],
    )
    def test_at_most_five_missing_classes_are_named(self, top, message):
        # Found from the distinct training labels: a label of 10**12 is no
        # walk over 10**12 classes.
        records = [_relabel(r, {2: top}) for r in synthetic_dataset(40, seed=5)]
        with pytest.raises(DataError, match=f"^{message} have no training samples$"):
            train(quick_config(max_epochs=2), records)

    def test_splits_are_disjoint(self, tiny_run):
        result, records = tiny_run
        ids = [
            {r.source_id for r in result.train_records},
            {r.source_id for r in result.val_records},
            {r.source_id for r in result.test_records},
        ]
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])
        assert set.union(*ids) == {r.source_id for r in records}


class TestDivergence:
    def test_non_finite_validation_loss_stops_training(self):
        cfg = TrainConfig(hidden_dim=8, layers=1, lr=1e300, max_epochs=4)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match=r"epoch 0, validation: non-finite loss"):
                train(cfg, synthetic_dataset(24, seed=0))

    def test_non_finite_gradient_names_epoch_and_batch(self, monkeypatch):
        backward = model.gnn_backward

        def poisoned(params, *args):
            backward(params, *args)
            params.layers[0].gw_cross[0] = np.inf

        monkeypatch.setattr(model, "gnn_backward", poisoned)
        cfg = TrainConfig(hidden_dim=8, layers=1, max_epochs=2)
        with pytest.raises(
            DivergenceError, match=r"epoch 0, batch 0: non-finite gradient layer0\.w_cross"
        ):
            train(cfg, synthetic_dataset(24, seed=0))

    @pytest.mark.parametrize("name", ["classifier.3.b", "layer0.psi_cross.1.bn.gamma"])
    def test_non_finite_gradient_names_the_tensor_before_update(self, monkeypatch, name):
        cfg = quick_config(hidden_dim=8, layers=2).gnn_config(3)
        params = model.GnnParams(cfg)
        assert [n for n, _ in params.named_grads()][-1] == "classifier.3.b"
        backward = model.gnn_backward

        def poisoned(params, *args):
            backward(params, *args)
            dict(params.named_grads())[name][-1] = np.nan

        monkeypatch.setattr(model, "gnn_backward", poisoned)
        records = synthetic_dataset(6, seed=1)
        batch = model.collate(features_for_records(records, cfg))
        labels = np.array([r.label for r in records])
        before = params.theta.copy()
        state = model.AdamState.for_params(params.theta)
        with pytest.raises(DivergenceError, match=rf"non-finite gradient {re.escape(name)}$"):
            model.gnn_train_step(params, batch, labels, state, 1e-3)
        assert state.t == 0
        assert np.array_equal(before, params.theta)

    def test_step_refuses_non_finite_loss_before_update(self):
        cfg = quick_config(hidden_dim=8, layers=1).gnn_config(3)
        params = model.GnnParams(cfg)
        records = synthetic_dataset(6, seed=1)
        batch = model.collate(features_for_records(records, cfg))
        labels = np.array([r.label for r in records])
        params.classifier.blocks[-1].w[0, 0] = np.nan
        before = [p.copy() for p in params.parameters()]
        state = model.AdamState.for_params(params.theta)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match="non-finite loss"):
                model.gnn_train_step(params, batch, labels, state, 1e-3)
        assert state.t == 0
        for b, p in zip(before, params.parameters()):
            assert np.array_equal(b, p, equal_nan=True)


# sha256 of the checkpoint bytes and of ``json.dumps(log)`` of one tiny run,
# recorded without the biases that batchnorm cancels; both were the same
# with one and two BLAS threads.  The checkpoint digest is format 4's: the
# format-3 file of the same run with its manifest dropped and its version
# tag and digest rewritten hashes to it.
PINNED_RUN = (
    "f9d893e70ed638ba695138bf641c97f7c716afd2fe04f6a66e2f995ce0f05ae2",
    "cc5b6a89994bd175fea1833459d4214945ebaaddf61e8d53f3fa90550a256bdc",
)


class TestPinnedRun:
    def test_checkpoint_and_log_digests(self, tmp_path):
        from polyrep import save_checkpoint

        cfg = TrainConfig(hidden_dim=8, layers=2, batch_size=6, max_epochs=4, seed=0)
        result = train(cfg, synthetic_dataset(24, seed=5))
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.checkpoint, path)
        digests = (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(result.log).encode("utf-8")).hexdigest(),
        )
        assert digests == PINNED_RUN


class TestEvaluation:
    def test_retrieval_on_trained_model(self, tiny_run):
        result, _ = tiny_run
        metrics = evaluate_retrieval(result.checkpoint.params, result.test_records)
        assert 0.0 <= metrics.map <= 1.0
        assert metrics.precision == metrics.recall

    def test_euclidean_similarity_flag(self, tiny_run):
        result, _ = tiny_run
        m = evaluate_retrieval(
            result.checkpoint.params, result.test_records, similarity="euclidean"
        )
        assert 0.0 <= m.ndcg <= 1.0

    def test_unseen_class_label_rejected(self, tiny_run):
        from polyrep.datasets import PolyhedronRecord

        result, _ = tiny_run
        bad = [
            PolyhedronRecord(r.polyhedron, 9, r.source_id)
            for r in result.test_records[:6]
        ]
        with pytest.raises(DataError, match="classes"):
            evaluate_classification(result.checkpoint.params, bad)

    @pytest.mark.parametrize(
        "evaluate", [evaluate_classification, evaluate_retrieval], ids=["classify", "retrieve"]
    )
    def test_overflowing_solid_is_refused(self, tiny_run, evaluate):
        result, _ = tiny_run
        records = [*result.test_records, PolyhedronRecord(overflowing_solid(), 0, "huge")]
        with np.errstate(all="ignore"):
            with pytest.raises(InvalidPolyhedronError, match="non_finite_scale"):
                evaluate(result.checkpoint.params, records)


class TestConfig:
    def test_round_trip_dict(self):
        cfg = quick_config()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataError, match="unknown config"):
            TrainConfig.from_dict({"hidden": 4})

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("lr", float("nan"), "finite and > 0"),
            ("lr", float("inf"), "finite and > 0"),
            ("batch_size", 1, ">= 2"),
            ("max_epochs", -1, ">= 0"),
            ("early_stop_patience", -1, ">= 0"),
            ("scheduler_patience", -2, ">= 0"),
            pytest.param(
                "scheduler_factor", float("inf"), "> 0 and < 1", id="scheduler_factor-inf-finite"
            ),
            ("scheduler_factor", -1, "> 0 and < 1"),
            ("scheduler_factor", 0, "> 0 and < 1"),
            ("scheduler_factor", 1, "> 0 and < 1"),
            ("scheduler_factor", 2.0, "> 0 and < 1"),
            ("min_lr", -1e-6, "finite and >= 0"),
            ("min_lr", float("nan"), "finite and >= 0"),
            ("seed", -1, ">= 0"),
        ],
    )
    def test_out_of_range_field_is_value_error(self, field, value, rule):
        with pytest.raises(ValueError, match=f"^{field} must be {re.escape(rule)}, got "):
            TrainConfig(**{field: value})
        with pytest.raises(DataError, match=f"^train config: {field} must be"):
            TrainConfig.from_dict({field: value})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "train config must be a JSON object"),
            ({"hidden_dim": 8.0}, "train config: hidden_dim must be a JSON integer"),
            ({"max_epochs": True}, "train config: max_epochs must be a JSON integer"),
            ({"lr": False}, "train config: lr must be a JSON number"),
            ({"data": 3}, "train config: data must be a JSON string"),
        ],
    )
    def test_wrong_json_type_is_data_error(self, doc, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            TrainConfig.from_dict(doc)

    def test_integer_float_fields_are_accepted(self):
        assert TrainConfig.from_dict({"lr": 1, "min_lr": 0}).lr == 1

    def test_hash_stable_and_sensitive(self):
        a, b = quick_config(), quick_config()
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != quick_config(seed=99).config_hash()
