import functools
import hashlib
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyrep import (
    CheckpointError,
    DivergenceError,
    GnnConfig,
    GnnParams,
    collate,
    build_surface_graph,
    evaluate_classification,
    evaluate_retrieval,
    gnn_forward,
    load_checkpoint,
    precompute_graph_features,
    save_checkpoint,
)
from polyrep.checkpoint import Checkpoint
from polyrep.datasets import make_box, make_tetrahedron, save_records, synthetic_dataset

from conftest import assert_flat_views


def small_checkpoint(seed=0, hidden=8):
    cfg = GnnConfig(layers=2, hidden_dim=hidden, attr_dim=0, n_classes=3, seed=seed)
    params = GnnParams(cfg)
    # Make running stats nontrivial so the round trip is meaningful.
    batch = collate(
        [
            precompute_graph_features(build_surface_graph(make_box()), cfg),
            precompute_graph_features(build_surface_graph(make_tetrahedron()), cfg),
        ]
    )
    gnn_forward(params, batch, mode="train")
    config = {"layers": 2, "hidden_dim": hidden, "attr_dim": 0, "n_classes": 3, "seed": seed}
    return Checkpoint(config, params), batch


class TestRoundTrip:
    def test_eval_outputs_bitwise(self, tmp_path):
        ckpt, batch = small_checkpoint()
        before = gnn_forward(ckpt.params, batch, mode="eval")
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        after = gnn_forward(loaded.params, batch, mode="eval")
        assert np.array_equal(before.logits, after.logits)
        assert np.array_equal(before.h_graph, after.h_graph)

    def test_loaded_parameters_are_views_of_the_flat_buffers(self, tmp_path):
        ckpt, _ = small_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert_flat_views(loaded.params)
        assert np.array_equal(loaded.params.theta, ckpt.params.theta)

    def test_save_is_deterministic(self, tmp_path):
        ckpt, _ = small_checkpoint()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(ckpt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reloaded_metrics_bitwise(self, tmp_path):
        from polyrep.datasets import synthetic_dataset
        from polyrep.training import evaluate_classification

        ckpt, _ = small_checkpoint()
        records = synthetic_dataset(12, seed=3)
        before = evaluate_classification(ckpt.params, records)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        after = evaluate_classification(load_checkpoint(path).params, records)
        assert before == after

    def test_trained_checkpoint_reloads_byte_for_byte(self, tmp_path):
        from polyrep import TrainConfig, train

        cfg = TrainConfig(hidden_dim=4, max_epochs=2, batch_size=4, min_lr=0.0, seed=1)
        first, again = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(train(cfg, synthetic_dataset(12, seed=3)).checkpoint, first)
        save_checkpoint(load_checkpoint(first), again)
        assert first.read_bytes() == again.read_bytes()


class TestIntegrity:
    def test_corrupted_byte_detected(self, tmp_path):
        ckpt, _ = small_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_truncated_file_detected(self, tmp_path):
        ckpt, _ = small_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    # Format 1 kept one manifest entry per array, format 2 the Adam moments
    # and the scheduler, format 3 a tensor manifest that repeated what the
    # config implies; no reader of any is kept.
    @pytest.mark.parametrize(
        "tag", ["polyrep-checkpoint-1", "polyrep-checkpoint-2", "polyrep-checkpoint-3"]
    )
    def test_version_mismatch(self, tmp_path, tag):
        ckpt, _ = small_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        _resigned(path, lambda header: header | {"version": tag})
        with pytest.raises(CheckpointError, match="version mismatch"):
            load_checkpoint(path)
        assert _cli("eval", path, tmp_path) == 2

    def test_dimension_mismatch(self, tmp_path):
        ckpt, _ = small_checkpoint(hidden=8)
        # Claim a different width in the stored config: the blob is no
        # longer as long as that config implies.
        ckpt.config = dict(ckpt.config, hidden_dim=16)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointError, match="dimension"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [-8, -1, 8], ids=["value short", "byte short", "value long"])
    def test_blob_of_another_length_is_dimension_mismatch(self, tmp_path, extra):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_checkpoint()[0], path)
        payload = path.read_bytes()[:-32]
        path.write_bytes(_signed(payload[:extra] if extra < 0 else payload + bytes(extra)))
        with pytest.raises(CheckpointError, match="^dimension mismatch: blob of "):
            load_checkpoint(path)


# The walk of a model's arrays: names, order and shapes.  Each MLP lists its
# parameters, then its running statistics.  A checkpoint's ``theta`` and its
# two running-statistic vectors are laid out in this order.
PINNED_MANIFEST = """
layer0.guide.0.w 10x4
layer0.guide.0.bn.gamma 4
layer0.guide.0.bn.beta 4
layer0.guide.0.bn.running_mean 4
layer0.guide.0.bn.running_var 4
layer0.psi_inner.0.w 16x4
layer0.psi_inner.0.bn.gamma 4
layer0.psi_inner.0.bn.beta 4
layer0.psi_inner.1.w 4x4
layer0.psi_inner.1.bn.gamma 4
layer0.psi_inner.1.bn.beta 4
layer0.psi_inner.2.w 4x4
layer0.psi_inner.2.bn.gamma 4
layer0.psi_inner.2.bn.beta 4
layer0.psi_inner.3.w 4x4
layer0.psi_inner.3.bn.gamma 4
layer0.psi_inner.3.bn.beta 4
layer0.psi_inner.0.bn.running_mean 4
layer0.psi_inner.0.bn.running_var 4
layer0.psi_inner.1.bn.running_mean 4
layer0.psi_inner.1.bn.running_var 4
layer0.psi_inner.2.bn.running_mean 4
layer0.psi_inner.2.bn.running_var 4
layer0.psi_inner.3.bn.running_mean 4
layer0.psi_inner.3.bn.running_var 4
layer0.psi_cross.0.w 16x4
layer0.psi_cross.0.bn.gamma 4
layer0.psi_cross.0.bn.beta 4
layer0.psi_cross.1.w 4x4
layer0.psi_cross.1.bn.gamma 4
layer0.psi_cross.1.bn.beta 4
layer0.psi_cross.2.w 4x4
layer0.psi_cross.2.bn.gamma 4
layer0.psi_cross.2.bn.beta 4
layer0.psi_cross.3.w 4x4
layer0.psi_cross.3.bn.gamma 4
layer0.psi_cross.3.bn.beta 4
layer0.psi_cross.0.bn.running_mean 4
layer0.psi_cross.0.bn.running_var 4
layer0.psi_cross.1.bn.running_mean 4
layer0.psi_cross.1.bn.running_var 4
layer0.psi_cross.2.bn.running_mean 4
layer0.psi_cross.2.bn.running_var 4
layer0.psi_cross.3.bn.running_mean 4
layer0.psi_cross.3.bn.running_var 4
layer0.w_inner 1
layer0.w_cross 1
layer1.guide.0.w 10x4
layer1.guide.0.bn.gamma 4
layer1.guide.0.bn.beta 4
layer1.guide.0.bn.running_mean 4
layer1.guide.0.bn.running_var 4
layer1.psi_inner.0.w 16x4
layer1.psi_inner.0.bn.gamma 4
layer1.psi_inner.0.bn.beta 4
layer1.psi_inner.1.w 4x4
layer1.psi_inner.1.bn.gamma 4
layer1.psi_inner.1.bn.beta 4
layer1.psi_inner.2.w 4x4
layer1.psi_inner.2.bn.gamma 4
layer1.psi_inner.2.bn.beta 4
layer1.psi_inner.3.w 4x4
layer1.psi_inner.3.bn.gamma 4
layer1.psi_inner.3.bn.beta 4
layer1.psi_inner.0.bn.running_mean 4
layer1.psi_inner.0.bn.running_var 4
layer1.psi_inner.1.bn.running_mean 4
layer1.psi_inner.1.bn.running_var 4
layer1.psi_inner.2.bn.running_mean 4
layer1.psi_inner.2.bn.running_var 4
layer1.psi_inner.3.bn.running_mean 4
layer1.psi_inner.3.bn.running_var 4
layer1.psi_cross.0.w 16x4
layer1.psi_cross.0.bn.gamma 4
layer1.psi_cross.0.bn.beta 4
layer1.psi_cross.1.w 4x4
layer1.psi_cross.1.bn.gamma 4
layer1.psi_cross.1.bn.beta 4
layer1.psi_cross.2.w 4x4
layer1.psi_cross.2.bn.gamma 4
layer1.psi_cross.2.bn.beta 4
layer1.psi_cross.3.w 4x4
layer1.psi_cross.3.bn.gamma 4
layer1.psi_cross.3.bn.beta 4
layer1.psi_cross.0.bn.running_mean 4
layer1.psi_cross.0.bn.running_var 4
layer1.psi_cross.1.bn.running_mean 4
layer1.psi_cross.1.bn.running_var 4
layer1.psi_cross.2.bn.running_mean 4
layer1.psi_cross.2.bn.running_var 4
layer1.psi_cross.3.bn.running_mean 4
layer1.psi_cross.3.bn.running_var 4
layer1.w_inner 1
layer1.w_cross 1
classifier.0.w 8x4
classifier.0.bn.gamma 4
classifier.0.bn.beta 4
classifier.1.w 4x4
classifier.1.bn.gamma 4
classifier.1.bn.beta 4
classifier.2.w 4x4
classifier.2.bn.gamma 4
classifier.2.bn.beta 4
classifier.3.w 4x3
classifier.3.b 3
classifier.0.bn.running_mean 4
classifier.0.bn.running_var 4
classifier.1.bn.running_mean 4
classifier.1.bn.running_var 4
classifier.2.bn.running_mean 4
classifier.2.bn.running_var 4
"""


class TestManifest:
    def test_named_state_is_pinned(self):
        params = GnnParams(GnnConfig(layers=2, hidden_dim=4, attr_dim=3, n_classes=3))
        manifest = [
            f"{name} {'x'.join(str(n) for n in arr.shape)}"
            for name, arr in params.named_state()
        ]
        assert manifest == PINNED_MANIFEST.split("\n")[1:-1]

    def test_parameters_are_state_without_running_statistics(self):
        params = GnnParams(GnnConfig(layers=2, hidden_dim=4, attr_dim=3, n_classes=3))
        state = [name for name, _ in params.named_state()]
        trained = [name for name, _ in params.named_parameters()]
        assert trained == [name for name in state if ".running_" not in name]
        assert [name for name, _ in params.named_grads()] == trained
        for p, g in zip(params.parameters(), params.grads()):
            assert g.shape == p.shape and g is not p


class TestFlatSizes:
    def test_closed_form_matches_the_built_model(self):
        grid = itertools.product((1, 2, 3), (1, 4, 8), range(4), range(2, 6))
        for layers, hidden, attr, classes in grid:
            cfg = GnnConfig(layers=layers, hidden_dim=hidden, attr_dim=attr, n_classes=classes)
            params = GnnParams(cfg)
            state = params.named_state()
            means = sum(a.size for n, a in state if n.endswith(".running_mean"))
            variances = sum(a.size for n, a in state if n.endswith(".running_var"))
            assert cfg.flat_sizes() == (params.theta.size, means), cfg
            assert variances == means == params.running_mean.size == params.running_var.size

    def test_file_holds_the_three_flat_vectors(self, tmp_path):
        ckpt, _ = small_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[:8], "big")
        header = json.loads(raw[8 : 8 + header_len])
        assert header == {"version": "polyrep-checkpoint-4", "config": ckpt.config}
        n_theta, n_stats = GnnConfig(**ckpt.config).flat_sizes()
        assert len(raw) == 8 + header_len + 8 * (n_theta + 2 * n_stats) + 32
        params = ckpt.params
        vectors = (params.theta, params.running_mean, params.running_var)
        assert raw[8 + header_len : -32] == b"".join(v.astype("<f8").tobytes() for v in vectors)


def _resigned(path, edit):
    """Rewrite the header of the checkpoint at ``path`` through ``edit`` and
    give the file a valid digest again."""
    raw = path.read_bytes()[:-32]
    header_len = int.from_bytes(raw[:8], "big")
    header = edit(json.loads(raw[8 : 8 + header_len]))
    header_bytes = json.dumps(header).encode("utf-8")
    payload = len(header_bytes).to_bytes(8, "big") + header_bytes + raw[8 + header_len :]
    path.write_bytes(payload + hashlib.sha256(payload).digest())


MALFORMED_HEADERS = {
    "header is a list": lambda header: [header],
    "missing config": lambda header: {"version": header["version"]},
}


class TestMalformedHeader:
    """Files with a valid digest and a header that is not a checkpoint's."""

    @pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
    def test_raises_checkpoint_error(self, tmp_path, edit):
        ckpt, _ = small_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        _resigned(path, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_cli_exits_with_data_error(self, tmp_path, capsys):
        from polyrep.cli import main
        from polyrep.datasets import save_records, synthetic_dataset

        ckpt, _ = small_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        _resigned(path, MALFORMED_HEADERS["missing config"])
        corpus = tmp_path / "data.jsonl"
        save_records(synthetic_dataset(6, seed=0), corpus)
        code = main(["eval", "--checkpoint", str(path), "--data", str(corpus)])
        assert code == 2
        assert "data error" in capsys.readouterr().err


FORGED_CONFIGS = {
    "huge hidden_dim": {"hidden_dim": 10**6},
    "huge layers": {"layers": 10**6},
    "other attr_dim": {"attr_dim": 2},
    "other n_classes": {"n_classes": 5},
}


def _forged_config(tmp_path, monkeypatch, changes):
    """A checkpoint whose re-signed header config says ``changes``, with
    ``GnnParams`` in the loader made to fail the test if it is called: a
    forged width must be refused before any model is built from it."""
    ckpt, _ = small_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    _resigned(path, lambda header: header | {"config": header["config"] | changes})

    def refuse(cfg):
        pytest.fail(f"GnnParams built from a forged header: {cfg}")

    monkeypatch.setattr("polyrep.checkpoint.GnnParams", refuse)
    return path


class TestForgedConfig:
    """Files with a valid digest whose config their tensors contradict."""

    @pytest.mark.parametrize("changes", FORGED_CONFIGS.values(), ids=FORGED_CONFIGS.keys())
    def test_refused_before_building_a_model(self, tmp_path, monkeypatch, changes):
        path = _forged_config(tmp_path, monkeypatch, changes)
        with pytest.raises(CheckpointError, match="dimension mismatch"):
            load_checkpoint(path)

    def test_cli_exits_with_data_error(self, tmp_path, monkeypatch, capsys):
        path = _forged_config(tmp_path, monkeypatch, FORGED_CONFIGS["huge hidden_dim"])
        assert _cli("eval", path, tmp_path) == 2
        assert "dimension mismatch" in capsys.readouterr().err


def _offsets():
    """Byte offsets in the blob of ``small_checkpoint``'s three vectors."""
    n_theta, n_stats = GnnConfig(**small_checkpoint()[0].config).flat_sizes()
    return {"theta": 0, "bn.running_mean": 8 * n_theta,
            "bn.running_var": 8 * (n_theta + n_stats)}


def _cut_theta(path, by):
    """Drop the last ``by`` values of ``theta`` from the blob of the
    checkpoint at ``path`` and give the file a valid digest again."""
    raw = path.read_bytes()[:-32]
    theta_end = 8 + int.from_bytes(raw[:8], "big") + _offsets()["bn.running_mean"]
    payload = raw[: theta_end - 8 * by] + raw[theta_end:]
    path.write_bytes(payload + hashlib.sha256(payload).digest())


# Config values no model can have, each with the cut that makes ``theta``
# as long as the forged config implies: the classifier's last block of
# ``small_checkpoint`` has 8 + 1 values per class, so 3 -> -1 classes is 36.
IMPOSSIBLE_CONFIGS = {
    "negative seed": ({"seed": -1}, 0),
    "negative n_classes": ({"n_classes": -1}, 4 * (8 + 1)),
}


class TestImpossibleConfig:
    """Files with a valid digest whose config has a value no model can have,
    with tensors of the lengths that config implies."""

    @pytest.mark.parametrize(
        "changes, cut", IMPOSSIBLE_CONFIGS.values(), ids=IMPOSSIBLE_CONFIGS.keys()
    )
    def test_refused_as_data_error(self, tmp_path, monkeypatch, capsys, changes, cut):
        path = _forged_config(tmp_path, monkeypatch, changes)
        _cut_theta(path, cut)
        with pytest.raises(CheckpointError, match="^malformed header: ValueError: need "):
            load_checkpoint(path)
        assert _cli("eval", path, tmp_path) == 2
        assert "malformed header" in capsys.readouterr().err


def _without(key):
    def edit(config):
        config = dict(config)
        del config[key]
        return config

    return edit


def _renamed(key, new):
    def edit(config):
        config = dict(config)
        config[new] = config.pop(key)
        return config

    return edit


BAD_CONFIG_FIELDS = {
    "renamed attr_dim": (_renamed("attr_dim", "attr_dlm"), "attr_dim"),
    "missing seed": (_without("seed"), "seed"),
    "boolean attr_dim": (lambda config: config | {"attr_dim": False}, "attr_dim"),
    "fractional layers": (lambda config: config | {"layers": 2.0}, "layers"),
}


class TestHeaderConfigFields:
    """Files with a valid digest whose header config lacks a model field, or
    holds one as something other than a JSON integer."""

    @pytest.mark.parametrize(
        "edit, field", BAD_CONFIG_FIELDS.values(), ids=BAD_CONFIG_FIELDS.keys()
    )
    def test_refused_naming_the_field(self, tmp_path, edit, field):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_checkpoint()[0], path)
        _resigned(path, lambda header: header | {"config": edit(header["config"])})
        with pytest.raises(
            CheckpointError, match=f"^header config {field} is missing or not an integer$"
        ):
            load_checkpoint(path)

    def test_cli_exits_with_data_error(self, tmp_path, capsys):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_checkpoint()[0], path)
        _resigned(path, lambda header: header | {"config": _without("seed")(header["config"])})
        assert _cli("eval", path, tmp_path) == 2
        assert "header config seed is missing" in capsys.readouterr().err


def _flat_index(name):
    """The checkpoint vector and index that hold the first value of ``name``,
    an array of ``small_checkpoint``'s model."""
    params = small_checkpoint()[0].params
    if ".running_" in name:
        stat = name.rsplit(".", 1)[1]
        tensor, arrays = f"bn.{stat}", [(n, a) for n, a in params.named_state() if n.endswith(stat)]
    else:
        tensor, arrays = "theta", params.named_parameters()
    names = [n for n, _ in arrays]
    return tensor, sum(a.size for _, a in arrays[: names.index(name)])


def _resigned_value(path, name, value):
    """Write ``value`` at the first value of ``name`` (see ``_flat_index``) in
    the checkpoint at ``path`` and give the file a valid digest again."""
    tensor, index = _flat_index(name)
    raw = bytearray(path.read_bytes()[:-32])
    at = 8 + int.from_bytes(raw[:8], "big") + _offsets()[tensor] + 8 * index
    raw[at : at + 8] = np.array(value, dtype="<f8").tobytes()
    path.write_bytes(bytes(raw) + hashlib.sha256(raw).digest())


def _cli(command, ckpt_path, tmp_path):
    from polyrep.cli import main

    corpus = tmp_path / "data.jsonl"
    save_records(synthetic_dataset(6, seed=0), corpus)
    return main([command, "--checkpoint", str(ckpt_path), "--data", str(corpus)])


BAD_STATE = {
    "nan weight": ("layer0.guide.0.w", float("nan")),
    "inf bias": ("classifier.3.b", float("inf")),
    "-inf running mean": ("layer1.psi_cross.2.bn.running_mean", float("-inf")),
    "negative running var": ("layer0.guide.0.bn.running_var", -1.0),
}


class TestNonFiniteState:
    """Files with a valid digest whose tensors no training run can write."""

    @pytest.mark.parametrize("name,value", BAD_STATE.values(), ids=BAD_STATE.keys())
    def test_raises_checkpoint_error_naming_the_tensor(self, tmp_path, name, value):
        ckpt, _ = small_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        _resigned_value(path, name, value)
        with pytest.raises(CheckpointError, match=f"tensor {name} "):
            load_checkpoint(path)

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    @pytest.mark.parametrize(
        "name,value", [BAD_STATE["nan weight"], BAD_STATE["negative running var"]]
    )
    def test_cli_exits_with_data_error(self, tmp_path, capsys, command, name, value):
        ckpt, _ = small_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        _resigned_value(path, name, value)
        assert _cli(command, path, tmp_path) == 2
        assert name in capsys.readouterr().err

    def test_zero_variances_load(self, tmp_path):
        ckpt, _ = small_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        _resigned_value(path, "layer0.guide.0.bn.running_var", 0.0)
        load_checkpoint(path)


def _overflowing(ckpt, command):
    """Scale finite weights so the outputs ``command`` scores overflow:
    the classifier's for logits, the path-type weights for graph vectors."""
    if command == "eval":
        for block in ckpt.params.classifier.blocks:
            block.w *= 1e200
    else:
        for layer in ckpt.params.layers:
            layer.w_inner[...] = layer.w_cross[...] = 1e300
    return ckpt


class TestNonFiniteOutput:
    """A finite checkpoint whose outputs overflow is never scored."""

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    def test_api_raises_divergence_error(self, command):
        params = _overflowing(small_checkpoint()[0], command).params
        records = synthetic_dataset(6, seed=0)
        evaluate, what = (
            (evaluate_classification, "logit") if command == "eval"
            else (evaluate_retrieval, "graph vector")
        )
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match=f"non-finite {what} for graph 0"):
                evaluate(params, records)

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    def test_cli_exits_with_numerical_failure(self, tmp_path, capsys, command):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_overflowing(small_checkpoint()[0], command), path)
        with np.errstate(all="ignore"):
            assert _cli(command, path, tmp_path) == 3
        assert "non-finite" in capsys.readouterr().err


@functools.cache
def _checkpoint_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(small_checkpoint()[0], path)
        return path.read_bytes()


def _signed(payload):
    return payload + hashlib.sha256(payload).digest()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.ckpt"


def _load_bytes(path, raw):
    path.write_bytes(raw)
    return load_checkpoint(path)


class TestFuzzedFile:
    """Damaged checkpoint files: each is refused with ``CheckpointError``, and
    no other exception escapes the loader."""

    @given(data=st.data())
    def test_truncated(self, fuzz_path, data):
        raw = _checkpoint_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(CheckpointError):
            _load_bytes(fuzz_path, raw[:cut])

    @given(data=st.data())
    def test_flipped_byte(self, fuzz_path, data):
        raw = bytearray(_checkpoint_bytes())
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] ^= data.draw(st.integers(1, 255))
        with pytest.raises(CheckpointError):
            _load_bytes(fuzz_path, bytes(raw))

    @given(data=st.data())
    def test_oversized_header_length(self, fuzz_path, data):
        payload = _checkpoint_bytes()[:-32]
        header_len = int.from_bytes(payload[:8], "big")
        claimed = data.draw(st.integers(header_len + 1, 2**64 - 1))
        resigned = _signed(claimed.to_bytes(8, "big") + payload[8:])
        with pytest.raises(CheckpointError):
            _load_bytes(fuzz_path, resigned)

    @given(data=st.data())
    def test_flipped_byte_under_a_valid_digest(self, fuzz_path, data):
        # Past the digest, a flip may leave a loadable file (a changed seed
        # or weight), but nothing other than CheckpointError may escape.
        payload = bytearray(_checkpoint_bytes()[:-32])
        header_end = 8 + int.from_bytes(payload[:8], "big")
        at = data.draw(st.integers(0, header_end - 1) | st.integers(0, len(payload) - 1))
        payload[at] ^= data.draw(st.integers(1, 255))
        try:
            _load_bytes(fuzz_path, _signed(bytes(payload)))
        except CheckpointError:
            pass
