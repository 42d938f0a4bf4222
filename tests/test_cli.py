import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from polyrep.checkpoint import save_checkpoint
from polyrep.cli import main
from polyrep.datasets import (
    PolyhedronRecord,
    encode_record,
    make_box,
    make_tetrahedron,
    save_records,
    synthetic_dataset,
)
from polyrep.training import TrainConfig, train

from conftest import banded_column, overflowing_solid


@pytest.fixture
def cube_json(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(encode_record(PolyhedronRecord(make_box(), 0, "cube")) + "\n")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFeaturesAndReconstruct:
    def test_cube_feature_export(self, tmp_path, cube_json, capsys):
        rigid = tmp_path / "cube.rigid"
        code, out, _ = run(
            capsys, "features", cube_json, "--out", rigid, "--json"
        )
        assert code == 0
        assert len(rigid.read_text().strip().splitlines()) == 72
        doc = json.loads(out)
        assert doc["task"] == "features" and doc["metrics"]["paths"] == 72

    def test_round_trip_through_files(self, tmp_path, cube_json, capsys):
        rigid = tmp_path / "cube.rigid"
        topo = tmp_path / "cube.topo.json"
        rebuilt = tmp_path / "rebuilt.json"
        code, _, _ = run(
            capsys, "features", cube_json, "--out", rigid, "--topology-out", topo
        )
        assert code == 0
        code, _, _ = run(
            capsys, "reconstruct", "--rigid", rigid, "--topology", topo,
            "--out", rebuilt, "--json",
        )
        assert code == 0
        doc = json.loads(rebuilt.read_text())
        assert len(doc["vertices"]) == 8 and len(doc["faces"]) == 6

    def test_report_keys(self, tmp_path, cube_json, capsys):
        code, out, _ = run(capsys, "features", cube_json, "--out", tmp_path / "r", "--json")
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc) == ["config_hash", "metrics", "runtime_s", "seed", "task"]
        assert doc["task"] == "features" and doc["runtime_s"] >= 0

    def test_straight_banded_prism_round_trips(self, tmp_path, capsys):
        solid = tmp_path / "prism.json"
        prism = banded_column(6, 2, straight=True)
        solid.write_text(encode_record(PolyhedronRecord(prism, 0, "prism")) + "\n")
        rigid = tmp_path / "prism.rigid"
        topo = tmp_path / "prism.topo.json"
        code, _, _ = run(capsys, "features", solid, "--out", rigid, "--topology-out", topo)
        assert code == 0
        code, _, err = run(
            capsys, "reconstruct", "--rigid", rigid, "--topology", topo,
            "--out", tmp_path / "rebuilt.json",
        )
        assert code == 0, err

    def test_solid_without_faces_is_data_error(self, tmp_path, capsys):
        solid = tmp_path / "empty.json"
        solid.write_text('{"vertices": [], "faces": [], "label": 0}\n')
        code, _, err = run(capsys, "features", solid, "--out", tmp_path / "empty.rigid")
        assert code == 2
        assert "no_faces" in err

    def test_node_count_beyond_loops_is_numerical_failure(self, tmp_path, cube_json, capsys):
        rigid = tmp_path / "cube.rigid"
        topo = tmp_path / "cube.topo.json"
        run(capsys, "features", cube_json, "--out", rigid, "--topology-out", topo)
        doc = json.loads(topo.read_text())
        doc["n_nodes"] = 10**15
        topo.write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys, "reconstruct", "--rigid", rigid, "--topology", topo, "--out", out
        )
        assert code == 3
        assert "cannot all lie on" in err and not out.exists()

    def test_corrupt_rigid_set_is_numerical_failure(self, tmp_path, cube_json, capsys):
        rigid = tmp_path / "cube.rigid"
        topo = tmp_path / "cube.topo.json"
        run(capsys, "features", cube_json, "--out", rigid, "--topology-out", topo)
        lines = rigid.read_text().splitlines()
        parts = lines[0].split()
        parts[5] = str(float(parts[5]) + 0.3)  # bend one in-plane angle
        lines[0] = " ".join(parts)
        rigid.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            capsys, "reconstruct", "--rigid", rigid, "--topology", topo,
            "--out", tmp_path / "x.json",
        )
        assert code == 3


    def test_non_finite_rigid_set_is_numerical_failure(self, tmp_path, cube_json, capsys):
        rigid = tmp_path / "cube.rigid"
        topo = tmp_path / "cube.topo.json"
        run(capsys, "features", cube_json, "--out", rigid, "--topology-out", topo)
        lines = rigid.read_text().splitlines()
        row = next(r for r, line in enumerate(lines) if line.split()[7] == line.split()[8])
        parts = lines[row].split()
        parts[4] = "nan"  # d2 of one inner tuple
        lines[row] = " ".join(parts)
        rigid.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys, "reconstruct", "--rigid", rigid, "--topology", topo, "--out", out
        )
        assert code == 3
        assert "non-finite d2" in err
        assert not out.exists()


    @pytest.mark.parametrize("field, token", [(3, "abc"), (0, "1.5"), (None, None)])
    def test_unparsable_rigid_set_is_numerical_failure(
        self, tmp_path, cube_json, capsys, field, token
    ):
        rigid = tmp_path / "cube.rigid"
        topo = tmp_path / "cube.topo.json"
        run(capsys, "features", cube_json, "--out", rigid, "--topology-out", topo)
        lines = rigid.read_text().splitlines()
        if field is None:
            lines[-1] = " ".join(lines[-1].split()[:5])  # truncated last line
        else:
            parts = lines[2].split()
            parts[field] = token
            lines[2] = " ".join(parts)
        rigid.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys, "reconstruct", "--rigid", rigid, "--topology", topo, "--out", out
        )
        assert code == 3
        assert f"line {len(lines) if field is None else 3}:" in err
        assert "Traceback" not in err and not out.exists()

    def test_non_finite_topology_attribute_is_data_error(self, tmp_path, capsys):
        solid = tmp_path / "cube.json"
        solid.write_text(
            encode_record(PolyhedronRecord(make_box(attr_dim=3), 0, "cube")) + "\n"
        )
        rigid = tmp_path / "cube.rigid"
        topo = tmp_path / "cube.topo.json"
        run(capsys, "features", solid, "--out", rigid, "--topology-out", topo)
        doc = json.loads(topo.read_text())
        doc["faces"][1]["attr"][0] = float("nan")
        topo.write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys, "reconstruct", "--rigid", rigid, "--topology", topo, "--out", out
        )
        assert code == 2
        assert "finite" in err and not out.exists()

    @pytest.mark.parametrize(
        "face, key, value, field",
        [
            (0, "loop", [4, 5.4, 6, 7], "faces[0].loop"),
            (0, "loop", [4, "5", 6, 7], "faces[0].loop"),
            (0, "loop", "4567", "faces[0].loop"),
            (1, "attr", [True], "faces[1].attr"),
            (1, "attr", ["0.5"], "faces[1].attr"),
            (1, "attr", 0.5, "faces[1].attr"),
            (2, None, 7, "faces[2]"),
            (None, "n_nodes", "8", "n_nodes"),
            (None, "n_nodes", 8.7, "n_nodes"),
            (None, "n_nodes", True, "n_nodes"),
        ],
        ids=[
            "fractional-index", "string-index", "string-loop", "boolean-attr",
            "string-attr", "number-attr", "number-face", "string-n_nodes",
            "fractional-n_nodes", "boolean-n_nodes",
        ],
    )
    def test_topology_takes_the_record_field_rules(
        self, tmp_path, cube_json, capsys, face, key, value, field
    ):
        rigid = tmp_path / "cube.rigid"
        topo = tmp_path / "cube.topo.json"
        run(capsys, "features", cube_json, "--out", rigid, "--topology-out", topo)
        doc = json.loads(topo.read_text())
        assert doc["faces"][0]["loop"] == [4, 5, 6, 7]
        if face is None:
            doc[key] = value
        elif key is None:
            doc["faces"][face] = value
        else:
            doc["faces"][face][key] = value
        topo.write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys, "reconstruct", "--rigid", rigid, "--topology", topo, "--out", out
        )
        assert code == 2, err
        assert f"{topo}: {field}" in err and not out.exists()

    def test_topology_that_is_not_json_is_data_error(self, tmp_path, cube_json, capsys):
        rigid = tmp_path / "cube.rigid"
        topo = tmp_path / "cube.topo.json"
        run(capsys, "features", cube_json, "--out", rigid, "--topology-out", topo)
        topo.write_text(topo.read_text()[:-5])
        code, _, err = run(
            capsys, "reconstruct", "--rigid", rigid, "--topology", topo, "--out", tmp_path / "x"
        )
        assert code == 2
        assert f"{topo}: not valid JSON" in err

    def test_non_finite_record_attribute_is_data_error(self, tmp_path, capsys):
        doc = json.loads(encode_record(PolyhedronRecord(make_box(attr_dim=3), 0, "cube")))
        doc["faces"][0]["attr"][2] = float("inf")
        solid = tmp_path / "cube.json"
        solid.write_text(json.dumps(doc) + "\n")
        code, _, err = run(capsys, "features", solid, "--out", tmp_path / "cube.rigid")
        assert code == 2
        assert "faces[0].attr" in err and "finite" in err

    def test_overflowing_solid_is_data_error(self, tmp_path, capsys):
        solid = tmp_path / "huge.json"
        solid.write_text(encode_record(PolyhedronRecord(overflowing_solid(), 0, "huge")) + "\n")
        with np.errstate(all="ignore"):
            code, _, err = run(capsys, "features", solid, "--out", tmp_path / "huge.rigid")
        assert code == 2
        assert "non_finite_scale" in err

    def test_integer_beyond_float_range_is_data_error(self, tmp_path, capsys):
        doc = json.loads(encode_record(PolyhedronRecord(make_box(), 0, "cube")))
        doc["vertices"][0][0] = 10**400
        solid = tmp_path / "cube.json"
        solid.write_text(json.dumps(doc) + "\n")
        code, _, err = run(capsys, "features", solid, "--out", tmp_path / "cube.rigid")
        assert code == 2
        assert "vertices[0]" in err


class TestChecks:
    def test_invariance_check(self, capsys):
        code, out, _ = run(capsys, "invariance-check", "--trials", 8, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["metrics"]["max_rigid_deviation"] < 1e-9

    def test_gradcheck(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--json")
        assert code == 0
        assert json.loads(out)["metrics"]["max_rel_error"] < 1e-4


class TestTrainEvalRetrieve:
    def test_full_cli_cycle(self, tmp_path, capsys):
        corpus = tmp_path / "data.jsonl"
        save_records(synthetic_dataset(60, seed=6), corpus)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "data": str(corpus),
                    "hidden_dim": 16,
                    "layers": 2,
                    "attr_dim": 0,
                    "max_epochs": 12,
                    "batch_size": 16,
                    "seed": 6,
                }
            )
        )
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "log.jsonl"
        code, out, _ = run(
            capsys, "train", "--config", config, "--out", ckpt, "--log-out", log, "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["task"] == "train" and doc["config_hash"]
        assert len(log.read_text().strip().splitlines()) <= 12
        config_hash = doc["config_hash"]

        code, out, _ = run(capsys, "eval", "--checkpoint", ckpt, "--data", corpus, "--json")
        assert code == 0
        doc = json.loads(out)
        assert 0.0 <= doc["metrics"]["accuracy"] <= 1.0
        assert doc["config_hash"] == config_hash

        code, out, _ = run(
            capsys, "retrieve", "--checkpoint", ckpt, "--data", corpus, "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert 0.0 <= doc["metrics"]["map"] <= 1.0
        assert doc["config_hash"] == config_hash

    def test_train_reports_the_first_best_epoch_of_its_log(self, tmp_path, capsys):
        corpus = tmp_path / "data.jsonl"
        save_records(synthetic_dataset(30, seed=2), corpus)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": str(corpus), "hidden_dim": 8, "layers": 1,
                                      "batch_size": 8, "max_epochs": 8, "seed": 2}))
        log = tmp_path / "log.jsonl"
        code, out, _ = run(capsys, "train", "--config", config, "--out", tmp_path / "m.ckpt",
                           "--log-out", log, "--json")
        assert code == 0
        accs = [json.loads(line)["val_acc"] for line in log.read_text().splitlines()]
        assert accs.count(max(accs)) > 1  # a later epoch ties the best one
        assert json.loads(out)["metrics"]["best_epoch"] == accs.index(max(accs))

    def test_diverged_training_is_numerical_failure(self, tmp_path, capsys):
        corpus = tmp_path / "data.jsonl"
        save_records(synthetic_dataset(24, seed=0), corpus)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"data": str(corpus), "hidden_dim": 8, "layers": 1, "lr": 1e300, "max_epochs": 4}
            )
        )
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "log.jsonl"
        with np.errstate(all="ignore"):
            code, _, err = run(
                capsys, "train", "--config", config, "--out", ckpt, "--log-out", log
            )
        assert code == 3
        assert "epoch 0, validation" in err
        assert not ckpt.exists() and not log.exists()

    @pytest.mark.parametrize(
        "field,value",
        [("include_backtracking", True), ("attr_edge_orientation", "reversed"),
         ("retrieval_similarity", "cosine")],
    )
    def test_removed_config_field_is_data_error(self, tmp_path, capsys, field, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": "unused.jsonl", "hidden_dim": 8, field: value}))
        ckpt = tmp_path / "model.ckpt"
        code, _, err = run(capsys, "train", "--config", config, "--out", ckpt)
        assert code == 2
        assert f"unknown config keys: ['{field}']" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"lr": -1}, "train config: lr must be finite and > 0, got -1"),
            ({"hidden_dim": "8"}, "train config: hidden_dim must be a JSON integer"),
            (5, "train config must be a JSON object"),
            ({"batch_size": 0}, "train config: batch_size must be >= 2, got 0"),
            ({"batch_size": 1}, "train config: batch_size must be >= 2, got 1"),
            ({"n_classes": -1}, "unknown config keys: ['n_classes']"),
            ({"lr": float("nan")}, "train config: lr must be finite and > 0, got nan"),
            ([1, 2], "train config must be a JSON object"),
            ({"seed": -1}, "train config: seed must be >= 0, got -1"),
        ],
        ids=["negative lr", "string hidden_dim", "number", "zero batch", "batch of one",
             "negative n_classes", "nan lr", "list", "negative seed"],
    )
    def test_bad_config_is_data_error(self, tmp_path, capsys, doc, message):
        corpus = tmp_path / "data.jsonl"
        save_records(synthetic_dataset(24, seed=0), corpus)
        if isinstance(doc, dict):
            doc = {"data": str(corpus), "hidden_dim": 8, "max_epochs": 2} | doc
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        ckpt = tmp_path / "model.ckpt"
        code, _, err = run(capsys, "train", "--config", config, "--out", ckpt)
        assert code == 2
        assert err.strip() == f"data error: {message}"
        assert not ckpt.exists()

    def test_n_classes_below_the_labels_is_data_error(self, tmp_path, capsys):
        # The class count is max(label) + 1, so a config may not set it.
        corpus = tmp_path / "data.jsonl"
        save_records(synthetic_dataset(24, seed=0), corpus)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": str(corpus), "hidden_dim": 8, "max_epochs": 2,
                                      "n_classes": 2}))
        ckpt = tmp_path / "model.ckpt"
        code, _, err = run(capsys, "train", "--config", config, "--out", ckpt)
        assert code == 2
        assert err.strip() == "data error: unknown config keys: ['n_classes']"
        assert not ckpt.exists()

    def test_huge_label_is_data_error_at_once(self, tmp_path, capsys):
        records = synthetic_dataset(24, seed=0)
        records[0] = PolyhedronRecord(records[0].polyhedron, 10**12, records[0].source_id)
        corpus = tmp_path / "data.jsonl"
        save_records(records, corpus)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": str(corpus), "hidden_dim": 8, "max_epochs": 2}))
        started = time.perf_counter()
        code, _, err = run(capsys, "train", "--config", config, "--out", tmp_path / "m.ckpt")
        assert time.perf_counter() - started < 5
        assert code == 2
        assert re.fullmatch(r"data error: classes \[3, 4, 5, 6, 7\] and \d+ more have no "
                            r"training samples", err.strip())

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    def test_label_beyond_int64_is_data_error(self, tmp_path, capsys, tiny_checkpoint, command):
        corpus = tmp_path / "data.jsonl"
        save_records([PolyhedronRecord(make_box(), c, str(c)) for c in (0, 1, 1, 2**63)], corpus)
        code, out, err = run(capsys, command, "--checkpoint", tiny_checkpoint, "--data", corpus)
        assert code == 2 and not out
        assert err.strip() == f"data error: {corpus}:4: label: expected at most 2**63 - 1 (int64)"

    def test_missing_config_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--config", tmp_path / "nope.json", "--out", tmp_path / "x"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, labels, message",
        [
            ("eval", [], "no records to evaluate"),
            ("retrieve", [], "no records to evaluate"),
            ("eval", [1, 1, 1], "AUC undefined on a single-class test set"),
            ("retrieve", [0, 1], "no usable retrieval queries (all classes singletons)"),
        ],
        ids=["eval empty", "retrieve empty", "eval one class", "retrieve singletons"],
    )
    def test_set_without_metrics_is_data_error(
        self, tmp_path, capsys, tiny_checkpoint, command, labels, message
    ):
        corpus = tmp_path / "data.jsonl"
        save_records([PolyhedronRecord(make_box(), c, f"box-{c}") for c in labels], corpus)
        code, out, err = run(capsys, command, "--checkpoint", tiny_checkpoint, "--data", corpus)
        assert code == 2
        assert err.strip() == f"data error: {message}" and not out

    @pytest.mark.parametrize("command", ["train", "eval", "retrieve"])
    def test_width_zero_on_attributed_data_is_data_error(
        self, tmp_path, capsys, tiny_checkpoint, command
    ):
        # Width 0 is a width, not "any width": a config or checkpoint
        # without attributes refuses a corpus whose faces carry three.
        rng = np.random.default_rng(0)
        corpus = tmp_path / "rgb.jsonl"
        save_records(
            [PolyhedronRecord(make(rng, attr_dim=3), c, str(i))
             for i in range(6) for c, make in enumerate((make_box, make_tetrahedron))],
            corpus,
        )
        out_path = tmp_path / "model.ckpt"
        if command == "train":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"data": str(corpus), "hidden_dim": 4, "layers": 1,
                                          "attr_dim": 0, "max_epochs": 1, "batch_size": 4}))
            argv = ["train", "--config", config, "--out", out_path]
        else:
            argv = [command, "--checkpoint", tiny_checkpoint, "--data", corpus]
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and not out_path.exists()
        assert err.strip() == f"data error: {corpus}:1: faces[0].attr: width 3 != expected 0"


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A two-class model after one epoch, for the evaluation commands."""
    records = [
        PolyhedronRecord(make(), c, str(i))
        for i in range(6)
        for c, make in enumerate((make_box, make_tetrahedron))
    ]
    result = train(TrainConfig(hidden_dim=4, layers=1, max_epochs=1, batch_size=4), records)
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(result.checkpoint, path)
    return path


class TestDatasetAndMerge:
    def test_build_synthetic(self, tmp_path, capsys):
        out = tmp_path / "synth.jsonl"
        code, _, _ = run(
            capsys, "build-dataset", "--kind", "synthetic", "--count", 9,
            "--out", out, "--json",
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 9

    def test_build_extrusion(self, tmp_path, capsys):
        polys = tmp_path / "polys.json"
        polys.write_text(
            json.dumps(
                [{"points": [[0, 0], [1, 0], [1, 1], [0, 1]], "label": 1}]
            )
        )
        out = tmp_path / "ex.jsonl"
        code, _, _ = run(
            capsys, "build-dataset", "--kind", "extrusion", "--polygons", polys,
            "--attr-dim", 3, "--no-rotate", "--out", out, "--json",
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 1

    def test_non_finite_polygon_points_are_skipped_cleanly(self, tmp_path):
        # In a separate process, so numpy's RuntimeWarnings would reach stderr.
        rows = [[[bad, 0], [1, 0], [0, 1]] for bad in (math.nan, math.inf, 0)]
        polys = tmp_path / "polys.json"
        polys.write_text(json.dumps([{"points": points, "label": 0} for points in rows]))
        out = tmp_path / "ex.jsonl"
        env = os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-m", "polyrep.cli", "build-dataset", "--kind", "extrusion",
             "--polygons", str(polys), "--no-rotate", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert len(out.read_text().strip().splitlines()) == 1
        assert "RuntimeWarning" not in proc.stderr
        for row in (0, 1):
            assert f"skipping polygon {row}: polygon has a non-finite coordinate" in proc.stderr

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[{", "polys.json: not valid JSON: Expecting property name"),
            ('{"points": []}', "polys.json: top level: expected a list"),
            ('[{"label": 0}]', "polys.json: [0].points: missing"),
            ('[{"points": [[0, 0], [1, 0], [0, 1]], "label": -1}]',
             "polys.json: [0].label: expected a nonnegative integer"),
            ('[{"points": [[0, 0], [1, 0], [0, 1]], "label": 9223372036854775808}]',
             "polys.json: [0].label: expected at most 2**63 - 1 (int64)"),
            ('[{"points": [[0, 0], [1, 0], [0, 1]], "label": 0}, {"points": [[0, 0], [1]]}]',
             "polys.json: [1].points[1]: expected [x, y] numbers"),
        ],
        ids=["not json", "not a list", "no points", "bad label", "label beyond int64",
             "bad points"],
    )
    def test_bad_polygons_file_is_data_error(self, tmp_path, capsys, text, message):
        polys = tmp_path / "polys.json"
        polys.write_text(text)
        out = tmp_path / "ex.jsonl"
        code, _, err = run(
            capsys, "build-dataset", "--kind", "extrusion", "--polygons", polys, "--out", out
        )
        assert code == 2
        assert err.startswith("data error: ") and message in err and not out.exists()

    def test_merge_obj(self, tmp_path, capsys):
        from test_datasets import CUBE_MTL, CUBE_OBJ

        obj = tmp_path / "cube.obj"
        obj.write_text(CUBE_OBJ)
        mtl = tmp_path / "cube.mtl"
        mtl.write_text(CUBE_MTL)
        out = tmp_path / "merged.json"
        code, stdout, _ = run(
            capsys, "merge-obj", obj, "--mtl", mtl, "--out", out, "--json"
        )
        assert code == 0
        assert json.loads(stdout)["metrics"]["faces"] == 6

    def test_merge_obj_non_finite_vertex_is_data_error(self, tmp_path, capsys):
        from test_datasets import CUBE_MTL, CUBE_OBJ

        obj = tmp_path / "cube.obj"
        obj.write_text(CUBE_OBJ.replace("v 1 1 0\n", "v 1 nan 0\n"))
        mtl = tmp_path / "cube.mtl"
        mtl.write_text(CUBE_MTL)
        out = tmp_path / "merged.json"
        code, _, err = run(capsys, "merge-obj", obj, "--mtl", mtl, "--out", out)
        assert code == 2
        assert "cube.obj:4: vertex coordinates must be finite" in err and not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("v 1 1 0\n", "v a 1 0\n", "cube.obj:4: vertex coordinates must be numbers"),
            ("f 1 3 2\n", "f 1 2 x\n", "cube.obj:12: face index 'x' is not an integer"),
        ],
    )
    def test_merge_obj_non_numeric_token_is_data_error(self, tmp_path, capsys, old, new, message):
        from test_datasets import CUBE_MTL, CUBE_OBJ

        obj = tmp_path / "cube.obj"
        obj.write_text(CUBE_OBJ.replace(old, new))
        mtl = tmp_path / "cube.mtl"
        mtl.write_text(CUBE_MTL)
        out = tmp_path / "merged.json"
        code, _, err = run(capsys, "merge-obj", obj, "--mtl", mtl, "--out", out)
        assert code == 2
        assert message in err and not out.exists()

    @pytest.mark.parametrize(
        "kd, message",
        [
            ("Kd a 0 0\n", "cube.mtl:2: Kd values must be numbers"),
            ("Kd nan 0 0\n", "cube.mtl:2: Kd values must be finite"),
        ],
    )
    def test_merge_obj_bad_kd_is_data_error(self, tmp_path, capsys, kd, message):
        from test_datasets import CUBE_MTL, CUBE_OBJ

        obj = tmp_path / "cube.obj"
        obj.write_text(CUBE_OBJ)
        mtl = tmp_path / "cube.mtl"
        mtl.write_text(CUBE_MTL.replace("Kd 0.8 0.1 0.2\n", kd))
        out = tmp_path / "merged.json"
        code, _, err = run(capsys, "merge-obj", obj, "--mtl", mtl, "--out", out)
        assert code == 2
        assert message in err and not out.exists()


BAD_OPTIONS = {
    "nan tolerance": (
        ["gradcheck", "--tolerance", "nan"], "argument --tolerance: must be finite and > 0, got nan"
    ),
    "negative trials": (
        ["invariance-check", "--trials", "-1"], "argument --trials: must be >= 1, got -1"
    ),
    "nan normal-tol": (
        ["merge-obj", "cube.obj", "--normal-tol", "nan"],
        "argument --normal-tol: must be finite and >= 0, got nan",
    ),
    "zero max-faces": (
        ["merge-obj", "cube.obj", "--max-faces", "0"], "argument --max-faces: must be >= 1, got 0"
    ),
    "negative count": (["build-dataset", "--count", "-2"], "argument --count: must be >= 1, got -2"),
    "negative attr-dim": (
        ["build-dataset", "--attr-dim", "-1"], "argument --attr-dim: must be >= 0, got -1"
    ),
    "negative seed": (["gradcheck", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    "nan height": (
        ["build-dataset", "--kind", "extrusion", "--polygons", "polys.json", "--height", "nan"],
        "argument --height: must be finite and > 0, got nan",
    ),
    "negative label": (
        ["merge-obj", "cube.obj", "--label", "-1"], "argument --label: must be >= 0, got -1"
    ),
    "extrusion without polygons": (
        ["build-dataset", "--kind", "extrusion"], "--polygons is required with --kind extrusion"
    ),
    "extrusion attr-dim 2": (
        ["build-dataset", "--kind", "extrusion", "--polygons", "polys.json", "--attr-dim", "2"],
        "--attr-dim must be 0 or 3 with --kind extrusion",
    ),
}


class TestUsage:
    @pytest.mark.parametrize("argv, message", BAD_OPTIONS.values(), ids=BAD_OPTIONS.keys())
    def test_out_of_range_option_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        flags = ["--out", out] if argv[0] in ("merge-obj", "build-dataset") else []
        code, stdout, err = run(capsys, *argv, *flags)
        assert code == 1
        assert err.strip() == f"usage error: {message}"
        assert not stdout and not out.exists()

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "features", "x.json", "--bogus")
        assert code == 1

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
