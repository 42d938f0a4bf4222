import json

import numpy as np
import pytest

from polyrep.cli import main
from polyrep.datasets import (
    PolyhedronRecord,
    encode_record,
    make_box,
    save_records,
    synthetic_dataset,
)


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

        code, out, _ = run(capsys, "eval", "--checkpoint", ckpt, "--data", corpus, "--json")
        assert code == 0
        assert 0.0 <= json.loads(out)["metrics"]["accuracy"] <= 1.0

        code, out, _ = run(
            capsys, "retrieve", "--checkpoint", ckpt, "--data", corpus, "--json"
        )
        assert code == 0
        assert 0.0 <= json.loads(out)["metrics"]["map"] <= 1.0

    def test_missing_config_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--config", tmp_path / "nope.json", "--out", tmp_path / "x"
        )
        assert code == 2


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


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "features", "x.json", "--bogus")
        assert code == 1

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
