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

        code, out, _ = run(capsys, "eval", "--checkpoint", ckpt, "--data", corpus, "--json")
        assert code == 0
        assert 0.0 <= json.loads(out)["metrics"]["accuracy"] <= 1.0

        code, out, _ = run(
            capsys, "retrieve", "--checkpoint", ckpt, "--data", corpus, "--json"
        )
        assert code == 0
        assert 0.0 <= json.loads(out)["metrics"]["map"] <= 1.0

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


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "features", "x.json", "--bogus")
        assert code == 1

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
