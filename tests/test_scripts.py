"""Each experiment script runs end to end on a tiny corpus and prints JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--count", "24", "--epochs", "2"]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_train_synthetic():
    doc = json.loads(run_script("train_synthetic.py", *TINY, "--hidden-dim", "8"))
    assert doc["epochs_run"] == 2
    assert {"classification", "retrieval"} <= set(doc)


def test_ablation_face_attributes():
    doc = json.loads(run_script("ablation_face_attributes.py", *TINY, "--hidden-dim", "8"))
    assert set(doc) == {"with_attributes", "masked"}


def test_sweep_hyperparams():
    out = run_script("sweep_hyperparams.py", *TINY, "--hidden-dims", "8", "--layers", "1")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["hidden_dim"], r["layers"]) for r in rows] == [(8, 1)]


# The ten infer-attr solids_per_s pairs (parent, change) of the folded
# eval-mode batchnorm change, as CHANGES.md records them.
FOLDED_BATCHNORM_PAIRS = [
    (130.2, 170.3), (124.2, 183.7), (134.2, 174.4), (131.6, 185.8), (143.7, 203.3),
    (133.6, 198.8), (129.8, 172.9), (147.6, 169.7), (127.8, 187.5), (137.6, 181.6),
]


def _bench_pairs():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pair_runs(pairs, name="solids_per_s"):
    return [
        {"pair": i, "tree": tree, "correct": True, "failed": 0, "metrics": {name: value}}
        for i, values in enumerate(pairs)
        for tree, value in zip(("parent", "change"), values)
    ]


def test_bench_pairs_summary_on_recorded_pairs():
    bench = _bench_pairs()
    metrics = bench.end_to_end_metrics()
    summary = bench.summarize(_pair_runs(FOLDED_BATCHNORM_PAIRS), metrics)
    s = summary["solids_per_s"]
    assert (s["won"], s["pairs"]) == (10, 10)
    assert s["parent_median"] == pytest.approx(132.6)
    assert s["change_median"] == pytest.approx(182.65)
    assert s["parent_iqr"] == pytest.approx(6.85)
    assert s["gap_beats_iqr"] and not s["worse_than_bound"]
    assert set(summary) == {"solids_per_s"}
    lines = bench.report_lines(summary, _pair_runs(FOLDED_BATCHNORM_PAIRS))
    assert lines == [
        "solids_per_s: 132.6 -> 182.6 (parent IQR 6.85); change won 10/10; "
        "gap beats IQR: yes; worse than bound: no"
    ]


def test_bench_pairs_summary_reads_direction_and_bound():
    bench = _bench_pairs()
    metrics = bench.end_to_end_metrics()
    # Read as a lower-is-better metric, the same figures lose every pair.
    s = bench.summarize(_pair_runs(FOLDED_BATCHNORM_PAIRS, "setup_s"), metrics)["setup_s"]
    assert (s["won"], s["gap_beats_iqr"], s["worse_than_bound"]) == (0, False, True)
    runs = _pair_runs(FOLDED_BATCHNORM_PAIRS)
    runs[3] |= {"correct": False}
    runs[4] |= {"failed": 2}
    lines = bench.report_lines(bench.summarize(runs, metrics), runs)
    assert lines[1:] == [
        "pair 1 change: correct False, failed 0",
        "pair 2 parent: correct True, failed 2",
    ]


# Parent runs 60..140 have an IQR of 40, wider than solids_per_s's bound of
# 0.25 x the median 100; one change run (99) loses to a parent run.
WIDE_PAIRS = [(60.0, 150.0), (80.0, 150.0), (100.0, 99.0), (120.0, 150.0), (140.0, 150.0)]


def test_bench_pairs_names_a_metric_unresolved_when_the_parent_spreads_past_its_bound():
    bench = _bench_pairs()
    metrics = bench.end_to_end_metrics()
    summary = bench.summarize(_pair_runs(WIDE_PAIRS), metrics)
    s = summary["solids_per_s"]
    assert s["parent_iqr"] == pytest.approx(40.0)
    assert (s["won"], s["gap_beats_iqr"], s["worse_than_bound"]) == (4, True, False)
    assert s["unresolved"]
    assert bench.report_lines(summary, []) == [
        "solids_per_s: 100 -> 150 (parent IQR 40); change won 4/5; gap beats IQR: yes; "
        "worse than bound: no; unresolved: parent IQR wider than bound"
    ]
    # Every change run beating every parent run resolves even a wide spread...
    beaten = [(a, 150.0) for a, _ in WIDE_PAIRS]
    assert not bench.summarize(_pair_runs(beaten), metrics)["solids_per_s"]["unresolved"]
    # ...in the metric's own direction: lower is better for setup_s.
    assert bench.summarize(_pair_runs(beaten, "setup_s"), metrics)["setup_s"]["unresolved"]
    # A spread narrower than the bound is resolved whoever wins.
    narrow = bench.summarize(_pair_runs(FOLDED_BATCHNORM_PAIRS, "setup_s"), metrics)
    assert not narrow["setup_s"]["unresolved"]


BENCH_KEYS = ["workload", "seed", "seconds", "trace", "machine", "heads", "src_lines", "runs",
              "summary"]
RUN_KEYS = {"pair", "tree", "correct", "attempted", "failed", "metrics", "problems"}


def test_bench_json_schema_is_what_bench_pairs_writes(tmp_path, monkeypatch):
    bench = _bench_pairs()
    metrics = bench.end_to_end_metrics()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())

    def fake_run(tree, workload, seed, seconds):
        result = {"correct": True, "attempted": 1, "failed": 0, "problems": []}
        return {"nproc": 1}, result | {"metrics": {name: 1.0 for name in metrics}}

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "run_once", fake_run)
    argv = [str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "2", "--seed", "1",
            "--seconds", "1"]
    assert bench.main(argv) == 0
    entry_keys = set(bench.summarize(_pair_runs(FOLDED_BATCHNORM_PAIRS), metrics)["solids_per_s"])
    docs = {"BENCH_w.json": json.loads((tmp_path / "BENCH_w.json").read_text())}
    committed = sorted(ROOT.glob("BENCH_*.json"))
    assert len(committed) == 3
    docs |= {path.name: json.loads(path.read_text()) for path in committed}
    for name, doc in docs.items():
        assert list(doc) == BENCH_KEYS, name
        assert name == f"BENCH_{doc['workload']}.json" and doc["trace"] == 0
        assert set(doc["heads"]) == set(doc["src_lines"]) == {"parent", "change"}, name
        assert set(doc["summary"]) == set(metrics), name
        assert all(set(entry) == entry_keys for entry in doc["summary"].values()), name
        for run in doc["runs"]:
            assert RUN_KEYS <= set(run) <= RUN_KEYS | {"error"}, name
            assert run["tree"] in ("parent", "change"), name
            assert "error" in run or set(metrics) <= set(run["metrics"]), name


def test_bench_pairs_records_and_prints_the_src_line_delta(tmp_path, monkeypatch, capsys):
    bench = _bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    trees = {}
    for name, text in (("parent", "a\nb\nc\n"), ("change", "a\n")):
        package = tmp_path / name / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(text)
        (package / "__init__.py").write_text("\n")
        (tmp_path / name / "notes.py").write_text("not counted\n")
        trees[name] = tmp_path / name

    def fake_run(tree, workload, seed, seconds):
        rate = {trees["parent"]: 100.0, trees["change"]: 120.0}[tree]
        return {"cores": 1}, {"correct": True, "failed": 0, "metrics": {"solids_per_s": rate}}

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "run_once", fake_run)
    argv = [str(trees["parent"]), str(trees["change"]), "--workload", "w", "--pairs", "2",
            "--seed", "1", "--seconds", "1"]
    assert bench.main(argv) == 0
    doc = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert doc["src_lines"] == {"parent": 4, "change": 2}
    assert capsys.readouterr().out.splitlines() == [
        "solids_per_s: 100 -> 120 (parent IQR 0); change won 2/2; "
        "gap beats IQR: yes; worse than bound: no",
        "src/ lines: 4 -> 2 (-2)",
    ]


STUB_RUN = """\
import json, sys
print("check failed: parameter 3 entry 7: analytic 1.0, finite difference 2.0", file=sys.stderr)
print(json.dumps({"machine": {"cores": 1}}))
print(json.dumps({"correct": False, "attempted": 4, "failed": 0,
                  "metrics": {"solids_per_s": {"value": 10.0, "unit": "1/s"}}}))
"""


def test_bench_pairs_keeps_why_a_run_was_incorrect(tmp_path, monkeypatch, capsys):
    bench = _bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB_RUN)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    argv = [str(tree), str(tree), "--workload", "w", "--pairs", "1", "--seed", "1",
            "--seconds", "1"]
    assert bench.main(argv) == 0
    reason = "parameter 3 entry 7: analytic 1.0, finite difference 2.0"
    runs = json.loads((tmp_path / "BENCH_w.json").read_text())["runs"]
    assert [(r["tree"], r["correct"], r["problems"]) for r in runs] == [
        ("parent", False, [reason]), ("change", False, [reason])
    ]
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "pair 0 parent: correct False, failed 0",
        f"  check failed: {reason}",
        "pair 0 change: correct False, failed 0",
        f"  check failed: {reason}",
    ]


STUB_WORKLOADS = '''
import numpy as np
from polyrep import model
from polyrep.datasets import synthetic_dataset


class Stub:
    """Four jittered solids per seed; its headline rebuilds nothing."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.feature_cfg = model.GnnConfig()

    def setup(self):
        self.corpus = [r.polyhedron for r in synthetic_dataset(4, seed=self.seed)]

    def headline(self):
        self.outputs = [None] * len(self.corpus)


WORKLOADS = {"roundtrip-large": Stub}
'''


def test_digests_prints_one_digest_per_workload_seed_and_artifact(tmp_path):
    # A tree of the package and a stub benchmark: the script reads only
    # the tree's ``perfbench/workloads.py``.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(STUB_WORKLOADS)
    (tmp_path / "src").symlink_to(ROOT / "src")
    out = run_script("digests.py", str(tmp_path), "--seeds", "1", "2")
    rows = [line.split() for line in out.splitlines()]
    artifacts = ["reports", "features", "rigid", "init", "epoch-logs", "headline"]
    assert [row[:3] for row in rows] == [
        ["roundtrip-large", f"seed={seed}", artifact] for seed in (1, 2) for artifact in artifacts
    ]
    assert all(len(row) == 4 and len(row[3]) == 64 for row in rows)
    by_seed = {seed: dict(row[2:] for row in rows if row[1] == f"seed={seed}") for seed in (1, 2)}
    assert by_seed[1]["features"] != by_seed[2]["features"]
    assert by_seed[1]["rigid"] != by_seed[2]["rigid"]
    assert run_script("digests.py", str(tmp_path), "--seeds", "1", "2") == out
