"""Each experiment script runs end to end on a tiny corpus and prints JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
