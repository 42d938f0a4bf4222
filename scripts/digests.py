#!/usr/bin/env python3
"""Print sha256 digests of what a source tree computes on the benchmark's corpora.

    python3 scripts/digests.py PARENT_TREE --seeds 1 2 3 > parent.txt
    python3 scripts/digests.py CHANGE_TREE --seeds 1 2 3 > change.txt
    diff parent.txt change.txt

The tree's ``src/`` and ``perfbench/`` go first on the import path, so one
copy of this script digests any tree; of the benchmark it reads
``perfbench/workloads.py`` and changes nothing.  For each seed and each
workload it runs set-up and one headline, then prints one line per artifact,
``<workload> seed=<seed> <artifact> <sha256>``:

* ``reports``: the validation report of every corpus solid (codes, places,
  deviations and warnings), validated as one corpus on fresh copies by
  ``training.features_for_records``;
* ``features``: the path-feature batch of every corpus solid, from that call;
* ``rigid``: the ``.rigid`` text of every corpus solid;
* ``init``: the initial ``theta`` of the workload's feature config;
* ``epoch-logs``: the log of every training run (set-up or headline);
* ``headline``: what the headline computes: the trained model's three flat
  vectors, the two evaluations' metrics, or the rebuilt solids' coordinates.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report(report):
    rows = [[(i.code, i.where, repr(i.deviation)) for i in part]
            for part in (report.issues, report.warnings)]
    return [report.ok, *rows]


def _batch(batch):
    arrays = (batch.path_i, batch.path_j, batch.path_k, batch.feats, batch.inner,
              batch.node_graph)
    head = f"{batch.n_nodes} {batch.n_graphs} {[a.dtype.str for a in arrays]}".encode()
    return head + b"".join(a.tobytes() for a in arrays)


def _headline(name, run):
    if name == "train-synth":
        params = run.result.checkpoint.params
        return b"".join(v.tobytes() for v in (params.theta, params.running_mean,
                                               params.running_var))
    if name == "infer-attr":
        found = [run.classification.as_dict(), run.retrieval.as_dict()]
        return json.dumps(found).encode()
    return b"".join(b"-" if out is None else out[3].vertices.tobytes() for out in run.outputs)


def digests(tree: Path, seeds):
    """(workload, seed, artifact, sha256) rows for ``tree``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    workloads = importlib.import_module("workloads")
    from polyrep import model, rigid_features, surface_graph, training
    from polyrep.datasets import PolyhedronRecord
    from polyrep.geometry import Polyhedron, validate_polyhedron

    logs = []
    train = training.train

    def recorded_train(*args, **kwargs):
        result = train(*args, **kwargs)
        logs.append(result.log)
        return result

    training.train = recorded_train
    rows = []
    for seed in seeds:
        for name, workload in workloads.WORKLOADS.items():
            logs.clear()
            with tempfile.TemporaryDirectory() as workdir:
                run = workload(seed, workdir)
                run.setup()
                solids = [Polyhedron(p.vertices, p.faces) for p in run.corpus]
                batches = training.features_for_records(
                    [PolyhedronRecord(p, 0) for p in solids], run.feature_cfg
                )
                reports = [_report(validate_polyhedron(p)) for p in solids]
                rigid = io.StringIO()
                for p in solids:
                    graph = surface_graph.build_surface_graph(p)
                    rigid_features.write_rigid_set(rigid_features.compute_rigid_set(graph), rigid)
                    rigid.write("\n")
                run.headline()
                found = {
                    "reports": json.dumps(reports).encode(),
                    "features": b"".join(map(_batch, batches)),
                    "rigid": rigid.getvalue().encode(),
                    "init": model.GnnParams(run.feature_cfg).theta.tobytes(),
                    "epoch-logs": json.dumps(logs).encode(),
                    "headline": _headline(name, run),
                }
            rows += [(name, seed, artifact, _sha(data)) for artifact, data in found.items()]
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    for name, seed, artifact, digest in digests(args.tree.resolve(), args.seeds):
        print(f"{name} seed={seed} {artifact} {digest}")


if __name__ == "__main__":
    main()
