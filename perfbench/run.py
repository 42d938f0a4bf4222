"""Benchmark of the polyrep pipeline.

    python3 perfbench/run.py --workload train-synth --seed 1 --seconds 30 --trace 0

Run from the root of a source tree: the package is imported from ``src/``
next to this directory, never from an installed copy.  One process runs
whole rounds, each a set-up of the workload's inputs from the seed, a
headline phase and a featurize phase, until the rounds have lasted
``--seconds``, and checks every round's outputs.  Each timing is the median
over rounds.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` every other round runs under
the tracer and the metrics are per-layer self times per traced round, plus
the tracing overhead measured against the untraced rounds.  The line
before it records the machine.  A fuller record, with every sample, goes to
``perfbench/out/``, and with ``--trace 1`` so do the spans.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread: the machine has few cores, and threads that compete with
# other processes for them make timings wander.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "solids_per_s": "1/s",
    "featurize_solids_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span whose self time it reports (per traced round)
LAYER_SPANS = {
    "geometry.validate_s": "geometry.validate",
    "surface_graph.build_s": "surface_graph.build",
    "rigid_features.enumerate_paths_s": "rigid_features.enumerate_paths",
    "model.precompute_features_s": "model.precompute_features",
    "model.forward_train_s": "model.forward_train",
    "model.backward_s": "model.backward",
    "model.collate_s": "model.collate",
    "nn.adam_s": "nn.adam",
    "model.forward_eval_s": "model.forward_eval",
    "rigid_features.compute_rigid_set_s": "rigid_features.compute_rigid_set",
    "rigid_features.write_s": "rigid_features.write",
    "rigid_features.read_s": "rigid_features.read",
    "rigid_features.reconstruct_s": "rigid_features.reconstruct",
    "rigid_features.compare_s": "rigid_features.compare",
    "datasets.load_records_s": "datasets.load_records",
    "checkpoint.load_s": "checkpoint.load",
    "metrics.classification_s": "metrics.classification",
    "metrics.retrieval_s": "metrics.retrieval",
}


def parse_args(argv):
    def positive(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("must be positive")
        return value

    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-synth", "infer-attr", "roundtrip-large"))
    p.add_argument("--seed", type=seed, required=True)
    p.add_argument("--seconds", type=positive, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import polyrep from this tree's ``src/``; fail when it is absent."""
    src = ROOT / "src"
    if not (src / "polyrep" / "__init__.py").is_file():
        raise SystemExit(f"error: no polyrep package under {src}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import polyrep

    if Path(polyrep.__file__).resolve().parent != (src / "polyrep").resolve():
        raise SystemExit(f"error: polyrep imported from {polyrep.__file__}, not {src}")


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    nproc = len(os.sched_getaffinity(0))
    if threads is not None and threads > nproc:
        raise SystemExit(f"error: BLAS would use {threads} threads on {nproc} cores")
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


@contextmanager
def phase(tracer, root):
    """Run the body under ``tracer`` as a root span, or untraced."""
    if tracer is None:
        yield
        return
    from tracing import installed

    with installed(tracer), tracer.span(root):
        yield


def measure(workload, seconds, tracer):
    """Run whole rounds until their phases have lasted ``seconds``.

    Every round sets the workload up again before its headline and
    featurize phases, so the set-up samples are spread over the run like
    the others and their median does not hang on one moment of a machine
    whose speed wanders.  Odd rounds are the traced ones, so a traced run
    needs three rounds at least.
    """
    min_rounds = 3 if tracer is not None else 1
    rounds = []
    measured = 0.0
    while measured < seconds or len(rounds) < min_rounds:
        traced = tracer is not None and len(rounds) % 2 == 1
        times = {}
        for name, step in (
            ("setup", workload.setup),
            ("headline", workload.headline),
            ("featurize", workload.featurize),
        ):
            gc.collect()
            with phase(tracer if traced else None, name):
                start = time.perf_counter()
                result = step()
                times[name] = time.perf_counter() - start
            if name == "headline":
                ops, failed = result
        workload.check_round()
        rounds.append(
            {
                "traced": traced,
                "setup_s": times["setup"],
                "headline_s": times["headline"],
                "featurize_s": times["featurize"],
                "ops": ops,
                "failed": failed,
                "featurize_ops": len(workload.corpus),
            }
        )
        measured += sum(times.values())
    workload.check_final()
    return rounds


def headline_rate(r):
    return (r["ops"] - r["failed"]) / r["headline_s"]


def end_to_end(rounds):
    plain = [r for r in rounds if not r["traced"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "solids_per_s": statistics.median(headline_rate(r) for r in plain),
        "featurize_solids_per_s": statistics.median(
            r["featurize_ops"] / r["featurize_s"] for r in plain
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, tracer, rounds):
    """Self seconds per traced round for each layer, plus counts and the
    tracing overhead, as (value, unit) pairs."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    n = len(traced)
    timed_roots = ("headline", "featurize")
    out = {
        metric: (tracer.self_time(timed_roots, span) / n, "s")
        for metric, span in LAYER_SPANS.items()
    }
    out["checkpoint.save_s"] = (tracer.self_time(("setup",), "checkpoint.save") / n, "s")
    calls = tracer.calls[("headline", "model.precompute_features")]
    out["model.featurize_calls_per_solid"] = (calls / (n * workload.corpus_size), "ratio")
    untraced_rate = statistics.median(headline_rate(r) for r in plain)
    traced_rate = statistics.median(headline_rate(r) for r in traced)
    out["trace.overhead_pct"] = (100.0 * (untraced_rate - traced_rate) / untraced_rate, "%")
    return out, {"untraced_solids_per_s": untraced_rate, "traced_solids_per_s": traced_rate}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    info = machine()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        rounds = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": info,
        "rounds": rounds,
        "problems": workload.problems,
    }
    if tracer is None:
        values = end_to_end(rounds)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        layers, rates = per_layer(workload, tracer, rounds)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["trace_rates"] = rates
        tracer.write(OUT_DIR / f"spans-{tag}.jsonl")
    record["metrics"] = metrics
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=1)

    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"machine": info, "workload": args.workload, "seed": args.seed,
                      "rounds": len(rounds)}))
    print(
        json.dumps(
            {
                "correct": not workload.problems,
                "attempted": sum(r["ops"] + r["featurize_ops"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
