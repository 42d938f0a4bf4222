"""Command-line interface.

Subcommands: build-dataset, merge-obj, features, reconstruct, train, eval,
retrieve, gradcheck, invariance-check.  Exit codes: 0 success, 1 usage,
2 data error, 3 numerical failure (diverged training included).  ``--json``
switches the report on stdout to machine-readable JSON.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import (
    PolyhedronRecord,
    Rejected,
    build_extrusion_dataset,
    decode_record,
    dump_topology,
    encode_record,
    import_obj,
    load_polygons,
    load_records,
    load_topology,
    merge_coplanar_faces,
    parse_mtl,
    save_records,
    synthetic_dataset,
    synthetic_solid,
)
from .errors import (
    CheckpointError,
    DataError,
    DivergenceError,
    GeometryError,
    GraphError,
    InvalidPolyhedronError,
    ReconstructionError,
)
from .geometry import ColorScheme, RigidTransform, apply_rigid_transform, sample_random_rotation
from .model import (
    GnnConfig,
    GnnParams,
    embed_graph,
    gnn_forward,
    gnn_loss_and_grads,
    precompute_graph_features,
)
from .nn import cross_entropy, grad_check
from .rigid_features import (
    compute_rigid_set,
    read_rigid_set,
    reconstruct_polyhedron,
    rigid_sets_equal,
    write_rigid_set,
)
from .surface_graph import build_surface_graph
from .training import TrainConfig, evaluate_classification, evaluate_retrieval, train

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class NumericalFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _bounded(kind, ok, rule):
    """An argparse type: the option's text as ``kind``, refused through
    ``_Parser.error`` unless ``ok`` holds for it."""

    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_POSITIVE_FINITE = _bounded(float, lambda x: math.isfinite(x) and x > 0, "finite and > 0")
_NON_NEGATIVE_FINITE = _bounded(float, lambda x: math.isfinite(x) and x >= 0, "finite and >= 0")
_AT_LEAST_ONE = _bounded(int, lambda n: n >= 1, ">= 1")
_NON_NEGATIVE = _bounded(int, lambda n: n >= 0, ">= 0")


def _report(args, payload, runtime_s):
    doc = {
        "task": args.command,
        "metrics": payload,
        "config_hash": getattr(args, "_config_hash", ""),
        "seed": getattr(args, "seed", 0),
        "runtime_s": round(runtime_s, 3),
    }
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"[{args.command}]")
        for key, value in payload.items():
            print(f"  {key}: {value}")
    return EXIT_OK


# -- subcommand handlers: each returns its report's metrics --------------------


def _cmd_build_dataset(args):
    if args.kind == "extrusion" and args.attr_dim not in (0, 3):
        raise UsageError("--attr-dim must be 0 or 3 with --kind extrusion")
    if args.kind == "extrusion" and args.polygons is None:
        raise UsageError("--polygons is required with --kind extrusion")
    if args.kind == "synthetic":
        records = synthetic_dataset(
            args.count, seed=args.seed, attr_dim=args.attr_dim, rotate=args.rotate
        )
    else:
        polygons = load_polygons(args.polygons)
        scheme = ColorScheme.rgb_default() if args.attr_dim == 3 else ColorScheme.empty()
        records = build_extrusion_dataset(
            polygons, args.height, scheme, rotate=args.rotate, seed=args.seed
        )
    save_records(records, args.out)
    return {"records": len(records), "out": args.out}


def _cmd_merge_obj(args):
    materials = parse_mtl(args.mtl) if args.mtl else None
    mesh = import_obj(args.obj, materials)
    result = merge_coplanar_faces(mesh, args.normal_tol, args.max_faces)
    if isinstance(result, Rejected):
        raise NumericalFailure(f"mesh rejected: {result.reason}")
    record = PolyhedronRecord(result, args.label, args.obj)
    with open(args.out, "w", encoding="utf-8") as fp:
        fp.write(encode_record(record) + "\n")
    return {"faces": result.n_faces, "vertices": result.n_vertices, "out": args.out}


def _cmd_features(args):
    with open(args.input, encoding="utf-8") as fp:
        record = decode_record(fp.read())
    graph = build_surface_graph(record.polyhedron)
    rigid = compute_rigid_set(graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            write_rigid_set(rigid, fp)
    else:
        write_rigid_set(rigid, sys.stdout)
    if args.topology_out:
        dump_topology(graph.topology(), args.topology_out)
    payload = {"paths": len(rigid), "nodes": graph.n_nodes, "faces": graph.n_faces}
    if args.out:
        payload["out"] = args.out
    return payload


def _cmd_reconstruct(args):
    with open(args.rigid, encoding="utf-8") as fp:
        rigid = read_rigid_set(fp)
    topo = load_topology(args.topology)
    solid = reconstruct_polyhedron(rigid, topo)
    recomputed = compute_rigid_set(build_surface_graph(solid))
    if not rigid_sets_equal(rigid, recomputed, 1e-6):
        raise NumericalFailure("reconstructed solid does not reproduce the rigid set")
    with open(args.out, "w", encoding="utf-8") as fp:
        fp.write(encode_record(PolyhedronRecord(solid, 0, "reconstructed")) + "\n")
    return {"vertices": solid.n_vertices, "faces": solid.n_faces, "out": args.out}


def _load_train_config(args) -> TrainConfig:
    with open(args.config, encoding="utf-8") as fp:
        try:
            doc = json.load(fp)
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.config}: {exc}") from exc
    cfg = TrainConfig.from_dict(doc)
    if args.seed is not None:
        cfg.seed = args.seed
    args.seed = cfg.seed
    args._config_hash = cfg.config_hash()
    return cfg


def _cmd_train(args):
    cfg = _load_train_config(args)
    result = train(cfg)
    save_checkpoint(result.checkpoint, args.out)
    if args.log_out:
        with open(args.log_out, "w", encoding="utf-8") as fp:
            for row in result.log:
                fp.write(json.dumps(row, sort_keys=True) + "\n")
    metrics = evaluate_classification(
        result.checkpoint.params, result.test_records, cfg.batch_size
    )
    return metrics.as_dict() | {
        "best_epoch": result.best_epoch,
        "epochs": len(result.log),
    }


def _eval_records(args):
    ckpt = load_checkpoint(args.checkpoint)
    attr_dim = ckpt.config.get("attr_dim", 0)
    records = load_records(args.data, expected_attr_dim=attr_dim or None)
    try:
        args._config_hash = TrainConfig.from_dict(ckpt.config).config_hash()
    except DataError:
        args._config_hash = ""
    return ckpt, records


def _cmd_eval(args):
    ckpt, records = _eval_records(args)
    return evaluate_classification(ckpt.params, records).as_dict()


def _cmd_retrieve(args):
    ckpt, records = _eval_records(args)
    return evaluate_retrieval(ckpt.params, records, args.similarity).as_dict()


def _cmd_gradcheck(args):
    rng = np.random.default_rng(args.seed)
    cfg = GnnConfig(
        layers=2, hidden_dim=4, attr_dim=3, n_classes=2, seed=args.seed
    )
    params = GnnParams(cfg)
    solids = [
        synthetic_solid("box", rng, jitter=0.1, attr_dim=3),
        synthetic_solid("tetrahedron", rng, jitter=0.1, attr_dim=3),
    ]
    batch = precompute_graph_features(build_surface_graph(*solids), cfg)
    labels = np.array([0, 1])

    gnn_loss_and_grads(params, batch, labels, update_stats=False)
    grad = params.grad.copy()

    def loss_fn():
        out, _ = gnn_forward(params, batch, mode="train", update_stats=False)
        return cross_entropy(out.logits, labels)[0]

    err = grad_check(loss_fn, params.theta, grad)
    if err >= args.tolerance:
        raise NumericalFailure(f"gradient check failed: {err:.3e} >= {args.tolerance}")
    return {"max_rel_error": err}


def _cmd_invariance_check(args):
    kinds = ("tetrahedron", "box", "prism", "pyramid")
    rng = np.random.default_rng(args.seed)
    cfg = GnnConfig(layers=2, hidden_dim=16, attr_dim=0, n_classes=2, seed=args.seed)
    params = GnnParams(cfg)
    worst_rigid = 0.0
    worst_embed = 0.0
    for trial in range(args.trials):
        solid = synthetic_solid(kinds[trial % len(kinds)], rng, jitter=0.1)
        rot = sample_random_rotation(args.seed + 7919 * trial + 1)
        move = RigidTransform(rot.rotation, rng.uniform(-5, 5, size=3))
        moved = apply_rigid_transform(solid, move)

        g1 = build_surface_graph(solid)
        g2 = build_surface_graph(moved)
        r1 = compute_rigid_set(g1)
        r2 = compute_rigid_set(g2)
        if not rigid_sets_equal(r1, r2, 1e-9):
            raise NumericalFailure(f"rigid features moved beyond 1e-9 on trial {trial}")
        for col in ("d1", "d2", "theta", "phi"):
            dev = np.abs(getattr(r1, col) - getattr(r2, col)).max()
            worst_rigid = max(worst_rigid, float(dev))

        h1 = embed_graph(params, precompute_graph_features(g1, cfg))
        h2 = embed_graph(params, precompute_graph_features(g2, cfg))
        rel = float(np.linalg.norm(h1 - h2) / (1.0 + np.linalg.norm(h1)))
        if rel > 1e-6:
            raise NumericalFailure(f"embedding moved {rel:.3e} on trial {trial}")
        worst_embed = max(worst_embed, rel)
    return {
        "trials": args.trials,
        "max_rigid_deviation": worst_rigid,
        "max_embedding_rel_deviation": worst_embed,
    }


# -- parser -------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyrep", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--json", action="store_true", help="JSON report on stdout")
        p.add_argument("--seed", type=_NON_NEGATIVE, default=0)

    p = sub.add_parser("build-dataset", help="synthetic or extruded corpus")
    common(p)
    p.add_argument("--kind", choices=("synthetic", "extrusion"), default="synthetic")
    p.add_argument("--count", type=_AT_LEAST_ONE, default=300)
    p.add_argument("--attr-dim", type=_NON_NEGATIVE, default=0, help="0 or 3 with extrusion")
    p.add_argument("--polygons", help="JSON list of {points, label} (extrusion)")
    p.add_argument("--height", type=_POSITIVE_FINITE, default=1.0)
    p.add_argument("--rotate", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_dataset)

    p = sub.add_parser("merge-obj", help="OBJ mesh to merged polyhedron JSON")
    common(p)
    p.add_argument("obj")
    p.add_argument("--mtl")
    p.add_argument("--normal-tol", type=_NON_NEGATIVE_FINITE, default=1e-6)
    p.add_argument("--max-faces", type=_AT_LEAST_ONE, default=64)
    p.add_argument("--label", type=_NON_NEGATIVE, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_merge_obj)

    p = sub.add_parser("features", help="rigid-feature export for one solid")
    common(p)
    p.add_argument("input", help="polyhedron JSON file")
    p.add_argument("--out", help="rigid-set text file (default stdout)")
    p.add_argument("--topology-out", help="also write the topology JSON")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("reconstruct", help="rigid set + topology to polyhedron JSON")
    common(p)
    p.add_argument("--rigid", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("train", help="train from a config file")
    common(p)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log-out", help="epoch log (JSON lines)")
    p.set_defaults(func=_cmd_train, seed=None)

    p = sub.add_parser("eval", help="classification metrics of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("retrieve", help="retrieval metrics of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--similarity", choices=("cosine", "euclidean"), default="cosine")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("gradcheck", help="finite-difference check of the model")
    common(p)
    p.add_argument("--tolerance", type=_POSITIVE_FINITE, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("invariance-check", help="rigid-motion invariance suite")
    common(p)
    p.add_argument("--trials", type=_AT_LEAST_ONE, default=20)
    p.set_defaults(func=_cmd_invariance_check)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        if not hasattr(args, "_config_hash"):
            args._config_hash = ""
        started = time.time()
        payload = args.func(args)
        return _report(args, payload, time.time() - started)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, InvalidPolyhedronError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalFailure, DivergenceError, ReconstructionError, GeometryError, GraphError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
