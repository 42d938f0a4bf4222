"""Versioned checkpoint container.

Layout: an 8-byte big-endian header length, a canonical JSON header (version
tag, config, tensor manifest, optimizer/scheduler scalars, RNG state), the
raw little-endian float64 tensor blob, and a trailing SHA-256 digest of
everything before it.  Loading verifies the digest, every tensor shape and
every tensor value, so truncation, bit corruption, config mismatches and
non-finite or negative-variance state all fail loudly.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CheckpointError
from .nn import AdamState, PlateauState
from .model import GnnConfig, GnnParams

FORMAT_VERSION = "polyrep-checkpoint-1"


@dataclass
class Checkpoint:
    config: dict
    params: GnnParams
    adam: AdamState
    scheduler: PlateauState
    best_epoch: int
    rng_state: dict
    version: str = FORMAT_VERSION


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    tensors, blob = [], bytearray()
    for name, arr in ckpt.params.named_state() + _moments(ckpt.params, ckpt.adam):
        data = np.ascontiguousarray(arr, dtype=np.float64).tobytes()
        tensors.append(
            {"name": name, "shape": list(arr.shape), "offset": len(blob), "nbytes": len(data)}
        )
        blob.extend(data)
    best = ckpt.scheduler.best
    scheduler = asdict(ckpt.scheduler) | {"best": None if best == math.inf else best}
    header = {
        "version": ckpt.version,
        "config": ckpt.config,
        "tensors": tensors,
        "adam": {"t": ckpt.adam.t},
        "scheduler": scheduler,
        "best_epoch": ckpt.best_epoch,
        "rng_state": ckpt.rng_state,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = len(header_bytes).to_bytes(8, "big") + header_bytes + bytes(blob)
    digest = hashlib.sha256(payload).digest()
    with open(path, "wb") as fp:
        fp.write(payload)
        fp.write(digest)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fp:
        raw = fp.read()
    if len(raw) < 40:
        raise CheckpointError("file too short to be a checkpoint")
    payload, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError("digest mismatch: checkpoint is corrupt or truncated")
    header_len = int.from_bytes(payload[:8], "big")
    if 8 + header_len > len(payload):
        raise CheckpointError("truncated header")
    try:
        header = json.loads(payload[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("malformed header: not a JSON object")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"version mismatch: file has {header.get('version')!r}, "
            f"expected {FORMAT_VERSION!r}"
        )
    blob = payload[8 + header_len :]
    try:
        loaded = _read_tensors(header["tensors"], blob)
        config = dict(header["config"])
        fields = GnnConfig.__dataclass_fields__
        gnn_cfg = GnnConfig(**{k: v for k, v in config.items() if k in fields})
        adam_t = int(header["adam"]["t"])
        sch = header["scheduler"]
        scheduler = PlateauState(
            lr=float(sch["lr"]),
            factor=float(sch["factor"]),
            patience=int(sch["patience"]),
            min_lr=float(sch["min_lr"]),
            best=float("inf") if sch["best"] is None else float(sch["best"]),
            bad_epochs=int(sch["bad_epochs"]),
        )
        best_epoch = int(header["best_epoch"])
        rng_state = header["rng_state"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed header: {type(exc).__name__}: {exc}") from exc

    _check_config(gnn_cfg, {name: arr.shape for name, arr in loaded.items()})
    params = GnnParams(gnn_cfg)
    adam = AdamState(np.empty_like(params.theta), np.empty_like(params.theta), adam_t)
    for name, arr in params.named_state() + _moments(params, adam):
        if name not in loaded:
            raise CheckpointError(f"missing tensor {name}")
        if loaded[name].shape != arr.shape:
            raise CheckpointError(
                f"dimension mismatch for {name}: file {loaded[name].shape}, "
                f"model {arr.shape}"
            )
        arr[...] = loaded[name]
    return Checkpoint(
        config=config,
        params=params,
        adam=adam,
        scheduler=scheduler,
        best_epoch=best_epoch,
        rng_state=rng_state,
        version=header["version"],
    )


def _check_config(cfg: GnnConfig, shapes) -> None:
    """Refuse a config that the manifest's ``shapes`` contradict, before a
    model is built from it: the model is then a small multiple of the first
    classifier weight, which the file holds, whatever the header claims."""
    heads = [shape for name, shape in shapes.items() if re.fullmatch(r"classifier\.\d+\.w", name)]
    layers = sum(bool(re.fullmatch(r"layer\d+\.w_inner", name)) for name in shapes)
    found = (shapes.get("layer0.guide.0.w"), heads[:1], heads[-1:], layers)
    d = cfg.hidden_dim
    implied = ((cfg.guide_in_dim, d), [(cfg.readout_dim, d)], [(d, cfg.n_classes)], cfg.layers)
    if found != implied:  # guide weight, first and last classifier weights, layers
        raise CheckpointError(f"dimension mismatch: file {found}, config {implied}")


def _moments(params, adam):
    """The flat Adam moments as ``adam.m.{i}``/``adam.v.{i}`` parameter-shaped views."""
    views = [(key, params.split(getattr(adam, key))) for key in ("m", "v")]
    return [(f"adam.{key}.{i}", view) for key, vs in views for i, view in enumerate(vs)]


def _read_tensors(specs, blob) -> dict:
    """Name -> array for every manifest entry; an entry whose span leaves
    the blob, whose size disagrees with its shape, that holds a non-finite
    value, or that is a variance (``bn.running_var``, ``adam.v``) below zero
    is refused."""
    loaded = {}
    for spec in specs:
        name = str(spec["name"])
        shape = tuple(int(n) for n in spec["shape"])
        start, nbytes = int(spec["offset"]), int(spec["nbytes"])
        if start < 0 or start + nbytes > len(blob):
            raise CheckpointError(f"tensor {name} lies outside the blob")
        if min(shape, default=0) < 0 or nbytes != 8 * math.prod(shape):
            raise CheckpointError(f"tensor {name}: {nbytes} bytes do not fit shape {shape}")
        arr = np.frombuffer(blob[start : start + nbytes], dtype=np.float64)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name} is not finite")
        is_variance = name.endswith("bn.running_var") or name.startswith("adam.v.")
        if is_variance and (arr < 0).any():
            raise CheckpointError(f"tensor {name} is negative")
        loaded[name] = arr.reshape(shape).copy()
    return loaded
