"""Versioned checkpoint container.

Layout: an 8-byte big-endian header length, a canonical JSON header (version
tag, config, tensor manifest), the raw little-endian float64 blob of three
flat vectors (``theta``, ``bn.running_mean``, ``bn.running_var``), and a
trailing SHA-256 digest of everything before it.  A checkpoint holds the
model that ``eval`` and ``retrieve`` read and nothing else: no optimizer or
scheduler state, since there is no resume.  Loading verifies the digest,
every vector's length against the config and every value, so truncation,
bit corruption, config mismatches and non-finite or negative-variance state
all fail loudly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError
from .model import GnnConfig, GnnParams

FORMAT_VERSION = "polyrep-checkpoint-3"


@dataclass
class Checkpoint:
    config: dict
    params: GnnParams


def _vectors(params):
    """The three flat vectors a checkpoint holds, by tensor name."""
    return {"theta": params.theta, "bn.running_mean": params.running_mean,
            "bn.running_var": params.running_var}


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    tensors, arrays, offset = [], [], 0
    for name, arr in _vectors(ckpt.params).items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        arrays.append(arr)
        tensors.append(dict(name=name, shape=list(arr.shape), offset=offset, nbytes=arr.nbytes))
        offset += arr.nbytes
    header = {"version": FORMAT_VERSION, "config": ckpt.config, "tensors": tensors}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as fp:  # each vector is written from its own buffer, uncopied
        for part in (len(header_bytes).to_bytes(8, "big"), header_bytes, *arrays):
            digest.update(part)
            fp.write(part)
        fp.write(digest.digest())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fp:
        raw = memoryview(fp.read())  # the slices and vectors below are views, not copies
    if len(raw) < 40:
        raise CheckpointError("file too short to be a checkpoint")
    payload, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError("digest mismatch: checkpoint is corrupt or truncated")
    header_len = int.from_bytes(payload[:8], "big")
    if 8 + header_len > len(payload):
        raise CheckpointError("truncated header")
    try:
        header = json.loads(bytes(payload[8 : 8 + header_len]).decode("utf-8"))
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
        for name in fields:
            if type(config.get(name)) is not int:  # refuses booleans too
                raise CheckpointError(f"header config {name} is missing or not an integer")
        gnn_cfg = GnnConfig(**{name: config[name] for name in fields})
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed header: {type(exc).__name__}: {exc}") from exc

    # The config fixes every vector's length: compare before building a model.
    n_theta, n_stats = gnn_cfg.flat_sizes()
    implied = {"theta": (n_theta,), "bn.running_mean": (n_stats,), "bn.running_var": (n_stats,)}
    found = {name: arr.shape for name, arr in loaded.items()}
    if found != implied:
        raise CheckpointError(f"dimension mismatch: file {found}, config {implied}")
    params = GnnParams._blank(gnn_cfg)
    for name, arr in _vectors(params).items():
        arr[...] = loaded[name]
        _check_values(params, name, arr)
    return Checkpoint(config=config, params=params)


def _read_tensors(specs, blob) -> dict:
    """Name -> array for every manifest entry; an entry whose span leaves
    the blob or whose size disagrees with its shape is refused."""
    loaded = {}
    for spec in specs:
        name = str(spec["name"])
        shape = tuple(int(n) for n in spec["shape"])
        start, nbytes = int(spec["offset"]), int(spec["nbytes"])
        if start < 0 or start + nbytes > len(blob):
            raise CheckpointError(f"tensor {name} lies outside the blob")
        if min(shape, default=0) < 0 or nbytes != 8 * math.prod(shape):
            raise CheckpointError(f"tensor {name}: {nbytes} bytes do not fit shape {shape}")
        arr = np.frombuffer(blob, dtype=np.float64, count=nbytes // 8, offset=start)
        loaded[name] = arr.reshape(shape)
    return loaded


def _check_values(params, name, arr) -> None:
    """Refuse a non-finite value of the checkpoint vector ``name``, or a
    negative one of ``bn.running_var``, naming the array of the model's
    walk that holds it."""
    finite = np.isfinite(arr)
    ok = finite & (arr >= 0) if name == "bn.running_var" else finite
    if ok.all():
        return
    index = np.flatnonzero(~ok)[0]
    held_by = params.name_at(index, name[3:] if name.startswith("bn.") else "theta")
    raise CheckpointError(f"tensor {held_by} is {'negative' if finite[index] else 'not finite'}")
