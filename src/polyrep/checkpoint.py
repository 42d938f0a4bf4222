"""Versioned checkpoint container.

Layout: an 8-byte big-endian header length, a canonical JSON header (version
tag and config), the raw little-endian float64 blob of three flat vectors
(``theta``, ``bn.running_mean``, ``bn.running_var``) back to back, and a
trailing SHA-256 digest of everything before it.  The header config is the
only description of the blob: it fixes each vector's length in closed form
(``GnnConfig.flat_sizes``).  A checkpoint holds the model that ``eval`` and
``retrieve`` read and nothing else: no optimizer or scheduler state, since
there is no resume.  Loading verifies the digest, the blob's length against
the config and every value, so truncation, bit corruption, config
mismatches and non-finite or negative-variance state all fail loudly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError
from .model import GnnConfig, GnnParams

FORMAT_VERSION = "polyrep-checkpoint-4"


@dataclass
class Checkpoint:
    config: dict
    params: GnnParams


def _vectors(params):
    """The three flat vectors a checkpoint holds, by name, in blob order."""
    return {"theta": params.theta, "bn.running_mean": params.running_mean,
            "bn.running_var": params.running_var}


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    header = {"version": FORMAT_VERSION, "config": ckpt.config}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in _vectors(ckpt.params).values()]
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
    try:
        config = dict(header["config"])
        fields = GnnConfig.__dataclass_fields__
        for name in fields:
            if type(config.get(name)) is not int:  # refuses booleans too
                raise CheckpointError(f"header config {name} is missing or not an integer")
        gnn_cfg = GnnConfig(**{name: config[name] for name in fields})
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed header: {type(exc).__name__}: {exc}") from exc

    # The config fixes the blob's length: compare before building a model.
    n_theta, n_stats = gnn_cfg.flat_sizes()
    blob = payload[8 + header_len :]
    if len(blob) != 8 * (n_theta + 2 * n_stats):
        raise CheckpointError(
            f"dimension mismatch: blob of {len(blob)} bytes, config implies "
            f"theta {n_theta} and running statistics 2 x {n_stats} float64 values"
        )
    params = GnnParams._blank(gnn_cfg)
    values, start = np.frombuffer(blob, dtype="<f8"), 0
    for name, arr in _vectors(params).items():
        arr[...] = values[start : start + arr.size]
        start += arr.size
        _check_values(params, name, arr)
    return Checkpoint(config=config, params=params)


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
