"""Checkpoint container for trained update rules.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header
with sorted keys, then the raw little-endian complex128 tensor blobs in header
order, which is ``MetaParams.tensors`` order (each GRU layer gate by gate),
not buffer order.  Serialization is fully deterministic, so saving a loaded
checkpoint reproduces the file byte for byte.  Loading checks every entry
against ``optimizer.param_layout`` before it allocates the parameter buffer.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .ols import OlsConfig
from .optimizer import MetaParams, param_layout
from .structures import DependencyStructure

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

MAGIC = b"AFLEARN1"
SCHEMA = 1
HEADER_KEYS = ("schema", "structure", "hidden_size", "dft_size", "metadata", "tensors")
ENTRY_KEYS = ("name", "shape", "offset", "nbytes")


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def save_checkpoint(path, params, dft_size=None, metadata=None):
    """Write params and optional run metadata; returns the path."""
    tensors = []
    blobs = []
    offset = 0
    for name, tensor in params.tensors.items():
        blob = np.ascontiguousarray(tensor, dtype="<c16").tobytes()
        tensors.append(
            {
                "name": name,
                "shape": list(tensor.shape),
                "offset": offset,
                "nbytes": len(blob),
            }
        )
        blobs.append(blob)
        offset += len(blob)
    header = {
        "schema": SCHEMA,
        "structure": {"kind": params.structure.kind, "width": params.structure.width},
        "hidden_size": params.hidden_size,
        "dft_size": dft_size,
        "metadata": metadata or {},
        "tensors": tensors,
    }
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(encoded)))
        fh.write(encoded)
        for blob in blobs:
            fh.write(blob)
    return Path(path)


def _check_header(path, header):
    """Structure of a parsed header; raises CheckpointError naming what is wrong."""
    def require(condition, message):
        if not condition:
            raise CheckpointError(f"{path}: {message}")

    require(isinstance(header, dict), "header is not a JSON object")
    for key in HEADER_KEYS:
        require(key in header, f"header has no {key!r} key")
    require(header["schema"] == SCHEMA, f"unsupported schema {header['schema']!r}")
    layout = header["structure"]
    require(isinstance(layout, dict) and _is_int(layout.get("width")),
            f"bad structure {layout!r}")
    try:
        structure = DependencyStructure(layout.get("kind"), layout["width"])
    except ConfigError as exc:
        raise CheckpointError(f"{path}: bad structure {layout!r} ({exc})") from None
    hidden = header["hidden_size"]
    require(_is_int(hidden) and hidden >= 1, f"bad hidden_size {hidden!r}")
    dft_size = header["dft_size"]
    if dft_size is not None:
        require(_is_int(dft_size), f"bad dft_size {dft_size!r}")
        try:
            OlsConfig(dft_size)
            structure.group_count(dft_size)
        except ValueError as exc:
            raise CheckpointError(f"{path}: dft_size {dft_size} does not fit "
                                  f"{structure.label} ({exc})") from None
    require(isinstance(header["metadata"], dict), "metadata is not a JSON object")
    require(isinstance(header["tensors"], list), "tensors is not a JSON list")
    for entry in header["tensors"]:
        require(isinstance(entry, dict) and set(entry) >= set(ENTRY_KEYS)
                and isinstance(entry["name"], str), f"bad tensor entry {entry!r}")
    return structure, hidden


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def load_checkpoint(path):
    """Returns (MetaParams, header dict); raises CheckpointError for a malformed file."""
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 8 or data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    try:
        header = json.loads(data[start : start + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad header ({exc})") from exc
    structure, hidden = _check_header(path, header)

    shapes = dict(param_layout(structure, hidden))
    names = [entry["name"] for entry in header["tensors"]]
    if sorted(names) != sorted(shapes):
        raise CheckpointError(f"{path}: unexpected tensor set")
    body = start + header_len
    blobs = {}
    for entry in header["tensors"]:
        name, shape, offset, nbytes = (entry[key] for key in ENTRY_KEYS)
        if shape != list(shapes[name]):
            raise CheckpointError(f"{path}: tensor {name!r} has shape {shape}, "
                                  f"expected {list(shapes[name])} for "
                                  f"{structure.label}/H={hidden}")
        if not (_is_int(nbytes) and nbytes == 16 * math.prod(shape)
                and _is_int(offset) and offset >= 0):
            raise CheckpointError(f"{path}: tensor {name!r} has offset {offset!r} and "
                                  f"{nbytes!r} bytes for shape {shape}")
        lo = body + offset
        if lo + nbytes > len(data):
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        blob = np.frombuffer(data, dtype="<c16", count=nbytes // 16, offset=lo)
        if not np.all(np.isfinite(blob)):
            raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
        blobs[name] = blob.reshape(shape)
    params = MetaParams(structure, hidden)  # every entry has passed its checks
    for name, blob in blobs.items():
        params.tensors[name][...] = blob
    return params, header
