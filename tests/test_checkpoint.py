"""Checkpoint format: determinism, round trips, corruption handling."""

import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aflearn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from aflearn.optimizer import init_meta_params
from aflearn.structures import DependencyStructure


def _params():
    return init_meta_params(DependencyStructure.banded(4), 4, seed=9)


def test_round_trip_preserves_everything(tmp_path):
    params = _params()
    path = tmp_path / "rule.ckpt"
    save_checkpoint(path, params, dft_size=64, metadata={"epoch": 3, "val_serle_db": 7.25})
    loaded, header = load_checkpoint(path)
    assert loaded.structure == params.structure
    assert loaded.hidden_size == params.hidden_size
    assert list(loaded.tensors) == list(params.tensors)
    for name in params.tensors:
        assert np.array_equal(loaded.tensors[name], params.tensors[name])
    assert header["dft_size"] == 64
    assert header["metadata"] == {"epoch": 3, "val_serle_db": 7.25}


def test_save_is_deterministic_and_reload_is_byte_identical(tmp_path):
    params = _params()
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_checkpoint(a, params, dft_size=64, metadata={"seed": 1})
    save_checkpoint(b, params, dft_size=64, metadata={"seed": 1})
    assert a.read_bytes() == b.read_bytes()

    loaded, header = load_checkpoint(a)
    c = tmp_path / "c.ckpt"
    save_checkpoint(c, loaded, dft_size=header["dft_size"], metadata=header["metadata"])
    assert c.read_bytes() == a.read_bytes()
    assert hashlib.sha256(c.read_bytes()).hexdigest() == hashlib.sha256(a.read_bytes()).hexdigest()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_rejects_truncated_blob(tmp_path):
    params = _params()
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, params)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_rejects_wrong_schema(tmp_path):
    params = _params()
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, params)
    data = bytearray(path.read_bytes())
    # bump the schema integer inside the JSON header
    idx = data.find(b'"schema":1')
    data[idx : idx + len(b'"schema":1')] = b'"schema":9'
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _nan_in_last_value(header, body):
    body[-8:] = struct.pack("<d", float("nan"))


# the body must hold the blobs packed in header order, with nothing after them
def _overlapping_entry(header, body):
    next(e for e in header["tensors"] if e["name"] == "out.bias")["offset"] = 0


def _gap_before_last_entry(header, body):
    last = header["tensors"][-1]
    body[last["offset"] : last["offset"]] = bytes(16)
    last["offset"] += 16


def _huge_hidden_size(header, body):
    # a consistent header for H = 2**20: its buffer would need petabytes, so
    # the loader must reject the entries before it allocates anything
    hidden = 2**20
    width = header["structure"]["width"]
    header["hidden_size"] = hidden
    for entry in header["tensors"]:
        name = entry["name"]
        if name == "down_kernel":
            shape = [hidden, 5 * width]
        elif name == "up_kernel":
            shape = [width, hidden]
        elif name == "out.bias" or ".b_" in name:
            shape = [hidden]
        else:
            shape = [hidden, hidden]
        entry.update(shape=shape, nbytes=16 * math.prod(shape))


# each case edits the parsed header (and possibly the tensor bytes) of a valid
# banded:4, H=4, K=64 checkpoint
CORRUPTIONS = {
    "no-tensors-key": lambda h, body: h.pop("tensors"),
    "no-hidden-size-key": lambda h, body: h.pop("hidden_size"),
    "no-structure-key": lambda h, body: h.pop("structure"),
    "no-entry-offset": lambda h, body: h["tensors"][0].pop("offset"),
    "nbytes-off-by-8": lambda h, body: h["tensors"][0].update(
        nbytes=h["tensors"][0]["nbytes"] + 8),
    "negative-offset": lambda h, body: h["tensors"][0].update(offset=-16),
    "shape-3x3": lambda h, body: h["tensors"][0].update(shape=[3, 3]),
    "hidden-size-mismatch": lambda h, body: h.update(hidden_size=8),
    "huge-hidden-size": _huge_hidden_size,
    "unknown-kind": lambda h, body: h["structure"].update(kind="spiral"),
    "odd-banded-width": lambda h, body: h["structure"].update(width=3),
    "wider-structure": lambda h, body: h["structure"].update(width=8),
    "ungroupable-dft-size": lambda h, body: h.update(dft_size=2),
    "non-power-of-two-dft-size": lambda h, body: h.update(dft_size=48),
    "tensors-not-a-list": lambda h, body: h.update(tensors={}),
    "non-finite-value": _nan_in_last_value,
    "overlapping-entry": _overlapping_entry,
    "gap-before-last-entry": _gap_before_last_entry,
    "trailing-bytes": lambda h, body: body.extend(b"\x00" * 13),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_rejects_corrupted_checkpoint(tmp_path, corruption):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _params(), dft_size=64)
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16 : 16 + header_len])
    body = bytearray(data[16 + header_len :])
    CORRUPTIONS[corruption](header, body)
    encoded = json.dumps(header).encode()
    path.write_bytes(data[:8] + struct.pack("<Q", len(encoded)) + encoded + bytes(body))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.none() | st.integers(0, 7000),
       edits=st.lists(st.tuples(st.integers(0, 7000), st.integers(0, 255)), max_size=4))
def test_fuzzed_file_loads_or_raises_checkpoint_error(tmp_path, cut, edits):
    path = tmp_path / "f.ckpt"
    save_checkpoint(path, _params(), dft_size=64, metadata={"sample_rate": 16000})
    data = bytearray(path.read_bytes())
    for position, value in edits:
        data[position % len(data)] = value
    path.write_bytes(bytes(data[:cut]))
    try:
        params, _ = load_checkpoint(path)
    except CheckpointError:
        return
    for tensor in params.tensors.values():
        assert np.all(np.isfinite(tensor))
