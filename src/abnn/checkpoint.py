"""Binary model checkpoints.

Layout (all integers little endian)::

    magic   b"ABNN"
    version u32
    kind    u16 length + utf8
    header  u32 length + utf8 JSON of structural fields (sorted keys)
    params  u64 count + count raw float64 parameter values
    crc32   u32 over every preceding byte

Parameters round-trip bit for bit; any flipped byte fails the checksum
rather than loading silently. Model families register a header writer and
a builder under their ``kind`` string; builders ignore header keys they do
not read, so older version-1 files with retired keys still load.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .abelian import AbelianOp
from .baseline import DeepSetsModel
from .invertible import CouplingFlow, MonotonicNet

__all__ = [
    "CheckpointError",
    "BadMagicError",
    "VersionMismatchError",
    "TruncatedError",
    "ChecksumError",
    "TrailingBytesError",
    "KindMismatchError",
    "save_checkpoint",
    "load_checkpoint",
    "register_model_kind",
]

MAGIC = b"ABNN"
VERSION = 1


class CheckpointError(RuntimeError):
    code = "checkpoint"


class BadMagicError(CheckpointError):
    code = "bad_magic"


class VersionMismatchError(CheckpointError):
    code = "version_mismatch"


class TruncatedError(CheckpointError):
    code = "truncated"


class ChecksumError(CheckpointError):
    code = "checksum"


class TrailingBytesError(CheckpointError):
    code = "trailing_bytes"


class KindMismatchError(CheckpointError):
    code = "kind_mismatch"


_REGISTRY: dict[str, tuple] = {}


def register_model_kind(kind: str, to_header, from_header) -> None:
    """``to_header(model) -> dict``; ``from_header(dict) -> model`` with a
    correctly sized ParamStore (values get overwritten after)."""
    _REGISTRY[kind] = (to_header, from_header)


def _mono_op_header(op: AbelianOp) -> dict:
    return {
        "k_groups": op.phi.k_groups,
        "j_units": op.phi.j_units,
        "combiner": op.combiner,
    }


def _mono_op_build(h: dict) -> AbelianOp:
    return AbelianOp(MonotonicNet(h["k_groups"], h["j_units"]), h["combiner"])


def _flow_op_header(op: AbelianOp) -> dict:
    return {
        "d": op.phi.d,
        "n_layers": op.phi.n_layers,
        "hidden_dim": op.phi.hidden_dim,
        "clamp": op.phi.clamp,
        "perms": [p.tolist() for p in op.phi.perms],
        "combiner": op.combiner,
    }


def _flow_op_build(h: dict) -> AbelianOp:
    flow = CouplingFlow(h["d"], h["n_layers"], h["hidden_dim"],
                        np.random.default_rng(0), clamp=h["clamp"],
                        permutations=h["perms"])
    return AbelianOp(flow, h["combiner"])


def _deepsets_header(m: DeepSetsModel) -> dict:
    return {"d": m.d, "n_layers": m.n_layers, "hidden_dim": m.hidden_dim,
            "middle_dim": m.middle_dim}


def _deepsets_build(h: dict) -> DeepSetsModel:
    return DeepSetsModel(h["d"], h["n_layers"], h["hidden_dim"],
                         h["middle_dim"], np.random.default_rng(0))


def _mlp_header(m) -> dict:
    return {"d": m.d, "n_layers": m.n_layers, "hidden_dim": m.hidden_dim}


def _mlp_build(h: dict):
    from .analogy import MlpModel  # lazy: loading must not pull in the analogy pipeline

    return MlpModel(h["d"], h["n_layers"], h["hidden_dim"], np.random.default_rng(0))


for _tag in ("agn", "asn"):
    register_model_kind(f"{_tag}-mono", _mono_op_header, _mono_op_build)
    register_model_kind(f"{_tag}-flow", _flow_op_header, _flow_op_build)
register_model_kind("deepsets", _deepsets_header, _deepsets_build)
register_model_kind("mlp", _mlp_header, _mlp_build)


def save_checkpoint(model, path) -> None:
    kind = model.kind
    if kind not in _REGISTRY:
        raise CheckpointError(f"no checkpoint support registered for kind {kind!r}")
    to_header, _ = _REGISTRY[kind]
    header = json.dumps(to_header(model), sort_keys=True,
                        separators=(",", ":")).encode()
    kind_b = kind.encode()
    values = np.ascontiguousarray(model.store.values, dtype="<f8")
    body = b"".join([
        MAGIC,
        struct.pack("<I", VERSION),
        struct.pack("<H", len(kind_b)), kind_b,
        struct.pack("<I", len(header)), header,
        struct.pack("<Q", values.size), values.tobytes(),
    ])
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]


def load_checkpoint(path, expected_kind: str | None = None):
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise BadMagicError("not a checkpoint file (bad magic)")
    version = r.unpack("<I")
    if version != VERSION:
        raise VersionMismatchError(
            f"checkpoint version {version} != supported {VERSION}")
    kind_raw = r.take(r.unpack("<H"))
    header_raw = r.take(r.unpack("<I"))
    count = r.unpack("<Q")
    raw = r.take(count * 8)
    stored_crc = struct.unpack("<I", r.take(4))[0]
    if zlib.crc32(data[: r.pos - 4]) != stored_crc:
        raise ChecksumError("checkpoint checksum failure")
    if r.pos != len(data):
        raise TrailingBytesError(
            f"{len(data) - r.pos} trailing byte(s) after the checksum")
    kind = kind_raw.decode()
    if expected_kind is not None and kind != expected_kind:
        raise KindMismatchError(
            f"model kind mismatch: file holds {kind!r}, expected {expected_kind!r}")
    if kind not in _REGISTRY:
        raise CheckpointError(f"unknown model kind {kind!r}")
    header = json.loads(header_raw.decode())
    _, from_header = _REGISTRY[kind]
    model = from_header(header)
    if len(model.store.values) != count:
        raise CheckpointError(
            f"parameter count {count} does not match structure "
            f"({len(model.store.values)} expected)")
    model.store.values[:] = np.frombuffer(raw, dtype="<f8")
    return model
