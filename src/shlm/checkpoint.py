"""Binary checkpoint container for models and predictors.

Layout, all little-endian: magic ``SHLM``, u32 format version, u32
JSON-config length, the UTF-8 config bytes, then per-tensor records of
(u32 name length, name bytes, u32 rank, u64 dims, u8 dtype tag, raw
data). Tensors are read until EOF; any truncation is a format error.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigMismatchError, FormatError
from .model import ModelConfig, TransformerModel, param_shapes

MAGIC = b"SHLM"
VERSION = 1

_TAG_FOR_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPE_FOR_TAG = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_container(path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    cfg_bytes = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += struct.pack("<I", len(cfg_bytes))
    blob += cfg_bytes
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype not in _TAG_FOR_DTYPE:
            raise FormatError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<I", len(name_bytes))
        blob += name_bytes
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        blob += struct.pack("<B", _TAG_FOR_DTYPE[arr.dtype])
        blob += arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes(order="C")
    Path(path).write_bytes(bytes(blob))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        if self.remaining < n:
            raise FormatError(f"{self.path}: truncated container")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    reader = _Reader(Path(path).read_bytes(), path)
    if reader.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint container")
    version = reader.u32()
    if version != VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    cfg_len = reader.u32()
    try:
        config = json.loads(reader.take(cfg_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed config block") from exc
    tensors: dict[str, np.ndarray] = {}
    while reader.remaining:
        name = reader.take(reader.u32()).decode("utf-8")
        rank = reader.u32()
        dims = struct.unpack(f"<{rank}Q", reader.take(8 * rank)) if rank else ()
        tag = reader.u8()
        if tag not in _DTYPE_FOR_TAG:
            raise FormatError(f"{path}: unknown dtype tag {tag} for {name!r}")
        dtype = _DTYPE_FOR_TAG[tag]
        count = 1
        for d in dims:
            count *= d
        raw = reader.take(count * dtype.itemsize)
        arr = np.frombuffer(raw, dtype=dtype).reshape(dims)
        tensors[name] = arr.astype(dtype.newbyteorder("="))
    return config, tensors


# ---------------------------------------------------------------------------
# model checkpoints


def save_checkpoint(model: TransformerModel, path) -> None:
    config = {"kind": "model", "config": model.cfg.to_dict()}
    write_container(path, config, {n: t.data for n, t in model.params.items()})


def load_checkpoint(path) -> TransformerModel:
    config, tensors = read_container(path)
    if config.get("kind") != "model":
        raise ConfigMismatchError(f"{path}: container holds {config.get('kind')!r}, not a model")
    cfg = ModelConfig.from_dict(config["config"])
    want = param_shapes(cfg)
    got = {name: arr.shape for name, arr in tensors.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        shapes = sorted(n for n in want.keys() & got.keys() if want[n] != got[n])
        raise ConfigMismatchError(
            f"{path}: tensors do not match config"
            f" (missing={missing}, extra={extra}, bad shapes={shapes})"
        )
    dtype = tensors[next(iter(tensors))].dtype
    return TransformerModel(cfg, dtype=dtype, params=tensors)
