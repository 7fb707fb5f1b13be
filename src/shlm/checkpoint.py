"""Binary checkpoint container for models and predictors.

Layout, all little-endian: magic ``SHLM``, u32 format version, u32
JSON-config length, the UTF-8 config bytes, then per-tensor records of
(u32 name length, name bytes, u32 rank, u64 dims, u8 dtype tag, raw
data). Tensors are read until EOF; any truncation is a format error.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict
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
    """A container file, read in order; reading past its end raises."""

    def __init__(self, fh, path):
        self.fh, self.path = fh, path
        self.left = os.fstat(fh.fileno()).st_size

    def take(self, n: int) -> bytes:
        if self.left < n:
            raise FormatError(f"{self.path}: truncated container")
        self.left -= n
        return self.fh.read(n)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def config(self) -> dict:
        """The magic, the version and the config block."""
        if self.take(4) != MAGIC:
            raise FormatError(f"{self.path}: bad magic, not a checkpoint container")
        (version,) = self.unpack("<I")
        if version != VERSION:
            raise FormatError(f"{self.path}: unsupported container version {version}")
        try:
            return json.loads(self.take(self.unpack("<I")[0]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{self.path}: malformed config block") from exc


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        config = reader.config()
        tensors: dict[str, np.ndarray] = {}
        while reader.left:
            name = reader.take(reader.unpack("<I")[0]).decode("utf-8")
            (rank,) = reader.unpack("<I")
            dims = reader.unpack(f"<{rank}Q")
            (tag,) = reader.unpack("<B")
            if tag not in _DTYPE_FOR_TAG:
                raise FormatError(f"{path}: unknown dtype tag {tag} for {name!r}")
            dtype = _DTYPE_FOR_TAG[tag]
            raw = reader.take(math.prod(dims) * dtype.itemsize)
            arr = np.frombuffer(raw, dtype=dtype).reshape(dims)
            tensors[name] = arr.astype(dtype.newbyteorder("="))
    return config, tensors


# ---------------------------------------------------------------------------
# model checkpoints


def save_checkpoint(model: TransformerModel, path,
                    vocab: dict[str, int] | None = None) -> None:
    """``vocab``, a word model's vocabulary, goes into the config block."""
    config = {"kind": "model", "config": asdict(model.cfg)}
    if vocab is not None:
        config["vocab"] = vocab
    write_container(path, config, {n: t.data for n, t in model.params.items()})


def checkpoint_vocab(path) -> dict[str, int] | None:
    """A word model's vocabulary, read from the config block; None for bytes."""
    with open(path, "rb") as fh:
        return _Reader(fh, path).config().get("vocab")


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
