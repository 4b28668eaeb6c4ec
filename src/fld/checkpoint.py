"""Model checkpoint container.

Binary layout, all integers little-endian:

    magic   8 bytes  b"FLDCKPT\\0"
    version u32
    hlen    u64      length of the JSON header in bytes
    header  hlen bytes, UTF-8 JSON: model kind, config, normalization,
                     seed, iteration, and the ordered array directory
                     [{"name": ..., "shape": [...]}, ...]
    payload raw float64 little-endian array data, in directory order
    crc     u32      CRC32 of everything before it

Loading verifies magic, version and checksum, and raises ``ValueError``
naming the file on a malformed header too. Rebuilding a model rejects
array directories that do not exactly match the architecture's parameter
and running-statistics names.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .model import FFBaseline, FFConfig, FLDConfig, FLDModel, as_int
from .signals import NormalizationStats, Trajectory, check_corpus

MAGIC = b"FLDCKPT\0"
VERSION = 1

# model kind -> (config class, model class); PAE is FLD trained with horizon 0
MODEL_KINDS = {
    "fld": (FLDConfig, FLDModel),
    "pae": (FLDConfig, FLDModel),
    "ff": (FFConfig, FFBaseline),
}


@dataclass
class ModelCheckpoint:
    model_kind: str
    config: dict
    normalization: NormalizationStats
    seed: int
    iteration: int
    arrays: dict[str, np.ndarray]

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        config_cls = MODEL_KINDS[self.model_kind][0]
        if sorted(self.config) != sorted(f.name for f in fields(config_cls)):
            raise ValueError(f"config keys {sorted(self.config)} are not the {self.model_kind} fields")
        self.normalization.check_dims(config_cls.from_dict(self.config).dims)
        for name in ("seed", "iteration"):  # a numpy integer is stored as a plain int
            setattr(self, name, as_int(name, getattr(self, name), 0))

    def normalized_frames(self, corpus: list[Trajectory]) -> list[np.ndarray]:
        """Each trajectory's frames in the model's normalized space, after
        :func:`~fld.signals.check_corpus` against the config's dims and dt."""
        check_corpus(corpus, self.config["dims"], self.config["dt"],
                     f"{self.model_kind} checkpoint")
        return [self.normalization.apply(t.frames) for t in corpus]


def save_checkpoint(checkpoint: ModelCheckpoint, path: str | Path) -> None:
    directory = [{"name": name, "shape": list(arr.shape)}
                 for name, arr in checkpoint.arrays.items()]
    header = json.dumps({
        "model_kind": checkpoint.model_kind,
        "config": checkpoint.config,
        "normalization": checkpoint.normalization.to_dict(),
        "seed": checkpoint.seed,
        "iteration": checkpoint.iteration,
        "arrays": directory,
    }).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    blob += struct.pack("<Q", len(header))
    blob += header
    for arr in checkpoint.arrays.values():
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path: str | Path) -> ModelCheckpoint:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 16:
        raise ValueError(f"{path}: truncated checkpoint")
    if raw[:len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    stored_crc = struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise ValueError(f"{path}: checksum mismatch (corrupted or truncated)")
    offset = len(MAGIC)
    version = struct.unpack_from("<I", raw, offset)[0]
    offset += 4
    if version != VERSION:
        raise ValueError(f"{path}: checkpoint version {version}, reader supports {VERSION}")
    hlen = struct.unpack_from("<Q", raw, offset)[0]
    offset += 8
    try:
        header = json.loads(raw[offset:offset + hlen].decode("utf-8"))
        offset += hlen
        arrays: dict[str, np.ndarray] = {}
        for entry in header["arrays"]:
            name, shape = entry["name"], tuple(entry["shape"])
            if name in arrays or not all(type(n) is int and n >= 0 for n in shape):
                raise ValueError(f"directory entry {entry!r} repeats a name or has a bad shape")
            count = int(np.prod(shape))
            if offset + count * 8 > len(raw) - 4:
                raise ValueError("payload shorter than the array directory")
            arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
            arrays[name] = arr.reshape(shape).astype(np.float64)
            offset += count * 8
        if offset != len(raw) - 4:
            raise ValueError("trailing bytes after payload")
        return ModelCheckpoint(
            model_kind=header["model_kind"],
            config=header["config"],
            normalization=NormalizationStats.from_dict(header["normalization"]),
            seed=header["seed"],
            iteration=header["iteration"],
            arrays=arrays,
        )
    except (AttributeError, KeyError, TypeError) as exc:  # a field missing or of a wrong type
        raise ValueError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def checkpoint_from_model(model, model_kind: str, normalization: NormalizationStats,
                          seed: int, iteration: int) -> ModelCheckpoint:
    arrays = {name: arr.copy() for name, arr in model.state_arrays().items()}
    return ModelCheckpoint(model_kind=model_kind, config=model.config.to_dict(),
                           normalization=normalization, seed=seed,
                           iteration=iteration, arrays=arrays)


def build_model(checkpoint: ModelCheckpoint):
    """Reconstruct the typed model and load every array by name.

    The checkpoint's array directory must match the architecture exactly;
    unknown or missing names are rejected.
    """
    config_cls, model_cls = MODEL_KINDS[checkpoint.model_kind]
    # shapes only; values are overwritten
    model = model_cls(config_cls.from_dict(checkpoint.config), np.random.default_rng(0))
    targets = model.state_arrays()
    unknown = set(checkpoint.arrays) - set(targets)
    missing = set(targets) - set(checkpoint.arrays)
    if unknown:
        raise ValueError(f"checkpoint contains unknown arrays: {sorted(unknown)}")
    if missing:
        raise ValueError(f"checkpoint is missing arrays: {sorted(missing)}")
    for name, arr in checkpoint.arrays.items():
        if targets[name].shape != arr.shape:
            raise ValueError(f"array {name}: shape {arr.shape} != expected {targets[name].shape}")
        targets[name][...] = arr
    return model


def build_fld_model(checkpoint: ModelCheckpoint, purpose: str) -> FLDModel:
    """:func:`build_model`, frozen (:meth:`~fld.model.BlockModel.freeze`:
    every batch norm folded, immutable weights, forward-only), for the
    inference entry points that need latent dynamics: the gate, calibration,
    synthesis, latent export and quasi-constancy."""
    if MODEL_KINDS[checkpoint.model_kind][1] is not FLDModel:
        raise ValueError(f"{purpose} needs an fld or pae checkpoint")
    return build_model(checkpoint).freeze()
