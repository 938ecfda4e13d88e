"""Parameter partitions and checkpoint serialization.

Parameters live in three named partitions: "enc" (spectrum encoder), "at"
(autoregressive decoder, including the segment embeddings of the augmented
cross-attention context), and "nat" (non-autoregressive decoder). Freezing
a partition drops requires_grad on its tensors so the optimizer and the
graph both leave them untouched.

Checkpoint layout (little-endian):

    magic   4 bytes  b"NVCK"
    version u32      currently 2
    count   u32      number of arrays
    per array:
        name_len u16, name utf-8 ("partition/name"), rank u8,
        dims u32 * rank, payload float64 row-major
    blob_len u32, blob utf-8 JSON (model config, vocabulary, frozen flags,
    training counters)

Version 2 may add the AdamW state, so that a resumed run continues exactly:
the moments follow the parameters as arrays "m/partition/name" and
"v/partition/name", and the blob holds "optimizer": {"step": n}. The blob
returned by load_checkpoint carries the moments in ``blob["optimizer"]``
("step", "m", "v"), where save_checkpoint takes them. The reader checks the
step (an integer of at least 0) and that the moments pair up and match their
parameters' shapes; moment arrays need the record. Version 1 still loads.

Round trips are bit-exact because payloads are raw float64 bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Iterator

import numpy as np

from .autodiff import Tensor

__all__ = [
    "PARTITIONS",
    "ParameterStore",
    "CheckpointError",
    "save_checkpoint",
    "staging_path",
    "load_checkpoint",
]

PARTITIONS = ("enc", "at", "nat")

MAGIC = b"NVCK"
VERSION = 2


class CheckpointError(ValueError):
    """A malformed checkpoint file, or a partition name outside PARTITIONS."""


class ParameterStore:
    """Named, partitioned trainable tensors with deterministic order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._frozen: dict[str, bool] = {p: False for p in PARTITIONS}

    @staticmethod
    def _key(partition: str, name: str) -> str:
        if partition not in PARTITIONS:
            raise CheckpointError(
                f"unknown partition {partition!r}; expected one of {PARTITIONS}"
            )
        return f"{partition}/{name}"

    def add(self, partition: str, name: str, values: np.ndarray) -> Tensor:
        key = self._key(partition, name)
        if key in self._params:
            raise ValueError(f"parameter {key!r} already registered")
        t = Tensor(values, requires_grad=not self._frozen[partition])
        self._params[key] = t
        return t

    def get(self, partition: str, name: str) -> Tensor:
        key = self._key(partition, name)
        try:
            return self._params[key]
        except KeyError:
            raise KeyError(f"no parameter {key!r}") from None

    def items(self) -> Iterator[tuple[str, Tensor]]:
        """(key, tensor) pairs in insertion order."""
        return iter(self._params.items())

    def partition_items(self, partition: str) -> list[tuple[str, Tensor]]:
        prefix = partition + "/"
        self._key(partition, "")
        return [(k, t) for k, t in self._params.items() if k.startswith(prefix)]

    def freeze(self, partition: str) -> None:
        self._key(partition, "")
        self._frozen[partition] = True
        for _, t in self.partition_items(partition):
            t.requires_grad = False
            t.grad = None

    def unfreeze(self, partition: str) -> None:
        self._key(partition, "")
        self._frozen[partition] = False
        for _, t in self.partition_items(partition):
            t.requires_grad = True

    def is_frozen(self, partition: str) -> bool:
        self._key(partition, "")
        return self._frozen[partition]

    @property
    def frozen_flags(self) -> dict[str, bool]:
        return dict(self._frozen)

    def snapshot(self, partition: str | None = None) -> dict[str, np.ndarray]:
        """Copies of current values, for bit-identity assertions in tests."""
        items = self.items() if partition is None else self.partition_items(partition)
        return {k: t.values.copy() for k, t in items}


def staging_path(path: str) -> str:
    """The file beside ``path`` that :func:`save_checkpoint` writes first."""
    return f"{path}.tmp"


def save_checkpoint(path: str, store: ParameterStore, config_blob: dict) -> None:
    """Write the store plus a JSON metadata blob; see module docstring."""
    blob = dict(config_blob)
    blob["frozen"] = store.frozen_flags
    arrays = [(key, t.values) for key, t in store.items()]
    if "optimizer" in blob:
        opt = blob["optimizer"]
        blob["optimizer"] = {"step": opt["step"]}
        arrays += [(f"{kind}/{key}", a) for kind in "mv" for key, a in opt[kind].items()]
    encoded_blob = json.dumps(blob, sort_keys=True).encode("utf-8")

    chunks: list[bytes] = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for key, values in arrays:
        name = key.encode("utf-8")
        # note: ascontiguousarray would silently promote 0-d arrays to 1-d;
        # tobytes(order="C") already serializes row-major for any layout.
        vals = np.asarray(values, dtype=np.float64)
        chunks.append(struct.pack("<H", len(name)))
        chunks.append(name)
        chunks.append(struct.pack("<B", vals.ndim))
        chunks.append(struct.pack(f"<{vals.ndim}I", *vals.shape) if vals.ndim else b"")
        chunks.append(vals.tobytes(order="C"))
    chunks.append(struct.pack("<I", len(encoded_blob)))
    chunks.append(encoded_blob)

    # Write beside the target and rename over it, so a failed or killed
    # write leaves the previous checkpoint intact. Only a file this call
    # made is removed on failure, and a failed open made none.
    tmp = staging_path(path)
    f = open(tmp, "wb")
    try:
        with f:
            f.write(b"".join(chunks))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(
                f"checkpoint truncated while reading {what} "
                f"(need {n} bytes at offset {self.pos}, have {len(self.data) - self.pos})"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        raw = self.take(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{what} is not UTF-8 text (byte {e.start}: {e.reason})") from e


def load_checkpoint(path: str) -> tuple[ParameterStore, dict]:
    """Read a checkpoint; returns (store, metadata blob).

    The blob is exactly what was passed to :func:`save_checkpoint` plus the
    "frozen" flags, which are re-applied to the returned store. A malformed
    file raises a :class:`CheckpointError` naming it and what was being read.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        return _parse(data)
    except CheckpointError as e:
        raise CheckpointError(f"checkpoint {path}: {e}") from e


def _parse(data: bytes) -> tuple[ParameterStore, dict]:
    r = _Reader(data)

    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise CheckpointError(f"not a checkpoint file: magic {magic!r} != {MAGIC!r}")
    (version, count) = r.unpack("<II", "header")
    if version not in (1, VERSION):
        raise CheckpointError(f"checkpoint version {version}, expected 1 or {VERSION}")

    store = ParameterStore()
    moments: dict[str, dict[str, np.ndarray]] = {"m": {}, "v": {}}
    keys: set[str] = set()
    for i in range(count):
        (name_len,) = r.unpack("<H", f"array {i} name length")
        key = r.text(name_len, f"array {i} name")
        if key in keys:
            raise CheckpointError(f"array {i} name {key!r} appears twice")
        keys.add(key)
        if "/" not in key:
            raise CheckpointError(f"array name {key!r} has no partition prefix")
        partition, name = key.split("/", 1)
        (rank,) = r.unpack("<B", f"array {key} rank")
        if rank > 32:  # numpy 1.x arrays have at most 32 axes
            raise CheckpointError(f"array {key} has rank {rank}; at most 32 is supported")
        shape = r.unpack(f"<{rank}I", f"array {key} dims") if rank else ()
        n = math.prod(shape)  # Python ints: dims near 2**32 must not wrap
        payload = r.take(8 * n, f"array {key} payload")
        values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        if partition in moments:
            moments[partition][name] = values
        else:
            store.add(partition, name, values)

    (blob_len,) = r.unpack("<I", "metadata length")
    text = r.text(blob_len, "metadata")
    if r.pos != len(data):
        raise CheckpointError(f"{len(data) - r.pos} trailing bytes after metadata")
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as e:
        raise CheckpointError(f"metadata is not JSON: {e}") from e
    if not isinstance(blob, dict):
        raise CheckpointError(f"metadata is a JSON {type(blob).__name__}, not an object")
    for key in ("frozen", "optimizer"):
        if not isinstance(blob.get(key, {}), dict):
            raise CheckpointError(f"metadata field {key!r} is not an object")
    optimizer = blob.get("optimizer")
    if optimizer is None and (moments["m"] or moments["v"]):
        raise CheckpointError("metadata field 'optimizer' is missing, but the file has moment arrays")
    if optimizer is not None:
        step = optimizer.get("step")
        if type(step) is not int or step < 0:
            raise CheckpointError(f"metadata field 'optimizer.step' must be an integer of at least 0, "
                                  f"got {step!r}")
        params = dict(store.items())
        for kind, other in ("mv", "vm"):
            for key, moment in moments[kind].items():
                field = f"metadata field 'optimizer.{kind}' has array {key!r}"
                if key not in moments[other]:
                    raise CheckpointError(f"{field}, optimizer.{other} does not")
                if key not in params:
                    raise CheckpointError(f"{field}, which names no model parameter")
                if moment.shape != params[key].shape:
                    raise CheckpointError(f"{field} of shape {moment.shape}, "
                                          f"not the parameter's {params[key].shape}")
        blob["optimizer"] = {"step": step, **moments}

    for partition, frozen in blob.get("frozen", {}).items():
        if type(frozen) is not bool:
            raise CheckpointError(f"metadata field 'frozen.{partition}' must be true or false, "
                                  f"got {frozen!r}")
        if frozen:
            store.freeze(partition)
    return store, blob
