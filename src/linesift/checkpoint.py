"""Bit-exact tensor checkpointing.

A checkpoint is a pair of files: a plain-text manifest listing one tensor
per line as ``name<TAB>shape<TAB>byte_offset`` (shape as comma-separated
extents, empty for scalars) and a single binary blob of little-endian
64-bit floats concatenated in manifest order. Round-trips are bit-exact,
including NaN payloads.
"""

from __future__ import annotations

import math
import os

import numpy as np

MANIFEST_NAME = "manifest.txt"
BLOB_NAME = "weights.bin"


def save_tensors(directory: str, arrays: dict[str, np.ndarray]) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = []
    offset = 0
    with open(os.path.join(directory, BLOB_NAME), "wb") as blob:
        for name in sorted(arrays):
            if "\t" in name or "\n" in name:
                raise ValueError(f"tensor name {name!r} contains separators")
            # note: ascontiguousarray would promote 0-d arrays to shape (1,)
            arr = np.asarray(arrays[name], dtype="<f8")
            shape = ",".join(str(d) for d in arr.shape)
            lines.append(f"{name}\t{shape}\t{offset}")
            blob.write(arr.tobytes(order="C"))
            offset += arr.nbytes
    with open(os.path.join(directory, MANIFEST_NAME), "w") as mf:
        mf.write("\n".join(lines) + ("\n" if lines else ""))


class CheckpointError(ValueError):
    """Checkpoint files, or the tensors in them, do not fit what is loaded."""


def load_tensors(directory: str) -> dict[str, np.ndarray]:
    """Read a checkpoint; the manifest must tile the blob exactly, in order."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    blob_path = os.path.join(directory, BLOB_NAME)
    with open(blob_path, "rb") as blob:
        raw = blob.read()
    entries = {}
    end = 0
    with open(manifest_path) as mf:
        for number, line in enumerate(mf, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                name, shape_s, offset_s = line.split("\t")
                shape = tuple(int(d) for d in shape_s.split(",")) if shape_s else ()
                offset = int(offset_s)
                if min(shape, default=0) < 0:
                    raise ValueError(f"negative extent in shape {shape_s!r}")
            except ValueError as exc:
                raise CheckpointError(f"{manifest_path} line {number}: {exc}") from exc
            if name in entries:
                raise CheckpointError(
                    f"{manifest_path} line {number}: tensor {name!r} is listed twice")
            if offset != end:
                raise CheckpointError(
                    f"{manifest_path}: {name!r} starts at byte {offset}, not {end}")
            entries[name] = shape, offset
            end += 8 * math.prod(shape)
    if len(raw) != end:
        raise CheckpointError(
            f"{blob_path} holds {len(raw)} bytes, its manifest describes {end}"
        )
    return {
        name: np.frombuffer(raw, dtype="<f8", count=math.prod(shape), offset=offset)
        .reshape(shape).astype(np.float64, copy=True)
        for name, (shape, offset) in entries.items()
    }


def load_into(params, arrays: dict[str, np.ndarray]) -> None:
    """Set each ``(name, tensor)`` of ``params`` to ``arrays[name]``, which
    must exist with the tensor's shape; a ``CheckpointError`` names it if not."""
    for name, p in params:
        if name not in arrays:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {arr.shape}, expected {p.data.shape}"
            )
        p.data = arr
