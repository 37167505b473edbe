"""Binary checkpoint format.

Little-endian layout: 8-byte magic, u32 version, length-prefixed JSON
metadata, named-tensor table, trailing CRC32 of everything before it.
Round trips are bitwise lossless.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .lines import replacing

MAGIC = b"POLYREG\x00"
VERSION = 2


class CorruptCheckpoint(Exception):
    """Magic/length/CRC failure, or metadata or a tensor that does not decode."""


class VersionMismatch(Exception):
    """Checkpoint written by an incompatible format version."""


def save_checkpoint(path, tensors: dict[str, np.ndarray], metadata: dict) -> None:
    meta = json.dumps(metadata, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<IQ", VERSION, len(meta)), meta, struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        # ascontiguousarray promotes 0-d arrays to 1-d, so keep the shape
        arr = np.ascontiguousarray(arr).reshape(np.shape(arr))
        name_b, dtype_b, data = name.encode("utf-8"), arr.dtype.str.encode("ascii"), arr.tobytes()
        chunks += [struct.pack("<H", len(name_b)), name_b, struct.pack("<H", len(dtype_b)), dtype_b]
        chunks += [struct.pack(f"<B{arr.ndim}QQ", arr.ndim, *arr.shape, len(data)), data]  # ndim, shape, size
    body = b"".join(chunks)
    with replacing(path, binary=True) as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptCheckpoint("truncated checkpoint")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 8:
        raise CorruptCheckpoint("file too short")
    body, crc_bytes = blob[:-4], blob[-4:]
    (crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CorruptCheckpoint("CRC mismatch")
    r = _Reader(body)
    if r.take(len(MAGIC)) != MAGIC:
        raise CorruptCheckpoint("bad magic")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise VersionMismatch(f"format version {version}, expected {VERSION}")
    (meta_len,) = r.unpack("<Q")
    # CRC-valid bytes can still fail to decode: UnicodeDecodeError and
    # JSONDecodeError are ValueErrors, and np.dtype raises TypeError
    try:
        metadata = json.loads(r.take(meta_len).decode("utf-8"))
        (n_tensors,) = r.unpack("<I")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = r.unpack("<H")
            name = r.take(name_len).decode("utf-8")
            (dtype_len,) = r.unpack("<H")
            dtype = np.dtype(r.take(dtype_len).decode("ascii"))
            (ndim,) = r.unpack("<B")
            shape = r.unpack(f"<{ndim}Q") if ndim else ()
            (data_len,) = r.unpack("<Q")
            tensors[name] = np.frombuffer(r.take(data_len), dtype=dtype).reshape(shape).copy()
    except (ValueError, TypeError, RecursionError) as exc:
        raise CorruptCheckpoint(f"undecodable metadata or tensor table: {exc}") from None
    if r.pos != len(body):
        raise CorruptCheckpoint("trailing bytes in checkpoint")
    return tensors, metadata
