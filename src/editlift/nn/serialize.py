"""Parameter blobs: a JSON header (layout + metadata) followed by the raw
float64 bytes of every array in header order. `params_to_bytes` builds a
blob in memory, so the caller chooses how to write it (atomically, say)."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ELNN"


def params_to_bytes(params: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """The blob `load_params` reads: magic, header length, JSON header, then
    each array's float64 bytes in `params` order."""
    names = list(params)
    header = {
        "meta": meta or {},
        "arrays": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return b"".join(
        [MAGIC, struct.pack("<I", len(blob)), blob]
        + [np.ascontiguousarray(params[n], dtype=np.float64).tobytes() for n in names]
    )


def load_params(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path}: not a parameter blob")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        params = {}
        for spec in header["arrays"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(count * 8), dtype=np.float64)
            params[spec["name"]] = data.reshape(shape).copy()
    return header["meta"], params
