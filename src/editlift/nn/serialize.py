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
    """(meta, params) from a blob `params_to_bytes` wrote. A file that is not
    one, or is cut short, raises ValueError naming the path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a parameter blob")
    if len(blob) < 8:
        raise ValueError(f"{path}: truncated header")
    (hlen,) = struct.unpack_from("<I", blob, 4)
    start = 8 + hlen
    if len(blob) < start:
        raise ValueError(f"{path}: truncated header")
    try:
        header = json.loads(blob[8:start].decode("utf-8"))
        meta, specs = header["meta"], header["arrays"]
        if not isinstance(meta, dict):
            raise TypeError("meta is not an object")
        layout = [(spec["name"], tuple(int(d) for d in spec["shape"])) for spec in specs]
        if any(d < 0 for _, shape in layout for d in shape):
            raise ValueError("negative array dimension")
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from None
    params = {}
    for name, shape in layout:
        stop = start + 8 * int(np.prod(shape))
        if len(blob) < stop:
            raise ValueError(f"{path}: data of array {name!r} is cut short")
        params[name] = np.frombuffer(blob[start:stop], dtype=np.float64).reshape(shape).copy()
        start = stop
    return meta, params
