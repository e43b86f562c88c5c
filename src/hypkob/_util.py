"""Small shared helpers: deterministic JSON and configuration hashes."""

from __future__ import annotations

import hashlib
import json

import numpy as np

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(obj, path) -> None:
    """Write deterministic JSON: sorted keys, fixed separators, no timestamp."""
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    """Stable hex digest of a configuration mapping."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()
