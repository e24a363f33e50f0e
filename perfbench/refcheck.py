"""Reference outputs: digesting results and comparing them to the record.

A digest has two parts.  ``exact`` holds combinatorial and integer-metric
data (distance matrices of integer-weight spaces, ``dimK``, towers, colors,
flags, exit codes) and must match the reference exactly; large values are
kept as SHA-256 fingerprints.  ``approx`` holds measured constants and
float-valued matrices, which must agree within the repository's 1e-9
tolerance (relative above magnitude 1).  Only keys present in the reference
are checked, so a report that gains a field still matches.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Report fields that are measured constants (compared within TOL).
APPROX_KEYS = {
    "c_table",
    "measured_lipschitz",
    "cobound",
    "cobound_bound",
    "lambda_k_per_simplex",
    "height_lipschitz",
    "projection_lipschitz",
}
PER_SIMPLEX_APPROX = ("lambda_k", "closed_form_bound", "measured")
# Fields that carry wall-clock time and are never compared.
TIMING_KEYS = {"seconds", "timings"}
# Lists longer than this are kept as fingerprints in the reference.
INLINE_LIMIT = 64


def _plain(value):
    """JSON round trip: tuples become lists, numpy scalars become floats."""
    return json.loads(json.dumps(value, default=_json_default))


def _json_default(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value).__name__}")


def fingerprint(value) -> dict:
    blob = json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))
    return {"sha256": hashlib.sha256(blob.encode()).hexdigest(), "len": len(value)}


def matrix_fingerprint(matrix) -> dict:
    """Exact fingerprint of a float matrix (-0.0 folded into 0.0)."""
    m = np.ascontiguousarray(np.asarray(matrix, dtype="<f8") + 0.0)
    return {
        "sha256": hashlib.sha256(m.tobytes()).hexdigest(),
        "shape": list(m.shape),
        "sum": float(m.sum()),
    }


def inline_or_fingerprint(value):
    if isinstance(value, (list, tuple, dict)) and len(value) > INLINE_LIMIT:
        return fingerprint(value)
    return _plain(value)


def strip_timing(value):
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items() if k not in TIMING_KEYS}
    if isinstance(value, (list, tuple)):
        return [strip_timing(v) for v in value]
    return value


def split_report(prefix: str, doc: dict, digest: dict) -> None:
    """Add a JSON report to a digest: measured constants go to ``approx``,
    everything else to ``exact`` (large lists as fingerprints)."""
    doc = strip_timing(doc)
    for key, value in doc.items():
        name = f"{prefix}.{key}"
        if key in APPROX_KEYS:
            digest["approx"][name] = _plain(value)
        elif key == "per_simplex":
            rows = _plain(value)
            for field in PER_SIMPLEX_APPROX:
                digest["approx"][f"{name}.{field}"] = [row.get(field) for row in rows]
            rest = [{k: v for k, v in row.items() if k not in PER_SIMPLEX_APPROX} for row in rows]
            digest["exact"][name] = inline_or_fingerprint(rest)
        else:
            digest["exact"][name] = inline_or_fingerprint(value)


def new_digest() -> dict:
    return {"exact": {}, "approx": {}}


# ---------------------------------------------------------------------------
# comparison


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))
    return False


def _approx_mismatch(ref, got, path):
    if isinstance(ref, np.ndarray):
        got = np.asarray(got, dtype=float)
        if got.shape != ref.shape:
            return f"{path}: expected shape {ref.shape}, got {got.shape}"
        scale = np.maximum(1.0, np.maximum(np.abs(ref), np.abs(got)))
        off = np.abs(ref - got) > TOL * scale
        if off.any():
            where = tuple(int(i) for i in np.argwhere(off)[0])
            return f"{path}{list(where)}: expected {ref[where]!r}, got {got[where]!r}"
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: expected a list of {len(ref)}, got {_short(got)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            bad = _approx_mismatch(r, g, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if not _close(ref, got):
        return f"{path}: expected {ref!r}, got {_short(got)}"
    return None


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def compare(reference: dict, digest: dict) -> list[str]:
    """Mismatches between a recorded digest and a fresh one (empty when the
    result is correct)."""
    bad = []
    got_exact = _plain(digest["exact"])
    for key, ref in reference["exact"].items():
        if key not in got_exact:
            bad.append(f"{key}: missing")
        elif got_exact[key] != ref:
            bad.append(f"{key}: expected {_short(ref)}, got {_short(got_exact[key])}")
    got_approx = {k: v if isinstance(v, np.ndarray) else _plain(v)
                  for k, v in digest["approx"].items()}
    for key, ref in reference["approx"].items():
        if key not in got_approx:
            bad.append(f"{key}: missing")
            continue
        msg = _approx_mismatch(ref, got_approx[key], key)
        if msg:
            bad.append(msg)
    return bad


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    """The recorded digest; float arrays live in a ``.npz`` beside it."""
    with reference_path(workload).open(encoding="utf-8") as f:
        doc = json.load(f)
    arrays_path = reference_path(workload).with_suffix(".npz")
    if arrays_path.exists():
        with np.load(arrays_path) as arrays:
            for key, value in doc["approx"].items():
                if isinstance(value, dict) and "npz" in value:
                    doc["approx"][key] = arrays[value["npz"]]
    return doc


def save_reference(workload: str, digest: dict, meta: dict) -> None:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    approx, arrays = {}, {}
    for key, value in digest["approx"].items():
        if isinstance(value, np.ndarray):
            arrays[key] = value
            approx[key] = {"npz": key}
        else:
            approx[key] = _plain(value)
    doc = {"meta": meta, "exact": _plain(digest["exact"]), "approx": approx}
    with reference_path(workload).open("w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    if arrays:
        np.savez_compressed(reference_path(workload).with_suffix(".npz"), **arrays)
