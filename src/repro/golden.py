"""Golden wire-fixture tooling: ``repro golden --check/--write``.

``tests/golden/wire/`` pins the serialized gradient format
byte-for-byte: for every case in :data:`CASE_SPECS` the directory
holds the committed ``serialize_message`` output with entropy coding
requested (``<name>.v2.bin``), plus a manifest (format
:data:`GOLDEN_FORMAT`) recording sizes, SHA-256 digests, and the
digests of the decoded key/value arrays.

:func:`check_goldens` re-derives every case from the committed case
parameters and fails closed on any drift: a missing file, a digest
mismatch, an encoder that no longer reproduces the committed bytes, a
fixture that decodes to other keys/values than the manifest records,
or a decode that does not re-serialize to the committed bytes.
:func:`write_goldens` regenerates the fixture files and manifest
deliberately — the only sanctioned way to change them.

The retired payload-v1 fixtures (``<name>.bin``) and their manifest
digests stay as frozen data: these tools neither read nor rewrite the
files, and ``--write`` carries their digests over unchanged.  The
test-side reference writer ``tests/payload_v1_reference.py`` is what
still reproduces them.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core.compressor import SketchMLCompressor
from .core.config import SketchMLConfig
from .core.serialization import deserialize_message, serialize_message

__all__ = [
    "GOLDEN_FORMAT",
    "CASE_SPECS",
    "default_wire_dir",
    "regenerate_gradient",
    "case_message",
    "case_payload",
    "check_goldens",
    "write_goldens",
]

#: Manifest format tag; /2 added the ``v2`` (entropy-coded payload
#: version 2) fixture alongside the frozen payload-v1 bytes of each case.
GOLDEN_FORMAT = "repro-golden-wire/2"

#: The canonical fixture matrix: a spread of codec configurations
#: (sketch/quantization variants, hash families, packed indexes,
#: one-sided gradients, bucket means at both v2 widths).  ``scale`` is
#: the gradient's Laplace scale (default 0.01).  These parameters are
#: the source of truth — the manifest and fixture files are derived
#: from them.
CASE_SPECS: Tuple[Dict, ...] = (
    {"name": "full", "overrides": {}, "nnz": 5000,
     "dimension": 200000, "seed": 11, "sign_mode": "mixed"},
    {"name": "full_tab", "overrides": {"hash_family": "tabulation"},
     "nnz": 5000, "dimension": 200000, "seed": 12, "sign_mode": "mixed"},
    {"name": "full_decay", "overrides": {"compensate_decay": True},
     "nnz": 3000, "dimension": 120000, "seed": 13, "sign_mode": "mixed"},
    {"name": "full_g4", "overrides": {"num_groups": 4, "num_buckets": 64},
     "nnz": 4000, "dimension": 160000, "seed": 14, "sign_mode": "mixed"},
    {"name": "quan", "overrides": {"enable_minmax": False},
     "nnz": 2500, "dimension": 100000, "seed": 15, "sign_mode": "mixed"},
    {"name": "quan_packed",
     "overrides": {"enable_minmax": False, "pack_index_bits": True},
     "nnz": 2500, "dimension": 100000, "seed": 16, "sign_mode": "mixed"},
    {"name": "keys_only",
     "overrides": {"enable_quantization": False, "enable_minmax": False},
     "nnz": 2000, "dimension": 80000, "seed": 17, "sign_mode": "mixed"},
    {"name": "tiny_raw", "overrides": {}, "nnz": 5,
     "dimension": 1000, "seed": 18, "sign_mode": "mixed"},
    {"name": "one_sided_pos", "overrides": {}, "nnz": 1500,
     "dimension": 60000, "seed": 19, "sign_mode": "pos"},
    # Magnitudes ~1e-302 round to zero in float32, so both bucket
    # tables keep f8 means at v2; every other case ships f4 means.
    {"name": "f8_means", "overrides": {}, "nnz": 2000,
     "dimension": 80000, "seed": 20, "sign_mode": "mixed", "scale": 1e-300},
)

def default_wire_dir() -> str:
    """``tests/golden/wire`` under the current working directory."""
    return os.path.join("tests", "golden", "wire")


def regenerate_gradient(case: Dict) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministically rebuild the gradient a case was captured from."""
    rng = np.random.default_rng(case["seed"])
    keys = np.sort(
        rng.choice(case["dimension"], size=case["nnz"], replace=False)
    )
    values = rng.laplace(scale=case.get("scale", 0.01), size=case["nnz"])
    values[values == 0.0] = 1e-4
    if case["sign_mode"] == "pos":
        values = np.abs(values)
    return keys, values


def case_config(case: Dict) -> SketchMLConfig:
    return SketchMLConfig.full(seed=case["seed"], **case["overrides"])


def case_message(case: Dict):
    """Compress the regenerated gradient under the case's config."""
    keys, values = regenerate_gradient(case)
    return SketchMLCompressor(case_config(case)).compress(
        keys, values, case["dimension"]
    )


def case_payload(case: Dict) -> bytes:
    """A case's wire bytes, serialized with entropy coding *requested*
    (the encoder falls back to the plain block deterministically when
    the dense radix block does not win, so the bytes are still unique
    per case)."""
    return serialize_message(case_message(case), entropy=True)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _decoded_digests(case: Dict, message) -> Tuple[str, str]:
    decoded_keys, decoded_values = SketchMLCompressor(
        case_config(case)
    ).decompress(message)
    keys_digest = _sha256(
        np.ascontiguousarray(decoded_keys, dtype="<i8").tobytes()
    )
    values_digest = _sha256(
        np.ascontiguousarray(decoded_values, dtype="<f8").tobytes()
    )
    return keys_digest, values_digest


def _fixture_path(wire_dir: str, case: Dict) -> str:
    return os.path.join(wire_dir, case["name"] + ".v2.bin")


def _load_manifest(wire_dir: str) -> Dict:
    with open(os.path.join(wire_dir, "manifest.json")) as f:
        return json.load(f)


def write_goldens(wire_dir: Optional[str] = None) -> Dict:
    """Regenerate every fixture file and the manifest; returns the
    manifest dict.  A frozen payload-v1 digest already in the manifest
    is carried over as it is."""
    wire_dir = wire_dir or default_wire_dir()
    os.makedirs(wire_dir, exist_ok=True)
    try:
        frozen = {c["name"]: c for c in _load_manifest(wire_dir)["cases"]}
    except (OSError, ValueError, KeyError):
        frozen = {}
    cases = []
    for case in CASE_SPECS:
        payload = case_payload(case)
        entry = dict(case)
        for key in ("num_bytes", "sha256"):
            if key in frozen.get(case["name"], {}):
                entry[key] = frozen[case["name"]][key]
        entry["v2"] = {"num_bytes": len(payload), "sha256": _sha256(payload)}
        (entry["decoded_keys_sha256"],
         entry["decoded_values_sha256"]) = _decoded_digests(
            case, deserialize_message(payload)
        )
        cases.append(entry)
        with open(_fixture_path(wire_dir, case), "wb") as f:
            f.write(payload)
    manifest = {"format": GOLDEN_FORMAT, "cases": cases}
    with open(os.path.join(wire_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")
    return manifest


def check_goldens(wire_dir: Optional[str] = None) -> List[str]:
    """Verify every case against the committed fixtures.  Returns a
    list of human-readable problems — empty means the wire format is
    exactly as pinned."""
    wire_dir = wire_dir or default_wire_dir()
    try:
        manifest = _load_manifest(wire_dir)
    except (OSError, ValueError) as exc:
        return [f"cannot read {wire_dir}/manifest.json: {exc}"]
    problems: List[str] = []
    if manifest.get("format") != GOLDEN_FORMAT:
        problems.append(
            f"manifest format {manifest.get('format')!r} != {GOLDEN_FORMAT!r}"
        )
    by_name = {c["name"]: c for c in manifest.get("cases", [])}
    for case in CASE_SPECS:
        name = case["name"]
        entry = by_name.get(name)
        if entry is None:
            problems.append(f"{name}: missing from manifest")
            continue
        path = _fixture_path(wire_dir, case)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as exc:
            problems.append(f"{name}: cannot read {path}: {exc}")
            continue
        pinned = entry.get("v2", {})
        if (len(data), _sha256(data)) != (
            pinned.get("num_bytes"), pinned.get("sha256")
        ):
            problems.append(
                f"{name}: fixture bytes do not match the manifest digest"
            )
        if case_payload(case) != data:
            problems.append(
                f"{name}: re-encoding drifted from the committed bytes"
            )
        try:
            decoded = deserialize_message(data)
            rederived = serialize_message(decoded, entropy=True)
            digests = _decoded_digests(case, decoded)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            problems.append(f"{name}: fixture failed to decode: {exc!r}")
            continue
        if rederived != data:
            problems.append(
                f"{name}: fixture re-serialized differs from the "
                "committed bytes"
            )
        if digests != (
            entry.get("decoded_keys_sha256"),
            entry.get("decoded_values_sha256"),
        ):
            problems.append(
                f"{name}: fixture decodes to drifted key/value digests"
            )
    return problems
