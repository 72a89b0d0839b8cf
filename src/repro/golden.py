"""Golden wire-fixture tooling: ``repro golden --check/--write``.

``tests/golden/wire/`` pins the serialized gradient format
byte-for-byte: for every case in :data:`CASE_SPECS` the directory
holds the committed ``serialize_message`` output at payload version 1
(``<name>.bin``) and at payload version 2 with entropy coding enabled
(``<name>.v2.bin``), plus a manifest (format
:data:`GOLDEN_FORMAT`) recording sizes, SHA-256 digests, and the
digests of the decoded key/value arrays.

:func:`check_goldens` re-derives every cell of the
{payload version x kernel path} matrix from the committed case
parameters and fails closed on any drift: a missing file, a digest
mismatch, an encoder that no longer reproduces the committed bytes
under either kernel path, a fixture of either version that decodes to
other keys/values than the manifest records, or a decode that does not
re-serialize to the committed bytes (v1 → v1, v2 → v2, v1 → v2; not
v2 → v1, since v2 drops the bucket splits that v1 ships).
:func:`write_goldens` regenerates the fixture files and manifest
deliberately — the only sanctioned way to change them (bump the
payload version; never mutate v1 bytes).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import kernels
from .core.compressor import SketchMLCompressor
from .core.config import SketchMLConfig
from .core.serialization import deserialize_message, serialize_message

__all__ = [
    "GOLDEN_FORMAT",
    "CASE_SPECS",
    "default_wire_dir",
    "regenerate_gradient",
    "case_message",
    "case_payloads",
    "check_goldens",
    "write_goldens",
]

#: Manifest format tag; /2 added the ``v2`` (entropy-coded payload
#: version 2) fixture alongside the frozen v1 bytes of each case.
GOLDEN_FORMAT = "repro-golden-wire/2"

#: The canonical fixture matrix: a spread of codec configurations
#: (sketch/quantization variants, hash families, packed indexes,
#: one-sided gradients).  These parameters are the source of truth —
#: the manifest and fixture files are derived from them.
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
)

_KERNEL_MODES = ("scalar", "vectorised")

#: (decoded from, re-serialized at) pairs that must reproduce the
#: committed bytes.  v2 → v1 is not one: v2 drops the bucket splits.
_REENCODE_IDENTITIES = ((1, 1), (2, 2), (1, 2))


def default_wire_dir() -> str:
    """``tests/golden/wire`` under the current working directory."""
    return os.path.join("tests", "golden", "wire")


def regenerate_gradient(case: Dict) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministically rebuild the gradient a case was captured from."""
    rng = np.random.default_rng(case["seed"])
    keys = np.sort(
        rng.choice(case["dimension"], size=case["nnz"], replace=False)
    )
    values = rng.laplace(scale=0.01, size=case["nnz"])
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


def case_payloads(case: Dict) -> Dict[int, bytes]:
    """Both payload-version cells of one case.

    Version 1 is the frozen legacy encoding; version 2 is serialized
    with entropy coding *requested* (the encoder falls back to the
    plain block deterministically when the dense radix block does not
    win, so the bytes are still unique per case).
    """
    message = case_message(case)
    return {version: _serialize_at(message, version) for version in (1, 2)}


def _serialize_at(message, version: int) -> bytes:
    if version == 1:
        return serialize_message(message)
    return serialize_message(message, version=2, entropy=True)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _decoded_digests(case: Dict, data: bytes) -> Tuple[str, str]:
    decoded_keys, decoded_values = SketchMLCompressor(
        case_config(case)
    ).decompress(deserialize_message(data))
    keys_digest = _sha256(
        np.ascontiguousarray(decoded_keys, dtype="<i8").tobytes()
    )
    values_digest = _sha256(
        np.ascontiguousarray(decoded_values, dtype="<f8").tobytes()
    )
    return keys_digest, values_digest


def _fixture_path(wire_dir: str, case: Dict, version: int) -> str:
    suffix = ".bin" if version == 1 else ".v2.bin"
    return os.path.join(wire_dir, case["name"] + suffix)


def _forced(mode: str):
    return (
        kernels.scalar_kernels() if mode == "scalar"
        else kernels.vectorised_kernels()
    )


def write_goldens(wire_dir: Optional[str] = None) -> Dict:
    """Regenerate every fixture file and the manifest; returns the
    manifest dict.  Refuses to write if the two kernel paths disagree
    on any cell (that is a codec bug, not a fixture refresh)."""
    wire_dir = wire_dir or default_wire_dir()
    os.makedirs(wire_dir, exist_ok=True)
    cases = []
    for case in CASE_SPECS:
        per_mode = {}
        for mode in _KERNEL_MODES:
            with _forced(mode):
                per_mode[mode] = case_payloads(case)
        if per_mode["scalar"] != per_mode["vectorised"]:
            raise RuntimeError(
                f"kernel paths disagree on case {case['name']!r}; "
                "refusing to write goldens"
            )
        payloads = per_mode["scalar"]
        keys_digest, values_digest = _decoded_digests(case, payloads[1])
        entry = dict(case)
        entry["num_bytes"] = len(payloads[1])
        entry["sha256"] = _sha256(payloads[1])
        entry["v2"] = {
            "num_bytes": len(payloads[2]),
            "sha256": _sha256(payloads[2]),
        }
        entry["decoded_keys_sha256"] = keys_digest
        entry["decoded_values_sha256"] = values_digest
        cases.append(entry)
        for version in (1, 2):
            with open(_fixture_path(wire_dir, case, version), "wb") as f:
                f.write(payloads[version])
    manifest = {"format": GOLDEN_FORMAT, "cases": cases}
    with open(os.path.join(wire_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")
    return manifest


def check_goldens(wire_dir: Optional[str] = None) -> List[str]:
    """Verify every {payload version x kernel path} cell against the
    committed fixtures.  Returns a list of human-readable problems —
    empty means the wire format is exactly as pinned."""
    wire_dir = wire_dir or default_wire_dir()
    problems: List[str] = []
    manifest_path = os.path.join(wire_dir, "manifest.json")
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"cannot read {manifest_path}: {exc}"]
    if manifest.get("format") != GOLDEN_FORMAT:
        problems.append(
            f"manifest format {manifest.get('format')!r} != {GOLDEN_FORMAT!r}"
        )
    by_name = {c["name"]: c for c in manifest.get("cases", [])}
    for case in CASE_SPECS:
        entry = by_name.get(case["name"])
        if entry is None:
            problems.append(f"{case['name']}: missing from manifest")
            continue
        committed: Dict[int, bytes] = {}
        expected = {
            1: (entry.get("num_bytes"), entry.get("sha256")),
            2: (
                entry.get("v2", {}).get("num_bytes"),
                entry.get("v2", {}).get("sha256"),
            ),
        }
        for version in (1, 2):
            path = _fixture_path(wire_dir, case, version)
            try:
                with open(path, "rb") as f:
                    data = f.read()
            except OSError as exc:
                problems.append(f"{case['name']}: cannot read {path}: {exc}")
                continue
            committed[version] = data
            num_bytes, digest = expected[version]
            if len(data) != num_bytes or _sha256(data) != digest:
                problems.append(
                    f"{case['name']}: v{version} fixture bytes do not "
                    "match the manifest digest"
                )
        for mode in _KERNEL_MODES:
            with _forced(mode):
                payloads = case_payloads(case)
            for version in (1, 2):
                if version not in committed:
                    continue
                if payloads[version] != committed[version]:
                    problems.append(
                        f"{case['name']}: re-encoding at payload v{version} "
                        f"under the {mode} kernels drifted from the "
                        "committed bytes"
                    )
        # Both versions carry the same message: each decodes to the
        # recorded key/value digests, and re-serializing a decode is the
        # identity except v2 → v1 (v2 does not ship the bucket splits).
        for source, target in _REENCODE_IDENTITIES:
            if source not in committed or target not in committed:
                continue
            try:
                rederived = _serialize_at(
                    deserialize_message(committed[source]), target
                )
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                problems.append(
                    f"{case['name']}: v{source} fixture failed to "
                    f"re-serialize at v{target}: {exc!r}"
                )
                continue
            if rederived != committed[target]:
                problems.append(
                    f"{case['name']}: v{source} fixture re-serialized at "
                    f"v{target} differs from the committed v{target} bytes"
                )
        expected_digests = (
            entry.get("decoded_keys_sha256"),
            entry.get("decoded_values_sha256"),
        )
        for version, data in sorted(committed.items()):
            try:
                digests = _decoded_digests(case, data)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                problems.append(
                    f"{case['name']}: v{version} fixture failed to decode: "
                    f"{exc!r}"
                )
                continue
            if digests != expected_digests:
                problems.append(
                    f"{case['name']}: v{version} fixture decodes to drifted "
                    "key/value digests"
                )
    return problems
