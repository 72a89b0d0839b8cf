"""Golden serialized messages: the wire format is pinned byte-for-byte.

``tests/golden/wire/`` holds committed ``serialize_message`` outputs
for a spread of configurations (sketch/quantization variants, hash
families, packed indexes, one-sided gradients), at *both* payload
versions: ``<name>.bin`` is the frozen v1 encoding, ``<name>.v2.bin``
the v2 encoding with entropy coding requested.  Invariants:

* **encode** — re-compressing the deterministically regenerated
  gradient and serializing it at each payload version reproduces the
  committed bytes exactly (every dtype on the wire is explicitly
  little-endian, so this holds on any host);
* **decode** — deserializing the committed bytes of either version
  and decompressing yields exactly the keys/values recorded at
  capture time;
* **cross-version** — the v2 bytes decode to the *same keys/values* as
  the v1 bytes, and re-serializing a decode reproduces the committed
  bytes v1 → v1, v2 → v2 and v1 → v2.  Not v2 → v1: v2 drops the
  bucket splits that v1 ships (no decoder reads them).

A diff here means the wire format changed: bump the payload version
and regenerate the fixtures deliberately with ``repro golden
--write``, never silently.  The fixture logic itself lives in
:mod:`repro.golden` (exercised by ``repro golden --check`` in CI).
"""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from repro import kernels
from repro.core.compressor import SketchMLCompressor
from repro.core.config import SketchMLConfig
from repro.core.serialization import deserialize_message, serialize_message
from repro.golden import (
    CASE_SPECS,
    GOLDEN_FORMAT,
    case_payloads,
    check_goldens,
    regenerate_gradient,
    write_goldens,
)

WIRE_DIR = os.path.join(os.path.dirname(__file__), "golden", "wire")

with open(os.path.join(WIRE_DIR, "manifest.json")) as _f:
    _MANIFEST = json.load(_f)

CASES = _MANIFEST["cases"]
VERSIONS = (1, 2)


def fixture_bytes(case, version=1):
    suffix = ".bin" if version == 1 else ".v2.bin"
    with open(os.path.join(WIRE_DIR, case["name"] + suffix), "rb") as f:
        return f.read()


def serialize_at(message, version):
    if version == 1:
        return serialize_message(message)
    return serialize_message(message, version=2, entropy=True)


def test_manifest_format_and_coverage():
    assert _MANIFEST["format"] == GOLDEN_FORMAT
    names = [c["name"] for c in CASES]
    assert len(names) == len(set(names))
    assert len(names) >= 9
    # The committed matrix covers exactly the canonical case specs.
    assert sorted(names) == sorted(s["name"] for s in CASE_SPECS)


@pytest.mark.parametrize("version", VERSIONS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_fixture_file_matches_manifest_digest(case, version):
    data = fixture_bytes(case, version)
    entry = case if version == 1 else case["v2"]
    assert len(data) == entry["num_bytes"]
    assert hashlib.sha256(data).hexdigest() == entry["sha256"]


@pytest.mark.parametrize("version", VERSIONS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_encode_is_byte_identical(case, version):
    keys, values = regenerate_gradient(case)
    compressor = SketchMLCompressor(
        SketchMLConfig.full(seed=case["seed"], **case["overrides"])
    )
    message = compressor.compress(keys, values, case["dimension"])
    assert serialize_at(message, version) == fixture_bytes(case, version)


def decoded_digests(case, data):
    """SHA-256 of the keys and values ``data`` decompresses to."""
    compressor = SketchMLCompressor(
        SketchMLConfig.full(seed=case["seed"], **case["overrides"])
    )
    decoded_keys, decoded_values = compressor.decompress(
        deserialize_message(data)
    )
    keys_digest = hashlib.sha256(
        np.ascontiguousarray(decoded_keys, dtype="<i8").tobytes()  # repro: noqa[wire-format] — digesting decoded arrays for golden comparison, not emitting wire bytes
    ).hexdigest()
    values_digest = hashlib.sha256(
        np.ascontiguousarray(decoded_values, dtype="<f8").tobytes()  # repro: noqa[wire-format] — digesting decoded arrays for golden comparison, not emitting wire bytes
    ).hexdigest()
    return keys_digest, values_digest


@pytest.mark.parametrize("version", VERSIONS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_decode_is_value_identical(case, version):
    assert decoded_digests(case, fixture_bytes(case, version)) == (
        case["decoded_keys_sha256"], case["decoded_values_sha256"]
    )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_serialize_roundtrip_of_fixture(case):
    # deserialize → serialize is the identity on committed bytes at each
    # version, and a v1 decode re-serializes to the v2 fixture.  A v2
    # decode has no bucket splits, so instead of v2 → v1 bytes the v2
    # fixture must decode to the digests recorded from the v1 bytes.
    v1 = fixture_bytes(case, 1)
    v2 = fixture_bytes(case, 2)
    assert serialize_at(deserialize_message(v1), 1) == v1
    assert serialize_at(deserialize_message(v2), 2) == v2
    assert decoded_digests(case, v2) == decoded_digests(case, v1) == (
        case["decoded_keys_sha256"], case["decoded_values_sha256"]
    )
    assert serialize_at(deserialize_message(v1), 2) == v2


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_v2_fixture_is_never_larger_than_v1(case):
    assert case["v2"]["num_bytes"] <= case["num_bytes"]


@pytest.mark.parametrize("mode", ["scalar", "vectorised"])
@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_goldens_pinned_under_both_kernel_paths(case, mode):
    """The committed bytes pin the format for *both* codec paths.

    Re-encode the regenerated gradient with the kernel switch forced
    to one side; scalar and vectorised must each reproduce the
    committed bytes of both payload versions exactly, so neither path
    can drift away from the wire format on its own.
    """
    forced = (
        kernels.scalar_kernels()
        if mode == "scalar"
        else kernels.vectorised_kernels()
    )
    with forced:
        payloads = case_payloads(case)
    assert payloads[1] == fixture_bytes(case, 1)
    assert payloads[2] == fixture_bytes(case, 2)


class TestGoldenTool:
    def test_check_passes_on_committed_fixtures(self):
        assert check_goldens(WIRE_DIR) == []

    def test_check_fails_closed_on_tampered_fixture(self, tmp_path):
        scratch = tmp_path / "wire"
        shutil.copytree(WIRE_DIR, scratch)
        target = scratch / (CASES[0]["name"] + ".v2.bin")
        data = bytearray(target.read_bytes())
        data[-1] ^= 0xFF
        target.write_bytes(bytes(data))
        problems = check_goldens(str(scratch))
        assert problems
        assert any(CASES[0]["name"] in p for p in problems)

    def test_check_fails_closed_on_missing_file(self, tmp_path):
        scratch = tmp_path / "wire"
        shutil.copytree(WIRE_DIR, scratch)
        os.remove(scratch / (CASES[1]["name"] + ".bin"))
        problems = check_goldens(str(scratch))
        assert any("cannot read" in p for p in problems)

    def test_check_fails_closed_on_missing_manifest(self, tmp_path):
        problems = check_goldens(str(tmp_path))
        assert problems and "manifest" in problems[0]

    def test_write_reproduces_committed_fixtures(self, tmp_path):
        """Regeneration is deterministic: a fresh ``--write`` into an
        empty directory reproduces the committed tree byte-for-byte."""
        scratch = tmp_path / "wire"
        manifest = write_goldens(str(scratch))
        assert manifest["format"] == GOLDEN_FORMAT
        assert check_goldens(str(scratch)) == []
        for case in CASES:
            for version in VERSIONS:
                suffix = ".bin" if version == 1 else ".v2.bin"
                fresh = (scratch / (case["name"] + suffix)).read_bytes()
                assert fresh == fixture_bytes(case, version)
