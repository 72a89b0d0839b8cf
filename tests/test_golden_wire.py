"""Golden serialized messages: the wire format is pinned byte-for-byte.

``tests/golden/wire/`` holds committed ``serialize_message`` outputs
for a spread of configurations (sketch/quantization variants, hash
families, packed indexes, one-sided gradients): ``<name>.v2.bin`` is
the payload-v2 encoding with entropy coding requested, ``<name>.bin``
the frozen bytes of the retired payload v1.  Invariants:

* **encode** — re-compressing the deterministically regenerated
  gradient and serializing it reproduces the committed v2 bytes
  exactly, and the test-side reference writer
  (``tests/payload_v1_reference.py``) reproduces the committed v1
  bytes (every dtype on the wire is explicitly little-endian, so this
  holds on any host);
* **decode** — deserializing the committed v2 bytes and decompressing
  yields exactly the keys/values recorded at capture time, and
  re-serializing the decode reproduces the bytes; the v1 bytes are
  rejected as retired.

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

from repro.core.compressor import SketchMLCompressor
from repro.core.config import SketchMLConfig
from repro.core.serialization import (
    SerializationError,
    deserialize_message,
    serialize_message,
)
from repro.golden import (
    CASE_SPECS,
    GOLDEN_FORMAT,
    case_message,
    case_payload,
    check_goldens,
    regenerate_gradient,
    write_goldens,
)
from tests.kernel_reference import KERNEL_PATHS, kernel_path
from tests.payload_v1_reference import serialize_v1

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
        return serialize_v1(message)
    return serialize_message(message, entropy=True)


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


@pytest.mark.parametrize("version", (2,))
@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_decode_is_value_identical(case, version):
    assert decoded_digests(case, fixture_bytes(case, version)) == (
        case["decoded_keys_sha256"], case["decoded_values_sha256"]
    )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_v1_fixture_is_rejected_as_retired(case):
    with pytest.raises(SerializationError, match="payload v1 is retired"):
        deserialize_message(fixture_bytes(case, 1))


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_serialize_roundtrip_of_fixture(case):
    # deserialize → serialize is the identity on the committed bytes.
    v2 = fixture_bytes(case, 2)
    assert serialize_at(deserialize_message(v2), 2) == v2


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_v2_fixture_is_never_larger_than_v1(case):
    assert case["v2"]["num_bytes"] <= case["num_bytes"]


@pytest.mark.parametrize("mode", sorted(KERNEL_PATHS))
@pytest.mark.parametrize("case", CASE_SPECS, ids=lambda c: c["name"])
def test_goldens_pinned_under_both_kernel_paths(case, mode):
    """The committed bytes pin the format for the package's kernels
    *and* for their scalar twins in ``tests/kernel_reference.py``.

    Re-encode the regenerated gradient on one path; each must
    reproduce the committed v2 bytes, and the v1 reference writer the
    committed v1 bytes, so neither the kernels nor the reference can
    drift from the format.
    """
    with kernel_path(mode):
        v1 = serialize_v1(case_message(case))
        v2 = case_payload(case)
    assert v1 == fixture_bytes(case, 1)
    assert v2 == fixture_bytes(case, 2)


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
        os.remove(scratch / (CASES[1]["name"] + ".v2.bin"))
        problems = check_goldens(str(scratch))
        assert any("cannot read" in p for p in problems)

    def test_check_fails_closed_on_missing_manifest(self, tmp_path):
        problems = check_goldens(str(tmp_path))
        assert problems and "manifest" in problems[0]

    def test_write_reproduces_committed_fixtures(self, tmp_path):
        """Regeneration is deterministic: a fresh ``--write`` into an
        empty directory reproduces the committed v2 fixtures
        byte-for-byte and writes no v1 file, and a ``--write`` over the
        committed tree leaves it byte-identical, frozen v1 digests
        included."""
        scratch = tmp_path / "wire"
        manifest = write_goldens(str(scratch))
        assert manifest["format"] == GOLDEN_FORMAT
        assert check_goldens(str(scratch)) == []
        for case in CASES:
            fresh = (scratch / (case["name"] + ".v2.bin")).read_bytes()
            assert fresh == fixture_bytes(case, 2)
            assert not (scratch / (case["name"] + ".bin")).exists()
        committed = tmp_path / "committed"
        shutil.copytree(WIRE_DIR, committed)
        write_goldens(str(committed))
        for name in os.listdir(WIRE_DIR):
            with open(os.path.join(WIRE_DIR, name), "rb") as f:
                assert (committed / name).read_bytes() == f.read(), name
