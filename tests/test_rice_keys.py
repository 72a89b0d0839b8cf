"""Edge cases of the payload-v2 Rice key code against its reference.

The fuzz tier (``tests/test_wire_fuzz.py``) compares random key groups
with ``tests/rice_reference.py``; these pin the inputs where the
codec's shortcuts could part from the brute-force spec: block means at
and around every power of two (the parameter bracket), parameter 0 and
31, empty groups anywhere, and the key range's ends.
"""

import numpy as np
import pytest

from repro.core.rice import (
    KEY_CODE_DELTA,
    KEY_CODE_RICE,
    decode_key_parts,
    decode_rice_groups_flat,
    encode_key_groups_v2,
    encode_rice_groups_flat,
)
from tests import rice_reference


def _assert_matches_reference(groups):
    arrays = [np.asarray(g, dtype=np.int64) for g in groups]
    concat = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    counts = np.asarray([a.size for a in arrays], dtype=np.int64)
    blobs = encode_rice_groups_flat(concat, counts)
    assert blobs == [rice_reference.encode_group(g) for g in groups]
    keys, got_counts = decode_rice_groups_flat(blobs)
    assert np.array_equal(keys, concat) and np.array_equal(got_counts, counts)


def _equal_gaps(gap, n=64):
    """``n`` keys (fewer when they would pass 2**32) spaced ``gap`` apart."""
    n = min(n, (2**32 - 1) // (gap + 1) + 1)
    return (np.arange(n, dtype=np.int64) * (gap + 1)).tolist()


@pytest.mark.parametrize("j", range(32))
def test_parameter_at_every_power_of_two(j):
    gaps = sorted({max((1 << j) + d, 0) for d in (-1, 0, 1)}
                  | {max(3 * (1 << j) - 1, 0)})
    _assert_matches_reference([_equal_gaps(g) for g in gaps])


def test_one_huge_gap_among_tiny_ones():
    small = [0] * 63
    groups = []
    for huge in (1 << 20, (1 << 31) - 1, 1 << 31):
        gaps = small[:31] + [huge] + small[31:]
        groups.append((np.cumsum(np.asarray(gaps) + 1) - 1).tolist())
    _assert_matches_reference(groups)


@pytest.mark.parametrize(
    "groups",
    [
        [],
        [[]],
        [[], [0], [], [1, 2, 3], []],
        [[2**32 - 1], [0, 2**32 - 1]],
        [list(range(200))],  # consecutive keys: parameter 0
        [list(range(0, 64 * 1000, 1000)), list(range(5, 129))],
    ],
)
def test_group_shapes(groups):
    _assert_matches_reference(groups)


def test_key_code_follows_the_exact_sizes():
    dense = np.arange(0, 40_000, 7, dtype=np.int64)
    code, blobs = encode_key_groups_v2(dense, np.asarray([dense.size]))
    assert code == KEY_CODE_RICE
    tiny = np.asarray([3, 17, 40], dtype=np.int64)
    code, blobs = encode_key_groups_v2(tiny, np.asarray([3]))
    assert code == KEY_CODE_DELTA  # 8 bytes either way: Rice must win strictly
    ((keys, _),) = decode_key_parts([(code, blobs)])
    assert keys.tolist() == [3, 17, 40]


def test_one_pass_over_a_messages_parts_decodes_each_part():
    """A message's parts in both codes decode in one pass per code to
    what each part decodes to alone, in part order."""
    rng = np.random.default_rng(7)
    parts = []
    for counts in ([300, 0, 41], [3], [2_000], [64, 65]):
        groups = [np.sort(rng.choice(10**6, n, replace=False)) for n in counts]
        if counts == [3]:
            groups = [np.asarray([3, 17, 40])]  # stays delta-binary
        parts.append(encode_key_groups_v2(
            np.concatenate(groups), np.asarray(counts, dtype=np.int64)
        ))
    assert [code for code, _ in parts] == [
        KEY_CODE_RICE, KEY_CODE_DELTA, KEY_CODE_RICE, KEY_CODE_RICE
    ]
    together = decode_key_parts(parts)
    for part, (keys, counts) in zip(parts, together):
        ((alone_keys, alone_counts),) = decode_key_parts([part])
        assert np.array_equal(keys, alone_keys)
        assert np.array_equal(counts, alone_counts)


@pytest.mark.parametrize(
    "keys, counts, match",
    [
        ([5, 5], [2], "strictly ascending"),
        ([-1], [1], r"\[0, 2\*\*32 - 1\]"),
        ([2**32], [1], r"\[0, 2\*\*32 - 1\]"),
        ([1, 2], [3], "sum to"),
    ],
)
def test_encoder_rejects_keys_it_cannot_code(keys, counts, match):
    with pytest.raises(ValueError, match=match):
        encode_key_groups_v2(np.asarray(keys), np.asarray(counts))
