"""Tests for the diff wire format."""

import numpy as np
import pytest

from repro.core.diff import (
    DIGEST_BYTES,
    FIRST_ENTRY_BYTES,
    METHODS,
    SHIFT_ENTRY_BYTES,
    _HEADER,
    CheckpointDiff,
)
from repro.errors import IntegrityError, SerializationError
from tests.conftest import v1_frame


def make_tree_diff(**overrides):
    kwargs = dict(
        method="tree",
        ckpt_id=3,
        data_len=4096,
        chunk_size=64,
        first_ids=np.array([1, 5], dtype=np.uint32),
        shift_ids=np.array([9], dtype=np.uint32),
        shift_ref_ids=np.array([4], dtype=np.uint32),
        shift_ref_ckpts=np.array([1], dtype=np.uint32),
        payload=b"x" * 100,
    )
    kwargs.update(overrides)
    return CheckpointDiff(**kwargs)


class TestConstruction:
    def test_methods_constant(self):
        assert METHODS == ("full", "basic", "list", "tree")

    def test_entry_sizes(self):
        assert FIRST_ENTRY_BYTES == 4
        assert SHIFT_ENTRY_BYTES == 12

    def test_unknown_method_rejected(self):
        with pytest.raises(Exception):
            make_tree_diff(method="magic")

    def test_shift_arrays_must_align(self):
        with pytest.raises(SerializationError):
            make_tree_diff(shift_ref_ids=np.array([4, 5], dtype=np.uint32))

    def test_basic_requires_bitmap(self):
        with pytest.raises(SerializationError):
            CheckpointDiff(
                method="basic", ckpt_id=0, data_len=64, chunk_size=8, payload=b""
            )

    def test_non_basic_rejects_bitmap(self):
        with pytest.raises(SerializationError):
            make_tree_diff(bitmap=np.zeros(2, dtype=np.uint8))

    def test_id_overflow_rejected(self):
        with pytest.raises(SerializationError):
            make_tree_diff(first_ids=np.array([2**33], dtype=np.int64))
        with pytest.raises(SerializationError, match="outside u32 range"):
            make_tree_diff(first_ids=np.array([2**33], dtype=np.uint64))

    def test_two_dimensional_u32_ids_rejected(self):
        with pytest.raises(SerializationError, match=r"must be 1-D, got shape \(1, 2\)"):
            make_tree_diff(first_ids=np.array([[1, 5]], dtype=np.uint32))

    def test_negative_ids_rejected(self):
        with pytest.raises(SerializationError, match="outside u32 range"):
            make_tree_diff(first_ids=np.array([1, -5], dtype=np.int64))

    def test_u32_ids_kept_without_a_copy(self):
        ids = np.array([1, 5], dtype=np.uint32)
        assert make_tree_diff(first_ids=ids).first_ids is ids
        converted = make_tree_diff(first_ids=np.array([1, 5], dtype=np.int64))
        assert converted.first_ids.dtype == np.uint32
        assert converted.first_ids.tolist() == [1, 5]


class TestSizeAccounting:
    def test_metadata_bytes(self):
        diff = make_tree_diff()
        assert diff.metadata_bytes == 2 * 4 + 1 * 12

    def test_basic_metadata_includes_bitmap(self):
        diff = CheckpointDiff(
            method="basic",
            ckpt_id=1,
            data_len=64,
            chunk_size=8,
            bitmap=np.zeros(1, dtype=np.uint8),
            payload=b"",
        )
        assert diff.metadata_bytes == 1

    def test_serialized_size_matches_to_bytes(self):
        diff = make_tree_diff()
        assert len(diff.to_bytes()) == diff.serialized_size

    def test_counts(self):
        diff = make_tree_diff()
        assert diff.num_first == 2
        assert diff.num_shift == 1
        assert diff.payload_bytes == 100


class TestRoundTrip:
    def test_tree_roundtrip(self):
        diff = make_tree_diff()
        back = CheckpointDiff.from_bytes(diff.to_bytes())
        assert back.method == "tree"
        assert back.ckpt_id == 3
        assert back.data_len == 4096
        assert back.chunk_size == 64
        assert back.first_ids.tolist() == [1, 5]
        assert back.shift_ids.tolist() == [9]
        assert back.shift_ref_ids.tolist() == [4]
        assert back.shift_ref_ckpts.tolist() == [1]
        assert back.payload == b"x" * 100

    def test_full_roundtrip(self):
        diff = CheckpointDiff(
            method="full", ckpt_id=0, data_len=10, chunk_size=5, payload=b"0123456789"
        )
        back = CheckpointDiff.from_bytes(diff.to_bytes())
        assert back.method == "full"
        assert back.payload == b"0123456789"

    def test_basic_roundtrip(self):
        diff = CheckpointDiff(
            method="basic",
            ckpt_id=2,
            data_len=64,
            chunk_size=8,
            bitmap=np.array([0b10100000], dtype=np.uint8),
            payload=b"y" * 16,
        )
        back = CheckpointDiff.from_bytes(diff.to_bytes())
        assert back.bitmap.tolist() == [0b10100000]
        assert back.payload == b"y" * 16

    def test_empty_metadata_roundtrip(self):
        diff = CheckpointDiff(
            method="list", ckpt_id=1, data_len=64, chunk_size=8, payload=b""
        )
        back = CheckpointDiff.from_bytes(diff.to_bytes())
        assert back.num_first == 0
        assert back.num_shift == 0


class TestParsing:
    def test_truncated_rejected(self):
        blob = make_tree_diff().to_bytes()
        with pytest.raises(SerializationError):
            CheckpointDiff.from_bytes(blob[:10])

    def test_bad_magic_rejected(self):
        blob = bytearray(make_tree_diff().to_bytes())
        blob[0] = ord("X")
        with pytest.raises(SerializationError):
            CheckpointDiff.from_bytes(bytes(blob))

    def test_length_mismatch_rejected(self):
        blob = make_tree_diff().to_bytes()
        with pytest.raises(SerializationError):
            CheckpointDiff.from_bytes(blob + b"extra")

    def test_bad_version_rejected(self):
        blob = bytearray(make_tree_diff().to_bytes())
        blob[4] = 99
        with pytest.raises(SerializationError):
            CheckpointDiff.from_bytes(bytes(blob))


class TestIntegrityV2:
    def test_v2_parse_sets_verified(self):
        back = CheckpointDiff.from_bytes(make_tree_diff().to_bytes())
        assert back.verified is True

    def test_locally_built_diff_is_unmarked(self):
        assert make_tree_diff().verified is None

    def test_header_bytes_include_digest(self):
        diff = make_tree_diff()
        assert diff.header_bytes == _HEADER.size + DIGEST_BYTES
        assert len(diff.to_bytes()) == diff.serialized_size

    def test_any_payload_byte_flip_detected(self):
        blob = bytearray(make_tree_diff().to_bytes())
        blob[-1] ^= 0x40  # last payload byte
        with pytest.raises(IntegrityError) as exc:
            CheckpointDiff.from_bytes(bytes(blob))
        assert exc.value.ckpt_id == 3

    def test_header_flip_detected(self):
        blob = bytearray(make_tree_diff().to_bytes())
        blob[8] ^= 0x01  # inside ckpt_id field, keeps lengths coherent
        with pytest.raises(IntegrityError):
            CheckpointDiff.from_bytes(bytes(blob))

    def test_digest_field_flip_detected(self):
        blob = bytearray(make_tree_diff().to_bytes())
        blob[_HEADER.size] ^= 0x01  # first byte of the stored digest
        with pytest.raises(IntegrityError):
            CheckpointDiff.from_bytes(bytes(blob))

    def test_verify_false_skips_digest_check(self):
        blob = bytearray(make_tree_diff().to_bytes())
        blob[-1] ^= 0x40
        back = CheckpointDiff.from_bytes(bytes(blob), verify=False)
        assert back.verified is None

    def test_content_digest_matches_frame(self):
        diff = make_tree_diff()
        blob = diff.to_bytes()
        stored = blob[_HEADER.size : _HEADER.size + DIGEST_BYTES]
        assert diff.content_digest() == stored

    def test_roundtrip_reencodes_identically(self):
        blob = make_tree_diff().to_bytes()
        assert CheckpointDiff.from_bytes(blob).to_bytes() == blob


class TestLegacyV1:
    def test_v1_frame_rejected_by_name(self):
        """The digestless v1 frame cannot detect payload damage, so it is
        refused outright rather than loaded unverified."""
        blob = v1_frame(make_tree_diff())
        for verify in (True, False):
            with pytest.raises(SerializationError, match="unsupported diff version 1"):
                CheckpointDiff.from_bytes(blob, verify=verify)

    def test_v1_frame_is_smaller_by_digest(self):
        # The rejected frame is well-formed v1 — refused for its version,
        # not for a length mismatch.
        diff = make_tree_diff()
        assert len(v1_frame(diff)) == len(diff.to_bytes()) - DIGEST_BYTES
