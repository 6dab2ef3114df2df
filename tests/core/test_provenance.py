"""Provenance-indexed restore: equivalence, persistence, integrity.

The invariant everything here defends: for any valid diff chain, the
indexed restore path produces byte-for-byte the same state as chain
replay — while touching only the checkpoints the target state actually
references.
"""

import hashlib
import json
import struct

import numpy as np
import pytest

from repro.core import (
    ENGINES,
    ProvenanceBuilder,
    ProvenanceTable,
    Restorer,
    load_provenance,
    load_record,
    record_manifest,
    restore_indexed,
    restore_record_indexed,
    save_record,
    verify_record,
)
from repro.core.dedup_full import FullCheckpoint
from repro.core.provenance import (
    _GROUP_HEADER,
    _TABLE_HEADER,
    _TABLE_MAGIC,
    _pack_planes,
    decode_v3_group,
    encode_v3_group,
    encode_v3_prologue,
    scan_v3,
)
from repro.errors import IntegrityError, ReproError, RestoreError, StorageError

N = 64 * 80
CS = 64


def _chain(method, rng, steps=6, n=N):
    """A chain with overwrites, shifted content, and zero regions."""
    engine = ENGINES[method](n, CS)
    buf = np.zeros(n, dtype=np.uint8)
    buf[: n // 2] = rng.integers(0, 256, n // 2, dtype=np.uint8)
    diffs = [engine.checkpoint(buf)]
    states = [buf.copy()]
    for k in range(1, steps):
        buf = buf.copy()
        off = int(rng.integers(0, n - 700))
        buf[off : off + 640] = rng.integers(0, 256, 640, dtype=np.uint8)
        if k % 2 == 0:  # duplicate an aligned run → shifted references
            buf[CS * 4 : CS * 8] = buf[CS * 20 : CS * 24]
        diffs.append(engine.checkpoint(buf))
        states.append(buf.copy())
    return diffs, states


class TestEquivalence:
    @pytest.mark.parametrize("method", ["full", "basic", "list", "tree"])
    def test_indexed_matches_replay_every_checkpoint(self, method, rng):
        diffs, states = _chain(method, rng)
        replay = Restorer().restore_all(diffs)
        for k in range(len(diffs)):
            fast, _ = restore_indexed(diffs, upto=k)
            assert np.array_equal(fast, replay[k])
            assert np.array_equal(fast, states[k])

    @pytest.mark.parametrize("method", ["basic", "list", "tree"])
    def test_tail_chunk_handled(self, method, rng):
        diffs, states = _chain(method, rng, n=N + 17)
        fast, _ = restore_indexed(diffs)
        assert np.array_equal(fast, states[-1])

    def test_external_builder_matches_on_the_fly(self, rng):
        from repro.core import materialize_index, resolve_source

        diffs, states = _chain("tree", rng)
        builder = ProvenanceBuilder()
        builder.extend(diffs)
        for k in (1, len(diffs) - 1):
            index, payload_of, _ = resolve_source(diffs, k)
            external = builder.index_for(k)
            assert np.array_equal(external.src_ckpt, index.src_ckpt)
            assert np.array_equal(external.src_off, index.src_off)
            assert np.array_equal(materialize_index(external, payload_of), states[k])

    def test_codec_payloads(self, rng):
        from repro.compress import get_codec

        codec = get_codec("deflate")
        engine = ENGINES["tree"](N, CS, payload_codec=codec)
        buf = rng.integers(0, 4, N, dtype=np.uint8)  # compressible
        diffs = [engine.checkpoint(buf)]
        buf = buf.copy()
        buf[:512] = rng.integers(0, 4, 512, dtype=np.uint8)
        diffs.append(engine.checkpoint(buf))
        out, _ = restore_indexed(diffs, payload_codec=codec)
        assert np.array_equal(out, buf)

    def test_scrub_catches_corrupt_chain(self, rng):
        diffs, _ = _chain("tree", rng)
        diffs[2].payload = diffs[2].payload[:-4]
        with pytest.raises(IntegrityError):
            restore_indexed(diffs, scrub=True)


class TestBuilderValidation:
    def test_out_of_order_chain(self, rng):
        diffs, _ = _chain("tree", rng)
        builder = ProvenanceBuilder()
        with pytest.raises(RestoreError, match="out of order"):
            builder.append(diffs[1])

    def test_empty_chain(self):
        with pytest.raises(RestoreError, match="empty"):
            restore_indexed([])

    def test_upto_out_of_range(self, rng):
        diffs, _ = _chain("full", rng, steps=2)
        with pytest.raises(RestoreError, match="outside chain"):
            restore_indexed(diffs, upto=5)

    def test_forward_reference_rejected(self, rng):
        diffs, _ = _chain("tree", rng)
        shifted = next(d for d in diffs if d.num_shift)
        shifted.shift_ref_ckpts = np.full_like(shifted.shift_ref_ckpts, 7)
        builder = ProvenanceBuilder()
        with pytest.raises(RestoreError, match="not reconstructed yet"):
            builder.extend(diffs)


def _v3_blob(table):
    """The RPIX v3 file RecordWriter writes: prologue + one group per row."""
    groups = [
        encode_v3_group(table.row(k))[0] for k in range(table.num_checkpoints)
    ]
    prologue = encode_v3_prologue(
        table.num_checkpoints, table.num_chunks, table.data_len, table.chunk_size
    )
    return prologue + b"".join(groups)


def _decode(blob):
    """Every row of a bare v3 blob, one self-contained group at a time."""
    header, groups = scan_v3(blob)
    table = ProvenanceTable.from_rows(
        [decode_v3_group(blob, g, header) for g in groups]
    )
    return header, (table.src_ckpt, table.src_off)


class TestTablePersistence:
    def test_round_trip(self, rng):
        diffs, _ = _chain("tree", rng)
        table = ProvenanceTable.from_diffs(diffs)
        header, (src_ckpt, src_off) = _decode(_v3_blob(table))
        assert np.array_equal(src_ckpt, table.src_ckpt)
        assert np.array_equal(src_off, table.src_off)
        assert header["data_len"] == N and header["chunk_size"] == CS

    def test_bit_flip_detected(self, rng):
        diffs, _ = _chain("list", rng)
        blob = bytearray(_v3_blob(ProvenanceTable.from_diffs(diffs)))
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(IntegrityError, match="digest mismatch"):
            _decode(bytes(blob))

    def test_truncation_detected(self, rng):
        diffs, _ = _chain("basic", rng)
        blob = _v3_blob(ProvenanceTable.from_diffs(diffs))
        with pytest.raises(IntegrityError, match="overruns|truncated"):
            _decode(blob[:-8])

    def test_trailing_bytes_detected(self, rng):
        diffs, _ = _chain("basic", rng)
        blob = _v3_blob(ProvenanceTable.from_diffs(diffs))
        with pytest.raises(IntegrityError, match="trailing bytes"):
            scan_v3(blob + b"\0" * 5)
        # With the manifest's authoritative row count the walk stops at
        # that many rows: an orphan tail from a crashed append is tolerated.
        _header, groups = scan_v3(blob + b"\0" * 5, max_rows=len(diffs))
        assert len(groups) == len(diffs)

    def test_save_record_persists_index(self, rng, tmp_path):
        diffs, _ = _chain("tree", rng)
        save_record(diffs, tmp_path)
        manifest = record_manifest(tmp_path)
        assert "provenance" in manifest
        table = load_provenance(tmp_path)
        assert table is not None
        assert table.num_checkpoints == len(diffs)

    def test_unindexable_chain_still_saves(self, rng, tmp_path):
        # A chain missing its opening full checkpoint cannot be indexed
        # from position 0, but the record must still land on disk.
        diffs, _ = _chain("tree", rng)
        shifted = next(d for d in diffs if d.num_shift)
        shifted.ckpt_id = 0  # hand-built: claims position 0
        shifted.shift_ref_ckpts = np.full_like(shifted.shift_ref_ckpts, 3)
        broken = [shifted]
        with pytest.raises(ReproError):
            ProvenanceTable.from_diffs(broken)
        save_record(broken, tmp_path)
        assert load_provenance(tmp_path) is None
        assert "provenance" not in record_manifest(tmp_path)


def _redigest_last_group(blob):
    """Recompute the last group's stored digest over its (damaged) body,
    so only the plane decoder stands between the damage and the caller."""
    out = bytearray(blob)
    _header, groups = scan_v3(blob)
    g = groups[-1]
    digest = hashlib.sha256(
        struct.pack("<II", g.ckpt_id, 1)
        + blob[g.body_off : g.body_off + g.body_len]
    ).digest()
    header_off = g.body_off - _GROUP_HEADER.size
    out[header_off : g.body_off] = _GROUP_HEADER.pack(
        g.body_len, g.ckpt_id, 1, digest
    )
    return bytes(out)


class TestRpixV2:
    """The delta+bitpacked plane encoding inside every row-group, and the
    rejection of the pre-row-group file versions."""

    def test_v2_much_smaller_than_raw(self, rng):
        diffs, _ = _chain("tree", rng)
        table = ProvenanceTable.from_diffs(diffs)
        blob = _v3_blob(table)
        assert len(blob) < table.raw_index_bytes / 4

    @pytest.mark.parametrize("version", [1, 2])
    def test_v1_v2_blobs_rejected_by_name(self, version, rng, tmp_path):
        """RPIX v1 (raw arrays) and v2 (whole-table planes) are not read:
        a blob claiming either version is refused, whatever follows it."""
        diffs, _ = _chain("list", rng)
        table = ProvenanceTable.from_diffs(diffs)
        header = _TABLE_HEADER.pack(
            _TABLE_MAGIC,
            version,
            0,
            table.num_checkpoints,
            table.num_chunks,
            table.data_len,
            table.chunk_size,
        )
        body = (
            np.ascontiguousarray(table.src_ckpt, dtype="<i4").tobytes()
            + np.ascontiguousarray(table.src_off, dtype="<i8").tobytes()
        )
        blob = header + hashlib.sha256(header + body).digest() + body
        with pytest.raises(IntegrityError, match=f"version {version}"):
            scan_v3(blob)

        # The same blob behind a record manifest: load_provenance raises,
        # verify_record reports (never raises), under either entry style.
        save_record(diffs, tmp_path)
        (tmp_path / "provenance.rpix").write_bytes(blob)
        with pytest.raises(IntegrityError, match=f"version {version}"):
            load_provenance(tmp_path)
        assert verify_record(tmp_path).provenance_ok is False
        manifest_path = tmp_path / "record.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["provenance"] = {
            "file": "provenance.rpix",
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="unsupported provenance entry"):
            load_provenance(tmp_path)
        report = verify_record(tmp_path)
        assert report.provenance_ok is False and not report.ok
        with pytest.raises(StorageError):
            restore_record_indexed(tmp_path)

    def test_multi_row_group_rejected_by_name(self, rng, tmp_path):
        """One checkpoint = one row = one group: a well-formed group whose
        header says ``rows=2`` (nothing ever wrote one) is not read."""
        diffs, _ = _chain("tree", rng, steps=2)
        table = ProvenanceTable.from_diffs(diffs)
        body = _pack_planes(table.src_ckpt, table.src_off)
        digest = hashlib.sha256(struct.pack("<II", 0, 2) + body).digest()
        blob = (
            encode_v3_prologue(2, table.num_chunks, table.data_len, CS)
            + _GROUP_HEADER.pack(len(body), 0, 2, digest)
            + body
        )
        with pytest.raises(IntegrityError, match="row-group of 2 rows"):
            scan_v3(blob)

        save_record(diffs, tmp_path)
        (tmp_path / "provenance.rpix").write_bytes(blob)
        manifest_path = tmp_path / "record.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["provenance"]["chain_sha256"] = hashlib.sha256(digest).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        for ckpt in (None, 0, 1):
            with pytest.raises(IntegrityError, match="row-group of 2 rows"):
                load_provenance(tmp_path, ckpt=ckpt)
        report = verify_record(tmp_path)
        assert report.provenance_ok is False and not report.ok

    def test_unknown_version_rejected(self, rng):
        diffs, _ = _chain("full", rng, steps=2)
        blob = bytearray(_v3_blob(ProvenanceTable.from_diffs(diffs)))
        blob[4:6] = (99).to_bytes(2, "little")  # version field
        with pytest.raises(IntegrityError, match="version"):
            scan_v3(bytes(blob))

    def test_damaged_plane_detected_even_unverified(self, rng):
        diffs, _ = _chain("tree", rng)
        blob = bytearray(_v3_blob(ProvenanceTable.from_diffs(diffs)))
        blob[-1] ^= 0xFF  # inside the last compressed plane
        # With the group digest recomputed over the damage, the plane
        # decoder itself must catch it.
        with pytest.raises(IntegrityError, match="is damaged"):
            _decode(_redigest_last_group(bytes(blob)))

    def test_truncated_plane_detected(self, rng):
        diffs, _ = _chain("tree", rng)
        blob = _v3_blob(ProvenanceTable.from_diffs(diffs))
        _header, groups = scan_v3(blob)
        g = groups[-1]
        # Shorten the last group's body by 6 bytes with coherent framing
        # and digest: the last plane's length prefix now overruns.
        cut = bytearray(blob[:-6])
        cut[g.body_off - _GROUP_HEADER.size : g.body_off] = _GROUP_HEADER.pack(
            g.body_len - 6, g.ckpt_id, 1, g.digest
        )
        with pytest.raises(IntegrityError, match="is damaged"):
            _decode(_redigest_last_group(bytes(cut)))

    def test_verify_record_reports_compression_ratio(self, rng, tmp_path):
        diffs, _ = _chain("tree", rng)
        save_record(diffs, tmp_path)
        report = verify_record(tmp_path)
        assert report.index_bytes > 0
        assert report.index_raw_bytes == len(diffs) * (N // CS) * 12
        assert report.index_compression_ratio > 4.0
        assert "vs raw 12 B/chunk" in report.summary()


class TestRecordRestore:
    def test_cold_restart_parses_only_referenced_frames(self, rng, tmp_path):
        # Churn one window repeatedly: the final state lives in the first
        # and last checkpoints only.
        engine = ENGINES["tree"](N, CS)
        buf = rng.integers(0, 256, N, dtype=np.uint8)
        diffs = [engine.checkpoint(buf)]
        for _ in range(7):
            buf = buf.copy()
            buf[: N // 4] = rng.integers(0, 256, N // 4, dtype=np.uint8)
            diffs.append(engine.checkpoint(buf))
        save_record(diffs, tmp_path)
        out, report = restore_record_indexed(tmp_path)
        assert np.array_equal(out, buf)
        assert report.used_index
        assert report.frames_parsed < report.frames_total
        assert report.record_bytes_read < report.record_bytes + report.index_bytes

    def test_unreferenced_frame_loss_survivable(self, rng, tmp_path):
        # The point of the index: a restore of the latest state does not
        # even read frames it doesn't reference — so losing one of them
        # cannot block the restart (replay would die parsing the chain).
        engine = FullCheckpoint(N, CS)
        b0 = rng.integers(0, 256, N, dtype=np.uint8)
        b1 = rng.integers(0, 256, N, dtype=np.uint8)
        diffs = [engine.checkpoint(b0), engine.checkpoint(b1)]
        save_record(diffs, tmp_path)
        (tmp_path / "ckpt-00000.rdif").unlink()
        out, report = restore_record_indexed(tmp_path)
        assert np.array_equal(out, b1)
        assert report.frames_parsed == 1
        with pytest.raises(ReproError):
            Restorer().restore(load_record(tmp_path))

    def test_replay_fallback_without_index(self, rng, tmp_path):
        diffs, states = _chain("list", rng)
        save_record(diffs, tmp_path)
        (tmp_path / "provenance.rpix").unlink()
        manifest_path = tmp_path / "record.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["provenance"]
        manifest_path.write_text(json.dumps(manifest))
        out, report = restore_record_indexed(tmp_path)
        assert np.array_equal(out, states[-1])
        assert not report.used_index
        assert report.frames_parsed == report.frames_total

    def test_corrupt_index_detected(self, rng, tmp_path):
        diffs, _ = _chain("tree", rng)
        save_record(diffs, tmp_path)
        index_path = tmp_path / "provenance.rpix"
        blob = bytearray(index_path.read_bytes())
        blob[-3] ^= 0x01
        index_path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            restore_record_indexed(tmp_path)
        report = verify_record(tmp_path)
        assert report.provenance_ok is False
        assert not report.ok

    def test_verify_record_reports_index_ok(self, rng, tmp_path):
        diffs, _ = _chain("basic", rng)
        save_record(diffs, tmp_path)
        report = verify_record(tmp_path)
        assert report.provenance_ok is True
        assert report.ok
        assert "provenance index: ok" in report.summary()

    def test_scrub_path_validates_whole_record(self, rng, tmp_path):
        diffs, states = _chain("tree", rng)
        save_record(diffs, tmp_path)
        out, report = restore_record_indexed(tmp_path, scrub=True)
        assert np.array_equal(out, states[-1])
        assert not report.used_index  # scrub needs every frame anyway

    def test_upto_selects_checkpoint(self, rng, tmp_path):
        diffs, states = _chain("tree", rng)
        save_record(diffs, tmp_path)
        for k in (0, 2, len(diffs) - 1):
            out, report = restore_record_indexed(tmp_path, upto=k)
            assert np.array_equal(out, states[k])
            assert report.target_ckpt == k
        with pytest.raises(RestoreError, match="outside record"):
            restore_record_indexed(tmp_path, upto=len(diffs))
