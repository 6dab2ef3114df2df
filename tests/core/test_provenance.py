"""Provenance-indexed restore: equivalence, persistence, integrity.

The invariant everything here defends: for any valid diff chain, the
indexed restore path produces byte-for-byte the same state as chain
replay — while touching only the checkpoints the target state actually
references.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.core import (
    ENGINES,
    ProvenanceBuilder,
    ProvenanceTable,
    RecordWriter,
    Restorer,
    gather_states,
    load_provenance,
    load_record,
    record_manifest,
    restore_indexed,
    restore_record_indexed,
    save_record,
    verify_record,
)
from repro.core.chunking import ChunkSpec
from repro.core.dedup_full import FullCheckpoint
from repro.record.index import (
    _GROUP_HEADER,
    _TABLE_MAGIC,
    PROLOGUE_BYTES,
    changed_chunks,
    decode_group,
    decode_prologue,
    encode_group,
    encode_prologue,
)
from repro.errors import IntegrityError, ReproError, RestoreError, StorageError
from repro.record import MemoryStore
from tests.conftest import forge_log_entry, ram_record, retire_index, v2_manifest

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
        record = ram_record(diffs)
        for k in range(len(diffs)):
            fast, _ = restore_indexed(record, upto=k)
            assert np.array_equal(fast, replay[k])
            assert np.array_equal(fast, states[k])

    @pytest.mark.parametrize("method", ["full", "basic", "list", "tree"])
    def test_gather_states_matches_replay(self, method, rng):
        diffs, states = _chain(method, rng)
        gathered = list(gather_states(diffs, start=2))
        assert len(gathered) == len(diffs) - 2
        for got, want in zip(gathered, states[2:]):
            assert np.array_equal(got, want)

    def test_ram_record_report_reads_the_row_and_its_frames(self, rng):
        diffs, _ = _chain("tree", rng)
        _, report = restore_indexed(ram_record(diffs), upto=1)
        assert report.target_ckpt == 1 and report.frames_total == len(diffs)
        assert report.frames_parsed == report.frames_referenced <= 2
        assert report.record_bytes == sum(d.serialized_size for d in diffs)
        frames_read = sum(diffs[t].serialized_size for t in report.payload_bytes_read)
        assert report.record_bytes_read == frames_read + report.index_bytes
        assert report.index_bytes > 0 and report.used_index

    @pytest.mark.parametrize("method", ["basic", "list", "tree"])
    def test_tail_chunk_handled(self, method, rng):
        diffs, states = _chain(method, rng, n=N + 17)
        fast, _ = restore_indexed(ram_record(diffs))
        assert np.array_equal(fast, states[-1])

    def test_external_builder_matches_on_the_fly(self, rng):
        from repro.core import materialize_index, resolve_source

        diffs, states = _chain("tree", rng)
        builder = ProvenanceBuilder()
        builder.extend(diffs)
        record = ram_record(diffs)
        for k in (1, len(diffs) - 1):
            index, payload_of, _ = resolve_source(record, k)
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
        out, _ = restore_indexed(ram_record(diffs))
        assert np.array_equal(out, buf)

    def test_scrub_catches_corrupt_chain(self, rng):
        diffs, _ = _chain("tree", rng)
        diffs[2].payload = diffs[2].payload[:-4]
        # The record refuses the chain when it is appended, before any
        # restore can read it.
        with pytest.raises(StorageError, match="cannot append checkpoint 2: ckpt 2"):
            ram_record(diffs)


class TestBuilderValidation:
    def test_out_of_order_chain(self, rng):
        diffs, _ = _chain("tree", rng)
        builder = ProvenanceBuilder()
        with pytest.raises(RestoreError, match="out of order"):
            builder.append(diffs[1])

    def test_empty_chain(self):
        with pytest.raises(StorageError, match="holds no record manifest"):
            restore_indexed(MemoryStore())

    def test_upto_out_of_range(self, rng):
        diffs, _ = _chain("full", rng, steps=2)
        with pytest.raises(RestoreError, match="outside record of 2"):
            restore_indexed(ram_record(diffs), upto=5)

    def test_forward_reference_rejected(self, rng):
        diffs, _ = _chain("tree", rng)
        shifted = next(d for d in diffs if d.num_shift)
        shifted.shift_ref_ckpts = np.full_like(shifted.shift_ref_ckpts, 7)
        builder = ProvenanceBuilder()
        with pytest.raises(RestoreError, match="not reconstructed yet"):
            builder.extend(diffs)


def _encode(table, deltas=()):
    """RPIX v4 group records of *table*, one per row: ``[(record, digest)]``.
    Rows named in *deltas* are delta groups against the row before."""
    out = []
    for k in range(table.num_checkpoints):
        changed = changed_chunks(table.row(k - 1), table.row(k)) if k in deltas else None
        out.append(encode_group(table.row(k), changed))
    return out


def _decode(groups, spec=ChunkSpec(N, CS)):
    """Every row of a list of ``(record, digest)`` groups, folded in order."""
    rows = []
    for k, (record, digest) in enumerate(groups):
        rows.append(decode_group(record, k, digest, spec, rows[-1] if rows else None))
    table = ProvenanceTable.from_rows(rows)
    return table.src_ckpt, table.src_off


def _blob(table):
    """The file RecordWriter writes when every group is a keyframe."""
    prologue = encode_prologue(table.num_chunks, table.data_len, table.chunk_size)
    return prologue + b"".join(record for record, _ in _encode(table))


def _redigest(record, ckpt_id):
    """*record* with its stored digest recomputed over its (damaged) body,
    and that digest — so only the body decoder stands between the damage
    and the caller."""
    body_len, _held, kind, _stored = _GROUP_HEADER.unpack_from(record)
    body = record[_GROUP_HEADER.size :]
    digest = hashlib.sha256(struct.pack("<II", ckpt_id, kind) + body).digest()
    return _GROUP_HEADER.pack(body_len, ckpt_id, kind, digest) + body, digest


class TestTablePersistence:
    def test_round_trip(self, rng):
        diffs, _ = _chain("tree", rng)
        table = ProvenanceTable.from_diffs(diffs)
        for deltas in ((), (1, 3, 4), range(1, len(diffs))):
            src_ckpt, src_off = _decode(_encode(table, deltas))
            assert np.array_equal(src_ckpt, table.src_ckpt)
            assert np.array_equal(src_off, table.src_off)
        header = decode_prologue(_blob(table))
        assert header == {"num_chunks": N // CS, "data_len": N, "chunk_size": CS}

    def test_bit_flip_detected(self, rng):
        diffs, _ = _chain("list", rng)
        table = ProvenanceTable.from_diffs(diffs)
        for deltas in ((), (2,)):
            groups = _encode(table, deltas)
            record, digest = groups[2]
            damaged = bytearray(record)
            damaged[len(record) // 2] ^= 0x40
            groups[2] = (bytes(damaged), digest)
            with pytest.raises(IntegrityError, match="row-group 2 digest mismatch"):
                _decode(groups)

    def test_truncation_detected(self, rng):
        diffs, _ = _chain("basic", rng)
        groups = _encode(ProvenanceTable.from_diffs(diffs))
        record, digest = groups[-1]
        for cut in (record[:-8], record[:40]):
            groups[-1] = (cut, digest)
            with pytest.raises(IntegrityError, match="misframed|truncated"):
                _decode(groups)

    def test_trailing_bytes_detected(self, rng):
        # A group is exactly the byte range the record log names: a range
        # that runs past the group's own body length is refused.  (Bytes
        # past the *last* group of the file are an interrupted append's
        # orphan, never read: test_orphan_index_bytes_survive_reopen.)
        diffs, _ = _chain("basic", rng)
        groups = _encode(ProvenanceTable.from_diffs(diffs))
        record, digest = groups[0]
        groups[0] = (record + b"\0" * 5, digest)
        with pytest.raises(IntegrityError, match="misframed"):
            _decode(groups)

    def test_log_digest_must_match_too(self, rng):
        # A group that self-verifies but is not the one the log sealed.
        diffs, _ = _chain("tree", rng)
        groups = _encode(ProvenanceTable.from_diffs(diffs))
        groups[1] = (groups[1][0], groups[2][1])
        with pytest.raises(IntegrityError, match="row-group 1 digest mismatch"):
            _decode(groups)

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
        # from position 0.  It used to land as an unindexed record no
        # reader could restore; the writer now refuses it before writing
        # a byte, so no record of it lands on disk.
        diffs, _ = _chain("tree", rng)
        shifted = next(d for d in diffs if d.num_shift)
        shifted.ckpt_id = 0  # hand-built: claims position 0
        shifted.shift_ref_ckpts = np.full_like(shifted.shift_ref_ckpts, 3)
        broken = [shifted]
        with pytest.raises(ReproError):
            ProvenanceTable.from_diffs(broken)
        directory = tmp_path / "rec"
        with pytest.raises(StorageError, match="cannot append checkpoint 0"):
            save_record(broken, directory)
        assert not directory.exists() or not any(directory.iterdir())


class TestRpixV2:
    """The delta+bitpacked plane encoding inside every keyframe, the raw
    delta groups, and the rejection of the retired file versions."""

    def test_v2_much_smaller_than_raw(self, rng):
        diffs, _ = _chain("tree", rng)
        table = ProvenanceTable.from_diffs(diffs)
        assert len(_blob(table)) < table.raw_index_bytes / 4

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_v1_v2_blobs_rejected_by_name(self, version, rng, tmp_path):
        """RPIX v1 (raw arrays), v2 (whole-table planes) and v3 (absolute
        row-groups under a row-counting prologue) are not read: a blob
        claiming any of them is refused, whatever follows it."""
        diffs, _ = _chain("list", rng)
        table = ProvenanceTable.from_diffs(diffs)
        header = struct.pack(
            "<4sHHIIQI",
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
        with pytest.raises(IntegrityError, match=f"index version {version}"):
            decode_prologue(blob)

        # The same blob behind a record: load_provenance and a reopening
        # writer raise, verify_record reports (never raises).
        save_record(diffs, tmp_path)
        (tmp_path / "provenance.rpix").write_bytes(blob)
        with pytest.raises(IntegrityError, match=f"index version {version}"):
            load_provenance(tmp_path)
        with pytest.raises(IntegrityError, match=f"index version {version}"):
            RecordWriter(tmp_path)
        report = verify_record(tmp_path)
        assert report.provenance_ok is False and not report.ok
        # ... and behind the manifest v2 that went with it, nothing loads.
        v2_manifest(tmp_path)
        for entry in (load_provenance, verify_record, restore_record_indexed):
            with pytest.raises(StorageError, match="unsupported record format 2"):
                entry(tmp_path)

    def test_unknown_group_kind_rejected_by_name(self, rng, tmp_path):
        """A group is a keyframe (1) or a delta (2): a well-formed group of
        any other kind (nothing ever wrote one) is not read."""
        diffs, _ = _chain("tree", rng, steps=2)
        table = ProvenanceTable.from_diffs(diffs)
        record, _ = encode_group(table.row(1))
        body = record[_GROUP_HEADER.size :]
        digest = hashlib.sha256(struct.pack("<II", 1, 3) + body).digest()
        alien = _GROUP_HEADER.pack(len(body), 1, 3, digest) + body
        with pytest.raises(IntegrityError, match="row-group kind 3 at checkpoint 1"):
            decode_group(alien, 1, digest, ChunkSpec(N, CS), table.row(0))

        # Behind a record whose log is forged to vouch for it.
        save_record(diffs, tmp_path)
        index_path = tmp_path / "provenance.rpix"
        first, _ = encode_group(table.row(0))
        index_path.write_bytes(
            index_path.read_bytes()[: PROLOGUE_BYTES + len(first)] + alien
        )
        forge_log_entry(tmp_path, 1, group_len=len(alien), group_sha=digest, group_kind=3)
        assert load_provenance(tmp_path, ckpt=0).ckpt_id == 0
        for ckpt in (None, 1):
            with pytest.raises(IntegrityError, match="row-group kind 3"):
                load_provenance(tmp_path, ckpt=ckpt)
        report = verify_record(tmp_path)
        assert report.index_bad_groups == [1] and not report.ok

    def test_unknown_version_rejected(self, rng):
        diffs, _ = _chain("full", rng, steps=2)
        blob = bytearray(_blob(ProvenanceTable.from_diffs(diffs)))
        blob[4:6] = (99).to_bytes(2, "little")  # version field
        with pytest.raises(IntegrityError, match="version"):
            decode_prologue(bytes(blob))
        blob[4:6] = (4).to_bytes(2, "little")
        blob[8] ^= 0x01  # num_chunks, under the header digest
        with pytest.raises(IntegrityError, match="header digest mismatch"):
            decode_prologue(bytes(blob))

    def test_damaged_plane_detected_even_unverified(self, rng):
        diffs, _ = _chain("tree", rng)
        groups = _encode(ProvenanceTable.from_diffs(diffs))
        last = len(groups) - 1
        damaged = bytearray(groups[last][0])
        damaged[-1] ^= 0xFF  # inside the last compressed plane
        # With the group digest recomputed over the damage, the plane
        # decoder itself must catch it.
        groups[last] = _redigest(bytes(damaged), last)
        with pytest.raises(IntegrityError, match="is damaged"):
            _decode(groups)

    def test_truncated_plane_detected(self, rng):
        diffs, _ = _chain("tree", rng)
        groups = _encode(ProvenanceTable.from_diffs(diffs))
        last = len(groups) - 1
        record = groups[last][0]
        body_len, _held, kind, stored = _GROUP_HEADER.unpack_from(record)
        # Shorten the last group's body by 6 bytes with coherent framing
        # and digest: the last plane's length prefix now overruns.
        cut = _GROUP_HEADER.pack(body_len - 6, last, kind, stored) + record[48:-6]
        groups[last] = _redigest(cut, last)
        with pytest.raises(IntegrityError, match="is damaged"):
            _decode(groups)

    def test_damaged_delta_detected_even_unverified(self, rng):
        """A delta body that hashes to its (recomputed) digest but is not
        a delta: ragged, ids unsorted or past the last chunk, no base."""
        diffs, _ = _chain("tree", rng)
        table = ProvenanceTable.from_diffs(diffs)
        groups = _encode(table, deltas=(2,))
        record, digest = groups[2]
        body = bytearray(record[48:])
        assert len(body) % 16 == 0 and len(body) >= 32

        def framed(new_body):
            return _redigest(
                _GROUP_HEADER.pack(len(new_body), 2, 2, b"\0" * 32) + bytes(new_body), 2
            )

        swapped = bytearray(body)
        swapped[0:4], swapped[4:8] = body[4:8], body[0:4]
        outside = bytearray(body)
        n = len(body) // 16
        outside[4 * (n - 1) : 4 * n] = (N // CS).to_bytes(4, "little")
        for bad in (body[:-3], swapped, outside):
            groups[2] = framed(bad)
            with pytest.raises(IntegrityError, match="row-group 2 is damaged"):
                _decode(groups)
        with pytest.raises(IntegrityError, match="no row before it"):
            decode_group(record, 2, digest, ChunkSpec(N, CS), None)

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
        # The full-record fallback for a record without an index is gone:
        # such a record is a retired format, refused by name on every
        # path.
        diffs, _ = _chain("list", rng)
        save_record(diffs, tmp_path)
        retire_index(tmp_path)
        with pytest.raises(StorageError, match="names no provenance index"):
            restore_record_indexed(tmp_path)

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

    def test_upto_selects_checkpoint(self, rng, tmp_path):
        diffs, states = _chain("tree", rng)
        save_record(diffs, tmp_path)
        for k in (0, 2, len(diffs) - 1):
            out, report = restore_record_indexed(tmp_path, upto=k)
            assert np.array_equal(out, states[k])
            assert report.target_ckpt == k
        with pytest.raises(RestoreError, match="outside record"):
            restore_record_indexed(tmp_path, upto=len(diffs))
