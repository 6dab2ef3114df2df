"""Frame reads: one SHA-256 pass per frame, and every check still made.

The record log stores each frame's content digest — the SHA-256 over
header ‖ body that the frame embeds (record format 4 on) — so a reader
hashes a frame once and compares that one value to the log's column and
to the embedded field.  These tests pin the single pass on every path
that touches a frame, the log's size column on the restore path, the
refusal of the retired formats 3 and 4 by every entry point, and the
payload codec a hybrid frame names in its header's flags byte."""

import hashlib
import json
import struct

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.compress import BitcompCodec, Codec, DeflateCodec, get_codec, list_codecs
from repro.core import (
    ENGINES,
    IncrementalCheckpointer,
    RecordWriter,
    Restorer,
    TreeDedup,
    verify_chain,
)
from repro.core.diff import DIGEST_BYTES, PAYLOAD_CODECS, CheckpointDiff, content_digest
from repro.core.provenance import restore_record_indexed
from repro.core.retention import rebase_stored_record
from repro.core.serialize import chunk_map, diff_payload
from repro.core.store import (
    load_provenance,
    load_record,
    load_record_frames,
    record_manifest,
    save_record,
    verify_record,
)
from repro.errors import (
    ConfigurationError,
    IntegrityError,
    SerializationError,
    StorageError,
)
from repro.record import PACK_FILE, RecordView
from repro.runtime import restore_record_sharded
from tests.conftest import forge_log_entry, frame_extent, read_frame, write_frame

N, CS = 64 * 64, 64


def _chain(n, seed=3):
    rng = np.random.default_rng(seed)
    engine = ENGINES["tree"](N, CS)
    state = rng.integers(0, 256, N, dtype=np.uint8)
    diffs = [engine.checkpoint(state)]
    for k in range(1, n):
        state = state.copy()
        state[k * 512 : k * 512 + 300] = rng.integers(0, 256, 300, dtype=np.uint8)
        diffs.append(engine.checkpoint(state))
    return diffs


@pytest.fixture
def record(tmp_path):
    diffs = _chain(4)
    return save_record(diffs, tmp_path / "rec", method="tree"), diffs


class _CountingHashlib:
    """Stands in for :mod:`hashlib` in the modules that hash frames:
    ``sha256`` objects that count every byte they are fed."""

    def __init__(self):
        self.bytes = 0

    def sha256(self, data=b""):
        return _CountingHash(self, hashlib.sha256(), data)


class _CountingHash:
    def __init__(self, owner, inner, data=b""):
        self._owner, self._inner = owner, inner
        self.update(data)

    def update(self, data):
        self._owner.bytes += memoryview(data).nbytes
        self._inner.update(data)

    def digest(self):
        return self._inner.digest()

    def hexdigest(self):
        return self._inner.hexdigest()


@pytest.fixture
def hashed(monkeypatch):
    """Start counting the bytes the frame codec, the frame readers and
    the writer hash; returns the counter."""

    def start():
        counter = _CountingHashlib()
        for module in ("core.diff", "record.frames", "record.writer"):
            monkeypatch.setattr(f"repro.{module}.hashlib", counter, raising=False)
        return counter

    return start


def _hashable(directory, frames):
    """Bytes one pass hashes over *frames*: each frame but its digest."""
    sizes = record_manifest(directory)["frame_bytes"]
    return sum(sizes[k] - DIGEST_BYTES for k in frames)


class TestOnePassPerFrame:
    """Each frame a path touches is hashed exactly once, over every byte
    but its digest field (format 3 hashed it twice)."""

    @pytest.mark.parametrize("upto", [0, 2, 3])
    def test_indexed_restore(self, record, hashed, upto):
        path, diffs = record
        referenced = load_provenance(path, upto).referenced()
        want = _hashable(path, referenced)
        counter = hashed()
        out, report = restore_record_indexed(path, upto=upto)
        assert counter.bytes == want
        assert report.frames_parsed == len(referenced)
        assert np.array_equal(out, Restorer().restore(diffs[: upto + 1]))

    def test_sharded_restore(self, record, hashed):
        path, _ = record
        want = _hashable(path, load_provenance(path, 3).referenced())
        counter = hashed()
        restore_record_sharded(path, 4)
        assert counter.bytes == want

    @pytest.mark.parametrize("reader", [load_record, verify_record])
    def test_whole_record_readers(self, record, hashed, reader):
        path, diffs = record
        want = _hashable(path, range(len(diffs)))
        counter = hashed()
        reader(path)
        assert counter.bytes == want

    def test_append(self, tmp_path, hashed):
        diffs = _chain(4)
        writer = RecordWriter(tmp_path / "rec", method="tree")
        for diff in diffs[:3]:
            writer.append(diff)
        counter = hashed()
        writer.append(diffs[3])
        assert counter.bytes == diffs[3].serialized_size - DIGEST_BYTES

    def test_reopen(self, record, hashed):
        """The torn-append check reads the last frame and nothing else."""
        path, diffs = record
        counter = hashed()
        assert RecordWriter(path, method="tree").count == len(diffs)
        assert counter.bytes == _hashable(path, [len(diffs) - 1])

    def test_loaded_frames_carry_their_digest(self, record):
        """A loaded frame's digest is the log's: re-saving the chain it
        came from compares digests, it does not serialize or hash."""
        path, _ = record
        loaded = load_record(path)
        held = record_manifest(path)["digests"]
        assert [diff.frame_digest() for diff in loaded] == held
        save_record(loaded, path, method="tree")


class TestLogFrameSize:
    """The restore path checks the log's size column, as verify and the
    writer's reopen always did."""

    def test_readers_refuse_a_frame_the_log_sizes_differently(self, record):
        path, diffs = record
        size = diffs[3].serialized_size
        forge_log_entry(path, 3, frame_bytes=size + 1)
        assert 3 in load_provenance(path, 3).referenced()
        detail = f"pack holds {size} of its {size + 1} bytes"
        assert detail in verify_record(path).checkpoints[3].detail
        for reader in (restore_record_indexed, load_record):
            with pytest.raises(IntegrityError, match=f"record.pack frame 3: {detail}"):
                reader(path)
        with pytest.raises(IntegrityError, match="does not match the record log"):
            RecordWriter(path, method="tree")

    def test_bytes_past_the_last_frame_are_never_read(self, record):
        """Inside a pack no frame is oversized: what lies past the frames
        the log seals (a torn append) is read by no reader, and the next
        writer cuts it."""
        path, diffs = record
        pack = path / PACK_FILE
        sealed = pack.read_bytes()
        pack.write_bytes(sealed + bytes(1 << 20))
        out, _ = restore_record_indexed(path, upto=3)
        assert np.array_equal(out, Restorer().restore(diffs))
        assert verify_record(path).ok
        with telemetry.capture():
            read = telemetry.counter("store.frame_bytes_read")
            load_record_frames(path, [3])
            assert read.value == diffs[3].serialized_size
        assert RecordWriter(path, method="tree").count == len(diffs)
        assert pack.read_bytes() == sealed


def _retire_to_format(directory, version=3):
    """Relabel *directory*'s header as the retired record format *version*."""
    header_path = directory / "record.json"
    header = json.loads(header_path.read_text())
    header["format_version"] = version
    header_path.write_text(json.dumps(header, indent=2))


class TestFormat3Retired:
    """A format-3 record's log holds whole-file digests, not content
    digests: every entry point refuses it by name, before reading a frame."""

    ENTRY_POINTS = {
        "RecordView": RecordView,
        "verify_record": verify_record,
        "restore_record_indexed": restore_record_indexed,
        "RecordWriter": lambda path: RecordWriter(path, method="tree"),
        "restore_record_sharded": lambda path: restore_record_sharded(path, 4),
        "repro_verify": lambda path: main(["verify", str(path)]),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejected_by_name(self, record, entry):
        path, _ = record
        assert verify_record(path).ok
        _retire_to_format(path, 3)
        with pytest.raises(StorageError, match="unsupported record format 3"):
            self.ENTRY_POINTS[entry](path)


class TestFormat4Retired:
    """A format-4 record keeps one frame file per checkpoint beside its
    log: there is no dual reader, so every entry point refuses it by
    name."""

    @pytest.mark.parametrize("entry", sorted(TestFormat3Retired.ENTRY_POINTS))
    def test_rejected_by_name(self, record, entry):
        path, _ = record
        _retire_to_format(path, 4)
        with pytest.raises(StorageError, match="unsupported record format 4"):
            TestFormat3Retired.ENTRY_POINTS[entry](path)


FLAGS = 7  # the header's flags byte: the payload codec code


def _hybrid(codec, n=4, seed=5):
    """A tree unit compressing its payloads with *codec*, and its states."""
    rng = np.random.default_rng(seed)
    unit = IncrementalCheckpointer(N, CS, payload_codec=codec)
    state = rng.integers(0, 4, N, dtype=np.uint8)  # compressible
    states = []
    for k in range(n):
        if k:
            state = state.copy()
            state[k * 512 : k * 512 + 300] = rng.integers(0, 4, 300, dtype=np.uint8)
            state[3000:3256] = state[k * 256 : k * 256 + 256]
        unit.checkpoint(state)
        states.append(state)
    return unit, states


def _reseal(blob: bytearray) -> bytes:
    """*blob* with its embedded content digest recomputed."""
    blob[44 : 44 + DIGEST_BYTES] = content_digest(blob)
    return bytes(blob)


class TestFrameNamesItsCodec:
    """Byte 7 of a frame names its payload codec, so every reader decodes
    a hybrid record without being told how it was written."""

    def test_code_table_is_the_registry(self):
        assert list(PAYLOAD_CODECS) == list_codecs()

    def test_only_compressed_frames_carry_a_code(self):
        unit, _ = _hybrid(get_codec("bitcomp"))
        blobs = [d.to_bytes() for d in load_record(unit.record.writer.store)]
        assert blobs[0][FLAGS] == 0  # checkpoint 0 is stored raw
        code = PAYLOAD_CODECS.index("bitcomp") + 1
        assert [b[FLAGS] for b in blobs[1:]] == [code] * 3
        assert [CheckpointDiff.from_bytes(b).codec for b in blobs] == [
            None, "bitcomp", "bitcomp", "bitcomp",
        ]

    def test_a_rewritten_code_is_damage(self, tmp_path):
        unit, _ = _hybrid(get_codec("bitcomp"))
        path = save_record(load_record(unit.record.writer.store), tmp_path / "rec", method="tree")
        blob = bytearray(read_frame(path, 1))
        assert blob[FLAGS] == PAYLOAD_CODECS.index("bitcomp") + 1
        blob[FLAGS] = PAYLOAD_CODECS.index("deflate") + 1  # not resealed
        write_frame(path, 1, bytes(blob))
        report = verify_record(path)
        assert not report.ok
        assert report.checkpoints[1].status == "corrupt"
        with pytest.raises(IntegrityError):
            restore_record_indexed(path)

    def test_an_unknown_code_is_refused_by_name(self):
        unit, _ = _hybrid(get_codec("deflate"))
        blob = bytearray(load_record(unit.record.writer.store)[1].to_bytes())
        blob[FLAGS] = 200
        with pytest.raises(SerializationError, match="200"):
            CheckpointDiff.from_bytes(_reseal(blob))

    def test_a_code_on_a_raw_method_frame_is_refused(self):
        engine = ENGINES["basic"](N, CS)
        engine.checkpoint(np.zeros(N, dtype=np.uint8))
        diff = engine.checkpoint(np.ones(N, dtype=np.uint8))
        blob = bytearray(diff.to_bytes())
        blob[FLAGS] = PAYLOAD_CODECS.index("deflate") + 1
        with pytest.raises(SerializationError, match="code 3 on a basic frame"):
            CheckpointDiff.from_bytes(_reseal(blob))

    def test_a_codec_without_a_code_is_refused_at_construction(self):
        class Identity(Codec):
            name = "identity"

            def compress(self, data):
                return data

            def decompress(self, blob):
                return blob

        with pytest.raises(ConfigurationError, match="identity"):
            TreeDedup(N, CS, payload_codec=Identity())

    @pytest.mark.parametrize(
        "codec", [BitcompCodec(block_size=1024), DeflateCodec(level=1)], ids=repr
    )
    def test_codec_parameters_travel_in_the_payload(self, codec, tmp_path):
        unit, states = _hybrid(codec)
        path = save_record(load_record(unit.record.writer.store), tmp_path / "rec", method="tree")
        replayed = Restorer().restore_all(load_record(path))
        for k, want in enumerate(states):
            out, _ = restore_record_indexed(path, upto=k)
            assert np.array_equal(out, want), k
            assert np.array_equal(unit.restore(k), want)
            assert np.array_equal(replayed[k], want)

    def test_every_reader_restores_a_hybrid_record(self, tmp_path):
        unit, states = _hybrid(get_codec("bitcomp"))
        path = save_record(load_record(unit.record.writer.store), tmp_path / "rec", method="tree")
        assert verify_chain(load_record(unit.record.writer.store)) == []
        assert verify_record(path).ok
        out, _ = restore_record_sharded(path, 4)
        assert np.array_equal(out, states[-1])
        for extra in ([], ["--replay"], ["--ranks", "4"]):
            dest = tmp_path / "out.bin"
            assert main(["restore", str(path), "-o", str(dest), *extra]) == 0
            assert dest.read_bytes() == states[-1].tobytes(), extra

    def test_rebase_keeps_the_frames_codec(self, tmp_path):
        unit, states = _hybrid(get_codec("bitcomp"))
        path = save_record(load_record(unit.record.writer.store), tmp_path / "rec", method="tree")
        rebase_stored_record(path, 1)
        rebased = load_record(path)
        assert [d.codec for d in rebased] == [None, "bitcomp", "bitcomp"]
        for k, want in enumerate(states[1:]):
            out, _ = restore_record_indexed(path, upto=k)
            assert np.array_equal(out, want), k


class TestRawPayloadLength:
    """``chunk_map`` checks the payload length of every raw frame, tree
    frames included."""

    def test_a_short_raw_tree_payload_is_refused(self, tmp_path):
        diffs = _chain(3)
        diffs[2].payload = diffs[2].payload[:-1]
        diffs[2]._digest = None
        problems = chunk_map(diffs[2]).problems
        assert problems and "payload is" in problems[0]
        assert verify_chain(diffs) == problems
        writer = RecordWriter(tmp_path / "rec", method="tree")
        writer.append(diffs[0])
        writer.append(diffs[1])
        before = {f.name: f.read_bytes() for f in writer.path.iterdir()}
        with pytest.raises(StorageError, match="cannot append checkpoint 2"):
            writer.append(diffs[2])
        assert {f.name: f.read_bytes() for f in writer.path.iterdir()} == before


# ----------------------------------------------------------------------
# One list of frame checks: a whole-frame read and a payload read refuse
# every forged frame with the same error
# ----------------------------------------------------------------------
def _rewrite(path, k, edit, reseal=True, log=True):
    """Apply *edit* to frame *k*'s bytes and splice them into the pack in
    its place; with *reseal*, recompute its embedded digest; with *log*,
    forge the log's size and digest columns to the new bytes, so only the
    checks behind the log stand."""
    offset, size = frame_extent(path, k)
    pack = (path / PACK_FILE).read_bytes()
    blob = bytearray(pack[offset : offset + size])
    edit(blob)
    blob = _reseal(blob) if reseal else bytes(blob)
    (path / PACK_FILE).write_bytes(pack[:offset] + blob + pack[offset + size :])
    if log:
        forge_log_entry(
            path, k, frame_sha=content_digest(blob), frame_bytes=len(blob)
        )


def _poke(at, fmt, value):
    return lambda blob: struct.pack_into(fmt, blob, at, value)


def _grow(blob):
    blob += b"\0"


def _shrink(blob):
    del blob[-1]


def _flip_embedded_digest(blob):
    blob[44] ^= 0xFF


def _flip_last_byte(blob):
    blob[-1] ^= 0xFF


#: name -> (frame, edit, reseal, forge the log, error, message).
FORGED = {
    "size_vs_log": (3, _shrink, True, False, IntegrityError, "pack holds"),
    "digest_vs_log": (
        3, _flip_last_byte, False, False, IntegrityError,
        "digest mismatch against the record log",
    ),
    "embedded_digest_vs_log": (
        3, _flip_embedded_digest, False, False, IntegrityError, "frame digest mismatch",
    ),
    "magic": (3, _poke(0, "<4s", b"XDIF"), True, True, SerializationError, "bad magic"),
    "version": (3, _poke(4, "<H", 9), True, True, SerializationError, "unsupported diff version 9"),
    "method_code": (3, _poke(6, "<B", 7), True, True, SerializationError, "unknown method code 7"),
    "codec_code": (3, _poke(FLAGS, "<B", 200), True, True, SerializationError, "codec code 200"),
    "codec_on_raw_method": (
        0, _poke(FLAGS, "<B", 3), True, True, SerializationError, "code 3 on a full frame",
    ),
    "length": (3, _grow, True, True, SerializationError, "diff blob length"),
    "data_len_zero": (3, _poke(12, "<Q", 0), True, True, SerializationError, "must be positive"),
    "another_checkpoint": (
        3, _poke(8, "<I", 2), True, True, StorageError, "holds checkpoint 2",
    ),
}


class TestOneFrameCheck:
    """A payload read (the restore's) makes every check a whole-frame
    read makes, in the same order: the same exception class and message
    for each forged frame."""

    @staticmethod
    def _raised(fn):
        with pytest.raises((StorageError, SerializationError)) as exc:
            fn()
        return exc.value

    @pytest.mark.parametrize("case", sorted(FORGED))
    def test_whole_frame_and_payload_reads_agree(self, record, case):
        path, _ = record
        k, edit, reseal, log, kind, message = FORGED[case]
        _rewrite(path, k, edit, reseal=reseal, log=log)
        view = RecordView(path)
        errors = [
            self._raised(lambda: view.frame(k)),
            self._raised(lambda: view.payloads([k])),
            self._raised(lambda: load_record_frames(path, [k])),
        ]
        assert {type(e) for e in errors} == {kind}
        assert {str(e) for e in errors} == {str(errors[0])}
        assert message in str(errors[0])
        if kind is IntegrityError:
            assert {e.ckpt_id for e in errors} == {k}
        status = verify_record(path).checkpoints[k]
        assert status.status == "corrupt" and message in status.detail

    @pytest.mark.parametrize("codec", PAYLOAD_CODECS)
    def test_every_payload_codec_restores_through_the_payload_read(
        self, codec, tmp_path
    ):
        unit, states = _hybrid(get_codec(codec))
        diffs = load_record(unit.record.writer.store)
        path = save_record(diffs, tmp_path / "rec", method="tree")
        payloads = load_record_frames(path, range(len(diffs)))
        for k, diff in enumerate(diffs):
            assert np.array_equal(payloads[k], diff_payload(diff)), k
            out, _ = restore_record_indexed(path, upto=k)
            assert np.array_equal(out, states[k]), k

    def test_a_raw_payload_is_a_view_of_the_frame(self, record):
        path, diffs = record
        payload = load_record_frames(path, [3])[3]
        assert not payload.flags.owndata and not payload.flags.writeable
        assert np.array_equal(payload, diff_payload(diffs[3]))
