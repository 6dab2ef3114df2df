"""RecordView: one header + log read per operation, and the writer as the
one compatibility check."""

import builtins
import io
import os

import numpy as np
import pytest

from repro import telemetry
from repro.core import ENGINES, RecordWriter, Restorer
from repro.core.provenance import restore_record_indexed
from repro.core.store import (
    load_provenance,
    record_index_bytes,
    record_manifest,
    save_record,
    verify_record,
)
from repro.errors import StorageError
from repro.record import RecordView
from repro.runtime import restore_record_sharded
from tests.conftest import retire_index

N, CS = 64 * 64, 64


def _chain(n, rng, chunk=CS):
    engine = ENGINES["tree"](N, chunk)
    state = rng.integers(0, 256, N, dtype=np.uint8)
    diffs = [engine.checkpoint(state)]
    for k in range(1, n):
        state = state.copy()
        state[k * 128 : k * 128 + 200] = k
        diffs.append(engine.checkpoint(state))
    return diffs


def _log_reads():
    return telemetry.counter("store.log_reads").value


def _unindexed_restore(directory):
    retire_index(directory)
    with pytest.raises(StorageError, match="names no provenance index"):
        restore_record_indexed(directory)


class TestOneLogReadPerOperation:
    """Each entry point opens one :class:`RecordView`: the header and the
    log are read and seal-checked once, however many steps it takes."""

    OPERATIONS = {
        "cold_restore": lambda d, diffs: restore_record_indexed(d),
        "cold_restore_of_checkpoint_3": lambda d, diffs: restore_record_indexed(d, 3),
        "unindexed_restore": lambda d, diffs: _unindexed_restore(d),
        "verify": lambda d, diffs: verify_record(d),
        "manifest": lambda d, diffs: record_manifest(d),
        "writer_open": lambda d, diffs: RecordWriter(d, method="tree"),
        "re_save": lambda d, diffs: save_record(diffs[:6], d, method="tree"),
        "re_save_longer": lambda d, diffs: save_record(diffs, d, method="tree"),
    }
    # The retired index-less header is refused before the log is read.
    LOG_READS = {"unindexed_restore": 0}

    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_header_and_log_read_once(self, operation, rng, tmp_path):
        diffs = _chain(8, rng)
        directory = save_record(diffs[:6], tmp_path / "rec", method="tree")
        with telemetry.capture():
            before = _log_reads()
            self.OPERATIONS[operation](directory, diffs)
            assert _log_reads() - before == self.LOG_READS.get(operation, 1)

    def test_a_fresh_record_reads_no_log(self, rng, tmp_path):
        with telemetry.capture():
            save_record(_chain(3, rng), tmp_path / "rec", method="tree")
            assert _log_reads() == 0

    def test_reopen_opens_the_log_once(self, rng, tmp_path, monkeypatch):
        directory = save_record(_chain(6, rng), tmp_path / "rec", method="tree")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append(os.path.basename(file))
            return real_open(file, *args, **kwargs)

        real_os_open = os.open

        def counting_os_open(file, *args, **kwargs):
            opened.append(os.path.basename(file))
            return real_os_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(os, "open", counting_os_open)
        writer = RecordWriter(directory, method="tree")
        assert writer.count == 6 and opened.count("record.log") == 1

    def test_a_view_describes_the_record_as_opened(self, rng, tmp_path):
        diffs = _chain(4, rng)
        directory = save_record(diffs[:3], tmp_path / "rec", method="tree")
        view = RecordView(directory)
        RecordWriter(directory, method="tree").append(diffs[3])
        assert view.count == 3 and RecordView(directory).count == 4
        out, _report = restore_record_indexed(directory)
        assert np.array_equal(out, Restorer().restore(diffs))


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _refused(writer, diff, match, held):
    """*writer* refuses *diff* and leaves its record byte-identical: the
    record of the chain *held* still verifies and restores its newest
    checkpoint."""
    before = _files(writer.path)
    with pytest.raises(StorageError, match=match):
        writer.append(diff)
    assert _files(writer.path) == before
    if held:
        assert verify_record(writer.path).ok
        out, _report = restore_record_indexed(writer.path)
        assert np.array_equal(out, Restorer().restore(held))


class TestWriterRefusesAnIncompatibleDiff:
    """The writer is the one compatibility check, and it refuses what
    every reader refuses: a diff of another chunk size, an out-of-order
    checkpoint, or one whose row cannot be composed used to be appended
    into a record that verified but could not be restored."""

    def test_chunk_size_change(self, rng, tmp_path):
        diffs = _chain(2, rng)
        directory = save_record(diffs, tmp_path / "rec", method="tree")
        alien = _chain(3, rng, chunk=2 * CS)[2]
        _refused(
            RecordWriter(directory, method="tree"),
            alien,
            "incompatible record: chunk_size=64 on disk vs 128",
            diffs,
        )

    @pytest.mark.parametrize(
        "held, ckpt", [(0, 1), (3, 5)], ids=["1-onto-0", "5-onto-3"]
    )
    def test_out_of_order_checkpoint(self, held, ckpt, rng, tmp_path):
        diffs = _chain(6, rng)
        writer = RecordWriter(tmp_path / "rec", method="tree")
        for diff in diffs[:held]:
            writer.append(diff)
        _refused(
            writer,
            diffs[ckpt],
            f"cannot append checkpoint {ckpt}: diff chain out of order",
            diffs[:held],
        )
        # The refusal left the writer as it was: the right next one lands.
        assert writer.append(diffs[held]).ckpt_id == held
        out, _report = restore_record_indexed(writer.path)
        assert np.array_equal(out, Restorer().restore(diffs[: held + 1]))

    def test_reference_to_the_future(self, rng, tmp_path):
        diffs = _chain(2, rng)
        directory = save_record(diffs[:1], tmp_path / "rec", method="tree")
        bad = diffs[1]
        assert bad.num_shift
        bad.shift_ref_ckpts = np.full_like(bad.shift_ref_ckpts, 3)
        _refused(
            RecordWriter(directory, method="tree"),
            bad,
            "cannot append checkpoint 1: ckpt 1: .* references the future",
            diffs[:1],
        )
        with pytest.raises(StorageError, match="ckpt 1"):
            save_record([diffs[0], bad], directory, method="tree")
        assert _files(directory).keys() == {
            "ckpt-00000.rdif", "provenance.rpix", "record.json", "record.log"
        }

    def test_pinned_method(self, rng, tmp_path):
        diffs = _chain(3, rng)
        directory = save_record(diffs[:2], tmp_path / "rec", method="tree")
        basic = ENGINES["basic"](N, CS)
        alien = [basic.checkpoint(np.zeros(N, dtype=np.uint8)) for _ in range(3)][2]
        with pytest.raises(
            StorageError, match="method='tree' on disk vs 'basic' being saved"
        ):
            RecordWriter(directory).append(alien)
        # One checkpoint pins nothing: a chain opens with a full checkpoint.
        single = save_record(diffs[:1], tmp_path / "single")
        assert RecordWriter(single, method="tree").append(diffs[1]).ckpt_id == 1


class TestUnindexedRecordIsRetired:
    """Every record carries its index; the index-less header is a retired
    format, refused by name like the record formats before it."""

    READERS = {
        "load_provenance": load_provenance,
        "verify_record": verify_record,
        "restore_record_indexed": restore_record_indexed,
        "RecordWriter": RecordWriter,
        "restore_record_sharded": lambda d: restore_record_sharded(d, 4),
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_unindexed_record_rejected_by_name(self, reader, rng, tmp_path):
        directory = save_record(_chain(3, rng), tmp_path / "rec", method="tree")
        retire_index(directory)
        with pytest.raises(
            StorageError, match="names no provenance index: the unindexed record"
        ):
            self.READERS[reader](directory)


def test_index_bytes_is_the_sealed_extent(rng, tmp_path):
    """Bytes an interrupted append left past the last sealed row-group
    are not the index: both readings report the log's extent."""
    directory = save_record(_chain(3, rng), tmp_path / "rec", method="tree")
    sealed = record_index_bytes(directory)
    assert sealed == verify_record(directory).index_bytes > 0
    with open(directory / "provenance.rpix", "ab") as f:
        f.write(bytes(500))
    assert record_index_bytes(directory) == sealed
    assert verify_record(directory).index_bytes == sealed
