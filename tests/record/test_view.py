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
from repro.core.store import record_manifest, save_record, verify_record
from repro.errors import StorageError
from repro.record import RecordView
from tests.conftest import unindex

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


class TestOneLogReadPerOperation:
    """Each entry point opens one :class:`RecordView`: the header and the
    log are read and seal-checked once, however many steps it takes."""

    OPERATIONS = {
        "cold_restore": lambda d, diffs: restore_record_indexed(d),
        "cold_restore_of_checkpoint_3": lambda d, diffs: restore_record_indexed(d, 3),
        "unindexed_restore": lambda d, diffs: (unindex(d), restore_record_indexed(d)),
        "verify": lambda d, diffs: verify_record(d),
        "manifest": lambda d, diffs: record_manifest(d),
        "writer_open": lambda d, diffs: RecordWriter(d, method="tree"),
        "re_save": lambda d, diffs: save_record(diffs[:6], d, method="tree"),
        "re_save_longer": lambda d, diffs: save_record(diffs, d, method="tree"),
    }

    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_header_and_log_read_once(self, operation, rng, tmp_path):
        diffs = _chain(8, rng)
        directory = save_record(diffs[:6], tmp_path / "rec", method="tree")
        with telemetry.capture():
            before = _log_reads()
            self.OPERATIONS[operation](directory, diffs)
            assert _log_reads() - before == 1

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

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
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


class TestWriterRefusesAnIncompatibleDiff:
    """The writer is the one compatibility check, indexed or not: a diff of
    another chunk size used to be appended (dropping the index) into a
    record that verified but could not be restored."""

    @pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "unindexed"])
    def test_chunk_size_change(self, indexed, rng, tmp_path):
        diffs = _chain(2, rng)
        directory = save_record(diffs, tmp_path / "rec", method="tree")
        if not indexed:
            unindex(directory)
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        alien = _chain(3, rng, chunk=2 * CS)[2]
        writer = RecordWriter(directory, method="tree")
        with pytest.raises(
            StorageError, match="incompatible record: chunk_size=64 on disk vs 128"
        ):
            writer.append(alien)
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before
        assert verify_record(directory).ok
        out, _report = restore_record_indexed(directory)
        assert np.array_equal(out, Restorer().restore(diffs))

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
