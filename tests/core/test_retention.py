"""Tests for lineage retention: dependency analysis and rebase."""

import dataclasses
import os
import shutil

import numpy as np
import pytest

from repro.core import (
    ENGINES,
    Restorer,
    load_record,
    rebase_stored_record,
    restore_indexed,
    save_record,
    payload_dependencies,
    rebase_record,
    required_payloads,
    verify_chain,
)
from repro.core import retention
from repro.errors import RestoreError, StorageError
from tests.conftest import ram_record


@pytest.fixture
def stream(rng):
    n = 64 * 150 + 21
    base = rng.integers(0, 256, n, dtype=np.uint8)
    out = [base.copy()]
    cur = base
    for _ in range(5):
        cur = cur.copy()
        idx = rng.integers(0, n, 50)
        cur[idx] = rng.integers(0, 256, 50, dtype=np.uint8)
        s = int(rng.integers(0, n - 1500))
        d = int(rng.integers(0, n - 1500))
        cur[d : d + 1500] = cur[s : s + 1500]
        out.append(cur.copy())
    return out


def chain(stream, method="tree"):
    engine = ENGINES[method](stream[0].shape[0], 64)
    return [engine.checkpoint(c) for c in stream]


class TestDependencies:
    def test_checkpoint_zero_depends_only_on_itself(self, stream):
        assert payload_dependencies(chain(stream), 0) == {0}

    def test_dependencies_subset_of_prefix(self, stream):
        diffs = chain(stream)
        for k in range(len(diffs)):
            deps = payload_dependencies(diffs, k)
            assert deps <= set(range(k + 1))
            assert k in deps or k > 0  # the latest diff usually contributes

    def test_full_method_single_dependency(self, stream):
        diffs = chain(stream, "full")
        for k in range(len(diffs)):
            assert payload_dependencies(diffs, k) == {k}

    def test_required_payloads_union(self, stream):
        diffs = chain(stream)
        combined = required_payloads(diffs, [2, 4])
        assert combined == payload_dependencies(diffs, 2) | payload_dependencies(
            diffs, 4
        )


@pytest.mark.parametrize("method", sorted(ENGINES))
class TestRebase:
    def test_rebased_chain_restores_identically(self, stream, method):
        diffs = chain(stream, method)
        originals = Restorer().restore_all(diffs)
        for at in (0, 1, 3, len(diffs) - 1):
            rebased = rebase_record(diffs, at)
            assert len(rebased) == len(diffs) - at
            assert rebased[0].method == "full"
            restored = Restorer().restore_all(rebased)
            for k in range(at, len(diffs)):
                assert np.array_equal(restored[k - at], originals[k]), (at, k)

    def test_rebased_chain_verifies(self, stream, method):
        diffs = chain(stream, method)
        assert verify_chain(rebase_record(diffs, 2)) == []

    def test_rebased_chain_selective_restores(self, stream, method):
        diffs = chain(stream, method)
        rebased = rebase_record(diffs, 2)
        chain_out = Restorer().restore_all(rebased)
        for k in range(len(rebased)):
            buf, _ = restore_indexed(ram_record(rebased), k)
            assert np.array_equal(buf, chain_out[k])


class TestRebaseProperties:
    def test_no_references_into_discarded_prefix(self, stream):
        diffs = chain(stream, "tree")
        rebased = rebase_record(diffs, 3)
        for diff in rebased[1:]:
            if diff.num_shift:
                assert int(diff.shift_ref_ckpts.min()) >= 0

    def test_out_of_range_rejected(self, stream):
        diffs = chain(stream)
        with pytest.raises(RestoreError):
            rebase_record(diffs, len(diffs))

    def test_rebase_at_zero_replaces_only_base(self, stream):
        diffs = chain(stream, "tree")
        rebased = rebase_record(diffs, 0)
        assert len(rebased) == len(diffs)
        # Later diffs keep their metadata counts (no promotions needed —
        # references to checkpoint 0 stay valid).
        for old, new in zip(diffs[1:], rebased[1:]):
            assert new.num_shift == old.num_shift
            assert new.num_first == old.num_first

    def test_promotion_grows_payload(self, stream):
        """Rebasing past referenced history must materialise those bytes."""
        diffs = chain(stream, "tree")
        total_before = sum(d.payload_bytes for d in diffs[5:])
        rebased = rebase_record(diffs, 4)
        total_after = sum(d.payload_bytes for d in rebased[1:])
        assert total_after >= total_before

    def test_hybrid_payload_codec_roundtrip(self, rng):
        from repro.compress import get_codec

        codec = get_codec("deflate")
        n = 64 * 64
        base = rng.integers(0, 4, n, dtype=np.uint8)
        engine = ENGINES["tree"](n, 64, payload_codec=codec)
        stream = [base.copy()]
        cur = base.copy()
        cur[:512] = rng.integers(0, 4, 512, dtype=np.uint8)
        stream.append(cur.copy())
        cur = cur.copy()
        cur[1024:1536] = base[:512]
        stream.append(cur.copy())
        diffs = [engine.checkpoint(c) for c in stream]
        rebased = rebase_record(diffs, 1)
        restored = Restorer().restore_all(rebased)
        assert np.array_equal(restored[0], stream[1])
        assert np.array_equal(restored[1], stream[2])


def test_rebase_holds_one_state_not_the_history(rng):
    """The rebase gathers states one at a time: on a 48-checkpoint chain
    its tracemalloc peak — one state, the provenance rows (12 B per chunk
    per checkpoint) and the rebased chain it returns — stays under 8
    buffers, where replaying the history holds all 48.  Its output
    equals, frame for frame, the rebase built from the replay oracle's
    states."""
    import tracemalloc

    from repro.core.diff import CheckpointDiff

    n, cs, steps, at = 64 * 1024, 512, 48, 16
    engine = ENGINES["tree"](n, cs)
    cur = rng.integers(0, 256, n, dtype=np.uint8)
    diffs = [engine.checkpoint(cur)]
    for _ in range(steps - 1):
        cur = cur.copy()
        s, d = rng.integers(0, n // cs - 2, 2) * cs
        cur[d : d + 2 * cs] = cur[s : s + 2 * cs]  # moved chunks: shifts
        idx = rng.integers(0, n, 2)
        cur[idx] = rng.integers(0, 256, 2, dtype=np.uint8)
        diffs.append(engine.checkpoint(cur))

    rebase_record(diffs[:2], 0)  # first-call imports are not the rebase's
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rebased = rebase_record(diffs, at)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n, f"rebase peak {peak} B for a {n} B buffer"

    states = Restorer().restore_all(diffs)
    expected = [
        CheckpointDiff(
            method="full", ckpt_id=0, data_len=n, chunk_size=cs,
            payload=states[at].tobytes(),
        )
    ] + [
        retention._rewrite_diff(diffs[k], at, states[k])
        for k in range(at + 1, steps)
    ]
    assert any(d.num_shift for d in expected[1:])
    assert [d.to_bytes() for d in rebased] == [d.to_bytes() for d in expected]


class TestRebaseIndex:
    """A rebase invalidates the provenance index; the rewrite renews it."""

    @staticmethod
    def _materialize(table, diffs, upto):
        from repro.core import materialize_index

        def payload_of(t):
            return np.frombuffer(diffs[t].payload, dtype=np.uint8)

        return materialize_index(table.row(upto), payload_of)

    def test_indexed_restore_after_rebase_bit_identical(self, stream):
        from repro.core import ProvenanceTable, rebase_record

        diffs = chain(stream)
        originals = Restorer().restore_all(diffs)
        rebased = rebase_record(diffs, 2)
        table = ProvenanceTable.from_diffs(rebased)
        for new_id in range(len(rebased)):
            state = self._materialize(table, rebased, new_id)
            assert np.array_equal(state, originals[new_id + 2])

    def test_rebase_stored_record_rewrites_index_on_disk(self, stream, tmp_path):
        from repro.core import (
            rebase_stored_record,
            restore_record_indexed,
            save_record,
        )

        diffs = chain(stream)
        originals = Restorer().restore_all(diffs)
        directory = save_record(diffs, tmp_path / "rec", method="tree")
        assert (directory / "provenance.rpix").exists()

        rebase_stored_record(directory, 2)
        assert (directory / "provenance.rpix").exists()
        for new_id in range(len(diffs) - 2):
            state, report = restore_record_indexed(directory, new_id)
            assert report.used_index, "rebased record must keep the fast path"
            assert np.array_equal(state, originals[new_id + 2])

    def test_rebase_stored_record_emits_journal_event(self, stream, tmp_path):
        from repro.core import rebase_stored_record, save_record
        from repro.telemetry.events import REBASE, journal_to

        diffs = chain(stream)
        directory = save_record(diffs, tmp_path / "rec", method="tree")
        with journal_to() as journal:
            rebase_stored_record(directory, 3)
        rebases = [e for e in journal.records() if e["type"] == REBASE]
        assert len(rebases) == 1
        event = rebases[0]
        assert event["at"] == 3
        assert event["old_checkpoints"] == len(diffs)
        assert event["new_checkpoints"] == len(diffs) - 3

    def test_rebase_stored_record_verifies_clean(self, stream, tmp_path):
        from repro.core import rebase_stored_record, save_record
        from repro.core.store import verify_record

        diffs = chain(stream)
        directory = save_record(diffs, tmp_path / "rec", method="tree")
        rebase_stored_record(directory, 1)
        verification = verify_record(directory)
        assert verification.ok, verification.problems


class TestRebaseSwap:
    """A stored rebase writes the new chain beside the old one and swaps
    it in by two renames: a failure at any step leaves a loadable chain."""

    AT = 2

    @pytest.mark.parametrize(
        "fail_at", ["save_record", "verify_record", "rename-1", "rename-2", "rmtree"]
    )
    def test_failure_at_every_step_leaves_a_loadable_chain(
        self, stream, tmp_path, monkeypatch, fail_at
    ):
        diffs = chain(stream)
        states = Restorer().restore_all(diffs)
        directory = save_record(diffs, tmp_path / "rec", method="tree")

        class Crash(Exception):
            pass

        real_save, real_verify = retention.save_record, retention.verify_record
        real_rename, real_rmtree = os.rename, shutil.rmtree
        renames = []

        def save_then_crash(*args, **kwargs):
            real_save(*args, **kwargs)
            raise Crash

        def rename(src, dst):
            renames.append(src)
            if fail_at == f"rename-{len(renames)}":
                raise Crash
            real_rename(src, dst)

        def rmtree(path, *args, **kwargs):
            if fail_at == "rmtree" and str(path).endswith(".rebase-old"):
                raise Crash
            real_rmtree(path, *args, **kwargs)

        if fail_at == "save_record":
            monkeypatch.setattr(retention, "save_record", save_then_crash)
        elif fail_at == "verify_record":
            monkeypatch.setattr(
                retention, "verify_record",
                lambda path: dataclasses.replace(real_verify(path), chain_ok=False),
            )
        monkeypatch.setattr(retention.os, "rename", rename)
        monkeypatch.setattr(retention.shutil, "rmtree", rmtree)

        with pytest.raises((Crash, StorageError)):
            rebase_stored_record(directory, self.AT)
        monkeypatch.undo()

        old = directory.with_name("rec.rebase-old")
        if fail_at == "rename-2":
            # Between the renames: the record is gone, the old chain whole.
            assert not directory.exists()
            expect, loaded = states, load_record(old)
        elif fail_at == "rmtree":
            expect, loaded = states[self.AT :], load_record(directory)
        else:
            expect, loaded = states, load_record(directory)
            assert not old.exists()
        got = Restorer().restore_all(loaded)
        assert len(got) == len(expect)
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))

        if fail_at in ("save_record", "verify_record", "rename-1"):
            # The interrupted attempt's leftovers do not block a retry.
            rebase_stored_record(directory, self.AT)
            got = Restorer().restore_all(load_record(directory))
            assert all(np.array_equal(a, b) for a, b in zip(got, states[self.AT :]))
            assert sorted(p.name for p in tmp_path.iterdir()) == ["rec"]
