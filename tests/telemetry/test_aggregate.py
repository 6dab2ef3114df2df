"""Fleet aggregation: order-independent merge, rollups, ingest accounting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.aggregate import build_rollup, merge_journals
from repro.telemetry.events import (
    CHECKPOINT_COMMITTED,
    CRASH,
    FLUSH_RETRY,
    RESTART,
    RESTORE,
    TIER_OUTAGE,
    EventJournal,
    read_journal,
)


def _fleet_journals(num_ranks=3, ckpts=4):
    """Deterministic per-rank journals with mixed event types."""
    journals = []
    for rank in range(num_ranks):
        journal = EventJournal(node=f"node{rank // 2}", rank=rank)
        for i in range(ckpts):
            journal.emit(
                CHECKPOINT_COMMITTED,
                sim_time=i * 1.0 + rank * 0.1,
                ckpt_id=i,
                stored_bytes=1000 // (i + 1),
                full_bytes=1000,
                produced_at=i * 1.0,
                persisted_at=i * 1.0 + 0.25,
                blocked_seconds=0.0,
            )
        if rank == 1:
            journal.emit(FLUSH_RETRY, sim_time=1.5, tier="ssd", attempt=1)
            journal.emit(CRASH, sim_time=2.5, in_flight_ckpts=1)
            journal.emit(
                RESTART, sim_time=2.5, cold=False, lost_work_seconds=3.0
            )
        journals.append(journal)
    return journals


class TestMergeJournals:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_merge_is_order_independent(self, seed):
        journals = _fleet_journals()
        reference = merge_journals(journals)
        rng = random.Random(seed)
        shuffled = [list(j.records()) for j in journals]
        rng.shuffle(shuffled)
        for records in shuffled:
            rng.shuffle(records)
        assert merge_journals(shuffled) == reference

    def test_merge_orders_by_sim_time(self):
        merged = merge_journals(_fleet_journals())
        times = [e["sim_time"] for e in merged if e["sim_time"] is not None]
        assert times == sorted(times)

    def test_accepts_journals_and_bare_record_lists(self):
        journals = _fleet_journals()
        as_lists = [j.records() for j in journals]
        assert merge_journals(journals) == merge_journals(as_lists)

    def test_mixed_run_ids_refused(self):
        a = EventJournal(node="n0", rank=0, run_id="run-a")
        b = EventJournal(node="n0", rank=1, run_id="run-b")
        a.emit(CRASH, sim_time=1.0)
        b.emit(CRASH, sim_time=2.0)
        with pytest.raises(ValueError, match="different runs"):
            merge_journals([a, b])
        merged = merge_journals([a, b], allow_mixed_runs=True)
        assert len(merged) == 2

    def test_same_or_absent_run_ids_merge(self):
        a = EventJournal(node="n0", rank=0, run_id="run-a")
        b = EventJournal(node="n0", rank=1, run_id="run-a")
        c = EventJournal(node="n0", rank=2)  # v1-style, no run identity
        for j in (a, b, c):
            j.emit(CRASH, sim_time=1.0)
        assert len(merge_journals([a, b, c])) == 3


class TestBuildRollup:
    def test_per_rank_and_fleet_numbers(self):
        rollup = build_rollup(_fleet_journals())
        assert len(rollup.ranks) == 3
        rank1 = rollup.ranks[("node0", 1)]
        assert rank1.checkpoints == 4
        assert rank1.retries == 1
        assert rank1.crashes == 1
        assert rank1.lost_work_seconds == 3.0
        # stored per rank: 1000 + 500 + 333 + 250
        assert rank1.stored_bytes == 2083
        assert rank1.full_bytes == 4000
        assert rollup.total_checkpoints == 12
        assert rollup.total_crashes == 1
        assert rollup.dedup_ratio == pytest.approx(12000 / 6249)
        assert rollup.max_backlog_seconds == pytest.approx(0.25)

    def test_rollup_is_order_independent(self):
        journals = _fleet_journals()
        fwd = build_rollup(journals)
        rev = build_rollup([list(reversed(j.records())) for j in reversed(journals)])
        assert fwd.events == rev.events
        assert fwd.summary() == rev.summary()

    def test_nodes_aggregation(self):
        nodes = build_rollup(_fleet_journals()).nodes()
        assert set(nodes) == {"node0", "node1"}
        assert nodes["node0"]["ranks"] == 2
        assert nodes["node1"]["ranks"] == 1
        assert nodes["node0"]["crashes"] == 1
        assert nodes["node0"]["dedup_ratio"] == pytest.approx(8000 / 4166)

    def test_restore_amplification(self):
        journal = EventJournal(node="n", rank=0)
        journal.emit(RESTORE, path="indexed", payload_bytes=500, state_bytes=1000)
        rollup = build_rollup(journal)
        assert rollup.restore_amplification == 0.5

    def test_tier_outages_collected_separately(self):
        journal = EventJournal(node="n")
        journal.emit(TIER_OUTAGE, sim_time=0.0, tier="ssd", kind="permanent")
        rollup = build_rollup(journal)
        assert len(rollup.tier_outages) == 1
        assert rollup.summary()["tier_outages"] == 1

    def test_accepts_single_journal_and_bare_records(self):
        journals = _fleet_journals()
        single = build_rollup(journals[0])
        bare = build_rollup(journals[0].records())
        assert single.summary() == bare.summary()

    def test_rank_evidence_grouped_in_merged_order(self):
        # What the per-rank rules attach as evidence: each rank's commit
        # and crash/restart events, exactly as a filter of the merged
        # stream would select them.
        rollup = build_rollup(_fleet_journals())
        for (node, rank), rolled in rollup.ranks.items():
            mine = [
                e for e in rollup.events
                if e["node"] == node and e["rank"] == rank
            ]
            assert rolled.commit_events == [
                e for e in mine if e["type"] == CHECKPOINT_COMMITTED
            ]
            assert rolled.crash_events == [
                e for e in mine if e["type"] in (CRASH, RESTART)
            ]
        assert len(rollup.ranks[("node0", 1)].crash_events) == 2

    def test_mixed_runs_roll_up_and_are_named(self):
        a = EventJournal(node="n0", rank=0, run_id="run-a")
        b = EventJournal(node="n0", rank=1, run_id="run-b")
        a.emit(CRASH, sim_time=1.0)
        b.emit(CRASH, sim_time=2.0)
        rollup = build_rollup([a, b])
        assert rollup.run_ids == ["run-a", "run-b"]
        assert len(rollup.events) == 2

    def test_loaded_journal_damage_is_accounted(self, tmp_path):
        good = tmp_path / "good.jsonl"
        _fleet_journals()[0].write(good)
        with good.open("a") as fh:
            fh.write("{torn\n")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("not json\n")
        rollup = build_rollup([read_journal(good), read_journal(empty)])
        assert rollup.skipped_lines == 2
        assert [p.split(":")[0] for p in rollup.problems] == [
            "good.jsonl",
            "empty.jsonl",
        ]
        # A single LoadedJournal — even one with no records — is one journal.
        assert build_rollup(read_journal(empty)).skipped_lines == 1
