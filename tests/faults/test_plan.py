"""Tests for FaultPlan determinism, the one record-fault injector, the
one damage grader and the record campaign runner."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core import ENGINES, Restorer, save_record
from repro.core.provenance import restore_record_indexed
from repro.core.store import load_provenance
from repro.errors import FaultError
from repro.faults import (
    FaultPlan,
    RecordFault,
    TierFaultSpec,
    apply_record_faults,
    grade_record_damage,
    run_record_campaign,
)
from repro.faults.plan import RECORD_FAULT_KINDS
from repro.runtime import StorageTier
from repro.telemetry import events


@pytest.fixture
def record(tmp_path, rng):
    n = 64 * 48
    data = rng.integers(0, 256, n, dtype=np.uint8)
    engine = ENGINES["tree"](n, 64)
    diffs = [engine.checkpoint(data)]
    for k in range(3):
        data = data.copy()
        data[k * 128 : k * 128 + 128] = rng.integers(0, 256, 128, dtype=np.uint8)
        diffs.append(engine.checkpoint(data))
    path = save_record(diffs, tmp_path / "rec", method="tree")
    return path, diffs


class TestDeterminism:
    def test_same_seed_same_record_faults(self):
        a = FaultPlan(17).plan_record_faults(8, n_faults=5)
        b = FaultPlan(17).plan_record_faults(8, n_faults=5)
        assert a == b

    def test_different_seed_differs(self):
        a = FaultPlan(17).plan_record_faults(8, n_faults=5)
        b = FaultPlan(18).plan_record_faults(8, n_faults=5)
        assert a != b

    def test_domains_independent_of_call_order(self):
        plan_a = FaultPlan(5)
        tiers_first = plan_a.plan_tier_faults(["host", "ssd"], 10.0, n_transient=3)
        records_after = plan_a.plan_record_faults(4, n_faults=3)

        plan_b = FaultPlan(5)
        records_first = plan_b.plan_record_faults(4, n_faults=3)
        tiers_after = plan_b.plan_tier_faults(["host", "ssd"], 10.0, n_transient=3)

        assert tiers_first == tiers_after
        assert records_first == records_after

    def test_same_seed_same_crashes(self):
        a = FaultPlan(9).plan_crashes(4, 100.0, n_crashes=6)
        b = FaultPlan(9).plan_crashes(4, 100.0, n_crashes=6)
        assert a == b

    def test_all_domain_permutations_identical(self):
        """Regression: per-domain salted streams make every planner's
        output a function of (seed, domain, call index) alone — no
        ordering of calls across domains may change any plan."""
        import itertools

        calls = {
            "record": lambda p: p.plan_record_faults(6, n_faults=4),
            "tier": lambda p: p.plan_tier_faults(
                ["host", "ssd", "pfs"], 50.0, n_transient=2, n_permanent=1
            ),
            "crash": lambda p: p.plan_crashes(4, 50.0, n_crashes=3),
        }
        reference = None
        for order in itertools.permutations(calls):
            plan = FaultPlan(23)
            outputs = {name: calls[name](plan) for name in order}
            if reference is None:
                reference = outputs
            else:
                assert outputs == reference, f"order {order} changed a plan"

    def test_repeated_calls_draw_fresh_faults(self):
        """Two calls into the same domain must not replay the same
        stream, and the k-th call must be order-independent too."""
        plan = FaultPlan(11)
        first = plan.plan_record_faults(8, n_faults=5)
        second = plan.plan_record_faults(8, n_faults=5)
        assert first != second

        plan_b = FaultPlan(11)
        b_first = plan_b.plan_record_faults(8, n_faults=5)
        plan_b.plan_crashes(4, 100.0, n_crashes=2)  # interleaved domain
        b_second = plan_b.plan_record_faults(8, n_faults=5)
        assert (b_first, b_second) == (first, second)


class TestValidation:
    def test_empty_record_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(0).plan_record_faults(0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(0).plan_record_faults(4, kinds=("rot13",))

    def test_unknown_kind_refused_when_built(self, record):
        """A misspelt kind used to be applied as a delete."""
        path, _ = record
        with pytest.raises(FaultError, match="bitflp"):
            RecordFault(kind="bitflp", ckpt_index=1)
        assert len(list(path.glob("ckpt-*.rdif"))) == 4

    def test_unknown_tier_kind_refused_when_built(self):
        with pytest.raises(FaultError, match="unknown tier fault kind 'transiant'"):
            TierFaultSpec(tier="host", kind="transiant", start=1.0)

    def test_no_tiers_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(0).plan_tier_faults([], 10.0)

    def test_unknown_tier_rejected(self):
        plan = FaultPlan(0)
        specs = plan.plan_tier_faults(["nvme"], 10.0)
        with pytest.raises(FaultError):
            plan.apply_tier_faults([StorageTier("host", 100, 1.0)], specs)


class TestApply:
    def test_bitflip_changes_one_file(self, record):
        path, _ = record
        before = {
            p.name: p.read_bytes() for p in sorted(path.glob("ckpt-*.rdif"))
        }
        plan = FaultPlan(3)
        receipts = plan.apply_record_faults(
            path, plan.plan_record_faults(4, kinds=("bitflip",))
        )
        after = {p.name: p.read_bytes() for p in sorted(path.glob("ckpt-*.rdif"))}
        changed = [n for n in before if before[n] != after[n]]
        assert len(changed) == 1
        assert receipts[0].kind == "bitflip"
        assert plan.applied == receipts

    def test_delete_removes_file(self, record):
        path, _ = record
        plan = FaultPlan(3)
        plan.apply_record_faults(path, plan.plan_record_faults(4, kinds=("delete",)))
        assert len(list(path.glob("ckpt-*.rdif"))) == 3

    def test_apply_tier_faults(self):
        tier = StorageTier("ssd", 100, 1.0)
        plan = FaultPlan(1)
        specs = plan.plan_tier_faults(
            ["ssd"], 10.0, n_transient=1, n_permanent=1, transient_duration=2.0
        )
        plan.apply_tier_faults([tier], specs)
        kinds = {o.kind for o in tier.outages}
        assert kinds == {"transient", "permanent"}
        assert tier.is_dead(11.0)


class TestCampaign:
    def test_campaign_detects_and_recovers(self, record, tmp_path):
        path, diffs = record
        golden = Restorer().restore_all(diffs)
        results = run_record_campaign(
            path, golden, tmp_path / "work", trials=12, seed=4
        )
        total = results["total"]
        assert total["trials"] == 12
        assert total["silent_wrong"] == 0
        assert total["detection_rate"] == 1.0
        assert total["recovery_rate"] == 1.0


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


def _pinned_from_receipt(record):
    """The pinned fault a journal's ``record_fault`` receipt replays as
    (the rebuild ``schedule_from_timeline`` makes)."""
    return RecordFault(
        kind=str(record["kind"]),
        frame=Path(str(record["path"])).name,
        offset=int(record["detail"]),
        bit=int(record.get("bit", 0) or 0),
    )


class TestOneInjector:
    @pytest.mark.parametrize("kind", RECORD_FAULT_KINDS)
    def test_drawn_and_pinned_faults_inflict_the_same_damage(
        self, record, tmp_path, kind
    ):
        path, _ = record
        drawn_dir = shutil.copytree(path, tmp_path / "drawn")
        pinned_dir = shutil.copytree(path, tmp_path / "pinned")
        (fault,) = FaultPlan(7).plan_record_faults(4, kinds=(kind,))
        assert fault.frame is None and fault.offset is None
        with events.journal_to() as journal:
            drawn = apply_record_faults(drawn_dir, [fault])
        (receipt,) = [
            r for r in journal.records() if r["type"] == events.RECORD_FAULT
        ]
        pinned = apply_record_faults(pinned_dir, [_pinned_from_receipt(receipt)])
        assert _dir_bytes(drawn_dir) == _dir_bytes(pinned_dir)
        assert _dir_bytes(drawn_dir) != _dir_bytes(path)
        assert [(r.kind, Path(r.path).name, r.detail) for r in drawn] == [
            (r.kind, Path(r.path).name, r.detail) for r in pinned
        ]

    def test_stops_at_the_first_impossible_fault(self, tmp_path, rng):
        data = rng.integers(0, 256, 64 * 8, dtype=np.uint8)
        one = save_record([ENGINES["tree"](data.size, 64).checkpoint(data)],
                          tmp_path / "one", method="tree")
        # The second delete of the only frame finds no frame left: it
        # and everything after it are not applied.
        twice = [RecordFault("delete"), RecordFault("delete"),
                 RecordFault("bitflip")]
        receipts = apply_record_faults(one, twice)
        assert [r.kind for r in receipts] == ["delete"]
        assert list(one.glob("ckpt-*.rdif")) == []

    def test_a_bit_flip_into_an_emptied_frame_stops(self, record):
        path, _ = record
        faults = [RecordFault("truncate", frame="ckpt-00002.rdif", offset=0),
                  RecordFault("bitflip", frame="ckpt-00002.rdif", offset=3)]
        receipts = apply_record_faults(path, faults)
        assert [r.kind for r in receipts] == ["truncate"]
        assert (path / "ckpt-00002.rdif").stat().st_size == 0

    def test_missing_pinned_frame_raises(self, record):
        path, _ = record
        with pytest.raises(FaultError, match="ckpt-00009.rdif"):
            apply_record_faults(path, [RecordFault("delete", frame="ckpt-00009.rdif")])


class TestOneGrader:
    @pytest.fixture
    def goldens(self, record):
        _, diffs = record
        right = Restorer().restore_all(diffs)
        wrong = [state.copy() for state in right]
        wrong[0][0] ^= 0xFF
        return right, wrong

    def test_intact_record_is_harmless(self, record, goldens):
        assert grade_record_damage(record[0], goldens[0]) == (False, "harmless", 4)

    def test_flipped_frame_is_recovered(self, record, goldens):
        path, _ = record
        apply_record_faults(path, [RecordFault("bitflip", ckpt_index=2,
                                               offset_frac=0.5, bit=1)])
        # Every later row names frame 2: checkpoints 0 and 1 restore.
        assert grade_record_damage(path, goldens[0]) == (True, "recovered", 2)

    def test_damage_with_a_diverging_prefix_is_only_detected(self, record, goldens):
        path, _ = record
        apply_record_faults(path, [RecordFault("delete", ckpt_index=3)])
        assert grade_record_damage(path, goldens[1]) == (True, "detected", 3)

    def test_intact_record_against_wrong_goldens_is_silent_wrong(
        self, record, goldens
    ):
        assert grade_record_damage(record[0], goldens[1]) == (
            False,
            "silent_wrong",
            4,
        )

    def test_a_checkpoint_whose_row_skips_the_damage_still_restores(
        self, tmp_path, rng
    ):
        # Every step rewrites the same two chunks, so checkpoint 3's row
        # names frames 0 and 3 only.
        data = rng.integers(0, 256, 64 * 48, dtype=np.uint8)
        engine = ENGINES["tree"](data.size, 64)
        states = [data]
        for _ in range(3):
            data = data.copy()
            data[:128] = rng.integers(0, 256, 128, dtype=np.uint8)
            states.append(data)
        path = save_record([engine.checkpoint(s) for s in states],
                           tmp_path / "rec", method="tree")
        assert sorted(load_provenance(path, 3).referenced()) == [0, 3]
        apply_record_faults(path, [RecordFault("delete", ckpt_index=2)])
        newest, _ = restore_record_indexed(path)
        assert np.array_equal(newest, states[3])
        # A prefix stops at the hole and keeps checkpoints 0 and 1 only.
        assert grade_record_damage(path, states) == (True, "recovered", 3)

    def test_campaign_buckets_tally_the_labels(self, record, tmp_path):
        path, diffs = record
        golden = Restorer().restore_all(diffs)
        results = run_record_campaign(path, golden, tmp_path / "work",
                                      trials=9, seed=2)
        expected = {
            kind: dict.fromkeys(
                ("trials", "detected", "recovered", "harmless", "silent_wrong",
                 "restorable"), 0
            )
            for kind in (*RECORD_FAULT_KINDS, "total")
        }
        for trial in range(9):
            plan = FaultPlan(2 * 1_000_003 + trial)
            (fault,) = plan.plan_record_faults(len(golden))
            trial_dir = shutil.copytree(path, tmp_path / f"again-{trial}")
            plan.apply_record_faults(trial_dir, [fault])
            detected, label, restorable = grade_record_damage(trial_dir, golden)
            assert detected == (label in ("recovered", "detected"))
            for bucket in (expected[fault.kind], expected["total"]):
                bucket["trials"] += 1
                bucket["restorable"] += restorable
                bucket["detected"] += label in ("recovered", "detected")
                bucket["recovered"] += label == "recovered"
                bucket["harmless"] += label == "harmless"
                bucket["silent_wrong"] += label == "silent_wrong"
        for kind, bucket in expected.items():
            assert {k: results[kind][k] for k in bucket} == bucket
