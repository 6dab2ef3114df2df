"""Fault-injection campaign: detection and recovery rates under seeded faults.

Exercises the failure path end to end on the fixed-seed ORANGES golden
trace (the same trace the bit-identical Tree goldens are captured from)
and writes ``BENCH_faults.json`` next to the repo root (or
``$REPRO_BENCH_OUT``):

* ``record``   — a seeded :class:`~repro.faults.FaultPlan` sweep over
  corruption of one stored frame in the record's pack (a bit flip, a cut
  inside it that loses the tail, its extent zero-filled): every
  fault must be detected by ``verify_record()`` or be provably
  harmless, and every checkpoint the damaged record still restores
  (through ``restore_record_indexed``, the restore ``repro restore``
  runs) must be bit-identical to the workload's own bytes — zero
  silent wrong-bytes restores.  ``restorable`` counts those
  checkpoints.
* ``tiers``    — transient and permanent tier outages through
  :class:`~repro.runtime.AsyncFlushPipeline`: retry/backoff counts and
  route-around write-through.
* ``crashes``  — seeded process crashes through
  :meth:`~repro.runtime.NodeRuntime.crash_restart` of a node whose units
  keep their records on disk: every restart's state must be
  bit-identical to the process's last durable checkpoint (its restored
  state after an earlier restart, zeros after a cold one); reports lost
  work.
* ``damaged_restart`` — the same crashes, each restart preceded by one
  seeded frame fault (``apply_record_faults``) in the crashed process's
  record: the restart falls back to the newest checkpoint the record
  still restores, and every restore must equal the golden bytes of the
  checkpoint it reports — zero silent wrong-bytes restores.

Run directly (``python benchmarks/bench_faults.py``), under pytest, or
via ``python -m repro bench faults``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.core import TreeDedup, save_record
from repro.faults import FaultPlan, run_record_campaign
from repro.oranges import OrangesApp
from repro.runtime import AsyncFlushPipeline, NodeRuntime, StorageTier

#: Geometry of the golden trace (matches tests/integration/test_tree_golden.py).
TRACE = dict(workload="unstructured_mesh", num_vertices=512, seed=2)
CHUNK_SIZE = 64
NUM_CHECKPOINTS = 5

CAMPAIGN_TRIALS = int(os.environ.get("REPRO_FAULT_TRIALS", 60))
CAMPAIGN_SEED = 0


def golden_trace():
    """The fixed-seed ORANGES diff chain and a copy of each GDV snapshot
    it checkpoints: the truth every restore is graded against."""
    app = OrangesApp(TRACE["workload"], num_vertices=TRACE["num_vertices"],
                     seed=TRACE["seed"])
    engine = app.fresh_engine()
    tree = TreeDedup(engine.buffer_nbytes, CHUNK_SIZE)
    diffs, states = [], []
    for snap in engine.checkpoint_stream(NUM_CHECKPOINTS):
        buf = snap.reshape(-1).view(np.uint8)
        diffs.append(tree.checkpoint(buf))
        states.append(buf.copy())
    return diffs, states


def bench_record_campaign(diffs, states, workdir: Path) -> dict:
    record_dir = save_record(diffs, workdir / "golden-record", method="tree")
    results = run_record_campaign(
        record_dir,
        states,
        workdir / "campaign",
        trials=CAMPAIGN_TRIALS,
        seed=CAMPAIGN_SEED,
    )
    results["trace"] = dict(TRACE, chunk_size=CHUNK_SIZE,
                            num_checkpoints=NUM_CHECKPOINTS)
    return results


def bench_tier_faults(diffs) -> dict:
    """Drain the golden chain through a faulted hierarchy twice."""
    sizes = [d.serialized_size for d in diffs]

    def hierarchy():
        return [
            StorageTier("host", max(sizes) * 4, 100e6),
            StorageTier("ssd", max(sizes) * 400, 50e6),
            StorageTier("pfs", max(sizes) * 40_000, 1000e6),
        ]

    # Transient outage on the host drain link mid-cadence.
    pipe = AsyncFlushPipeline(hierarchy(), retry_base_seconds=0.05)
    pipe.tiers[0].fail_transient(0.0, 0.4)
    for i, nbytes in enumerate(sizes):
        pipe.submit(f"ck{i}", nbytes, now=i * 0.5)
    transient = {
        "retries": pipe.total_retries,
        "retry_wait_seconds": round(
            sum(r.retry_wait_seconds for r in pipe.reports), 4
        ),
        "all_persisted": all("pfs" in r.arrived for r in pipe.reports),
    }

    # Permanent SSD failure: every object must write through host→PFS.
    pipe = AsyncFlushPipeline(hierarchy())
    pipe.tiers[1].fail_permanent(0.0)
    for i, nbytes in enumerate(sizes):
        pipe.submit(f"ck{i}", nbytes, now=i * 0.5)
    permanent = {
        "routed_around_ssd": all("ssd" in r.skipped_tiers for r in pipe.reports),
        "all_persisted": all("pfs" in r.arrived for r in pipe.reports),
        "degraded_flushes": sum(1 for r in pipe.reports if r.degraded),
    }
    return {"transient": transient, "permanent_middle": permanent}


def _crash_sweep(record_root: Path, damage: bool, n_crashes: int = 8,
                 seed: int = 3):
    """Seeded crash-restart sweep over a node recording under
    *record_root*; with *damage*, one seeded frame fault hits the crashed
    process's record before each restart.  Returns the crash reports,
    how many of them restored golden bytes, and the faults applied."""
    data_len, chunk = 64 * 256, 64
    node = NodeRuntime(data_len=data_len, chunk_size=chunk, num_processes=2,
                       record_root=record_root)
    rng = np.random.default_rng(seed)
    buffers = [rng.integers(0, 256, data_len, dtype=np.uint8) for _ in range(2)]
    snapshots = []
    period = 10.0
    steps = 6
    for step in range(steps):
        node.checkpoint_all(buffers, now=step * period)
        snapshots.append([b.copy() for b in buffers])
        for b in buffers:
            at = int(rng.integers(0, data_len - 512))
            b[at : at + 512] = rng.integers(0, 256, 512, dtype=np.uint8)

    plan = FaultPlan(seed)
    crashes = plan.plan_crashes(2, horizon_seconds=steps * period,
                                n_crashes=n_crashes)
    # Each process's truth since its last restart: index i is the golden
    # state of its chain's checkpoint i (a restart re-seeds the chain with
    # the restored checkpoint; a cold restart empties it).
    truth = [[snap[p] for snap in snapshots] for p in range(2)]
    reports, identical, applied = [], 0, 0
    for spec in crashes:
        p = spec.process
        held = node.checkpointers[p].num_checkpoints
        if damage and held:
            faults = plan.plan_record_faults(held, n_faults=1)
            applied += len(plan.apply_record_faults(node.record_path(p), faults))
        report = node.crash_restart(p, spec.at)
        reports.append(report)
        restored = report.restored_ckpt_id
        if restored is None:
            # Cold restart: the process restarts at zeros.
            identical += int(not report.restored_state.any())
            truth[p] = []
        else:
            truth[p] = truth[p][restored : restored + 1]
            identical += int(
                bool(truth[p]) and np.array_equal(report.restored_state, truth[p][0])
            )
    return reports, identical, applied


def bench_crashes(workdir: Path) -> dict:
    """Seeded crash-restart sweep: recovery must be bit-identical."""
    reports, identical, _ = _crash_sweep(workdir / "crash-records", damage=False)
    lost = [r.lost_work_seconds for r in reports]
    return {
        "crashes": len(reports),
        "bit_identical_restores": identical,
        "mean_lost_work_seconds": round(float(np.mean(lost)), 4),
        "max_lost_work_seconds": round(float(np.max(lost)), 4),
    }


def bench_damaged_restarts(workdir: Path) -> dict:
    """The crash sweep with a damaged frame before every restart: each
    restart restores the newest checkpoint its record still restores (or
    none), bit-identically."""
    reports, identical, applied = _crash_sweep(
        workdir / "damaged-records", damage=True
    )
    lost = [r.lost_work_seconds for r in reports]
    return {
        "restarts": len(reports),
        "faults_applied": applied,
        "warm_restarts": sum(r.restored_ckpt_id is not None for r in reports),
        "cold_restarts": sum(r.restored_ckpt_id is None for r in reports),
        "skipped_ckpts": sum(len(r.skipped_ckpts) for r in reports),
        "bit_identical_restores": identical,
        "silent_wrong": len(reports) - identical,
        "mean_lost_work_seconds": round(float(np.mean(lost)), 4),
        "max_lost_work_seconds": round(float(np.max(lost)), 4),
    }


def health_summary(journal) -> dict:
    """Grade the campaign's own event journal with the health rules.

    The campaign *is* a fault storm, so the expected grade is critical —
    what matters is coverage: every injected tier outage and every
    record corruption must be in the evidence of a finding of its rule.
    """
    from repro.telemetry import build_rollup, evaluate_health
    from repro.telemetry.events import RECORD_FAULT, TIER_OUTAGE

    rollup = build_rollup(journal)
    health = evaluate_health(rollup)
    by_rule: dict = {}
    by_severity: dict = {}
    for f in health.findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        by_severity[f.severity] = by_severity.get(f.severity, 0) + 1

    def flagged(injected, rule):
        return sum(
            1
            for event in injected
            if any(event in f.evidence for f in health.findings if f.rule == rule)
        )

    outages = rollup.events_of(TIER_OUTAGE)
    corruptions = rollup.events_of(RECORD_FAULT)
    return {
        "events": len(rollup.events),
        "status": health.status,
        "exit_code": health.exit_code,
        "findings": len(health.findings),
        "by_rule": by_rule,
        "by_severity": by_severity,
        "injected_tier_outages": len(outages),
        "flagged_tier_outages": flagged(outages, "tier_outage"),
        "injected_corruptions": len(corruptions),
        "flagged_corruptions": flagged(corruptions, "corruption"),
    }


def run(out_path: Path | None = None) -> dict:
    from repro import telemetry
    from repro.telemetry import events

    with telemetry.capture() as tel, events.journal_to(node="bench") as journal:
        diffs, states = golden_trace()
        with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
            report = {
                "bench": "faults",
                "record": bench_record_campaign(diffs, states, Path(tmp)),
                "tiers": bench_tier_faults(diffs),
                "crashes": bench_crashes(Path(tmp)),
                "damaged_restart": bench_damaged_restarts(Path(tmp)),
            }
    report["health"] = health_summary(journal)
    report["telemetry"] = tel
    if out_path is None:
        out_path = Path(
            os.environ.get(
                "REPRO_BENCH_OUT",
                Path(__file__).resolve().parent.parent / "BENCH_faults.json",
            )
        )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    report["out_path"] = str(out_path)
    return report


def test_bench_faults(capsys):
    report = run()
    with capsys.disabled():
        print()
        print(json.dumps(report, indent=2))
    total = report["record"]["total"]
    assert total["detection_rate"] == 1.0, "undetected record corruption"
    assert total["silent_wrong"] == 0, "silent wrong-bytes restore"
    assert total["recovery_rate"] == 1.0, "a restored checkpoint diverged"
    assert report["tiers"]["transient"]["all_persisted"]
    assert report["tiers"]["permanent_middle"]["routed_around_ssd"]
    assert report["crashes"]["bit_identical_restores"] == report["crashes"]["crashes"]
    damaged = report["damaged_restart"]
    assert damaged["faults_applied"] > 0 and damaged["skipped_ckpts"] > 0
    assert damaged["silent_wrong"] == 0, "a damaged restart restored wrong bytes"
    health = report["health"]
    assert health["status"] == "critical", "fault storm must grade critical"
    assert health["injected_tier_outages"] == 2
    assert health["flagged_tier_outages"] == health["injected_tier_outages"], (
        "every injected tier outage must surface as a finding with evidence"
    )
    assert health["injected_corruptions"] > 0
    assert health["flagged_corruptions"] == health["injected_corruptions"], (
        "every injected record corruption must surface as a critical finding"
    )


if __name__ == "__main__":
    print(json.dumps(run(), indent=2))
