"""Turn raw round samples, spans and counts into the named metrics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from estimators import floor_percentile, low_quantile
from harness import RoundResult, WorkloadRun, reference_round
from tracing import COMMIT_ROOT, RESTORE_ROOT, Operation

MS = 1e3


def _commit_grid(rounds: Sequence[RoundResult]) -> List[List[float]]:
    return [r.commit_s for r in rounds]


def commit_floor_p50(rounds: Sequence[RoundResult]) -> float:
    return floor_percentile(_commit_grid(rounds), 50)


def end_to_end(run: WorkloadRun, counts: Dict[str, float]) -> Dict[str, float]:
    """The gated metrics: times from the timing pass, the rest from the
    accounting pass."""
    timing = run.rounds["timing"]
    grid = _commit_grid(timing)
    out = {
        "commit_ms_p50": floor_percentile(grid, 50) * MS,
        "commit_ms_p90": floor_percentile(grid, 90) * MS,
        "restore_latest_ms": low_quantile([r.latest_s for r in timing]) * MS,
        "setup_s": statistics.median(run.cold_start_s) + min(r.setup_s for r in timing),
    }
    for name in (
        "stored_bytes_per_user_byte",
        "written_bytes_per_user_byte",
        "restore_read_bytes_per_state_byte",
        "sim_ckpt_gb_per_s",
        "sim_restore_gb_per_s",
        "peak_rss_mb",
    ):
        out[name] = counts[name]
    return out


def _reference(run: WorkloadRun, kind: str) -> List[RoundResult]:
    """The timing rounds that ran beside the rounds of pass *kind*."""
    timing = run.rounds["timing"]
    n = len(run.rounds[kind])
    return [timing[reference_round(k, n, len(timing))] for k in range(n)]


def _overhead(run: WorkloadRun, kind: str) -> float:
    """Commit floor of pass *kind* over its like-for-like reference, minus 1."""
    return commit_floor_p50(run.rounds[kind]) / commit_floor_p50(_reference(run, kind)) - 1.0


@dataclass
class CommitLayers:
    """Mean seconds per commit by layer, over the per-step floor rounds."""

    inclusive: Dict[str, float]
    self_time: Dict[str, float]
    #: ``RecordWriter.append`` in the last tenth of the steps over the first.
    append_tail_over_head: float


def _floor_round_means(ops: Sequence[Operation], steps: int) -> CommitLayers:
    """Per-layer mean seconds per commit, each step taken from the round
    where that step's root span was fastest (so layers still sum to it)."""
    best: Dict[int, Operation] = {}
    for op in ops:
        step = op.context["step"]
        if step not in best or op.duration < best[step].duration:
            best[step] = op
    incl: Dict[str, float] = {}
    self_t: Dict[str, float] = {}
    for op in best.values():
        for name, seconds in op.inclusive.items():
            incl[name] = incl.get(name, 0.0) + seconds
        for name, seconds in op.self_time.items():
            self_t[name] = self_t.get(name, 0.0) + seconds
    head = max(1, steps // 10)
    ordered = [best[s] for s in sorted(best)]

    def append_seconds(chunk: Sequence[Operation]) -> float:
        return float(np.mean([op.inclusive.get("core.store.append", 0.0) for op in chunk]))

    return CommitLayers(
        inclusive={k: v / len(best) for k, v in incl.items()},
        self_time={k: v / len(best) for k, v in self_t.items()},
        append_tail_over_head=append_seconds(ordered[-head:]) / append_seconds(ordered[:head]),
    )


def per_layer(
    run: WorkloadRun,
    counts: Dict[str, float],
    operations: Sequence[Operation],
    native_kernel: bool,
    native_build_s: float,
) -> Dict[str, float]:
    """The explanatory metrics; see README.md for what each should move."""
    spec = run.spec
    steps = spec.checkpoints - 1
    timing = run.rounds["timing"]
    traced = run.rounds["traced"]
    mine = [op for op in operations if op.context.get("workload") == spec.name]

    commits = _floor_round_means(
        [op for op in mine if op.name == COMMIT_ROOT and op.context["op"] == "commit"],
        steps,
    )
    c_incl, c_self = commits.inclusive, commits.self_time
    commit_root = c_incl[COMMIT_ROOT]

    restores = sorted(
        (op for op in mine if op.name == RESTORE_ROOT and op.context["op"] == "latest"),
        key=lambda op: op.duration,
    )
    restore = restores[int(0.1 * (len(restores) - 1))]

    def c_ms(name: str, table=c_incl) -> float:
        return table.get(name, 0.0) * MS

    def r_ms(name: str) -> float:
        return restore.inclusive.get(name, 0.0) * MS

    # Engine phases come from the program's own PhaseTimer; take the round
    # whose tree total was lowest so the phases still add up to it.
    phases = min((r.phase_s for r in timing), key=lambda p: p["tree.process"])
    named = ("hash_leaves", "map_leaves", "first_pass", "shift_pass", "gather")
    phase_ms = {n: phases.get(f"tree.{n}", 0.0) / steps * MS for n in named}

    hash_ms = c_ms("hashing.hash_chunks")
    tree_ms = c_ms("core.dedup_tree.checkpoint")
    grid = _commit_grid(timing)
    floor_p50 = floor_percentile(grid, 50)
    traced_floor = commit_floor_p50(traced)

    out = {
        "hashing.hash_chunks.ms": hash_ms,
        "hashing.hash_chunks.gb_per_s": spec.data_len / (hash_ms / MS) / 1e9,
        "hashing.native_kernel": float(native_kernel),
        "hashing.native_build_s": native_build_s,
        "kokkos.digest_map.insert_or_lookup.ms": c_ms("kokkos.digest_map.insert_or_lookup"),
        "kokkos.digest_map.lookup.ms": c_ms("kokkos.digest_map.lookup"),
        "core.dedup_tree.checkpoint.ms": tree_ms,
        "core.dedup_tree.self_ms": c_ms("core.dedup_tree.checkpoint", c_self),
        "core.dedup_tree.floor_ratio": tree_ms / hash_ms,
        **{f"core.dedup_tree.phase.{n}.ms": v for n, v in phase_ms.items()},
        "core.dedup_tree.phase.unattributed_ms": phases["tree.process"] / steps * MS
        - sum(phase_ms.values()),
        "core.diff.to_bytes.ms": c_ms("core.diff.to_bytes"),
        "core.store.append.ms": c_ms("core.store.append"),
        "core.store.append.self_ms": c_ms("core.store.append", c_self),
        "core.store.append.tail_over_head": commits.append_tail_over_head,
        "core.store.reopen.ms": low_quantile([r.reopen_s for r in timing]) * MS,
        "core.store.verify_record.ms": low_quantile([r.verify_s for r in timing]) * MS,
        "core.store.load_record_frames.ms": r_ms("core.store.load_record_frames"),
        "core.provenance.builder_append.ms": c_ms("core.provenance.builder_append"),
        "core.provenance.load_provenance.ms": r_ms("core.provenance.load_provenance"),
        "core.provenance.materialize_index.ms": r_ms("core.provenance.materialize_index"),
        "core.provenance.restore_mid_ms": low_quantile([r.mid_s for r in timing]) * MS,
        **{
            f"core.provenance.restore_at_q{q + 1}_ms": low_quantile(
                [r.read_s[q] for r in timing]
            )
            * MS
            for q in range(3)
        },
        "core.restore.replay.ms": min(r.other_restores_s["replay"] for r in traced) * MS,
        "core.selective.restore.ms": min(r.other_restores_s["selective"] for r in traced) * MS,
        "runtime.fleet_restore.sharded4.ms": min(r.other_restores_s["sharded4"] for r in traced)
        * MS,
        "runtime.fleet_restore.sharded4.sim_s": traced[0].fleet_sim_s,
        "gpusim.price.ms": c_ms("gpusim.price"),
        "runtime.flush.submit.self_ms": c_ms("runtime.flush.submit", c_self),
        "runtime.node.checkpoint_all.self_ms": c_ms(COMMIT_ROOT, c_self),
        "telemetry.spans_on.overhead_share": _overhead(run, "spans_on"),
        "telemetry.journal_on.overhead_share": _overhead(run, "journal_on"),
        "bench.share.tree_of_commit": c_incl["core.dedup_tree.checkpoint"] / commit_root,
        "bench.share.append_of_commit": c_incl["core.store.append"] / commit_root,
        "bench.share.load_provenance_of_restore": restore.inclusive[
            "core.provenance.load_provenance"
        ]
        / restore.duration,
        "bench.unattributed_share": c_self[COMMIT_ROOT] / commit_root,
        "bench.restore_unattributed_share": restore.self_time[RESTORE_ROOT] / restore.duration,
        "bench.trace_overhead_share": traced_floor / commit_floor_p50(_reference(run, "traced"))
        - 1.0,
        "bench.noise_index": float(np.median(grid)) / floor_p50,
        "bench.commit_ms_p50_raw": float(np.median(grid)) * MS,
        "bench.restore_latest_ms_raw": float(np.median([r.latest_s for r in timing])) * MS,
        "bench.trace_gen_s": run.trace_gen_s,
        "bench.timed_window_s": timing[-1].ended - timing[0].started,
        "bench.samples.commit": float(np.size(grid)),
        "bench.samples.restore": float(sum(len(r.latest_s) for r in timing)),
    }
    for name, value in counts.items():
        if "." in name:
            out[name] = float(value)
    return out


def layers_sum_to_root(operations: Sequence[Operation]) -> float:
    """Largest relative gap between a root span and the sum of the self
    times under it (0 up to float rounding, by construction)."""
    return max(
        (abs(sum(op.self_time.values()) - op.duration) / op.duration for op in operations),
        default=0.0,
    )
