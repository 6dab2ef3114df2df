"""Names, units, directions and bounds of every metric the benchmark prints.

``BENCHMARK.json`` at the repo root is this table in the driver's schema
(``test_estimators.py`` checks they agree); README.md says what each
metric means and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Rounds of each pass at the driver's ``--seconds 20``; other budgets
#: scale these proportionally.  Fixed, never adapted to the machine's speed:
#: a floor over fewer rounds reads higher, so round count is part of the
#: estimator.
SECONDS_NOMINAL = 20
ROUNDS_E2E = {"timing": 16, "cold_start": 5}
ROUNDS_TRACE = {"timing": 6, "traced": 4, "spans_on": 6, "journal_on": 6}
#: The all-workloads invocation (no ``--workload``): four workloads
#: interleaved round-robin in one process.
ROUNDS_FULL = {"timing": 20, "cold_start": 5, "traced": 4, "spans_on": 6, "journal_on": 6}

#: (name, unit, better, bound).  Time bounds are what a 20 s window on a
#: shared 2-vCPU VM can resolve (README.md, "Noise").  Byte and simulated
#: metrics repeat exactly for a seed and, because the seed only chooses
#: bytes, across seeds too -- except sim_ckpt_gb_per_s, which sees the
#: hash-table probe counts of the actual digests (0.5 % across seeds).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("commit_ms_p50", "ms", "lower", 0.25),
    ("commit_ms_p90", "ms", "lower", 0.25),
    ("restore_latest_ms", "ms", "lower", 0.25),
    ("stored_bytes_per_user_byte", "B/B", "lower", 0.005),
    ("written_bytes_per_user_byte", "B/B", "lower", 0.005),
    ("restore_read_bytes_per_state_byte", "B/B", "lower", 0.005),
    ("sim_ckpt_gb_per_s", "sim_GB/s", "higher", 0.02),
    ("sim_restore_gb_per_s", "sim_GB/s", "higher", 0.005),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

#: (name, unit, better).  No bounds: these explain, they do not gate.
PER_LAYER: List[Tuple[str, str, str]] = [
    # hashing
    ("hashing.hash_chunks.ms", "ms", "lower"),
    ("hashing.hash_chunks.gb_per_s", "GB/s", "higher"),
    ("hashing.native_kernel", "bool", "higher"),
    ("hashing.native_build_s", "s", "lower"),
    # kokkos
    ("kokkos.digest_map.insert_or_lookup.ms", "ms", "lower"),
    ("kokkos.digest_map.lookup.ms", "ms", "lower"),
    ("kokkos.digest_map.entries", "count", "lower"),
    ("kokkos.digest_map.capacity", "count", "lower"),
    ("kokkos.digest_map.load_factor", "ratio", "higher"),
    ("kokkos.digest_map.grows", "count", "lower"),
    ("kokkos.digest_map.nbytes", "B", "lower"),
    # core.dedup_tree
    ("core.dedup_tree.checkpoint.ms", "ms", "lower"),
    ("core.dedup_tree.self_ms", "ms", "lower"),
    ("core.dedup_tree.floor_ratio", "x", "lower"),
    ("core.dedup_tree.phase.hash_leaves.ms", "ms", "lower"),
    ("core.dedup_tree.phase.map_leaves.ms", "ms", "lower"),
    ("core.dedup_tree.phase.first_pass.ms", "ms", "lower"),
    ("core.dedup_tree.phase.shift_pass.ms", "ms", "lower"),
    ("core.dedup_tree.phase.gather.ms", "ms", "lower"),
    ("core.dedup_tree.phase.unattributed_ms", "ms", "lower"),
    ("core.dedup_tree.num_first_per_ckpt", "count", "lower"),
    ("core.dedup_tree.num_shift_per_ckpt", "count", "lower"),
    ("core.dedup_tree.device_state_mb", "MB", "lower"),
    # core.diff
    ("core.diff.to_bytes.ms", "ms", "lower"),
    ("core.diff.frame_bytes_per_ckpt", "B", "lower"),
    ("core.diff.metadata_share", "share", "lower"),
    # core.store
    ("core.store.append.ms", "ms", "lower"),
    ("core.store.append.self_ms", "ms", "lower"),
    ("core.store.append.tail_over_head", "x", "lower"),
    ("core.store.frame_bytes", "B", "lower"),
    ("core.store.index_bytes", "B", "lower"),
    ("core.store.manifest_bytes", "B", "lower"),
    ("core.store.reopen.ms", "ms", "lower"),
    ("core.store.verify_record.ms", "ms", "lower"),
    ("core.store.load_record_frames.ms", "ms", "lower"),
    ("core.store.frames_parsed", "count", "lower"),
    # core.provenance
    ("core.provenance.builder_append.ms", "ms", "lower"),
    ("core.provenance.load_provenance.ms", "ms", "lower"),
    ("core.provenance.materialize_index.ms", "ms", "lower"),
    ("core.provenance.index_bytes_per_ckpt", "B", "lower"),
    ("core.provenance.restore_mid_ms", "ms", "lower"),
    ("core.provenance.restore_at_q1_ms", "ms", "lower"),
    ("core.provenance.restore_at_q2_ms", "ms", "lower"),
    ("core.provenance.restore_at_q3_ms", "ms", "lower"),
    # the three other restore paths
    ("core.restore.replay.ms", "ms", "lower"),
    ("core.selective.restore.ms", "ms", "lower"),
    ("runtime.fleet_restore.sharded4.ms", "ms", "lower"),
    ("runtime.fleet_restore.sharded4.sim_s", "sim_s", "lower"),
    # gpusim
    ("gpusim.ckpt.kernel_s", "sim_s", "lower"),
    ("gpusim.ckpt.transfer_s", "sim_s", "lower"),
    ("gpusim.ckpt.launches", "count", "lower"),
    ("gpusim.ckpt.bytes_moved", "B", "lower"),
    ("gpusim.ckpt.random_accesses", "count", "lower"),
    ("gpusim.restore.gather_s", "sim_s", "lower"),
    ("gpusim.restore.read_s", "sim_s", "lower"),
    ("gpusim.price.ms", "ms", "lower"),
    # runtime
    ("runtime.flush.submit.self_ms", "ms", "lower"),
    ("runtime.flush.blocked_sim_s", "sim_s", "lower"),
    ("runtime.flush.persist_lag_sim_s", "sim_s", "lower"),
    ("runtime.node.checkpoint_all.self_ms", "ms", "lower"),
    # telemetry
    ("telemetry.spans_on.overhead_share", "share", "lower"),
    ("telemetry.journal_on.overhead_share", "share", "lower"),
    # the measurement itself
    ("bench.share.tree_of_commit", "share", "lower"),
    ("bench.share.append_of_commit", "share", "lower"),
    ("bench.share.load_provenance_of_restore", "share", "lower"),
    ("bench.unattributed_share", "share", "lower"),
    ("bench.restore_unattributed_share", "share", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
    ("bench.noise_index", "x", "lower"),
    ("bench.commit_ms_p50_raw", "ms", "lower"),
    ("bench.restore_latest_ms_raw", "ms", "lower"),
    ("bench.trace_gen_s", "s", "lower"),
    ("bench.timed_window_s", "s", "higher"),
    ("bench.samples.commit", "count", "higher"),
    ("bench.samples.restore", "count", "higher"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
UNITS["failed_ops_share"] = "ratio"


def benchmark_json(workloads) -> dict:
    """``BENCHMARK.json`` in the driver's schema."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": SECONDS_NOMINAL,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
