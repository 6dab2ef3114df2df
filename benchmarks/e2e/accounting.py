"""The accounting pass: one untimed round with every count captured.

Runs in a child process (``run.py --accounting-child``) so that its peak
RSS is the footprint of exactly one round of one workload.
Everything it reports except ``peak_rss_mb`` is a count made by the
program — bytes, simulated seconds, table sizes — and must repeat exactly
for a fixed seed; that is what makes these metrics usable as evidence on
a machine whose wall clock is not.
"""

from __future__ import annotations

import resource
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core import store
from repro.gpusim.cluster import thetagpu
from repro.gpusim.device import a100
from repro.gpusim.perfmodel import KernelCostModel
from repro.runtime import NodeRuntime

from harness import CADENCE_S, Tally, run_round
from tracing import TARGETS, SpanRecorder
from workloads import Trace, TraceCursor, WorkloadSpec

APPEND = "core.store.append"


def peak_rss_mb() -> float:
    """This process's own high-water RSS.

    ``VmHWM`` belongs to the address space created at exec; ``ru_maxrss``
    also remembers the (larger) parent the child was vforked from, which
    would make the metric follow the harness instead of the program.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def account(spec: WorkloadSpec, trace: Trace, record_root: Path) -> Dict[str, float]:
    """One metered round of *spec*; returns the flat count table."""
    tally = Tally()
    model = KernelCostModel(a100())
    cursor = TraceCursor(trace)
    # The only wrapper here keeps RecordWriter.append's receipts, which
    # NodeRuntime's persist hook otherwise drops.
    recorder = SpanRecorder(
        targets=tuple(t for t in TARGETS if t[3] == APPEND), keep_results_of=(APPEND,)
    )
    costs = []
    views = []
    capacities: List[int] = []

    def after_commit(step: int, node: NodeRuntime) -> None:
        engine = node.engines[0]
        capacities.append(engine.map.capacity)
        if step >= 1:
            view = engine.last_checkpoint_view()
            views.append(view)
            costs.append(model.price(view))

    with recorder:
        result = run_round(
            spec, cursor, record_root, tally, after_commit=after_commit, metered=True
        )
    node = result.node
    engine = node.engines[0]
    record_dir = node.record_path(0)
    steps = spec.checkpoints - 1
    user_bytes = spec.checkpoints * spec.data_len
    GB = 1e9

    receipts = recorder.results[APPEND]
    diffs = [p.diff for p in node.persisted[0]][1:]
    frame_sizes = store.record_frame_sizes(record_dir)
    index_bytes = store.record_index_bytes(record_dir)
    report = result.latest_report
    restore_cost = model.price_restore(
        result.latest_space.ledger,
        spec.data_len,
        read_bytes=report.record_bytes_read,
        read_bandwidth=thetagpu().pfs_bandwidth,
    )
    flushes = node.pipeline.reports

    # The failure the system exists for, last because it resets the record:
    # crash after everything is durable, restart, compare bit-for-bit.
    final = cursor.goto(steps).copy()
    tally.attempted += 1
    crash = node.crash_restart(0, at_time=(steps + 1) * CADENCE_S, scrub=True)
    tally.check(
        crash.restored_ckpt_id == steps and np.array_equal(crash.restored_state, final),
        f"{spec.name}: crash_restart restored checkpoint {crash.restored_ckpt_id} wrongly",
    )

    def mean(values) -> float:
        return float(np.mean(values))

    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "peak_rss_mb": peak_rss_mb(),
        # end to end
        "stored_bytes_per_user_byte": sum(frame_sizes) / user_bytes,
        "written_bytes_per_user_byte": sum(r.bytes_written for r in receipts) / user_bytes,
        "restore_read_bytes_per_state_byte": report.record_bytes_read / spec.data_len,
        "sim_ckpt_gb_per_s": steps * spec.data_len / sum(c.total_seconds for c in costs) / GB,
        "sim_restore_gb_per_s": spec.data_len / restore_cost.seconds / GB,
        # kokkos
        "kokkos.digest_map.entries": len(engine.map),
        "kokkos.digest_map.capacity": engine.map.capacity,
        "kokkos.digest_map.load_factor": engine.map.load_factor,
        "kokkos.digest_map.grows": sum(
            1 for a, b in zip(capacities, capacities[1:]) if b > a
        ),
        "kokkos.digest_map.nbytes": engine.map.nbytes,
        # core
        "core.dedup_tree.num_first_per_ckpt": mean([d.num_first for d in diffs]),
        "core.dedup_tree.num_shift_per_ckpt": mean([d.num_shift for d in diffs]),
        "core.dedup_tree.device_state_mb": engine.device_state_bytes() / 2**20,
        "core.diff.frame_bytes_per_ckpt": mean([d.serialized_size for d in diffs]),
        "core.diff.metadata_share": sum(d.metadata_bytes + d.header_bytes for d in diffs)
        / sum(d.serialized_size for d in diffs),
        "core.store.frame_bytes": mean([r.frame_bytes for r in receipts[1:]]),
        "core.store.index_bytes": mean([r.index_bytes for r in receipts[1:]]),
        "core.store.manifest_bytes": mean([r.manifest_bytes for r in receipts[1:]]),
        "core.store.frames_parsed": report.frames_parsed,
        "core.provenance.index_bytes_per_ckpt": index_bytes / spec.checkpoints,
        # gpusim (per-checkpoint means over steps >= 1)
        "gpusim.ckpt.kernel_s": mean([c.kernel_seconds for c in costs]),
        "gpusim.ckpt.transfer_s": mean([c.transfer_seconds for c in costs]),
        "gpusim.ckpt.launches": mean([sum(k.launches for k in v.kernels) for v in views]),
        "gpusim.ckpt.bytes_moved": mean(
            [sum(k.bytes_read + k.bytes_written for k in v.kernels) for v in views]
        ),
        "gpusim.ckpt.random_accesses": mean(
            [sum(k.random_accesses for k in v.kernels) for v in views]
        ),
        "gpusim.restore.gather_s": restore_cost.gather_seconds,
        "gpusim.restore.read_s": restore_cost.read_seconds,
        # runtime
        "runtime.flush.blocked_sim_s": mean([f.blocked_seconds for f in flushes]),
        "runtime.flush.persist_lag_sim_s": mean([f.end_to_end_seconds for f in flushes]),
    }
