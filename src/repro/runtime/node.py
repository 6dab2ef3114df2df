"""Integrated node runtime — Fig. 3 end to end.

Combines everything on one simulated compute node: several application
processes (one per GPU) produce checkpoints on a cadence; each process
commits through its own :class:`~repro.core.checkpointer.
IncrementalCheckpointer` (its GPU, priced with that node's PCIe
contention), hands the consolidated diff to the shared asynchronous flush
hierarchy, and resumes.  The runtime tracks the application-visible
checkpoint overhead — the paper's bottom-line metric: blocking time on the
device (de-dup + D2H) plus any stall waiting for host staging space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.base import DedupEngine
from ..core.checkpointer import IncrementalCheckpointer
from ..core.chunking import ChunkSpec
from ..core.diff import CheckpointDiff
from ..core.sharded_restore import restore_sharded
from ..errors import SimulationError
from ..gpusim.cluster import NodeSpec, thetagpu_node
from ..utils.validation import positive_float, positive_int
from .. import telemetry
from ..telemetry import events
from .async_flush import AsyncFlushPipeline
from .storage import StorageTier

PathLike = Union[str, Path]

#: The node's storage tiers, fastest first; the last is the terminal
#: tier a checkpoint is durable on, and the one a restart reads from.
TIER_NAMES = ("host", "ssd", "pfs")

_CRASH_RESTARTS = telemetry.counter(
    "node.crash_restarts", "Simulated process crash/restart cycles"
)
_LOST_WORK = telemetry.histogram(
    "node.lost_work_seconds", "Simulated work lost per crash"
)


@dataclass
class NodeTimeline:
    """Per-process application timeline of one cadence run."""

    process: int
    #: Seconds the application spent inside checkpoint calls (device work
    #: + D2H, the synchronous part of Fig. 1's flow).
    blocking_device_seconds: float = 0.0
    #: Seconds stalled waiting for host staging admission.
    blocking_staging_seconds: float = 0.0
    stored_bytes: int = 0

    @property
    def total_overhead_seconds(self) -> float:
        """Application-visible checkpointing overhead."""
        return self.blocking_device_seconds + self.blocking_staging_seconds


@dataclass
class PersistedCheckpoint:
    """One checkpoint of one process as the durability tracker sees it."""

    ckpt_id: int
    #: Kept only for the frozen end-to-end harness (it reads each diff's
    #: sizes off the ledger) and a replayed run's final restore, until
    #: both read the unit's record.
    diff: CheckpointDiff
    #: Simulated time the engine finished producing the diff — work up to
    #: this moment is recoverable once the diff is durable.
    produced_at: float
    #: Simulated time the diff reached the terminal tier.
    persisted_at: float


@dataclass
class CrashReport:
    """Outcome of one simulated process crash + restart.

    ``lost_work_seconds`` is the paper's motivating metric for checkpoint
    cadence: everything computed after the last *durable* checkpoint was
    produced is gone and must be recomputed after restart.
    """

    process: int
    crash_time: float
    #: Checkpoint the process restarted from (``None`` = cold restart).
    restored_ckpt_id: Optional[int]
    lost_work_seconds: float
    #: Bit-exact state the process restarts with (zeros on cold restart).
    restored_state: np.ndarray
    #: Checkpoints that were produced but not yet durable at crash time.
    in_flight_ckpts: List[int] = field(default_factory=list)
    #: Simulated seconds the indexed restore took (0 on cold restart).
    restore_seconds: float = 0.0
    #: Payload bytes the restore actually gathered from stored diffs.
    restore_payload_bytes: int = 0
    #: How many diffs' payloads the restored state actually lived in —
    #: the indexed path touches only these, not the whole chain.
    restore_sources: int = 0
    #: GPUs the restore's gathers were sharded across (1 = single-GPU).
    restore_fan_out: int = 1


class NodeRuntime:
    """Drives N per-GPU checkpoint pipelines over one node's hierarchy.

    Each process commits through its own
    :class:`~repro.core.checkpointer.IncrementalCheckpointer`
    (:attr:`checkpointers`), the one unit that knows how a checkpoint is
    taken and priced, and that owns the process's record: every
    checkpoint is appended to it, and a restart restores from it.

    Parameters
    ----------
    data_len / chunk_size / method:
        Per-process checkpoint configuration (homogeneous, as in the
        paper's deployments).
    num_processes:
        Processes sharing the node (≤ the node's GPU count).
    node:
        Node topology; defaults to a ThetaGPU DGX node.
    host_staging_bytes / host_drain_bandwidth / ssd_drain_bandwidth:
        Hierarchy sizing; the defaults scale with the checkpoint size so
        small test runs still exercise back-pressure realistically.
    name:
        Node identity stamped on journal events this runtime emits.
    record_root:
        Optional directory root for durable on-disk records.  When set,
        each process's unit keeps its record at ``record_root/p{rank}``
        (:meth:`record_path`); otherwise in RAM.  Either way the unit
        appends every checkpoint as it commits, and a crash/restart
        restores from that record, then resets it and re-seeds it with
        the restart checkpoint, mirroring the ledger.
    heartbeat_interval:
        Expected simulated seconds between checkpoint rounds (the
        cadence period).  Stamped on every ``heartbeat`` journal event so
        the ``liveness`` health rule knows each rank's deadline without
        out-of-band configuration; ``None`` lets it infer the cadence
        from observed gaps.
    """

    def __init__(
        self,
        data_len: int,
        chunk_size: int,
        method: str = "tree",
        num_processes: int = 4,
        node: Optional[NodeSpec] = None,
        host_staging_bytes: Optional[int] = None,
        host_drain_bandwidth: float = 3.0e9,
        ssd_drain_bandwidth: float = 2.0e9,
        name: str = "node0",
        record_root: Optional[PathLike] = None,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        positive_int(num_processes, "num_processes")
        self.name = name
        self.heartbeat_interval = (
            float(heartbeat_interval) if heartbeat_interval is not None else None
        )
        self.node = node if node is not None else thetagpu_node()
        if num_processes > self.node.gpus_per_node:
            raise ValueError(
                f"{num_processes} processes exceed the node's "
                f"{self.node.gpus_per_node} GPUs"
            )
        self.num_processes = num_processes
        self._method = method
        self._data_len = data_len
        self._chunk_size = chunk_size
        self.record_root = Path(record_root) if record_root is not None else None
        self.checkpointers: List[IncrementalCheckpointer] = [
            self._new_checkpointer(p) for p in range(num_processes)
        ]
        staging = (
            host_staging_bytes
            if host_staging_bytes is not None
            else 3 * data_len * num_processes
        )
        positive_float(host_drain_bandwidth, "host_drain_bandwidth")
        positive_float(ssd_drain_bandwidth, "ssd_drain_bandwidth")
        host, ssd, pfs = TIER_NAMES
        self.pipeline = AsyncFlushPipeline(
            [
                StorageTier(host, staging, host_drain_bandwidth),
                StorageTier(ssd, max(staging * 200, 1), ssd_drain_bandwidth),
                StorageTier(pfs, max(staging * 20_000, 1), 250.0e9),
            ]
        )
        self.timelines = [NodeTimeline(process=p) for p in range(num_processes)]
        self._ckpt_counter = 0
        #: Per-process durability ledger, appended by checkpoint_all.
        self.persisted: List[List[PersistedCheckpoint]] = [
            [] for _ in range(num_processes)
        ]
        self.crash_reports: List[CrashReport] = []

    def _new_checkpointer(self, process: int) -> IncrementalCheckpointer:
        return IncrementalCheckpointer(
            self._data_len,
            self._chunk_size,
            method=self._method,
            device=self.node.device,
            pcie_contention=self.node.pcie_contention(self.num_processes),
            record_dir=self.record_path(process),
        )

    @property
    def engines(self) -> List[DedupEngine]:
        """Each process's engine, read-only: the units own them."""
        return [c.engine for c in self.checkpointers]

    # ------------------------------------------------------------------
    def record_path(self, process: int) -> Optional[Path]:
        """Where *process*'s durable record lives (``None`` when not recording)."""
        if self.record_root is None:
            return None
        return self.record_root / f"p{process}"

    # ------------------------------------------------------------------
    def checkpoint_all(
        self,
        buffers: Sequence[np.ndarray],
        now: float,
        processes: Optional[Sequence[int]] = None,
    ) -> List[NodeTimeline]:
        """All processes checkpoint their buffer at simulated time *now*.

        *processes* restricts the round to a subset (the replay driver
        uses this to keep permanently-dead processes out of a cadence);
        the default checkpoints every process.  Returns the updated
        per-process timelines.
        """
        if len(buffers) != self.num_processes:
            raise ValueError(
                f"expected {self.num_processes} buffers, got {len(buffers)}"
            )
        active = (
            set(range(self.num_processes)) if processes is None else set(processes)
        )
        for p, (unit, buffer) in enumerate(zip(self.checkpointers, buffers)):
            if p not in active:
                continue
            device_seconds = unit.checkpoint(buffer).cost.total_seconds
            diff = unit.last_diff
            timeline = self.timelines[p]
            timeline.blocking_device_seconds += device_seconds
            timeline.stored_bytes += diff.serialized_size
            produced_at = now + device_seconds
            report = self.pipeline.submit(
                f"p{p}-ck{self._ckpt_counter}",
                diff.serialized_size,
                now=produced_at,
            )
            timeline.blocking_staging_seconds += report.blocked_seconds
            self.persisted[p].append(
                PersistedCheckpoint(
                    ckpt_id=diff.ckpt_id,
                    diff=diff,
                    produced_at=produced_at,
                    persisted_at=report.persisted_at,
                )
            )
            # The payload digest is only worth computing when a journal
            # is recording — replay uses it to prove bit-identical
            # durable content without shipping payloads around.  It is
            # the frame's content digest, which the unit's append
            # already cached.
            payload_sha256 = (
                diff.frame_digest()
                if events.active_journal() is not None
                else None
            )
            events.emit(
                events.CHECKPOINT_COMMITTED,
                sim_time=produced_at,
                node=self.name,
                rank=p,
                ckpt_id=diff.ckpt_id,
                method=self._method,
                stored_bytes=diff.serialized_size,
                full_bytes=self._data_len,
                device_seconds=device_seconds,
                blocked_seconds=report.blocked_seconds,
                produced_at=produced_at,
                persisted_at=report.persisted_at,
                retries=report.retries,
                skipped_tiers=list(report.skipped_tiers),
                payload_sha256=payload_sha256,
            )
            # Liveness signal: every rank that completes a round says so.
            # A rank that stops heartbeating (crashed without restart,
            # wedged mid-round) is exactly what the liveness health rule
            # exists to flag.
            events.emit(
                events.HEARTBEAT,
                sim_time=produced_at,
                node=self.name,
                rank=p,
                interval_seconds=self.heartbeat_interval,
                checkpoints=len(self.persisted[p]),
            )
        self._ckpt_counter += 1
        return self.timelines

    # ------------------------------------------------------------------
    # Crash / restart simulation (the failure the system exists for)
    # ------------------------------------------------------------------
    def durable_chain(
        self, process: int, at_time: float
    ) -> List[PersistedCheckpoint]:
        """*process*'s ledger up to its newest checkpoint durable (on the
        terminal tier) by *at_time*: the chain a restart then restores
        (empty when nothing is durable yet)."""
        ledger = self.persisted[process]
        newest = max(
            (i for i, c in enumerate(ledger) if c.persisted_at <= at_time),
            default=-1,
        )
        return ledger[: newest + 1]

    def crash(self, process: int, at_time: float) -> List[int]:
        """Journal a crash of *process* at simulated time *at_time*.

        Returns the ids of the checkpoints the crash loses in flight
        (produced, not yet durable).  Only the ``crash`` event is
        emitted: :meth:`crash_restart` restarts the process, a dropped
        recovery leaves it dead.
        """
        if not 0 <= process < self.num_processes:
            raise SimulationError(
                f"process {process} outside node of {self.num_processes}"
            )
        if at_time < 0:
            raise SimulationError(f"crash time must be non-negative, got {at_time}")
        ledger = self.persisted[process]
        in_flight = [
            c.ckpt_id for c in ledger if c.produced_at <= at_time < c.persisted_at
        ]
        events.emit(
            events.CRASH,
            sim_time=at_time,
            node=self.name,
            rank=process,
            in_flight_ckpts=list(in_flight),
            durable_ckpts=sum(1 for c in ledger if c.persisted_at <= at_time),
        )
        return in_flight

    def crash_restart(
        self,
        process: int,
        at_time: float,
        scrub: bool = True,
        fan_out: int = 1,
    ) -> CrashReport:
        """Crash *process* at simulated time *at_time* and restart it.

        The process loses its in-memory state and every checkpoint still
        in flight through the hierarchy; it restarts from the latest
        checkpoint the ledger says was *durable* (had reached the
        terminal tier) by ``at_time``, restored from the crashed unit's
        own record: one keyframe span of its index and the frames that
        row names, read at the terminal tier's bandwidth.  A record that
        cannot restore it (a frame gone or damaged) raises; nothing is
        restored from memory.  The process's checkpointer is then
        replaced with a fresh one over a reset record, seeded by
        re-checkpointing the restored state, so the dedup chain restarts
        consistently.

        ``fan_out`` shards the restore's gathers across that many of the
        node's GPUs (the crashed process's siblings are idle during a
        restart, so borrowing them is free).  Every fan-out, 1 included,
        is one call of :func:`~repro.core.sharded_restore.restore_sharded`:
        each shard gathers its chunk range on its own ``DeviceSpace``, and
        the restore cost is the fleet critical path — the record read
        overlapped with the gathers — with every rank under the node's
        PCIe contention at that fan-out.  Output is bit-identical at
        every fan-out.

        ``scrub`` has no effect: every frame read is verified.  A fan-out
        the node cannot serve is refused before the crash is journalled
        (:meth:`crash`); the restart restores the newest checkpoint of
        :meth:`durable_chain`.

        Returns a :class:`CrashReport` with the restored state, the
        lost-work metric, and the restore's simulated cost.
        """
        positive_int(fan_out, "fan_out")
        if fan_out > self.node.gpus_per_node:
            raise SimulationError(
                f"fan-out {fan_out} exceeds the node's "
                f"{self.node.gpus_per_node} GPUs"
            )
        num_chunks = ChunkSpec(self._data_len, self._chunk_size).num_chunks
        if fan_out > num_chunks:
            raise SimulationError(
                f"fan-out {fan_out} exceeds the checkpoint's {num_chunks} chunks"
            )
        in_flight = self.crash(process, at_time)
        chain = self.durable_chain(process, at_time)

        restore_seconds = 0.0
        restore_payload_bytes = 0
        restore_sources = 0
        if chain:
            last = chain[-1]
            restored_id: Optional[int] = last.ckpt_id
            lost = max(0.0, at_time - last.produced_at)
            with telemetry.span(
                "node.crash_restart",
                process=process,
                crash_time=at_time,
                fan_out=fan_out,
            ) as span:
                restored, rreport = restore_sharded(
                    self.checkpointers[process].record.writer.store,
                    fan_out,
                    self.node.device,
                    [self.node.pcie_contention(fan_out)] * fan_out,
                    upto=last.ckpt_id,
                    read_bandwidth=self.pipeline.tiers[-1].bandwidth,
                    path="sharded_node",
                    node=self.name,
                    rank=process,
                    sim_time=at_time,
                )
                restore_seconds = rreport.critical_path_seconds
                restore_payload_bytes = rreport.total_payload_bytes_read
                restore_sources = rreport.sources
                span.set(
                    restored_ckpt_id=last.ckpt_id,
                    payload_bytes=restore_payload_bytes,
                    sources=restore_sources,
                )
        else:
            telemetry.instant("node.cold_restart", process=process)
            restored = np.zeros(self._data_len, dtype=np.uint8)
            restored_id = None
            lost = at_time

        # Replace the crashed process's checkpointer over a reset record
        # and rebuild its dedup state from the restored checkpoint.  The
        # new unit's chain restarts at checkpoint 0, so the durability
        # ledger restarts with it: the restart checkpoint is durable by
        # construction (it was rebuilt from bytes already on the terminal
        # tier), and re-seeds the record at once.
        self.checkpointers[process].record.writer.reset()
        unit = self.checkpointers[process] = self._new_checkpointer(process)
        self.persisted[process] = []
        if restored_id is not None:
            unit.checkpoint(restored)
            self.persisted[process].append(
                PersistedCheckpoint(
                    ckpt_id=unit.last_diff.ckpt_id,
                    diff=unit.last_diff,
                    produced_at=at_time,
                    persisted_at=at_time,
                )
            )

        events.emit(
            events.RESTART,
            sim_time=at_time,
            node=self.name,
            rank=process,
            restored_ckpt_id=restored_id,
            cold=restored_id is None,
            lost_work_seconds=lost,
            restore_seconds=restore_seconds,
            restore_payload_bytes=restore_payload_bytes,
            restore_sources=restore_sources,
        )
        report = CrashReport(
            process=process,
            crash_time=at_time,
            restored_ckpt_id=restored_id,
            lost_work_seconds=lost,
            restored_state=restored,
            in_flight_ckpts=in_flight,
            restore_seconds=restore_seconds,
            restore_payload_bytes=restore_payload_bytes,
            restore_sources=restore_sources,
            restore_fan_out=fan_out,
        )
        self.crash_reports.append(report)
        _CRASH_RESTARTS.inc()
        _LOST_WORK.observe(lost)
        return report

    @property
    def total_lost_work_seconds(self) -> float:
        """Summed lost work across all simulated crashes."""
        return sum(r.lost_work_seconds for r in self.crash_reports)

    # ------------------------------------------------------------------
    @property
    def total_overhead_seconds(self) -> float:
        """Summed application-visible overhead across processes."""
        return sum(t.total_overhead_seconds for t in self.timelines)

    @property
    def total_stored_bytes(self) -> int:
        """Total bytes shipped into the hierarchy."""
        return sum(t.stored_bytes for t in self.timelines)

    def overhead_report(self) -> Dict[str, float]:
        """Aggregate numbers a bench prints."""
        return {
            "device_seconds": sum(t.blocking_device_seconds for t in self.timelines),
            "staging_seconds": sum(t.blocking_staging_seconds for t in self.timelines),
            "stored_bytes": float(self.total_stored_bytes),
            "durable_at": self.pipeline.last_persisted_at,
            "host_peak": float(self.pipeline.peak_usage()["host"]),
        }
