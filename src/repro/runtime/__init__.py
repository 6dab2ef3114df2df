"""Multi-level asynchronous checkpoint runtime and scaling driver (Fig. 3,
Fig. 6): storage tiers, FIFO flush pipeline with blocking host admission,
and the strong-scaling experiment harness — plus the failure path:
tier outages with retry/route-around and crash-restart recovery."""

from .async_flush import AsyncFlushPipeline, FlushReport
from .fleet_restore import FleetRestoreReport, restore_record_sharded
from .node import CrashReport, NodeRuntime, NodeTimeline, PersistedCheckpoint
from .scaling import (
    ScalingResult,
    StrongScalingDriver,
    induced_partition_graph,
    partition_vertices,
)
from .streaming import StreamingEstimate, StreamingScheduler
from .storage import StorageTier, StoredObject, TierOutage, default_hierarchy

__all__ = [
    "AsyncFlushPipeline",
    "FlushReport",
    "CrashReport",
    "NodeRuntime",
    "NodeTimeline",
    "PersistedCheckpoint",
    "FleetRestoreReport",
    "restore_record_sharded",
    "ScalingResult",
    "StrongScalingDriver",
    "induced_partition_graph",
    "partition_vertices",
    "StreamingEstimate",
    "StreamingScheduler",
    "StorageTier",
    "StoredObject",
    "TierOutage",
    "default_hierarchy",
]
