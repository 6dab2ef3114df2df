"""Simulated-GPU cost model: devices, kernel pricing, node/cluster topology.

Stands in for the A100 testbeds of §3.1.  The dedup engines run their real
data path in NumPy and record what each (logical) kernel touched; this
package turns those records into simulated seconds with the right shape:
streaming passes priced by HBM bandwidth, hash-table probes by
random-access cost, kernel count by launch latency, and D2H copies by PCIe
bandwidth under node-level contention.
"""

from .cluster import (
    ClusterSpec,
    NodeSpec,
    polaris,
    polaris_node,
    thetagpu,
    thetagpu_node,
)
from .device import DEVICE_PRESETS, DeviceSpec, a100, laptop_gpu, v100
from .perfmodel import (
    CostBreakdown,
    FleetRestoreCost,
    KernelCostModel,
    RestoreCost,
    pick_window_count,
    pipeline_makespan,
)

__all__ = [
    "ClusterSpec",
    "NodeSpec",
    "polaris",
    "polaris_node",
    "thetagpu",
    "thetagpu_node",
    "DEVICE_PRESETS",
    "DeviceSpec",
    "a100",
    "laptop_gpu",
    "v100",
    "CostBreakdown",
    "FleetRestoreCost",
    "KernelCostModel",
    "RestoreCost",
    "pick_window_count",
    "pipeline_makespan",
]
