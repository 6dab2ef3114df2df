"""Kokkos-flavoured execution layer.

Reproduces the slice of the Kokkos programming model the paper's prototype
relies on (§2.4): execution spaces, fused-kernel dispatch, and the
lock-free ``UnorderedMap`` (here :class:`DigestMap`).  The data path is
vectorized NumPy; the cost path is a ledger of kernel/transfer records that
:mod:`repro.gpusim` prices into simulated GPU time.
"""

from .execution import (
    DeviceSpace,
    ExecutionSpace,
    HostSpace,
    KernelCounts,
    KernelLedger,
    KernelRecord,
    LedgerCursor,
    LedgerView,
    TransferRecord,
    default_device,
)
from .unordered_map import VALUE_LANES, DigestMap

__all__ = [
    "DeviceSpace",
    "ExecutionSpace",
    "HostSpace",
    "KernelCounts",
    "KernelLedger",
    "KernelRecord",
    "LedgerCursor",
    "LedgerView",
    "TransferRecord",
    "default_device",
    "VALUE_LANES",
    "DigestMap",
]
