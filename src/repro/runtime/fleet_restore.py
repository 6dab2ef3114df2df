"""Distributed streaming restore of a stored record: the §3.3 story for
restarts.

A 64-rank fleet restoring from one shared record need not run
``restore_record_indexed`` on a single simulated GPU while 63 sit idle.
:func:`restore_record_sharded` hands the record to the one restart
restore, :func:`~repro.core.sharded_restore.restore_sharded`, with the
cluster's placement: each rank's PCIe contention from
``ClusterSpec.pcie_contention_for`` and the shared selective frame read
priced at the cluster's PFS bandwidth, overlapped window by window with
the gathers.  Output is bit-identical to the single-GPU path.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.sharded_restore import FleetRestoreReport, restore_sharded
from ..gpusim.cluster import ClusterSpec, thetagpu


def restore_record_sharded(
    directory,
    num_ranks: int,
    cluster: Optional[ClusterSpec] = None,
    upto: Optional[int] = None,
    windows: Optional[int] = None,
) -> Tuple[np.ndarray, FleetRestoreReport]:
    """Reconstruct a checkpoint from a stored record across *num_ranks*
    simulated GPUs, overlapping the shared frame read with the gathers.

    ``windows=None`` picks the window count from the pre-execution cost
    estimate.
    """
    if cluster is None:
        cluster = thetagpu()
    return restore_sharded(
        directory,
        num_ranks,
        cluster.node.device,
        cluster.pcie_contention_for(num_ranks),
        upto=upto,
        read_bandwidth=cluster.pfs_bandwidth,
        windows=windows,
    )
