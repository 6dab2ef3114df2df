"""repro — reproduction of *Scalable Incremental Checkpointing using
GPU-Accelerated De-Duplication* (Tan et al., ICPP 2023).

The package implements the paper's Merkle-tree de-duplication engine and
everything it is evaluated against and on top of:

* :mod:`repro.core` — the Tree method (Algorithm 1), the Full/Basic/List
  baselines, the diff wire format, and checkpoint restore;
* :mod:`repro.hashing` — bit-exact MurmurHash3 x64-128 (scalar + batch);
* :mod:`repro.kokkos` — the Kokkos-flavoured execution layer
  (fused-kernel ledger, the ``UnorderedMap`` hash record);
* :mod:`repro.gpusim` — A100/PCIe/node cost model producing simulated
  throughput with the paper's shape;
* :mod:`repro.compress` — the nvCOMP-class compression baselines;
* :mod:`repro.graphs` — CSR graphs, the five Table 1 input-graph
  generators, and Gorder pre-processing;
* :mod:`repro.oranges` — the ORANGES graphlet-degree-vector application
  that drives every experiment;
* :mod:`repro.runtime` — the multi-level asynchronous flush hierarchy and
  the strong-scaling driver.

Quickstart::

    import numpy as np
    from repro import IncrementalCheckpointer

    buf = np.zeros(1 << 20, dtype=np.uint8)
    ckpt = IncrementalCheckpointer(data_len=buf.nbytes, chunk_size=128)
    ckpt.checkpoint(buf)              # full first checkpoint
    buf[1000:1128] = 7
    stats = ckpt.checkpoint(buf)      # tiny incremental diff
    assert np.array_equal(ckpt.restore(1), buf)
"""

from .core import (
    BasicDedup,
    CheckpointDiff,
    CheckpointRecord,
    CheckpointStats,
    FullCheckpoint,
    IncrementalCheckpointer,
    ListDedup,
    Restorer,
    TreeDedup,
)
from .compress import CompressionCheckpointer, get_codec, list_codecs
from .errors import (
    CapacityError,
    ChunkingError,
    CompressionError,
    ConfigurationError,
    GraphError,
    ReproError,
    RestoreError,
    SerializationError,
    SimulationError,
    StorageError,
)
from .oranges import OrangesApp
from .version import __version__

__all__ = [
    "BasicDedup",
    "CheckpointDiff",
    "CheckpointRecord",
    "CheckpointStats",
    "FullCheckpoint",
    "IncrementalCheckpointer",
    "ListDedup",
    "Restorer",
    "TreeDedup",
    "CompressionCheckpointer",
    "get_codec",
    "list_codecs",
    "OrangesApp",
    "CapacityError",
    "ChunkingError",
    "CompressionError",
    "ConfigurationError",
    "GraphError",
    "ReproError",
    "RestoreError",
    "SerializationError",
    "SimulationError",
    "StorageError",
    "__version__",
]
