"""The paper's primary contribution: GPU-accelerated incremental
checkpointing by Merkle-tree de-duplication, plus the Full/Basic/List
baselines it is evaluated against, the diff wire format, and restore.
"""

# Provenance first: the record package it imports builds on its types.
from .provenance import (
    ProvenanceBuilder,
    ProvenanceIndex,
    ProvenanceTable,
    RestoreReport,
    materialize_index,
    resolve_source,
    restore_indexed,
    restore_record_indexed,
)
from .analysis import verify_chain
from .base import DedupEngine
from .checkpointer import ENGINES, IncrementalCheckpointer
from .chunking import ChunkSpec, as_uint8, min_recommended_chunk_size
from .dedup_basic import BasicDedup
from .dedup_full import FullCheckpoint
from .dedup_list import ListDedup
from .dedup_tree import TreeDedup
from .diff import (
    DIGEST_BYTES,
    FIRST_ENTRY_BYTES,
    METHODS,
    SHIFT_ENTRY_BYTES,
    CheckpointDiff,
)
from .labels import (
    FIRST_OCUR,
    FIXED_DUPL,
    MIXED,
    SHIFT_DUPL,
    UNLABELED,
    count_labels,
    label_name,
)
from .merkle import MerkleTree, TreeLayout
from .record import CheckpointRecord, CheckpointStats
from .restore import Restorer
from .retention import rebase_stored_record
from .selective import selective_restore
from .sharded_restore import (
    FleetRestoreReport,
    ShardedRestorePlan,
    ShardReport,
    ShardSpec,
    partition_chunks,
    restore_sharded,
)
from .store import (
    AppendReceipt,
    CheckpointStatus,
    RecordVerification,
    RecordWriter,
    load_provenance,
    load_record,
    load_record_frames,
    record_frame_sizes,
    record_index_bytes,
    record_manifest,
    save_record,
    verify_record,
)

__all__ = [
    "verify_chain",
    "DedupEngine",
    "ENGINES",
    "IncrementalCheckpointer",
    "ChunkSpec",
    "as_uint8",
    "min_recommended_chunk_size",
    "BasicDedup",
    "FullCheckpoint",
    "ListDedup",
    "TreeDedup",
    "FIRST_ENTRY_BYTES",
    "METHODS",
    "SHIFT_ENTRY_BYTES",
    "DIGEST_BYTES",
    "CheckpointDiff",
    "AppendReceipt",
    "CheckpointStatus",
    "RecordVerification",
    "RecordWriter",
    "load_provenance",
    "load_record",
    "load_record_frames",
    "record_frame_sizes",
    "record_index_bytes",
    "record_manifest",
    "save_record",
    "verify_record",
    "FIRST_OCUR",
    "FIXED_DUPL",
    "MIXED",
    "SHIFT_DUPL",
    "UNLABELED",
    "count_labels",
    "label_name",
    "MerkleTree",
    "TreeLayout",
    "CheckpointRecord",
    "CheckpointStats",
    "Restorer",
    "ProvenanceBuilder",
    "ProvenanceIndex",
    "ProvenanceTable",
    "RestoreReport",
    "materialize_index",
    "resolve_source",
    "restore_indexed",
    "restore_record_indexed",
    "rebase_stored_record",
    "selective_restore",
    "FleetRestoreReport",
    "ShardedRestorePlan",
    "ShardReport",
    "ShardSpec",
    "partition_chunks",
    "restore_sharded",
]
