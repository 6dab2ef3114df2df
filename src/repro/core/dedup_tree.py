"""``Tree`` — the paper's Merkle-tree compact-metadata de-duplication.

Implements Algorithm 1 (§2.2) in three passes over the flat Merkle tree:

1. **Leaf pass** — hash every chunk; a chunk whose digest matches the same
   leaf of the previous checkpoint is a *fixed duplicate*; otherwise it is
   inserted into the historical record of unique hashes — success means
   *first occurrence*, failure means *shifted duplicate* of the winning
   entry.

2. **First-occurrence consolidation** (two-stage scheduling, stage one) —
   level by level bottom-up, a parent whose children are both FIRST_OCUR
   becomes FIRST_OCUR itself: its digest is computed from the children and
   inserted into the record so future checkpoints can match the *region*.
   Parents of two FIXED_DUPL children are likewise FIXED_DUPL (they
   contribute nothing and need no hash).

3. **Shift consolidation + emission** (stage two) — level by level
   bottom-up, a parent whose children are both SHIFT_DUPL is hashed and
   looked up: if the region digest already exists in the record the parent
   becomes a single SHIFT_DUPL region; otherwise, and for any parent with
   disagreeing children, the children are emitted as the *roots* of the
   compact metadata — FIRST regions carry payload, SHIFT regions carry a
   ``(ref_node, ref_ckpt)`` pointer, FIXED regions are omitted entirely.

Stage one runs to completion before stage two so that shifted duplicates
can never race ahead of the first occurrences they depend on — the exact
hazard the paper's two-stage parallelization avoids.

The passes exist twice.  ``_leaf_pass`` / ``_first_ocur_pass`` /
``_shift_pass_and_emit`` are whole-level NumPy array passes: the reference,
and the only path on a host without a C compiler.  When
:mod:`repro.hashing.native` loaded its shared object, ``_native_passes``
runs the same passes as compiled level scans (``_tree_passes_native.c``)
that hash ``left || right`` where it lies in the flat tree and call the
``DigestMap`` kernels as C functions — the host-side analogue of the paper's
fused kernel.  Both leave bit-identical labels, tree digests, table, probe
counts, emitted regions and kernel ledger (``docs/ALGORITHM.md`` §3 states
the parity rules; ``tests/core/test_tree_dedup.py`` decides them), and
nothing selects between them except whether the object loaded.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import ChunkingError, ConfigurationError, SerializationError
from ..hashing import native as _native
from ..hashing.digest import check_digests, digests_equal
from ..hashing.murmur3 import count_digest_pairs, hash_chunks, hash_digest_pairs
from ..kokkos.unordered_map import DigestMap
from .base import DedupEngine
from .diff import PAYLOAD_CODECS, CheckpointDiff
from .labels import FIRST_OCUR, FIXED_DUPL, MIXED, SHIFT_DUPL, new_label_array
from .merkle import MerkleTree, TreeLayout
from .serialize import gather_region_payload


class _NativeScratch:
    """What the compiled passes work in besides the engine's own state: the
    interior levels as ``[first node, count]`` rows, a ``[rows, probes]``
    row per level for the launches, and batch buffers sized once for the
    widest batch (every leaf moving; an interior level holds at most half
    as many rows).  ``addr`` maps each buffer to its address.
    """

    def __init__(self, layout: TreeLayout) -> None:
        n = layout.num_leaves
        levels = layout.interior_levels_bottom_up()
        self.levels = np.array(
            [(lvl[0], lvl.shape[0]) for lvl in levels], dtype=np.int64
        ).reshape(len(levels), 2)
        if any(lvl[-1] - lvl[0] + 1 != lvl.shape[0] for lvl in levels):
            # pragma: no cover - layout invariant
            raise ChunkingError("interior nodes are not a contiguous run per level")
        width = int(self.levels[:, 1].max(initial=0))
        self.per_level = np.zeros((len(levels), 2), dtype=np.int64)
        self.keys = np.empty((n, 2), dtype=np.uint64)
        self.vals = np.empty((n, 2), dtype=np.int64)
        self.flags = np.empty(n, dtype=bool)
        self.work = np.empty(3 * width, dtype=np.int64)
        self.first_out = np.empty(n, dtype=np.int64)
        self.shift_out = np.empty(n, dtype=np.int64)
        self.ctl = np.zeros(3, dtype=np.int64)
        self.addr = {name: buf.ctypes.data for name, buf in vars(self).items()}


class TreeDedup(DedupEngine):
    """Merkle-tree de-duplication with compact region metadata.

    Parameters beyond the base class:

    payload_codec:
        Optional codec from :mod:`repro.compress` applied to the
        first-occurrence payload before serialization — the paper's
        future-work hybrid (§5).  The diff then stores compressed payload
        bytes and names the codec in its frame header, so every reader
        decodes it without being told.
    """

    name = "tree"

    def __init__(
        self,
        data_len: int,
        chunk_size: int,
        payload_codec=None,
        **kwargs,
    ) -> None:
        super().__init__(data_len, chunk_size, **kwargs)
        self.layout = TreeLayout(self.spec.num_chunks)
        self.tree = MerkleTree(self.layout)
        # Worst case the record gains one entry per node per checkpoint
        # epoch; leaves + interior = 2n - 1 for the first checkpoint.
        self.map = DigestMap(capacity_hint=max(self.layout.num_nodes, 16))
        if payload_codec is not None and payload_codec.name not in PAYLOAD_CODECS:
            raise ConfigurationError(
                f"payload codec {payload_codec.name!r} has no frame code; "
                f"choose from {list(PAYLOAD_CODECS)}"
            )
        self.payload_codec = payload_codec
        #: Labels of the most recent checkpoint (exposed for tests/examples).
        self.last_labels: np.ndarray | None = None
        # Winner (ref_node, ref_ckpt) per SHIFT_DUPL node, captured from the
        # fused insert_or_lookup / lookup results of the leaf and shift
        # passes so serialization never re-probes the hash record.
        self._shift_refs = np.zeros((self.layout.num_nodes, 2), dtype=np.int64)
        self._shift_ref_valid = np.zeros(self.layout.num_nodes, dtype=bool)
        # Made by the first checkpoint that runs the compiled passes.
        self._scratch: _NativeScratch | None = None

    def device_state_bytes(self) -> int:
        """Merkle digest array plus the historical hash record."""
        return self.tree.nbytes + self.map.nbytes

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def _process(self, flat: np.ndarray, ckpt_id: int) -> CheckpointDiff:
        if ckpt_id == 0:
            return self._initial_checkpoint(flat)
        labels = new_label_array(self.layout.num_nodes)
        self._shift_ref_valid[:] = False

        lib = _native.get_lib()
        if lib is not None:
            first_nodes, shift_nodes = self._native_passes(lib, flat, ckpt_id, labels)
        else:
            self._leaf_pass(flat, ckpt_id, labels)
            self._first_ocur_pass(ckpt_id, labels)
            first_nodes, shift_nodes = self._shift_pass_and_emit(labels)
        self.last_labels = labels

        return self._serialize(flat, ckpt_id, first_nodes, shift_nodes)

    def _initial_checkpoint(self, flat: np.ndarray) -> CheckpointDiff:
        """Checkpoint 0: stored in full, with the *entire* Merkle tree
        inserted into the historical record (§2.2 / Fig. 2: "the record of
        unique hashes consists of all possible non-overlapping regions").

        Seeding every region digest — not just the all-FIRST subtrees — is
        what lets later checkpoints consolidate shifted duplicates of any
        region of the initial state (repeated zero runs included).
        """
        n = self.spec.num_chunks
        with self.phase("tree.hash_leaves"):
            digests = hash_chunks(flat, self.spec.chunk_size)
            self.space.launch(
                "tree.hash_leaves",
                items=n,
                bytes_read=self.spec.data_len,
                bytes_written=digests.nbytes,
            )
        self.tree.set_leaves(digests)
        with self.phase("tree.build_interior"):
            interior_hashes = self.tree.build_interior()
            self.space.launch(
                "tree.build_interior",
                items=interior_hashes,
                bytes_read=32 * interior_hashes,
                bytes_written=16 * interior_hashes,
            )

        # Insert every node digest, leaves first (chunk order), then the
        # interior bottom-up — first-wins matches the two-stage schedule.
        order = [self.layout.node_of_leaf]
        for level in self.layout.interior_levels_bottom_up():
            order.append(level)
        nodes = np.concatenate(order)
        keys = np.ascontiguousarray(self.tree.digests[nodes])
        values = np.empty((nodes.shape[0], 2), dtype=np.int64)
        values[:, 0] = nodes
        values[:, 1] = 0
        probes_before = self.map.total_probes
        with self.phase("tree.map_seed"):
            self.map.insert(keys, values)
            self.space.launch(
                "tree.map_seed",
                items=int(nodes.shape[0]),
                bytes_read=keys.nbytes,
                random_accesses=self.map.total_probes - probes_before,
            )

        with self.phase("tree.gather"):
            self.space.launch(
                "tree.serialize",
                items=1,
                bytes_read=self.spec.data_len,
                bytes_written=self.spec.data_len,
            )
        return CheckpointDiff(
            method="full",
            ckpt_id=0,
            data_len=self.spec.data_len,
            chunk_size=self.spec.chunk_size,
            payload=flat.tobytes(),
        )

    def _native_passes(
        self, lib, flat: np.ndarray, ckpt_id: int, labels: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The three passes below as compiled level scans
        (``_tree_passes_native.c``): same labels, digests, table, probe
        counts, emitted nodes and ledger, without the whole-level NumPy ops.

        Hashing the chunks, the leaf insert, growth, the map's and the
        hashing counters, the phases and every launch stay here; the
        launches of a consolidation pass are rebuilt from the per-level
        ``(rows, probes)`` its kernel returns.
        """
        layout = self.layout
        n = self.spec.num_chunks
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = _NativeScratch(layout)
        addr = scratch.addr
        tree = self.tree.digests
        check_digests(tree, "tree digests")
        if tree.shape[0] != layout.num_nodes or not tree.flags.c_contiguous:
            raise ChunkingError(
                f"tree digests must be a contiguous ({layout.num_nodes}, 2) array"
            )
        tree_addr = tree.ctypes.data
        labels_addr = labels.ctypes.data
        refs_addr = self._shift_refs.ctypes.data
        valid_addr = self._shift_ref_valid.ctypes.data

        with self.phase("tree.hash_leaves"):
            digests = hash_chunks(flat, self.spec.chunk_size)
            self.space.launch(
                "tree.hash_leaves",
                items=n,
                bytes_read=self.spec.data_len,
                bytes_written=digests.nbytes,
            )
        check_digests(digests, "digests")
        if digests.shape[0] != n:
            raise ChunkingError(f"expected {n} leaf digests, got {digests.shape[0]}")
        digests = np.ascontiguousarray(digests)

        moving = lib.tp_leaf_classify(
            digests.ctypes.data, n, layout.deep_start, layout.deep_leaves,
            layout.shallow_start, ckpt_id, tree_addr, labels_addr,
            addr["keys"], addr["vals"],
        )
        self.space.launch(
            "tree.fixed_compare",
            items=n,
            bytes_read=2 * digests.nbytes,
        )
        probes_before = self.map.total_probes
        with self.phase("tree.map_leaves"):
            success, winners = self.map.insert_or_lookup(
                scratch.keys[:moving], scratch.vals[:moving]
            )
            self.space.launch(
                "tree.classify_leaves",
                items=moving,
                bytes_read=digests.nbytes,
                bytes_written=n,  # label array
                random_accesses=self.map.total_probes - probes_before,
            )
        lib.tp_leaf_apply(
            addr["vals"], success.ctypes.data, winners.ctypes.data, moving,
            labels_addr, refs_addr, valid_addr,
        )

        nlevels = scratch.levels.shape[0]
        with self.phase("tree.first_pass"):
            level = carried = 0
            while level < nlevels:
                # Growth happens where the reference grows: the kernel stops
                # at the level whose batch the table has no room for, the
                # rebuild's probes are charged to that level's launch.
                probes = lib.tp_first_pass(
                    tree_addr, labels_addr, addr["levels"], nlevels, level,
                    carried, ckpt_id, *self.map.native_table, self.map.room,
                    addr["keys"], addr["vals"], addr["flags"], addr["work"],
                    addr["per_level"], addr["ctl"],
                )
                reached, inserted, hashed = scratch.ctl.tolist()
                count_digest_pairs(hashed)
                self.map.charge_inserts(inserted, probes)
                self._launch_levels("tree.first_pass", level, reached)
                level = reached
                if level < nlevels:
                    carried = self.map.reserve(int(scratch.per_level[level, 0]))

        with self.phase("tree.shift_pass"):
            probes = lib.tp_shift_pass(
                tree_addr, labels_addr, addr["levels"], nlevels,
                *self.map.native_table,
                addr["keys"], addr["vals"], addr["flags"], addr["work"],
                refs_addr, valid_addr, addr["first_out"], addr["shift_out"], n,
                addr["per_level"], addr["ctl"],
            )
            num_first, num_shift, hashed = scratch.ctl.tolist()
            count_digest_pairs(hashed)
            self.map.charge_probes(probes)
            self._launch_levels("tree.shift_pass", 0, nlevels)
        return (
            scratch.first_out[n - num_first :].copy(),
            scratch.shift_out[n - num_shift :].copy(),
        )

    def _launch_levels(self, name: str, start: int, stop: int) -> None:
        """One launch per level in ``[start, stop)`` whose batch had rows,
        as the NumPy consolidation passes record them."""
        for rows, probes in self._scratch.per_level[start:stop].tolist():
            if rows:
                self.space.launch(
                    name,
                    items=rows,
                    bytes_read=2 * 16 * rows,
                    bytes_written=16 * rows,
                    random_accesses=probes,
                )

    def _leaf_pass(self, flat: np.ndarray, ckpt_id: int, labels: np.ndarray) -> None:
        """Algorithm 1, lines 1-23."""
        leaf_nodes = self.layout.node_of_leaf
        n = self.spec.num_chunks

        with self.phase("tree.hash_leaves"):
            digests = hash_chunks(flat, self.spec.chunk_size)
            self.space.launch(
                "tree.hash_leaves",
                items=n,
                bytes_read=self.spec.data_len,
                bytes_written=digests.nbytes,
            )

        prev = self.tree.digests[leaf_nodes]
        fixed = digests_equal(digests, prev)
        self.space.launch(
            "tree.fixed_compare",
            items=n,
            bytes_read=2 * digests.nbytes,
        )
        labels[leaf_nodes[fixed]] = FIXED_DUPL

        moving = np.nonzero(~fixed)[0]
        values = np.empty((moving.shape[0], 2), dtype=np.int64)
        values[:, 0] = leaf_nodes[moving]
        values[:, 1] = ckpt_id
        probes_before = self.map.total_probes
        with self.phase("tree.map_leaves"):
            success, winners = self.map.insert_or_lookup(
                np.ascontiguousarray(digests[moving]), values
            )
            self.space.launch(
                "tree.classify_leaves",
                items=int(moving.shape[0]),
                bytes_read=digests.nbytes,
                bytes_written=n,  # label array
                random_accesses=self.map.total_probes - probes_before,
            )
        labels[leaf_nodes[moving[success]]] = FIRST_OCUR
        shifted = leaf_nodes[moving[~success]]
        labels[shifted] = SHIFT_DUPL
        # The fused insert already yielded each loser's winning entry:
        # keep it so serialization needs no second probe.
        self._shift_refs[shifted] = winners[~success]
        self._shift_ref_valid[shifted] = True

        # Tree(leaf) <- digest (line 21); fixed leaves keep an equal value.
        self.tree.digests[leaf_nodes] = digests

    def _first_ocur_pass(self, ckpt_id: int, labels: np.ndarray) -> None:
        """Algorithm 1, lines 24-32, plus FIXED_DUPL propagation."""
        for interior, left, right in self.layout.interior_levels_with_children():
            ll = labels[left]
            lr = labels[right]

            both_first = (ll == FIRST_OCUR) & (lr == FIRST_OCUR)
            nodes = interior[both_first]
            if nodes.size:
                with self.phase("tree.first_pass"):
                    dig = hash_digest_pairs(
                        self.tree.digests[left[both_first]],
                        self.tree.digests[right[both_first]],
                    )
                    self.tree.digests[nodes] = dig
                    vals = np.empty((nodes.shape[0], 2), dtype=np.int64)
                    vals[:, 0] = nodes
                    vals[:, 1] = ckpt_id
                    probes_before = self.map.total_probes
                    self.map.insert(dig, vals)
                    self.space.launch(
                        "tree.first_pass",
                        items=int(nodes.shape[0]),
                        bytes_read=2 * 16 * int(nodes.shape[0]),
                        bytes_written=16 * int(nodes.shape[0]),
                        random_accesses=self.map.total_probes - probes_before,
                    )
                labels[nodes] = FIRST_OCUR

            both_fixed = (ll == FIXED_DUPL) & (lr == FIXED_DUPL)
            labels[interior[both_fixed]] = FIXED_DUPL

    def _shift_pass_and_emit(
        self, labels: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Algorithm 1, lines 33-46: consolidate shifted duplicates and
        collect the compact-metadata region roots."""
        first_out: List[np.ndarray] = []
        shift_out: List[np.ndarray] = []

        def emit(children: np.ndarray) -> None:
            kinds = labels[children]
            first_out.append(children[kinds == FIRST_OCUR])
            shift_out.append(children[kinds == SHIFT_DUPL])
            # FIXED children are omitted; MIXED children were emitted below.

        for interior, ch_left, ch_right in self.layout.interior_levels_with_children():
            # Nodes already consolidated by stage one (FIRST/FIXED) skip.
            keep = (labels[interior] != FIRST_OCUR) & (labels[interior] != FIXED_DUPL)
            undecided = interior[keep]
            if undecided.size == 0:
                continue
            left = ch_left[keep]
            right = ch_right[keep]
            ll = labels[left]
            lr = labels[right]

            both_shift = (ll == SHIFT_DUPL) & (lr == SHIFT_DUPL)
            nodes = undecided[both_shift]
            if nodes.size:
                with self.phase("tree.shift_pass"):
                    dig = hash_digest_pairs(
                        self.tree.digests[left[both_shift]],
                        self.tree.digests[right[both_shift]],
                    )
                    self.tree.digests[nodes] = dig
                    probes_before = self.map.total_probes
                    # Fused lookup: one probe yields both the existence bit
                    # and the (ref_node, ref_ckpt) the serializer needs.
                    found, refs = self.map.lookup(dig)
                    self.space.launch(
                        "tree.shift_pass",
                        items=int(nodes.shape[0]),
                        bytes_read=2 * 16 * int(nodes.shape[0]),
                        bytes_written=16 * int(nodes.shape[0]),
                        random_accesses=self.map.total_probes - probes_before,
                    )
                consolidated = nodes[found]
                labels[consolidated] = SHIFT_DUPL
                self._shift_refs[consolidated] = refs[found]
                self._shift_ref_valid[consolidated] = True
                stopped = nodes[~found]
                if stopped.size:
                    emit(np.concatenate([2 * stopped + 1, 2 * stopped + 2]))
                    labels[stopped] = MIXED

            mixed = undecided[~both_shift]
            if mixed.size:
                emit(np.concatenate([2 * mixed + 1, 2 * mixed + 2]))
                labels[mixed] = MIXED

        # The root is never anyone's child: emit it if it carries a
        # uniform non-fixed label.
        root_label = labels[0]
        if root_label == FIRST_OCUR:
            first_out.append(np.array([0], dtype=np.int64))
        elif root_label == SHIFT_DUPL:
            shift_out.append(np.array([0], dtype=np.int64))

        first_nodes = (
            np.sort(np.concatenate(first_out)) if first_out else np.empty(0, np.int64)
        )
        shift_nodes = (
            np.sort(np.concatenate(shift_out)) if shift_out else np.empty(0, np.int64)
        )
        return first_nodes.astype(np.int64), shift_nodes.astype(np.int64)

    def _serialize(
        self,
        flat: np.ndarray,
        ckpt_id: int,
        first_nodes: np.ndarray,
        shift_nodes: np.ndarray,
    ) -> CheckpointDiff:
        """Gather payload and resolve shifted-duplicate references."""
        with self.phase("tree.gather"):
            payload, _ = gather_region_payload(
                flat, self.spec, self.layout, first_nodes
            )

            if shift_nodes.size:
                # The leaf and shift passes already resolved every SHIFT
                # node's winning (ref_node, ref_ckpt) through their fused
                # map probes; serialization is a plain gather from the
                # cached ref table.
                if not self._shift_ref_valid[shift_nodes].all():
                    # pragma: no cover - algorithm invariant
                    raise SerializationError(
                        "shifted-duplicate region missing from the hash record"
                    )
                refs = self._shift_refs[shift_nodes]
                shift_ref_ids = refs[:, 0].copy()
                shift_ref_ckpts = refs[:, 1].copy()
                ref_gather_accesses = int(shift_nodes.shape[0])
            else:
                shift_ref_ids = np.empty(0, dtype=np.int64)
                shift_ref_ckpts = np.empty(0, dtype=np.int64)
                ref_gather_accesses = 0

            raw_payload, codec = payload, None
            if self.payload_codec is not None:
                raw_payload = self.payload_codec.compress(payload)
                codec = self.payload_codec.name

            self.space.launch(
                "tree.serialize",
                items=int(first_nodes.shape[0] + shift_nodes.shape[0]),
                bytes_read=len(payload),
                bytes_written=len(raw_payload)
                + 4 * int(first_nodes.shape[0])
                + 12 * int(shift_nodes.shape[0]),
                random_accesses=ref_gather_accesses,
            )

        return CheckpointDiff(
            method=self.name,
            ckpt_id=ckpt_id,
            data_len=self.spec.data_len,
            chunk_size=self.spec.chunk_size,
            first_ids=first_nodes,
            shift_ids=shift_nodes,
            shift_ref_ids=shift_ref_ids,
            shift_ref_ckpts=shift_ref_ckpts,
            payload=raw_payload,
            codec=codec,
        )
