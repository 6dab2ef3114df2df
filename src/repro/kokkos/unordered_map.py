"""``DigestMap`` — the historical record of unique hashes.

The paper keeps one GPU-resident hash table per process mapping a 128-bit
chunk/region digest to the ``(node, checkpoint_id)`` where that content
first occurred, implemented with Kokkos' lock-free ``UnorderedMap`` (§2.4).
This module reproduces that table as an open-addressing (linear probing)
structure over pre-allocated NumPy arrays with *batched* vectorized
operations.

Concurrency semantics matter here: on the GPU, thousands of threads insert
simultaneously and **the first CAS wins**; Algorithm 1 depends on losers
receiving the winner's ``(node, chkptID)`` entry.  The batch insert below
reproduces exactly that outcome deterministically — within a batch, the
lowest row index holding a given digest wins, everyone else observes the
winner's value — which is also what the paper's two-stage scheduling
(first-occurrence subtrees before shifted-duplicate subtrees) guarantees.

The insert core is *sort-free*: rows are not pre-deduplicated (the GPU
cannot pre-deduplicate a batch either).  Duplicate digests share a home
slot — the table capacity is a power of two and probing wraps with a bit
mask — so they walk the identical probe path in lockstep; when they reach
an empty slot, the lowest batch row claims it (a vectorized CAS) and the
losers observe the winner's key on the next round, exactly the
first-CAS-wins outcome.  Winner values are gathered straight from the
settled slots, so one fused ``insert_or_lookup`` pass yields both the
success mask and the authoritative value per row — no second probe.

Probe counts are tracked so the dedup engines can charge the GPU cost
model for the (non-coalesced) global-memory traffic of map operations.

Each of the three probing cores — ``insert_or_lookup``, ``_probe`` and
``_reinsert_unique`` — exists twice.  The NumPy loops below replay the
GPU's race as synchronous *rounds* (one lockstep step of the thread grid:
every pending row inspects its slot, rows on one slot coalesce, writes
become visible next round); they are the reference, and the only path on
a host without a C compiler.  When :mod:`repro.hashing.native` loaded its
shared object, the same rounds run as compiled kernels
(``_digest_map_native.c``) without the per-round interpreter dispatch.
Which slot a digest lands in and how many probes are charged both depend
on round timing, so the kernels are round-synchronous too and leave
``_state`` / ``_keys`` / ``_vals`` and ``total_probes`` bit-identical to
the loops (``docs/ALGORITHM.md`` §1.2 states the three parity rules;
``tests/kokkos/test_unordered_map.py`` decides them).  Validation, growth
policy, counters and the final value gather stay in Python on both paths,
and nothing selects between them except whether the object loaded.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..errors import CapacityError, ConfigurationError
from ..hashing import native as _native
from ..hashing.digest import check_digests
from ..telemetry import metrics as _metrics
from ..utils.validation import positive_int
from .execution import ExecutionSpace, default_device

_MAP_PROBES = _metrics.counter(
    "map.probes", "DigestMap slot inspections (coalesced-charged)"
)
_MAP_INSERTS = _metrics.counter(
    "map.inserts", "New entries created in DigestMap tables"
)
_MAP_GROWS = _metrics.counter(
    "map.grows", "DigestMap capacity-doubling rebuilds"
)

_EMPTY = np.uint8(0)
_FULL = np.uint8(1)

#: Default number of value lanes (node id, checkpoint id).
VALUE_LANES = 2

_MIN_CAPACITY = 8

# What a tripped non-termination guard raises, on either path.
_INSERT_STUCK = "DigestMap insert did not terminate (table full?)"
_PROBE_STUCK = "DigestMap probe did not terminate (table full?)"


def _next_pow2(n: int) -> int:
    p = _MIN_CAPACITY
    while p < n:
        p <<= 1
    return p


class DigestMap:
    """Open-addressing digest → ``(int64, int64)`` map with batch ops.

    Parameters
    ----------
    capacity_hint:
        Expected number of entries; the table pre-allocates
        ``next_pow2(capacity_hint / max_load_factor)`` slots, mirroring the
        paper's pre-sized UnorderedMap (rehashing on the GPU is expensive,
        so the real system sizes the map for the worst case of leaves +
        interior nodes).
    max_load_factor:
        Occupancy threshold that triggers growth when ``auto_grow``.
    auto_grow:
        If False, exceeding the load factor raises
        :class:`~repro.errors.CapacityError` instead (the paper's fixed
        pre-allocation behaviour).
    """

    def __init__(
        self,
        capacity_hint: int = 1024,
        max_load_factor: float = 0.7,
        auto_grow: bool = True,
        space: Optional[ExecutionSpace] = None,
    ) -> None:
        positive_int(capacity_hint, "capacity_hint")
        if not (0.1 <= max_load_factor <= 0.95):
            raise ConfigurationError(
                f"max_load_factor must be in [0.1, 0.95], got {max_load_factor}"
            )
        self.max_load_factor = float(max_load_factor)
        self.auto_grow = bool(auto_grow)
        self.space = space if space is not None else default_device()
        self._count = 0
        self.total_probes = 0  # cumulative, never reset by clear()
        self._allocate(_next_pow2(int(capacity_hint / max_load_factor) + 1))

    def _allocate(self, capacity: int) -> None:
        self._capacity = capacity
        self._mask = np.uint64(capacity - 1)
        self._mask_i = np.int64(capacity - 1)
        self._keys = np.zeros((capacity, 2), dtype=np.uint64)
        self._vals = np.zeros((capacity, VALUE_LANES), dtype=np.int64)
        self._state = np.zeros(capacity, dtype=np.uint8)
        # Host-side scratch for the NumPy loops' scatter-based CAS
        # arbitration (not part of the simulated device footprint), made by
        # the first loop that needs it: the native path never does.
        self._scan: Optional[np.ndarray] = None
        # What the native kernels are handed: the table's buffer addresses
        # (fixed until the next _allocate) and its power-of-two capacity.
        self._table = (
            self._keys.ctypes.data,
            self._vals.ctypes.data,
            self._state.ctypes.data,
            capacity,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        """Number of slots allocated."""
        return self._capacity

    @property
    def load_factor(self) -> float:
        """Current occupancy fraction."""
        return self._count / self._capacity

    @property
    def nbytes(self) -> int:
        """Device memory footprint of the table arrays."""
        return self._keys.nbytes + self._vals.nbytes + self._state.nbytes

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(keys, values)`` arrays of the occupied entries."""
        occ = self._state == _FULL
        return self._keys[occ], self._vals[occ]  # mask indexing copies

    def clear(self) -> None:
        """Remove all entries, keeping the allocation."""
        self._state[:] = _EMPTY
        self._count = 0

    # ------------------------------------------------------------------
    # Probing core
    # ------------------------------------------------------------------
    def _home_slots(self, keys: np.ndarray) -> np.ndarray:
        """Home slot per key: low digest bits masked to the pow2 capacity."""
        return (keys[:, 0] & self._mask).astype(np.int64)

    def _scan_scratch(self) -> np.ndarray:
        """One int64 per slot for the NumPy loops' CAS arbitration; always
        written before it is read, so it needs no reset between calls."""
        if self._scan is None:
            self._scan = np.zeros(self._capacity, dtype=np.int64)
        return self._scan

    def _charge(self, probes: int, stuck: str) -> None:
        """Account for a native kernel's return value: the slot inspections
        it made, one's-complemented when its non-termination guard tripped."""
        tripped = probes < 0
        if tripped:
            probes = ~probes
        self.total_probes += probes
        _MAP_PROBES.inc(probes)
        if tripped:
            raise CapacityError(stuck)

    # ------------------------------------------------------------------
    # For native kernels that call ``dm_*`` themselves (the Tree passes)
    # ------------------------------------------------------------------
    @property
    def native_table(self) -> Tuple[int, int, int, int]:
        """The ``dm_*`` table arguments (three buffer addresses and the pow2
        capacity), valid until the next growth."""
        return self._table

    @property
    def room(self) -> int:
        """Rows a batch may hold before :meth:`reserve` grows the table."""
        return math.floor(self._capacity * self.max_load_factor) - self._count

    def reserve(self, rows: int) -> int:
        """Make room for a batch of *rows* as ``insert_or_lookup`` does
        before probing (every row counted as new; ``CapacityError`` when
        ``auto_grow`` is off); returns the probes the rebuild charged."""
        before = self.total_probes
        self._maybe_grow(self._count + rows)
        return self.total_probes - before

    def charge_inserts(self, inserted: int, probes: int) -> None:
        """Account for ``dm_insert_or_lookup`` calls: the entries created
        and the kernel's probe count (see :meth:`_charge`)."""
        self._count += inserted
        _MAP_INSERTS.inc(inserted)
        self._charge(probes, _INSERT_STUCK)

    def charge_probes(self, probes: int) -> None:
        """Account for ``dm_probe`` calls (see :meth:`_charge`)."""
        self._charge(probes, _PROBE_STUCK)

    def _probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Linear-probe each key to its match or first empty slot.

        Returns ``(found, slot)``: ``found[i]`` is True when the key sits in
        the table, in which case ``slot[i]`` is its slot; otherwise
        ``slot[i]`` is the empty slot where an insert would place it.
        """
        lib = _native.get_lib()
        if lib is not None:
            keys = np.ascontiguousarray(keys)
            m = keys.shape[0]
            found = np.empty(m, dtype=bool)
            slot = np.empty(m, dtype=np.int64)
            tkeys, _tvals, tstate, capacity = self._table
            self.charge_probes(
                lib.dm_probe(
                    tkeys, tstate, capacity,
                    keys.ctypes.data, m, found.ctypes.data, slot.ctypes.data,
                )
            )
            return found, slot
        m = keys.shape[0]
        found = np.zeros(m, dtype=bool)
        slot = self._home_slots(keys)
        active = np.arange(m)
        rounds = 0
        while active.size:
            rounds += 1
            if rounds > self._capacity + 1:
                raise CapacityError(_PROBE_STUCK)
            self.total_probes += active.size
            _MAP_PROBES.inc(active.size)
            s = slot[active]
            occupied = self._state[s] == _FULL
            idx_occ = active[occupied]
            if idx_occ.size:
                s_occ = slot[idx_occ]
                match = (self._keys[s_occ, 0] == keys[idx_occ, 0]) & (
                    self._keys[s_occ, 1] == keys[idx_occ, 1]
                )
                found[idx_occ[match]] = True
                advance = idx_occ[~match]
                slot[advance] = (slot[advance] + 1) & self._mask_i
            else:
                advance = np.empty(0, dtype=np.int64)
            # Keys at empty slots are done probing (absent); keys that
            # mismatched keep going.
            active = advance
        return found, slot

    # ------------------------------------------------------------------
    # Lookup / contains
    # ------------------------------------------------------------------
    def lookup(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batch lookup.

        Returns ``(found, values)`` where ``values[i]`` is the stored value
        for found keys and zeros otherwise.
        """
        check_digests(keys, "keys")
        found, slot = self._probe(keys)
        values = np.zeros((keys.shape[0], VALUE_LANES), dtype=np.int64)
        if found.any():
            values[found] = self._vals[slot[found]]
        return found, values

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Batch existence query → boolean array."""
        check_digests(keys, "keys")
        found, _ = self._probe(keys)
        return found

    def get(self, key: np.ndarray) -> Optional[np.ndarray]:
        """Scalar convenience lookup: ``(2,)`` digest → value or ``None``."""
        keys = np.asarray(key, dtype=np.uint64).reshape(1, 2)
        found, values = self.lookup(keys)
        return values[0] if found[0] else None

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert_or_lookup(
        self, keys: np.ndarray, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused batch insert-if-absent + lookup, GPU first-wins semantics.

        One pass resolves every row: rows whose digest is absent claim a
        slot (lowest batch row wins within the batch, reproducing the
        first successful CAS); every other row observes the authoritative
        entry.  This is the paper's fused kernel — callers get the winner
        values without a second probe.

        Parameters
        ----------
        keys:
            ``(n, 2)`` uint64 digests.  Duplicates within the batch are
            allowed and resolve deterministically.
        values:
            ``(n, 2)`` int64 payloads (conventionally ``(node, ckpt_id)``).

        Returns
        -------
        (success, out_values):
            ``success[i]`` is True iff row *i* created a new entry — i.e.
            its digest was absent from the table **and** row *i* is the
            first row in the batch carrying that digest.  ``out_values[i]``
            is the entry now associated with the digest: the row's own
            value on success, otherwise the winning entry (pre-existing or
            inserted by an earlier row of this batch).
        """
        check_digests(keys, "keys")
        n = keys.shape[0]
        if values.shape != (n, VALUE_LANES):
            raise ConfigurationError(
                f"values must be ({n}, {VALUE_LANES}) int64, got {values.shape}"
            )
        values = values.astype(np.int64, copy=False)
        if n == 0:
            return np.zeros(0, dtype=bool), np.zeros((0, VALUE_LANES), dtype=np.int64)

        # Conservative sizing: like the GPU table, the batch cannot be
        # pre-deduplicated, so reserve room as if every row were new.
        self._maybe_grow(self._count + n)

        lib = _native.get_lib()
        if lib is not None:
            keys = np.ascontiguousarray(keys)
            values = np.ascontiguousarray(values)
            success = np.empty(n, dtype=bool)
            work = np.empty(3 * n, dtype=np.int64)
            probes = lib.dm_insert_or_lookup(
                *self._table, keys.ctypes.data, values.ctypes.data, n,
                success.ctypes.data, work.ctypes.data,
            )
            slot = work[:n]  # the rest is the kernel's scratch
            self.charge_inserts(int(np.count_nonzero(success)), probes)
            return success, self._vals[slot]

        success = np.zeros(n, dtype=bool)
        slot = self._home_slots(keys)
        pending = np.ones(n, dtype=bool)
        rounds = 0
        scan = self._scan_scratch()
        # Every pending row inspects its slot once per round.  Duplicate
        # digests share the identical probe path (same home slot, same
        # transitions), so the lowest batch row reaches any empty slot in
        # the same round as its duplicates and wins the claim; the losers
        # match the winner's key on the following round and resolve as
        # lookups — no pre-sort, no setdiff1d/union1d bookkeeping.
        while True:
            idx = np.nonzero(pending)[0]
            if idx.size == 0:
                break
            rounds += 1
            if rounds > 2 * self._capacity + 2:  # pragma: no cover - invariant
                raise CapacityError(_INSERT_STUCK)
            s = slot[idx]
            # Scatter-based arbitration: write row ids in descending order
            # so the *lowest* row lands last, then each row checks whether
            # it owns its slot.  One scatter + one gather resolves the CAS
            # winner per slot with no sort (the scratch is always written
            # before it is read, so it needs no reset between calls).
            scan[s[::-1]] = idx[::-1]
            first = scan[s] == idx
            # Duplicate digests walk the probe path in lockstep, so rows
            # inspecting the same slot in the same round coalesce into a
            # single global-memory transaction (exactly as warp-coalesced
            # GPU loads do): charge unique slots, not rows.
            probes = int(np.count_nonzero(first))
            self.total_probes += probes
            _MAP_PROBES.inc(probes)
            occupied = self._state[s] == _FULL
            occ = idx[occupied]
            if occ.size:
                so = slot[occ]
                match = (self._keys[so, 0] == keys[occ, 0]) & (
                    self._keys[so, 1] == keys[occ, 1]
                )
                hits = occ[match]
                pending[hits] = False  # resolved as lookups; slot is final
                advance = occ[~match]
                slot[advance] = (slot[advance] + 1) & self._mask_i
            # First claimant per empty slot wins the CAS (occupied and
            # empty slots are disjoint, so `first` arbitrates both at once).
            winners = idx[first & ~occupied]
            if winners.size:
                ws = slot[winners]
                self._keys[ws] = keys[winners]
                self._vals[ws] = values[winners]
                self._state[ws] = _FULL
                self._count += winners.size
                _MAP_INSERTS.inc(winners.size)
                success[winners] = True
                pending[winners] = False
                # CAS losers stay pending on the same slot: next round they
                # either match the winner (duplicate digest) or advance.

        # Every row settled on a final slot: gather authoritative values.
        return success, self._vals[slot]

    def insert(
        self, keys: np.ndarray, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batch insert-if-absent; alias of the fused op (kept for callers
        that ignore the returned values)."""
        return self.insert_or_lookup(keys, values)

    def insert_one(self, key: np.ndarray, value) -> bool:
        """Scalar convenience insert; returns True if newly inserted."""
        keys = np.asarray(key, dtype=np.uint64).reshape(1, 2)
        vals = np.asarray(value, dtype=np.int64).reshape(1, VALUE_LANES)
        success, _ = self.insert(keys, vals)
        return bool(success[0])

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _reinsert_unique(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Re-hash *keys* (already unique, already absent) into the table.

        The growth rebuild needs none of the first-wins machinery: every
        key is unique and the table holds no other entries, so occupied
        slots can only ever be other rebuilt keys — mismatches advance
        without a key comparison.
        """
        lib = _native.get_lib()
        if lib is not None:
            keys = np.ascontiguousarray(keys, dtype=np.uint64)
            values = np.ascontiguousarray(values, dtype=np.int64)
            m = keys.shape[0]
            work = np.empty(4 * m, dtype=np.int64)
            self._charge(
                lib.dm_reinsert_unique(
                    *self._table, keys.ctypes.data, values.ctypes.data, m,
                    work.ctypes.data,
                ),
                "DigestMap rehash did not terminate",
            )
            self._count += m
            return
        m = keys.shape[0]
        slot = self._home_slots(keys)
        pending = np.arange(m)
        rounds = 0
        scan = self._scan_scratch()
        while pending.size:
            rounds += 1
            if rounds > self._capacity + 1:  # pragma: no cover - invariant
                raise CapacityError("DigestMap rehash did not terminate")
            self.total_probes += pending.size
            _MAP_PROBES.inc(pending.size)
            s = slot[pending]
            scan[s[::-1]] = pending[::-1]
            first = scan[s] == pending
            occupied = self._state[s] == _FULL
            advance = pending[occupied]
            slot[advance] = (slot[advance] + 1) & self._mask_i
            winners = pending[first & ~occupied]
            if winners.size:
                ws = slot[winners]
                self._keys[ws] = keys[winners]
                self._vals[ws] = values[winners]
                self._state[ws] = _FULL
            pending = np.concatenate([advance, pending[~first & ~occupied]])
        self._count += m

    def _maybe_grow(self, needed: int) -> None:
        if needed <= self._capacity * self.max_load_factor:
            return
        if not self.auto_grow:
            raise CapacityError(
                f"DigestMap over capacity: need {needed} entries, have "
                f"{self._capacity} slots at load factor {self.max_load_factor}"
            )
        new_capacity = _next_pow2(int(needed / self.max_load_factor) + 1)
        _MAP_GROWS.inc()
        old_keys, old_vals = self.items()
        self._allocate(new_capacity)
        self._count = 0
        if old_keys.shape[0]:
            self._reinsert_unique(old_keys, old_vals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DigestMap {self._count}/{self._capacity} "
            f"load={self.load_factor:.2f}>"
        )
