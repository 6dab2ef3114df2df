"""Checkpoint reconstruction from diff chains.

Restoring checkpoint *k* follows §2.2: start from the reconstruction of
checkpoint *k-1* (fixed duplicates are simply the bytes that are never
overwritten), write the first-occurrence payload into place, then resolve
shifted duplicates by copying from the referenced checkpoint — which may
be an earlier checkpoint or checkpoint *k* itself (a shifted duplicate of
a first occurrence earlier in the same buffer).

Every diff, whatever its method, is read through
:func:`~repro.core.serialize.chunk_map`, which also checks that
shifted-duplicate references point at content stored as a first
occurrence — so after phase one of the current checkpoint every
reference target is available in some reconstructed buffer.  First
occurrences land through one :func:`~repro.core.serialize.place_chunks`
scatter, and shifted duplicates through one more, grouped by referenced
checkpoint: one group, and one copy, per source buffer.

:meth:`Restorer.restore` keeps only the *reference window* in memory —
the previous checkpoint plus whatever earlier checkpoints later diffs
still point at — and drops each buffer after its last use
(``peak_buffers_held`` reports the high-water mark).
:meth:`Restorer.restore_all` returns every state and therefore holds the
whole chain by construction.  Chain replay is the parity oracle — the
tests, the end-to-end harness and ``repro restore --replay`` run it;
every production reconstruction is the provenance gather of
:mod:`~repro.core.provenance`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import RestoreError
from .. import telemetry
from ..telemetry import events
from .diff import CheckpointDiff
from .serialize import chunk_map, diff_payload, group_by_source, place_chunks

_DIFFS_APPLIED = telemetry.counter(
    "restore.diffs_applied", "Diffs applied during chain-replay restores"
)


class Restorer:
    """Reconstructs full checkpoints from an ordered diff chain.

    Each diff's payload is decoded with the codec its frame names
    (:func:`~repro.core.serialize.diff_payload`), and each diff is
    structurally checked (:func:`~repro.core.serialize.chunk_map`) as it
    is applied: a malformed diff raises :class:`RestoreError` naming its
    checkpoint.  This is the test-side parity oracle; production
    reconstruction is the provenance gather.

    Attributes
    ----------
    peak_buffers_held:
        High-water mark of simultaneously held checkpoint buffers during
        the last :meth:`restore` / :meth:`restore_all` call.
    """

    def __init__(self) -> None:
        self.peak_buffers_held: int = 0

    # ------------------------------------------------------------------
    def restore_all(self, diffs: Sequence[CheckpointDiff]) -> List[np.ndarray]:
        """Reconstruct every checkpoint in the chain, in order."""
        with telemetry.span("restore.replay_all", chain_len=len(diffs)):
            history: Dict[int, np.ndarray] = {}
            for position, diff in enumerate(diffs):
                if diff.ckpt_id != position:
                    raise RestoreError(
                        f"diff chain out of order: position {position} holds "
                        f"checkpoint {diff.ckpt_id}"
                    )
                history[position] = self._restore_one(diff, history)
            self.peak_buffers_held = len(history)
        return [history[i] for i in range(len(diffs))]

    def restore(
        self, diffs: Sequence[CheckpointDiff], upto: Optional[int] = None
    ) -> np.ndarray:
        """Reconstruct checkpoint *upto* (default: the last one).

        Holds only the reference window in memory: the previous
        checkpoint plus earlier checkpoints that a not-yet-applied diff's
        shifted duplicates still point at.  Buffers are dropped the
        moment no remaining diff needs them; ``peak_buffers_held``
        records how many were alive at once.
        """
        if len(diffs) == 0:
            raise RestoreError("cannot restore from an empty diff chain")
        if upto is None:
            upto = len(diffs) - 1
        if not 0 <= upto < len(diffs):
            raise RestoreError(f"checkpoint {upto} outside chain of {len(diffs)}")
        chain = diffs[: upto + 1]
        with telemetry.span("restore.replay", upto=upto, chain_len=len(chain)) as span:
            result = self._restore_windowed(chain, upto)
            span.set(peak_buffers=self.peak_buffers_held)
        events.emit(
            events.RESTORE,
            path="replay",
            target_ckpt=upto,
            chain_len=len(chain),
            state_bytes=int(result.nbytes),
            payload_bytes=sum(d.payload_bytes for d in chain),
        )
        return result

    def _restore_windowed(
        self, chain: Sequence[CheckpointDiff], upto: int
    ) -> np.ndarray:
        # Last position at which each reconstructed checkpoint is read:
        # position+1 needs position (fixed duplicates), and any later
        # diff's shifted duplicates may reach further back.
        last_use: Dict[int, int] = {upto: upto}
        for position, diff in enumerate(chain):
            if diff.ckpt_id != position:
                raise RestoreError(
                    f"diff chain out of order: position {position} holds "
                    f"checkpoint {diff.ckpt_id}"
                )
            if position + 1 <= upto:
                last_use[position] = max(last_use.get(position, -1), position + 1)
            for ref in diff.referenced_checkpoints:
                t = int(ref)
                last_use[t] = max(last_use.get(t, -1), position)

        history: Dict[int, np.ndarray] = {}
        peak = 0
        for position, diff in enumerate(chain):
            history[position] = self._restore_one(diff, history)
            peak = max(peak, len(history))
            dead = [t for t in history if last_use.get(t, -1) <= position and t != upto]
            for t in dead:
                del history[t]
        self.peak_buffers_held = peak
        return history[upto]

    # ------------------------------------------------------------------
    def _restore_one(
        self, diff: CheckpointDiff, history: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        k = diff.ckpt_id
        if k == 0:
            data = np.zeros(diff.data_len, dtype=np.uint8)
        else:
            prev = history.get(k - 1)
            if prev is None:
                raise RestoreError(
                    f"checkpoint {k} needs checkpoint {k - 1}, "
                    f"which is not reconstructed"
                )
            if prev.shape[0] != diff.data_len:
                raise RestoreError(f"checkpoint length changed mid-chain at {k}")
            data = prev.copy()

        cmap = chunk_map(diff)
        if cmap.problems:
            raise RestoreError(cmap.problems[0])
        payload = diff_payload(diff)
        if payload.shape[0] != cmap.payload_len:
            raise RestoreError(
                f"{diff.method} payload is {payload.shape[0]} bytes, its "
                f"entries demand {cmap.payload_len}"
            )
        spec = cmap.spec
        place_chunks(
            data, spec, cmap.first_chunks, cmap.first_offs, [payload],
            [cmap.first_chunks.shape[0]],
        )
        # §4: no shift reads bytes another shift of this diff writes, so
        # applying them grouped by referenced checkpoint, in one scatter,
        # is equivalent to the sequential per-entry order.
        order, refs, ends = group_by_source(cmap.refs)
        sources = []
        for t in refs.tolist():
            source = data if t == k else history.get(t)
            if source is None:
                raise RestoreError(
                    f"shifted duplicate references checkpoint {t}, "
                    f"which is not reconstructed yet"
                )
            sources.append(source)
        place_chunks(
            data, spec, cmap.dst[order], cmap.src[order] * spec.chunk_size,
            sources, ends,
        )
        _DIFFS_APPLIED.inc()
        return data

