"""Checkpoint-lineage retention: rebasing a stored record.

The paper's scenarios keep *the entire checkpoint record* (§1), which
grows without bound.  Deployments eventually truncate history:
:func:`rebase_stored_record` rewrites a record so checkpoint *at* becomes
a new full checkpoint 0 and every later checkpoint is remapped onto the
new numbering.  Shifted-duplicate references into the discarded prefix
are *materialised*: the referenced bytes are copied out of the
checkpoint's reconstruction and stored as first-occurrence payload in the
rewritten diff.  The rebased record restores byte-identically to the
original for every surviving checkpoint (property-tested).

Which frames' *payloads* a checkpoint needs is its provenance row's
:meth:`~repro.core.provenance.ProvenanceIndex.referenced` — metadata of
every earlier checkpoint resolves fixed pass-through, but payloads no
kept row names can live on cold storage or be dropped by a rebase.

The rebase reads the record, never an in-memory chain: each surviving
state is gathered from it (``resolve_source`` + ``materialize_index``)
and each later frame is loaded to be rewritten, one checkpoint at a
time, so a rebase holds one state and the frames its row names, never
the history.  A rebase invalidates the old
provenance index (ids shift, promoted references change payload
offsets), so the new generation — frames, header, log *and* index,
re-composed by the record writer — is written beside the record,
verified, and swapped in by the byte store
(:meth:`~repro.record.bytestore.DirectoryStore.swap`): a crash at any
point leaves the old generation or the rebased one.  It journals a
``rebase`` event when it does.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..compress import get_codec
from ..errors import RestoreError, StorageError
from ..record import DirectoryStore, RecordView, RecordWriter
from ..telemetry import events
from .diff import CheckpointDiff
from .provenance import materialize_index, resolve_source
from .serialize import chunk_map, gather_chunk_payload
from .store import verify_record


def rebase_stored_record(record, at: int):
    """Rebase a stored record — a directory, a byte store or a
    :class:`~repro.record.RecordView` — index included; returns where it
    lives (the directory's path, or the store).

    The new chain's checkpoint 0 is a full image of the old checkpoint
    *at*; old checkpoints ``at+1 .. end`` follow with their ids shifted
    down by *at*, rewritten so that

    * shift references to checkpoints ≥ *at* are renumbered;
    * shift references into the discarded prefix (< *at*) become
      first-occurrence regions whose bytes are copied from the
      checkpoint's reconstruction — the only way to keep them restorable
      once the prefix is gone;

    and a rewritten payload is re-encoded with the codec its frame names.
    The new generation must pass :func:`~repro.core.store.verify_record`
    before it replaces the old one; until then the record is untouched.
    """
    view = RecordView.of(record)
    count = view.count
    if not 0 <= at < count:
        raise RestoreError(f"rebase point {at} outside chain of {count}")

    def build(staged) -> None:
        writer = RecordWriter(staged, method=view.header.get("method", ""))
        for old_id in range(at, count):
            writer.append(_rebased_diff(view, old_id, at))
        verification = verify_record(staged)
        if not verification.ok:
            raise StorageError(
                f"rebased record {staged.path} fails verification; "
                f"{view.path} is untouched:\n{verification.summary()}"
            )

    view.store.swap(build)
    events.emit(
        events.REBASE,
        path=str(view.path),
        at=at,
        old_checkpoints=count,
        new_checkpoints=count - at,
    )
    return view.path if isinstance(view.store, DirectoryStore) else view.store


def _rebased_diff(view: RecordView, old_id: int, at: int) -> CheckpointDiff:
    """Old checkpoint *old_id*'s frame on the chain rebased at *at*.

    Its state is gathered from the record and dropped on return, so the
    next checkpoint's gather never runs beside it: the rebase holds one
    state at a time.
    """
    state = materialize_index(*resolve_source(view, old_id)[:2])
    if old_id > at:
        return _rewrite_diff(view.frame(old_id), at, state)
    spec = view.spec
    return CheckpointDiff(
        method="full",
        ckpt_id=0,
        data_len=spec.data_len,
        chunk_size=spec.chunk_size,
        payload=state.tobytes(),
    )


def _rewrite_diff(diff: CheckpointDiff, at: int, state: np.ndarray) -> CheckpointDiff:
    """*diff* renumbered onto a chain that starts at old checkpoint *at*.

    Its shift entries into the discarded prefix become first entries, and
    the first-occurrence payload is re-gathered from *state*, the
    checkpoint's reconstruction — which holds every first region's bytes
    — and re-encoded with the frame's own codec.
    """
    new_id = diff.ckpt_id - at
    if diff.method in ("full", "basic"):
        # Position-relative methods never reference other checkpoints.
        return CheckpointDiff(
            method=diff.method,
            ckpt_id=new_id,
            data_len=diff.data_len,
            chunk_size=diff.chunk_size,
            bitmap=diff.bitmap,
            payload=diff.payload,
        )

    keep = diff.shift_ref_ckpts.astype(np.int64) >= at
    first_ids = np.sort(np.concatenate([diff.first_ids, diff.shift_ids[~keep]]))
    rewritten = CheckpointDiff(
        method=diff.method,
        ckpt_id=new_id,
        data_len=diff.data_len,
        chunk_size=diff.chunk_size,
        first_ids=first_ids,
        shift_ids=diff.shift_ids[keep],
        shift_ref_ids=diff.shift_ref_ids[keep],
        shift_ref_ckpts=diff.shift_ref_ckpts[keep].astype(np.int64) - at,
    )
    cmap = chunk_map(rewritten)
    payload = gather_chunk_payload(state, cmap.spec, cmap.first_chunks)
    if diff.codec is not None:
        payload = get_codec(diff.codec).compress(payload)
    return dataclasses.replace(rewritten, payload=payload, codec=diff.codec)
