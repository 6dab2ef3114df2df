"""Checkpoint-lineage retention: dependency analysis and rebasing.

The paper's scenarios keep *the entire checkpoint record* (§1), which
grows without bound.  Deployments eventually truncate history; this
module provides the two primitives that make truncation safe:

* :func:`payload_dependencies` — which diffs' *payloads* are actually
  needed to materialise a given checkpoint (metadata of every earlier
  diff is always needed to resolve fixed pass-through, but payloads of
  untouched diffs can live on cold storage or be dropped by a rebase);

* :func:`rebase_record` — rewrite the chain so checkpoint *at* becomes a
  new full checkpoint 0 and every later diff is remapped onto the new
  numbering.  Shifted-duplicate references into the discarded prefix are
  *materialised*: the referenced bytes are copied out of the
  reconstruction and stored as first-occurrence payload in the rewritten
  diff.  The rebased chain reconstructs byte-identically to the original
  for every surviving checkpoint (property-tested).

A rebase invalidates any provenance index built over the old chain:
checkpoint ids shift, and promoting shift references into
first-occurrence payload changes payload offsets.
:func:`rebase_stored_record` therefore rewrites a stored record
directory whole — frames, header, log *and* provenance index,
re-composed by the record writer from the rewritten diffs — into a
sibling directory, verifies it, and swaps it in by two renames, so a
crash at any point leaves the old chain or the rebased one loadable;
it journals a ``rebase`` event when it does.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from pathlib import Path
from typing import List, Optional, Sequence, Set, Union

import numpy as np

from ..compress import get_codec
from ..errors import RestoreError, StorageError
from ..telemetry import events
from .diff import CheckpointDiff
from .provenance import ProvenanceBuilder, gather_states
from .serialize import chunk_map, gather_chunk_payload
from .store import load_record, record_manifest, save_record, verify_record


def payload_dependencies(
    diffs: Sequence[CheckpointDiff], upto: Optional[int] = None
) -> Set[int]:
    """Checkpoint ids whose payload bytes contribute to checkpoint *upto*
    (default latest)."""
    if upto is None:
        upto = len(diffs) - 1
    if not 0 <= upto < len(diffs):
        raise RestoreError(f"checkpoint {upto} outside chain of {len(diffs)}")
    return required_payloads(diffs, [upto])


def required_payloads(
    diffs: Sequence[CheckpointDiff], keep: Sequence[int]
) -> Set[int]:
    """Union of payload dependencies over every checkpoint in *keep*.

    One :class:`~repro.core.provenance.ProvenanceBuilder` is composed
    over the chain and shared by every *k*, so the cost is one pass over
    the diffs plus a ``referenced()`` per kept checkpoint.
    """
    builder = ProvenanceBuilder()
    builder.extend(diffs[: max(keep, default=-1) + 1])
    needed: Set[int] = set()
    for k in keep:
        needed.update(int(t) for t in builder.index_for(k).referenced())
    return needed


def rebase_record(diffs: Sequence[CheckpointDiff], at: int) -> List[CheckpointDiff]:
    """Truncate history before checkpoint *at*.

    Returns a new chain whose checkpoint 0 is a full image of the old
    checkpoint *at*; old checkpoints ``at+1 .. end`` follow with their
    ids shifted down by *at*.  Later diffs are rewritten:

    * shift references to checkpoints ≥ *at* are renumbered;
    * shift references into the discarded prefix (< *at*) are converted
      to first-occurrence regions whose bytes are copied from the full
      reconstruction — the only way to keep them restorable once the
      prefix is gone.

    A rewritten payload is re-encoded with the codec its frame names.
    States ``at..end`` are gathered one at a time
    (:func:`~repro.core.provenance.gather_states`), so a rebase holds one
    state, never the whole history.
    """
    if not 0 <= at < len(diffs):
        raise RestoreError(f"rebase point {at} outside chain of {len(diffs)}")
    states = gather_states(diffs, start=at)
    out: List[CheckpointDiff] = [
        CheckpointDiff(
            method="full",
            ckpt_id=0,
            data_len=diffs[at].data_len,
            chunk_size=diffs[at].chunk_size,
            payload=next(states).tobytes(),
        )
    ]
    for old_id, state in enumerate(states, start=at + 1):
        out.append(_rewrite_diff(diffs[old_id], at, state))
    return out


def rebase_stored_record(directory: Union[str, Path], at: int) -> Path:
    """Rebase a *stored* record directory, index included.

    Loads the record, rewrites the chain with :func:`rebase_record` and
    saves it to the sibling ``<name>.rebase-new``, which must pass
    :func:`~repro.core.store.verify_record`.  Only then is the record
    swapped: ``<name>`` is renamed to ``<name>.rebase-old``,
    ``.rebase-new`` to ``<name>``, and ``.rebase-old`` deleted last.  A
    failure before the first rename leaves the old record in place; one
    between the two renames leaves it whole in ``.rebase-old``.  The
    directory moves as a whole, so it must hold nothing but the record.
    Emits a ``rebase`` journal event recording that the index was
    rewritten.
    """
    path = Path(directory)
    manifest = record_manifest(path)
    diffs = load_record(path)
    new_diffs = rebase_record(diffs, at)

    staged = path.with_name(path.name + ".rebase-new")
    old = path.with_name(path.name + ".rebase-old")
    for leftover in (staged, old):  # an earlier, interrupted rebase's
        if leftover.exists():
            shutil.rmtree(leftover)
    save_record(new_diffs, staged, method=manifest.get("method", ""))
    verification = verify_record(staged)
    if not verification.ok:
        raise StorageError(
            f"rebased record {staged} fails verification; {path} is "
            f"untouched:\n{verification.summary()}"
        )
    os.rename(path, old)
    os.rename(staged, path)
    shutil.rmtree(old)
    events.emit(
        events.REBASE,
        path=str(path),
        at=at,
        old_checkpoints=len(diffs),
        new_checkpoints=len(new_diffs),
    )
    return path


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
