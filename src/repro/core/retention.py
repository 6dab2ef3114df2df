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
re-composed by the record writer from the rewritten diffs — journaling a
``rebase`` event when it does.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

import numpy as np

from ..errors import RestoreError
from ..telemetry import events
from .chunking import ChunkSpec
from .diff import CheckpointDiff
from .merkle import TreeLayout
from .provenance import ProvenanceBuilder, resolve_source
from .restore import Restorer
from .store import RecordWriter, load_record, record_manifest, save_record


def payload_dependencies(
    diffs: Sequence[CheckpointDiff], upto: Optional[int] = None
) -> Set[int]:
    """Checkpoint ids whose payload bytes contribute to checkpoint *upto*."""
    index, _, _ = resolve_source(diffs, upto)
    return {int(t) for t in index.referenced()}


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


def rebase_record(
    diffs: Sequence[CheckpointDiff],
    at: int,
    payload_codec=None,
) -> List[CheckpointDiff]:
    """Truncate history before checkpoint *at*.

    Returns a new chain whose checkpoint 0 is a full image of the old
    checkpoint *at*; old checkpoints ``at+1 .. end`` follow with their
    ids shifted down by *at*.  Later diffs are rewritten:

    * shift references to checkpoints ≥ *at* are renumbered;
    * shift references into the discarded prefix (< *at*) are converted
      to first-occurrence regions whose bytes are copied from the full
      reconstruction — the only way to keep them restorable once the
      prefix is gone.

    Only raw-payload records are supported (rebase rewrites payloads, so
    a ``payload_codec`` must be supplied to decode/encode hybrid ones).
    """
    if not 0 <= at < len(diffs):
        raise RestoreError(f"rebase point {at} outside chain of {len(diffs)}")
    restorer = Restorer(payload_codec=payload_codec)
    states = restorer.restore_all(diffs)

    out: List[CheckpointDiff] = [
        CheckpointDiff(
            method="full",
            ckpt_id=0,
            data_len=diffs[at].data_len,
            chunk_size=diffs[at].chunk_size,
            payload=states[at].tobytes(),
        )
    ]
    layout: Optional[TreeLayout] = None
    for old_id in range(at + 1, len(diffs)):
        out.append(
            _rewrite_diff(diffs[old_id], at, states[old_id], layout, payload_codec)
        )
    return out


def rebase_stored_record(
    directory: Union[str, Path], at: int, payload_codec=None
) -> Path:
    """Rebase a *stored* record directory in place, index included.

    Loads the record, rewrites the chain with :func:`rebase_record`,
    replaces every file of the record on disk, and emits a ``rebase``
    journal event recording that the index was rewritten.  The old
    record is reset first (the store knows its files): the rebased chain
    is shorter and renumbered, so nothing of the old layout may survive.
    """
    path = Path(directory)
    manifest = record_manifest(path)
    diffs = load_record(path)
    new_diffs = rebase_record(diffs, at, payload_codec)

    RecordWriter(path).reset()
    save_record(new_diffs, path, method=manifest.get("method", ""))
    events.emit(
        events.REBASE,
        path=str(path),
        at=at,
        old_checkpoints=len(diffs),
        new_checkpoints=len(new_diffs),
        index_rewritten="provenance" in record_manifest(path),
        index_existed="provenance" in manifest,
    )
    return path


def _rewrite_diff(
    diff: CheckpointDiff,
    at: int,
    state: np.ndarray,
    layout: Optional[TreeLayout],
    payload_codec,
) -> CheckpointDiff:
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

    spec = ChunkSpec(diff.data_len, diff.chunk_size)
    if diff.method == "tree":
        if layout is None:
            layout = TreeLayout(spec.num_chunks)

        def bounds(node: int):
            return spec.range_bounds(
                int(layout.leaf_start[node]), int(layout.leaf_count[node])
            )

    else:

        def bounds(node: int):
            return spec.chunk_bounds(node)

    keep_mask = diff.shift_ref_ckpts.astype(np.int64) >= at
    promoted = diff.shift_ids[~keep_mask]

    # New first set = old firsts + promoted shifts; payload gathered from
    # the reconstructed state in the id order of the merged array.
    raw_payload = diff.payload
    if payload_codec is not None:
        raw_payload = payload_codec.decompress(raw_payload)
    old_payload = np.frombuffer(raw_payload, dtype=np.uint8)

    first_ids = np.concatenate(
        [diff.first_ids.astype(np.int64), promoted.astype(np.int64)]
    )
    order = np.argsort(first_ids, kind="stable")
    first_ids = first_ids[order]
    parts: List[bytes] = []
    # Offsets of the ORIGINAL firsts within the old payload.
    old_offsets: Dict[int, int] = {}
    cursor = 0
    for node in diff.first_ids:
        b0, b1 = bounds(int(node))
        old_offsets[int(node)] = cursor
        cursor += b1 - b0
    promoted_set = {int(n) for n in promoted}
    for node in first_ids:
        b0, b1 = bounds(int(node))
        if int(node) in promoted_set:
            parts.append(state[b0:b1].tobytes())
        else:
            off = old_offsets[int(node)]
            parts.append(old_payload[off : off + (b1 - b0)].tobytes())
    payload = b"".join(parts)
    if payload_codec is not None:
        payload = payload_codec.compress(payload)

    return CheckpointDiff(
        method=diff.method,
        ckpt_id=new_id,
        data_len=diff.data_len,
        chunk_size=diff.chunk_size,
        first_ids=first_ids,
        shift_ids=diff.shift_ids[keep_mask],
        shift_ref_ids=diff.shift_ref_ids[keep_mask],
        shift_ref_ckpts=diff.shift_ref_ckpts[keep_mask].astype(np.int64) - at,
        payload=payload,
    )
