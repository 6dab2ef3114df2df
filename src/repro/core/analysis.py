"""The structural chain verifier the tests check diff chains with.

A stored record is reported by ``repro inspect``
(:func:`repro.telemetry.attribution.attribute_record`), which finds the
same per-frame problems through each verified frame's
:func:`~repro.core.serialize.chunk_map`.
"""

from __future__ import annotations

from typing import List, Sequence

from .diff import CheckpointDiff
from .serialize import chunk_map


def verify_chain(diffs: Sequence[CheckpointDiff]) -> List[str]:
    """Structural integrity checks over a diff chain.

    Returns a list of problem descriptions (empty = chain is sound):
    ordering and stable geometry here, then each diff's
    :func:`~repro.core.serialize.chunk_map` problems — region bounds,
    non-overlap, reference validity, the §2.2 serialization invariant
    (a shifted duplicate referencing its own checkpoint reads bytes a
    first occurrence — or no region — of that diff wrote, never another
    shift destination) and a raw payload's length.
    """
    if not diffs:
        return ["chain is empty"]
    problems: List[str] = []
    geometry = (diffs[0].data_len, diffs[0].chunk_size)
    for position, diff in enumerate(diffs):
        where = f"ckpt {position}"
        if diff.ckpt_id != position:
            problems.append(f"{where}: out-of-order id {diff.ckpt_id}")
            continue
        if (diff.data_len, diff.chunk_size) != geometry:
            problems.append(f"{where}: geometry changed mid-chain")
            continue
        problems.extend(chunk_map(diff).problems)
    return problems
