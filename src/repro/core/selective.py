"""Selective checkpoint reconstruction — the paper's §5 future-work item
("scalable reconstruction techniques that efficiently collect scattered
compact regions from multiple previous checkpoints").

Collecting scattered regions is exactly the provenance gather of
:mod:`~repro.core.provenance`: checkpoint *k*'s index row names, per
chunk, the one stored payload range holding its bytes, so a restore
reads only payload bytes that contribute to checkpoint *k* and its
report says how many came from which diff.  This module keeps the
historical entry point.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .diff import CheckpointDiff
from .provenance import restore_indexed


def selective_restore(
    diffs: Sequence[CheckpointDiff], upto: Optional[int] = None
) -> np.ndarray:
    """Checkpoint *upto* (default latest) of an in-memory chain."""
    return restore_indexed(diffs, upto)[0]
