"""One reading of a stored record: :class:`RecordView`, and the
verification report it produces."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..core import provenance as _prov
from ..core.chunking import ChunkSpec
from ..core.diff import CheckpointDiff
from ..errors import IntegrityError, SerializationError, StorageError
from . import index
from .bytestore import as_store
from .frames import STATUS_OK, check_frame, load_frame, load_payload
from .log import LOG_ENTRY, PACK_FILE, read_header, read_log

_LOG_READS = telemetry.counter(
    "store.log_reads",
    "Record headers and logs read and seal-checked (one per opened RecordView)",
)
_INDEX_GROUPS_DECODED = telemetry.counter(
    "store.index_groups_decoded",
    "Provenance row-groups verified and decoded (a row read decodes its "
    "keyframe plus the deltas up to it)",
)


def _chain_digest(digests: Sequence[bytes]) -> str:
    return hashlib.sha256(b"".join(digests)).hexdigest()


class RecordView:
    """A record — a directory or any byte store — as one operation reads it.

    Opening validates ``record.json`` and reads and seal-checks
    ``record.log``, once; everything after that reads only what it names
    — one index byte range per row, the frames asked for — against the
    log columns checked at open.  A view describes the record as it was
    when opened: a later append is not in it.
    """

    def __init__(self, record) -> None:
        #: The byte store the record lives in, and where that is.
        self.store = as_store(record)
        self.path = self.store.path
        self.header = read_header(self.store)
        #: The sealed log, and a SHA-256 that has consumed exactly its
        #: bytes (a reopening writer continues the seal chain from it).
        self.log, self.sealer = read_log(self.store, self.header)
        _LOG_READS.inc()

    @classmethod
    def of(cls, record) -> "RecordView":
        """*record* itself when it is a view, else a view opened on it
        (a directory or a store)."""
        return record if isinstance(record, cls) else cls(record)

    @property
    def count(self) -> int:
        """Checkpoints the record holds."""
        return self.log.count

    @property
    def spec(self) -> ChunkSpec:
        return ChunkSpec(self.header["data_len"], self.header["chunk_size"])

    def keyframe_of(self, k: int) -> int:
        """The last keyframe at or before checkpoint *k*."""
        while k > 0 and self.log.group_kind[k] != index.KEYFRAME:
            k -= 1
        return k

    # ------------------------------------------------------------------
    def _groups(self, ckpt: Optional[int] = None) -> Tuple[int, Iterator[bytes]]:
        """``(first checkpoint, group records)`` of *ckpt*'s keyframe span,
        in one ``pread`` of that byte range; without *ckpt*, every group,
        after checking the file prologue against the header's geometry.
        The records are cut from that one read as they are consumed."""
        log = self.log
        name = self.header["index"]
        first = 0 if ckpt is None else self.keyframe_of(ckpt)
        last = log.count - 1 if ckpt is None else ckpt
        start = 0 if ckpt is None else log.group_off[first]
        try:
            blob = self.store.pread(name, log.group_end(last) - start, start)
        except FileNotFoundError:
            raise IntegrityError(
                f"manifest names provenance index {name}, which is missing",
                path=f"{self.path}/{name}",
            ) from None
        if ckpt is None:
            geometry = index.decode_prologue(blob)
            held = (self.header["data_len"], self.header["chunk_size"])
            if (geometry["data_len"], geometry["chunk_size"]) != held:
                raise IntegrityError(
                    f"{name} indexes checkpoints of "
                    f"{geometry['data_len']} bytes in {geometry['chunk_size']}-byte "
                    f"chunks, record holds {held[0]} in {held[1]}",
                    path=f"{self.path}/{name}",
                )
        return first, (
            blob[log.group_off[k] - start : log.group_end(k) - start]
            for k in range(first, last + 1)
        )

    def fold(self, ckpt: Optional[int] = None) -> Iterator:
        """Yield every row, in order, as the index is folded, after
        checking the file prologue's geometry against the header's; with
        *ckpt*, the rows of its keyframe span.  Keyframe decode + delta
        fold, each group checked against its own digest and the log's;
        the index bytes are read once, and only the row being folded onto
        is held."""
        first, records = self._groups(ckpt)
        spec = self.spec
        row = None
        for k, record in enumerate(records, first):
            row = index.decode_group(record, k, self.log.group_sha[k], spec, row)
            _INDEX_GROUPS_DECODED.inc()
            yield row

    def rows(self, ckpt: Optional[int] = None) -> list:
        """:meth:`fold`, collected: every row, or *ckpt*'s keyframe span."""
        return list(self.fold(ckpt))

    def row(self, k: int):
        """Checkpoint *k*'s :class:`~repro.core.provenance.ProvenanceIndex`
        row: one ``pread`` of its keyframe span, the keyframe decoded and
        the deltas folded onto it — at most two keyframes' bytes at any
        chain length, and damage in any group *outside* that span never
        blocks it.  ``bytes_read`` counts the log and that span."""
        if not 0 <= k < self.count:
            raise StorageError(f"checkpoint {k} outside record index of {self.count}")
        row = self.rows(k)[-1]
        span = self.log.group_end(k) - self.log.group_off[self.keyframe_of(k)]
        row.bytes_read = self.count * LOG_ENTRY.size + span
        return row

    # ------------------------------------------------------------------
    def frame(self, k: int) -> CheckpointDiff:
        """Load checkpoint *k*'s frame, checked against the log's size and
        digest and its own embedded digest."""
        return load_frame(self.store, self.log, k)

    def payloads(self, ids: Sequence[int]) -> Dict[int, np.ndarray]:
        """The payloads of only the named checkpoints, as uint8 arrays: a
        provenance row names the frames its bytes live in, and only those
        are read from the pack, each checked against the log's size and
        digest and by the frame-header checks
        (:func:`~repro.record.frames.load_payload`) — but no whole diff is
        built."""
        count, log = self.count, self.log
        payloads: Dict[int, np.ndarray] = {}
        with telemetry.span(
            "store.load_frames", path=str(self.path), frames_total=count
        ) as span:
            for i in ids:
                i = int(i)
                if not 0 <= i < count:
                    raise StorageError(f"checkpoint {i} outside record of {count}")
                if i not in payloads:
                    payloads[i] = load_payload(self.store, log, i)
            span.set(frames_read=len(payloads))
        return payloads

    def frame_sizes(self) -> List[int]:
        """The bytes of each frame the pack holds (its log size when whole,
        0 when the pack ends before it): one ``size`` of the pack, so a
        pack cut meanwhile reads as such."""
        log = self.log
        try:
            end = self.store.size(PACK_FILE)
        except FileNotFoundError:
            end = 0
        return [
            max(0, min(end - off, size))
            for off, size in zip(log.frame_off, log.frame_bytes)
        ]

    def index_bytes(self) -> int:
        """Bytes of the provenance index the log seals (0 for an empty
        record): what an interrupted append left past them is not in it."""
        return self.log.group_end(self.count - 1) if self.count else 0

    def manifest(self) -> dict:
        """The header fields plus, derived from the sealed log,
        ``num_checkpoints``, per-checkpoint ``digests`` / ``frame_bytes``,
        the ``chain_digest`` over the frame digests, and ``provenance``
        (``file``, ``version``, ``rows``, ``chain_sha256`` over the group
        digests)."""
        header, log = self.header, self.log
        return {
            "format_version": header["format_version"],
            "method": header.get("method", ""),
            "num_checkpoints": log.count,
            "data_len": header["data_len"],
            "chunk_size": header["chunk_size"],
            "digests": [digest.hex() for digest in log.frame_sha],
            "frame_bytes": list(log.frame_bytes),
            "chain_digest": _chain_digest(log.frame_sha),
            "provenance": {
                "file": header["index"],
                "version": index.VERSION,
                "rows": log.count,
                "chain_sha256": _chain_digest(log.group_sha),
            },
        }

    # ------------------------------------------------------------------
    def verify(self) -> "RecordVerification":
        """Scan every frame and row-group and report per-checkpoint
        integrity.

        Never raises for damage to a frame or the index (only opening the
        view does, for an unusable header or a damaged record log, which
        includes any pre-integrity format): every checkpoint is classified
        ``ok`` / ``corrupt`` / ``missing`` so callers see the full extent of
        the damage, not just the first problem.
        """
        log = self.log
        report = RecordVerification(
            directory=str(self.path), format_version=self.header["format_version"]
        )

        digests = []
        for i in range(log.count):
            status, detail, digest = check_frame(self.store, log, i)
            report.checkpoints.append(CheckpointStatus(i, status, detail))
            digests.append(digest)
        report.chain_ok = digests == list(log.frame_sha)

        # Per-row-group integrity, reported not raised: every group is
        # checked independently against its own digest and the log's, so the
        # report names exactly which groups are damaged — a checkpoint whose
        # keyframe span holds none of them is still restorable.
        if not log.count:
            report.provenance_ok = True
            return report
        try:
            _first, records = self._groups()
        except (StorageError, SerializationError):
            report.provenance_ok = False
            return report
        report.index_groups = log.count
        report.index_bad_groups = [
            k
            for k, record in enumerate(records)
            if not index.group_intact(record, k, log.group_sha[k])
        ]
        report.provenance_ok = not report.index_bad_groups
        if report.provenance_ok:
            report.index_bytes = self.index_bytes()
            report.index_raw_bytes = (
                log.count * self.spec.num_chunks * _prov.RAW_INDEX_BYTES_PER_CHUNK
            )
        return report


@dataclass
class CheckpointStatus:
    """Verification outcome of one stored checkpoint."""

    index: int
    status: str  # one of STATUS_OK / STATUS_CORRUPT / STATUS_MISSING
    detail: str = ""

    @property
    def loadable(self) -> bool:
        """Whether the frame is present and verified."""
        return self.status == STATUS_OK


@dataclass
class RecordVerification:
    """Full integrity report of a stored record directory."""

    directory: str
    format_version: int
    checkpoints: List[CheckpointStatus] = field(default_factory=list)
    chain_ok: bool = False
    provenance_ok: bool = False
    #: On-disk provenance index size vs its uncompressed 12 B/chunk form
    #: (both 0 when the record is empty or the index is damaged).
    index_bytes: int = 0
    index_raw_bytes: int = 0
    #: Row-group accounting: total groups scanned, and the checkpoint
    #: of every group whose digest did not match.
    index_groups: int = 0
    index_bad_groups: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every checkpoint, the chain digest and the index verified."""
        return (
            all(c.status == STATUS_OK for c in self.checkpoints)
            and self.chain_ok
            and self.provenance_ok
        )

    @property
    def index_compression_ratio(self) -> float:
        """Raw index bytes over stored (compressed row-group) bytes."""
        if self.index_bytes <= 0:
            return 0.0
        return self.index_raw_bytes / self.index_bytes

    def summary(self) -> str:
        """One line per checkpoint plus the chain verdict."""
        lines = [
            f"frame {c.index}: {c.status}" + (f" ({c.detail})" if c.detail else "")
            for c in self.checkpoints
        ]
        lines.append(f"chain digest: {'ok' if self.chain_ok else 'MISMATCH'}")
        if not self.provenance_ok:
            detail = (
                f" ({len(self.index_bad_groups)}/{self.index_groups} "
                f"row-groups damaged)"
                if self.index_bad_groups
                else ""
            )
            lines.append(f"provenance index: DAMAGED{detail}")
        else:
            ratio = self.index_compression_ratio
            groups_part = (
                f", {self.index_groups} row-groups" if self.index_groups else ""
            )
            detail = (
                f" ({self.index_bytes} B, {ratio:.1f}x vs raw 12 B/chunk"
                f"{groups_part})"
                if ratio
                else ""
            )
            lines.append(f"provenance index: ok{detail}")
        return "\n".join(lines)
