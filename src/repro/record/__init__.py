"""The checkpoint record: the one package that knows its format.

A record lives in a byte store (:mod:`.bytestore`): a directory, or RAM
for a unit that keeps no record on disk — the same files, written and
read by the same code, so every unit owns one record and every restore
reads it.  A record holds ``record.json`` (static header), ``record.log``
(one sealed entry per checkpoint), ``ckpt-NNNNN.rdif`` (one frame per
checkpoint) and ``provenance.rpix`` (the RPIX v4 index).  An append is
three pure appends — frame, index row-group, log entry — and **the log
entry is the commit point**: each entry's seal covers every log byte
before it, so a torn tail entry is simply not a checkpoint, while a
failed seal before the tail is damage every entry point refuses.  Older
layouts are rejected by name.  Layout and write order: ``DESIGN.md``
§5a; fault semantics: ``docs/FAULT_MODEL.md`` §2.2.

:mod:`.bytestore` is the only code that touches the files (create,
append, ``pread``, size, replace, truncate, list, remove);
:mod:`.log` owns the header, the log and its seal; :mod:`.index` the RPIX
v4 codec; :mod:`.frames` the frame files; :mod:`.view`
:class:`RecordView`, the one reading of a record an operation opens;
:mod:`.writer` :class:`RecordWriter`, the one writer.
"""

from .bytestore import ByteStore, DirectoryStore, MemoryStore, as_store
from .frames import STATUS_CORRUPT, STATUS_MISSING, STATUS_OK, frame_files
from .log import is_record
from .view import CheckpointStatus, RecordVerification, RecordView
from .writer import AppendReceipt, RecordWriter
