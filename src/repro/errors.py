"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors such
as ``TypeError`` raised by misuse of the Python API itself.

Hierarchy::

    ReproError
    ├── ConfigurationError   bad construction parameters
    ├── CapacityError        fixed-capacity structure overflowed
    ├── ChunkingError        checkpoint data could not be chunked
    ├── SerializationError   diff could not be encoded/parsed
    │   ├── IntegrityError   stored bytes fail digest/structural checks
    ├── RestoreError         checkpoint could not be reconstructed
    ├── CompressionError     codec failure
    ├── GraphError           malformed input graph
    ├── SimulationError      GPU/cluster simulation misuse
    ├── StorageError         storage tier / record store failure
    │   └── IntegrityError   (also) — diamond inheritance, see below
    ├── FaultError           fault injection could not be applied
    └── ReplayError          a journal cannot be replayed

:class:`IntegrityError` deliberately subclasses *both*
:class:`SerializationError` and :class:`StorageError`: corruption is
detected either while parsing a frame or while loading a record, and
pre-existing callers catch the former path as ``SerializationError`` and
the latter as ``StorageError``.  Either handler now also catches "the
bytes parse but fail their digest", while new failure-path code can
distinguish integrity damage precisely.
:class:`FaultError` is raised by :mod:`repro.faults` when an *injection*
itself is impossible (missing target file, empty record) — never for the
downstream damage, which surfaces as :class:`IntegrityError` /
:class:`StorageError` when the corrupted artifact is read back.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class CapacityError(ReproError):
    """A fixed-capacity structure (hash table, storage tier) overflowed."""


class ChunkingError(ReproError):
    """Checkpoint data could not be split into chunks as requested."""


class SerializationError(ReproError):
    """A checkpoint diff could not be serialized or parsed."""


class StorageError(ReproError):
    """A storage tier operation failed (missing object, tier overflow)."""


class IntegrityError(SerializationError, StorageError):
    """Stored checkpoint bytes fail their integrity checks.

    Raised when a frame's content digest does not match its bytes, when a
    record's log, index or chain digest is broken.  A structurally
    invalid diff is not an integrity error: every reader refuses it with
    :class:`RestoreError` naming its checkpoint.  ``ckpt_id`` names the
    first bad checkpoint (``None`` when the damage is not attributable to
    one) and ``path`` names the on-disk artifact when there is one.
    """

    def __init__(
        self,
        message: str,
        *,
        ckpt_id: Optional[int] = None,
        path: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.ckpt_id = ckpt_id
        self.path = path


class RestoreError(ReproError):
    """A checkpoint could not be reconstructed from its diff chain."""


class CompressionError(ReproError):
    """A codec failed to compress or decompress a payload."""


class GraphError(ReproError):
    """An input graph is malformed or a generator received bad parameters."""


class SimulationError(ReproError):
    """The GPU/cluster simulation was driven into an invalid state."""


class FaultError(ReproError):
    """A fault injection could not be applied to its target."""


class ReplayError(ReproError):
    """A recorded journal cannot be replayed.

    Raised before any re-driving happens: the journal mixes records from
    different runs, carries no ``run_config`` event to rebuild the
    workload from, or its incident stream is structurally inconsistent
    (e.g. a restart with no preceding crash).  Divergence *during* a
    replay is never an exception — it is reported as
    ``replay_divergence`` events and a non-equivalent
    :class:`~repro.replay.ReplayResult`.
    """
