"""The byte store a record lives in: the only code that touches its files.

A record is four named byte strings (:mod:`.log` names them), and the
record code needs eight operations on them: :meth:`create` (a new file
holding exactly these bytes; only checkpoint 0 creates), :meth:`append`
(how every later checkpoint reaches the pack, the index and the log),
:meth:`pread`, :meth:`size`, :meth:`replace` (an atomic whole-file
swap), :meth:`truncate` (cut what an interrupted append left),
:meth:`list` and :meth:`swap` (replace the whole record by a new generation built beside
it — how a rebase and a restart replace a record's history).
:class:`DirectoryStore` keeps them as files of one directory and
:class:`MemoryStore` in RAM; the writer and every reader run the same
code over either, so a unit that keeps its record in memory and one that
keeps it on disk commit and restore the same bytes the same way.

A missing file is :class:`FileNotFoundError` from :meth:`pread` and
:meth:`size`, in both stores.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Callable, Dict, List, Optional, TypeVar, Union

T = TypeVar("T")

#: The suffixes of a swap's two sibling directories: the generation being
#: built (``<name>.new``) and the one being replaced (``<name>.old``).
_STAGED, _OLD = "new", "old"


def record_of(directory: Union[str, os.PathLike]) -> Path:
    """The record *directory* stands for: ``<name>`` for a swap's staged
    ``<name>.new`` or replaced ``<name>.old`` generation (neither is a
    record of its own; opening ``<name>`` renames an ``.old`` left without
    its record back), else *directory* itself."""
    path = Path(directory)
    name, _, suffix = path.name.rpartition(".")
    return path.with_name(name) if name and suffix in (_STAGED, _OLD) else path


class DirectoryStore:
    """A record's files in one directory.

    :meth:`pread` is one ``open``, one ``fstat`` of the open descriptor
    and one read straight into the returned bytes (the read loops only
    past the 2 GiB a single ``read`` returns), so a verified frame costs
    one open and one read.
    """

    def __init__(self, directory: Union[str, os.PathLike], create: bool = False) -> None:
        #: The directory the record's files live in.
        self.path = Path(directory)
        if not self.path.exists() and self._sibling(_OLD).exists():
            # A swap was cut between its two renames: the old generation
            # is whole beside the record, so it is the record again.
            os.rename(self._sibling(_OLD), self.path)
        if create:
            self.path.mkdir(parents=True, exist_ok=True)

    def _sibling(self, suffix: str) -> Path:
        return self.path.with_name(f"{self.path.name}.{suffix}")

    def _at(self, name: str) -> str:
        return os.path.join(self.path, name)

    def create(self, name: str, data: bytes) -> None:
        with open(self._at(name), "wb") as f:
            f.write(data)

    def append(self, name: str, data: bytes) -> None:
        with open(self._at(name), "ab") as f:
            f.write(data)

    def pread(self, name: str, size: Optional[int] = None, offset: int = 0) -> bytes:
        """Up to *size* bytes of *name* from *offset* (to its end when
        *size* is ``None``); fewer when the file ends first."""
        fd = os.open(self._at(name), os.O_RDONLY)
        try:
            left = max(os.fstat(fd).st_size - offset, 0)
            want = left if size is None else min(size, left)
            blob = os.pread(fd, want, offset)
            while len(blob) < want:  # one read stops short of 2 GiB
                more = os.pread(fd, want - len(blob), offset + len(blob))
                if not more:
                    break
                blob += more
            return blob
        finally:
            os.close(fd)

    def size(self, name: str) -> int:
        return os.stat(self._at(name)).st_size

    def replace(self, name: str, data: bytes) -> None:
        scratch = self._at(name + ".tmp")
        with open(scratch, "wb") as f:
            f.write(data)
        os.replace(scratch, self._at(name))

    def truncate(self, name: str, size: int) -> None:
        if self.size(name) > size:
            os.truncate(self._at(name), size)

    def list(self) -> List[str]:
        try:
            return sorted(os.listdir(self.path))
        except FileNotFoundError:
            return []

    def swap(self, build: Callable[["DirectoryStore"], T]) -> T:
        """Replace the record by the generation *build* writes into an
        empty directory beside it (``<name>.new``); returns what *build*
        returns, and the store *build* wrote to names the record from then
        on.

        The directories trade places by two renames, and the old one is
        deleted last.  A crash before the first rename leaves the old
        generation in place (the next swap clears the partial new one);
        one between the renames leaves it whole in ``<name>.old``, where
        opening the store finds it and renames it back; after the second
        rename the new generation is the record.  The directory moves as
        a whole, so it must hold nothing but the record.
        """
        staged, old = self._sibling(_STAGED), self._sibling(_OLD)
        for leftover in (staged, old):  # an earlier, interrupted swap's
            if leftover.exists():
                shutil.rmtree(leftover)
        store = type(self)(staged, create=True)
        result = build(store)
        os.rename(self.path, old)
        os.rename(staged, self.path)
        store.path = self.path
        shutil.rmtree(old)
        return result


class MemoryStore:
    """A record's files in RAM: the store of a unit that keeps no record
    on disk.  Reads return copies, so a reader never holds a view of a
    file an append may still grow."""

    #: What errors and journal events name as the record's location.
    path = "<memory>"

    def __init__(self) -> None:
        self._files: Dict[str, bytearray] = {}

    def _file(self, name: str) -> bytearray:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(f"{self.path}/{name}") from None

    def create(self, name: str, data: bytes) -> None:
        self._files[name] = bytearray(data)

    def append(self, name: str, data: bytes) -> None:
        self._files.setdefault(name, bytearray()).extend(data)

    def pread(self, name: str, size: Optional[int] = None, offset: int = 0) -> bytes:
        data = memoryview(self._file(name))
        end = len(data) if size is None else offset + size
        return bytes(data[offset:end])

    def size(self, name: str) -> int:
        return len(self._file(name))

    def replace(self, name: str, data: bytes) -> None:
        self._files[name] = bytearray(data)

    def truncate(self, name: str, size: int) -> None:
        del self._file(name)[size:]

    def list(self) -> List[str]:
        return sorted(self._files)

    def swap(self, build: Callable[["MemoryStore"], T]) -> T:
        """Replace the record by the generation *build* writes into an
        empty store; returns what *build* returns.  The file table is
        replaced in one assignment, so the record is the old generation
        until the new one is whole; from then on both stores hold it."""
        store = type(self)()
        result = build(store)
        self._files = store._files
        return result


#: Either store.
ByteStore = Union[DirectoryStore, MemoryStore]


def as_store(record, create: bool = False) -> ByteStore:
    """*record* itself when it is a store, else the directory store at
    that path (made first when *create* is set)."""
    if isinstance(record, (DirectoryStore, MemoryStore)):
        return record
    return DirectoryStore(record, create)
