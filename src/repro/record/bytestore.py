"""The byte store a record lives in: the only code that touches its files.

A record is a handful of named byte strings (:mod:`.log` names them), and
the record code needs eight operations on them: :meth:`create` (a new
file holding exactly these bytes), :meth:`append`, :meth:`pread`,
:meth:`size`, :meth:`replace` (an atomic whole-file swap), :meth:`truncate`
(cut what an interrupted append left), :meth:`list` and :meth:`remove`.
:class:`DirectoryStore` keeps them as files of one directory and
:class:`MemoryStore` in RAM; the writer and every reader run the same
code over either, so a unit that keeps its record in memory and one that
keeps it on disk commit and restore the same bytes the same way.

A missing file is :class:`FileNotFoundError` from :meth:`pread` and
:meth:`size`, in both stores.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Union


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
        if create:
            self.path.mkdir(parents=True, exist_ok=True)

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

    def remove(self, name: str) -> None:
        try:
            os.unlink(self._at(name))
        except FileNotFoundError:
            pass


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

    def remove(self, name: str) -> None:
        self._files.pop(name, None)


#: Either store.
ByteStore = Union[DirectoryStore, MemoryStore]


def as_store(record, create: bool = False) -> ByteStore:
    """*record* itself when it is a store, else the directory store at
    that path (made first when *create* is set)."""
    if isinstance(record, (DirectoryStore, MemoryStore)):
        return record
    return DirectoryStore(record, create)
