"""Build-on-demand loader for the native kernels.

The reproduction's hot loops are chunk hashing, the hash-record probing of
:class:`~repro.kokkos.unordered_map.DigestMap` and the label passes of
:class:`~repro.core.dedup_tree.TreeDedup` between them; the paper runs all
three as one fused GPU kernel, and the closest CPU analogue is a compiled
C loop rather than a chain of NumPy ufunc passes.  The read side has one
more: the restore gather, which places every chunk of a provenance row
from its source payload (:func:`~repro.core.serialize.place_chunks`, the
paper's §5 collection of scattered regions from many checkpoints).  This
module compiles ``_murmur3_native.c``, ``kokkos/_digest_map_native.c``,
``core/_tree_passes_native.c`` and ``core/_gather_native.c`` into one
shared object with the system C compiler the first time it is needed,
caches the object next to the Murmur3 source under a name keyed on the
SHA-256 of the sources (so a stale object is never loaded, whatever
happened to the files' mtimes), and exposes the entry points through
:mod:`ctypes`.

The native path is strictly optional: if no compiler is available or
``REPRO_NO_NATIVE`` is set in the environment, callers get ``None`` and
fall back to the pure-NumPy vectorized kernels (which remain the tested
reference for every code path).  A build that *fails* although a compiler
was found — or an object that does not load or lacks a symbol — falls
back the same way but is not silent: the reason is kept in
:data:`build_error`.  No third-party dependency is introduced either way.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

_HERE = Path(__file__).parent
_SOURCES = (
    _HERE / "_murmur3_native.c",
    _HERE.parent / "kokkos" / "_digest_map_native.c",
    _HERE.parent / "core" / "_tree_passes_native.c",
    _HERE.parent / "core" / "_gather_native.c",
)
_STEM = "_murmur3_native"
_SUFFIX = sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"

#: Tri-state cache: None = not tried, False = unavailable, else the CDLL.
_lib = None

#: Why the kernels are unavailable although they should not be: the
#: compiler's stderr, or the load / symbol-lookup error.  ``None`` when
#: they loaded, were opted out of, or no compiler exists.
build_error: Optional[str] = None


def _compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if not cand:
            continue
        try:
            subprocess.run(
                [cand, "--version"],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                check=True,
                timeout=30,
            )
            return cand
        except (OSError, subprocess.SubprocessError):
            continue
    return None


def _so_path() -> Path:
    """Where the object built from the current sources is cached."""
    digest = hashlib.sha256()
    for source in _SOURCES:
        digest.update(source.read_bytes())
    return _HERE / f"{_STEM}-{digest.hexdigest()[:12]}{_SUFFIX}"


def _build(cc: str, so_path: Path) -> None:
    # Build into a temp file and atomically move into place so concurrent
    # interpreters never load a half-written object.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(so_path.parent))
    os.close(fd)
    try:
        subprocess.run(
            [cc, "-O3", "-shared", "-fPIC", "-o", tmp, *map(str, _SOURCES)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Objects of other source versions are dead weight; a reader that has
    # one mapped keeps it, a failed unlink changes nothing.
    for stale in so_path.parent.glob(f"{_STEM}*{_SUFFIX}"):
        if stale != so_path:
            try:
                stale.unlink()
            except OSError:
                pass


def _bind(lib: ctypes.CDLL) -> None:
    """Declare every entry point; a missing symbol raises AttributeError."""
    u8p = ctypes.POINTER(ctypes.c_uint8)
    u64p = ctypes.POINTER(ctypes.c_uint64)
    size_t = ctypes.c_size_t
    u64 = ctypes.c_uint64
    lib.hb_hash_rows.argtypes = [u8p, size_t, size_t, u64, u64p]
    lib.hb_hash_rows.restype = None
    lib.hb_hash_chunks.argtypes = [u8p, size_t, size_t, u64, u64p]
    lib.hb_hash_chunks.restype = None
    lib.hb_hash_pairs.argtypes = [u64p, u64p, size_t, u64, u64p]
    lib.hb_hash_pairs.restype = None
    # DigestMap kernels take buffer addresses (``ndarray.ctypes.data``).
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    lib.dm_probe.argtypes = [ptr, ptr, i64, ptr, i64, ptr, ptr]
    lib.dm_probe.restype = i64
    lib.dm_insert_or_lookup.argtypes = [ptr, ptr, ptr, i64, ptr, ptr, i64, ptr, ptr]
    lib.dm_insert_or_lookup.restype = i64
    lib.dm_reinsert_unique.argtypes = [ptr, ptr, ptr, i64, ptr, ptr, i64, ptr]
    lib.dm_reinsert_unique.restype = i64
    # Tree passes: addresses again, the DigestMap table among them.
    table = [ptr, ptr, ptr, i64]
    lib.tp_leaf_classify.argtypes = [ptr, i64, i64, i64, i64, i64, ptr, ptr, ptr, ptr]
    lib.tp_leaf_classify.restype = i64
    lib.tp_leaf_apply.argtypes = [ptr, ptr, ptr, i64, ptr, ptr, ptr]
    lib.tp_leaf_apply.restype = None
    lib.tp_first_pass.argtypes = [
        ptr, ptr, ptr, i64, i64, i64, i64, *table, i64, ptr, ptr, ptr, ptr, ptr, ptr,
    ]
    lib.tp_first_pass.restype = i64
    lib.tp_shift_pass.argtypes = [
        ptr, ptr, ptr, i64, *table, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr, ptr,
    ]
    lib.tp_shift_pass.restype = i64
    # The restore gather: addresses, the sources' as one uint64 array.
    lib.ga_place_chunks.argtypes = [ptr, i64, i64, ptr, ptr, i64, ptr, ptr, ptr, i64, ptr]
    lib.ga_place_chunks.restype = i64


def _load() -> Optional[ctypes.CDLL]:
    so_path = _so_path()
    if not so_path.exists():
        cc = _compiler()
        if cc is None:
            return None
        _build(cc, so_path)
    lib = ctypes.CDLL(str(so_path))
    _bind(lib)
    return lib


def get_lib() -> Optional[ctypes.CDLL]:
    """Return the loaded native library, or ``None`` if unavailable."""
    global _lib, build_error
    if _lib is False:
        return None
    if _lib is not None:
        return _lib
    if os.environ.get("REPRO_NO_NATIVE"):
        _lib = False
        return None
    _lib = False
    try:
        _lib = _load() or False
    except subprocess.CalledProcessError as exc:
        build_error = exc.stderr.decode(errors="replace") or str(exc)
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        build_error = f"{type(exc).__name__}: {exc}"
    return _lib or None


def native_available() -> bool:
    """Whether the compiled kernels are usable in this process."""
    return get_lib() is not None
