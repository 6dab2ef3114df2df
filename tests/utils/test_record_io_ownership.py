"""Record file I/O has one owner, ``repro.record.bytestore``: no other
module of ``repro.record``, ``repro.core`` or ``repro.runtime`` opens,
reads, writes, stats, lists or removes a file.  Two exceptions are
named: the fault injectors, which damage records on purpose, and the
rebase's whole-directory swap."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
PACKAGES = ("record", "core", "runtime")
STORE = "record/bytestore.py"
#: ``module`` or ``module:function`` that may touch files anyway.
EXCEPTIONS = {
    "faults/injectors.py": "damages a record on purpose",
    "core/retention.py:rebase_stored_record": "swaps a whole record directory",
}
OS_IO = {
    "open", "read", "pread", "write", "pwrite", "fstat", "stat", "lstat",
    "replace", "rename", "truncate", "ftruncate", "unlink", "remove",
    "listdir", "scandir", "mkdir", "makedirs", "rmdir",
}
#: ``pathlib.Path`` methods that touch the file system (not ``rename`` or
#: ``replace``, which every ``str`` has too).
PATH_IO = {
    "read_bytes", "write_bytes", "read_text", "write_text", "unlink", "mkdir",
    "glob", "rglob", "iterdir", "exists", "is_file", "is_dir", "stat", "touch",
    "rmdir",
}


def _io_calls(path: Path):
    """``(function, line, call)`` for every file-I/O call in *path*."""
    tree = ast.parse(path.read_text())
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                owner.setdefault(id(inner), node.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            call = "open"
        elif isinstance(func, ast.Attribute):
            base = func.value.id if isinstance(func.value, ast.Name) else None
            if base == "os" and func.attr in OS_IO:
                call = f"os.{func.attr}"
            elif base == "shutil":
                call = f"shutil.{func.attr}"
            elif base not in ("os", "np") and func.attr in PATH_IO:
                call = f".{func.attr}"
            else:
                continue
        else:
            continue
        yield owner.get(id(node), "<module>"), node.lineno, call


def _scanned():
    for package in PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            yield path.relative_to(SRC).as_posix(), path


def test_only_the_byte_store_does_record_file_io():
    offenders = [
        f"{rel}:{function}:{line}: {call}"
        for rel, path in _scanned()
        if rel != STORE and rel not in EXCEPTIONS
        for function, line, call in _io_calls(path)
        if f"{rel}:{function}" not in EXCEPTIONS
    ]
    assert offenders == []


def test_the_byte_store_and_every_exception_really_do_file_io():
    """The allowances stay honest: each names code that still touches files."""
    for where in [STORE, *EXCEPTIONS]:
        rel, _, function = where.partition(":")
        calls = [c for f, _, c in _io_calls(SRC / rel) if not function or f == function]
        assert calls, f"{where} does no file I/O; drop its allowance"
