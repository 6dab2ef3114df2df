"""The on-disk record format has one owner, ``repro.record``: no other
module names its files or imports its private names, and the provenance
gather reaches the store without a function-local import."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
FORMAT_NAMES = ("record.json", "record.log", "provenance.rpix", "ckpt-")


def _modules_outside_record():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] != "record":
            yield rel, ast.parse(path.read_text())


def _docstrings(tree):
    docs = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docs.add(id(first.value))
    return docs


def _imported_module(rel, node):
    """The absolute module an ``ImportFrom`` in ``repro/<rel>`` names."""
    if not node.level:
        return node.module or ""
    package = ["repro", *rel.parts[:-1]]
    base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def test_no_module_outside_record_names_a_record_file():
    offenders = []
    for rel, tree in _modules_outside_record():
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docs
                and any(name in node.value for name in FORMAT_NAMES)
            ):
                offenders.append(f"{rel}:{node.lineno}: {node.value!r}")
    assert offenders == []


def test_no_module_outside_record_imports_its_private_names():
    offenders = []
    for rel, tree in _modules_outside_record():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = _imported_module(rel, node)
            if module == "repro.record" or module.startswith("repro.record."):
                offenders += [
                    f"{rel}:{node.lineno}: {module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_provenance_has_no_function_local_import():
    tree = ast.parse((SRC / "core" / "provenance.py").read_text())
    local = [
        f"line {inner.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert local == []
