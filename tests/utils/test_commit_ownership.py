"""How a checkpoint is taken and priced has one owner,
``repro.core.checkpointer``: no other module picks an engine out of
``ENGINES`` or prices an engine's ledger view itself."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
OWNER = Path("core", "checkpointer.py")


def test_only_the_checkpointer_builds_and_prices_engines():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel == OWNER:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "ENGINES"
            ):
                offenders.append(f"{rel}:{node.lineno}: ENGINES[...]")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "last_checkpoint_view"
            ):
                offenders.append(f"{rel}:{node.lineno}: last_checkpoint_view()")
    assert offenders == []
