"""How a restart restore is partitioned, scheduled and priced has one
owner, ``repro.core.sharded_restore``: no other module builds a
``ShardedRestorePlan`` or prices a sharded restore itself."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
OWNER = Path("core", "sharded_restore.py")


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_only_the_sharded_restore_plans_and_prices_restarts():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel == OWNER:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name in ("ShardedRestorePlan", "price_fleet_restore"):
                offenders.append(f"{rel}:{node.lineno}: {name}(...)")
    assert offenders == []
