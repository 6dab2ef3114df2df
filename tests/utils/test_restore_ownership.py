"""Restore ownership.

How a restart restore is partitioned, scheduled and priced has one
owner, ``repro.core.sharded_restore``: no other module builds a
``ShardedRestorePlan`` or prices a sharded restore itself.  And the
provenance gather is the only production reconstruction: the replay
oracle runs only where it is defined and behind ``repro restore
--replay``, and no restore takes a ``scrub`` mode.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
OWNER = Path("core", "sharded_restore.py")
REPLAY_USERS = (Path("core", "restore.py"), Path("cli.py"))
#: The one inert ``scrub`` keyword left: the end-to-end benchmark passes it.
SCRUB_KEEPERS = ("runtime/node.py:crash_restart",)


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


def test_only_the_oracle_and_the_cli_replay_a_chain():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel in REPLAY_USERS:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = _called_name(node)
                if name in ("Restorer", "restore_all"):
                    offenders.append(f"{rel}:{node.lineno}: {name}(...)")
    assert offenders == []


def test_no_restore_takes_a_scrub_mode():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            names = [
                a.arg
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            ]
            if "scrub" in names and f"{rel}:{node.name}" not in SCRUB_KEEPERS:
                offenders.append(f"{rel}:{node.lineno}: {node.name}(scrub=)")
    assert offenders == []
