"""Fault ownership.

The fault campaign, the incident driver and ``NodeRuntime`` share one
fault plane: one function inflicts record faults, one grades what a
damaged record still restores (by asking the restore ``repro restore``
runs), and one method journals a crash.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
INJECTORS = {"flip_bit", "truncate_file", "delete_file"}


def _calls_by_function():
    """``(rel_path:function, called names)`` for every function under src."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = []
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call):
                    func = inner.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    first = inner.args[0] if inner.args else None
                    tag = getattr(first, "attr", None) or getattr(first, "id", None)
                    calls.append((name, tag))
            yield f"{rel}:{node.name}", calls


def test_one_function_applies_record_faults():
    appliers = sorted(
        where
        for where, calls in _calls_by_function()
        if not where.startswith("faults/injectors.py")
        and any(name in INJECTORS for name, _ in calls)
    )
    assert appliers == ["faults/plan.py:apply_record_faults"]


def test_one_function_grades_record_damage():
    graders = sorted(
        where
        for where, calls in _calls_by_function()
        if {"verify_record", "restore_record_indexed"} <= {name for name, _ in calls}
    )
    assert graders == ["faults/plan.py:grade_record_damage"]


def test_one_method_journals_a_crash():
    emitters = sorted(
        where
        for where, calls in _calls_by_function()
        if ("emit", "CRASH") in calls
    )
    assert emitters == ["runtime/node.py:crash"]
