"""Guard for the frozen end-to-end benchmark (``benchmarks/e2e``).

The benchmark is not allowed to change with the program, so the program
must keep the surface it drives: the ``(module, attribute)`` pairs its
span wrappers patch, every name its harness imports or reads off a
``repro`` module, and the span tree ``metrics.py`` hard-indexes under one
cold-record restore.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import ENGINES, save_record

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


@pytest.fixture
def tracing():
    """``benchmarks/e2e/tracing.py``, imported the way ``run.py`` does."""
    sys.path.insert(0, str(E2E))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(E2E))
        sys.modules.pop("tracing", None)


def test_every_trace_target_is_defined_where_the_benchmark_patches_it(tracing):
    for module_name, class_name, attr, span_name in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        assert attr in vars(owner), f"{span_name}: {owner!r} does not define {attr}"
        assert callable(vars(owner)[attr])


@pytest.mark.parametrize("script", ["harness.py", "accounting.py", "coldstart.py"])
def test_every_repro_name_the_benchmark_uses_exists(script):
    tree = ast.parse((E2E / script).read_text())
    modules = {}  # local name -> imported repro module
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not (node.module or "").startswith("repro"):
            continue
        owner = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(owner, alias.name), f"{script}: {node.module}.{alias.name}"
            value = getattr(owner, alias.name)
            if isinstance(value, type(sys)):
                modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            owner = modules[node.value.id]
            assert hasattr(owner, node.attr), f"{script}: {owner.__name__}.{node.attr}"


def test_record_restore_span_tree(tracing, rng, tmp_path):
    """``restore_record_indexed`` must reach the index load, the frame
    load and the gather through the patched attributes, as its children."""
    from repro.core import provenance

    n, cs = 64 * 64, 64
    engine = ENGINES["tree"](n, cs)
    buf = rng.integers(0, 256, n, dtype=np.uint8)
    diffs = [engine.checkpoint(buf)]
    buf = buf.copy()
    buf[:512] = rng.integers(0, 256, 512, dtype=np.uint8)
    diffs.append(engine.checkpoint(buf))
    save_record(diffs, tmp_path, method="tree")

    recorder = tracing.SpanRecorder()
    with recorder:
        out, report = provenance.restore_record_indexed(tmp_path)
    assert np.array_equal(out, buf) and report.used_index

    roots = [i for i, s in enumerate(recorder.spans) if s.parent < 0]
    assert [recorder.spans[i].name for i in roots] == [tracing.RESTORE_ROOT]
    children = [s.name for s in recorder.spans if s.parent == roots[0]]
    assert children == [
        "core.provenance.load_provenance",
        "core.store.load_record_frames",
        "core.provenance.materialize_index",
    ]
    (operation,) = recorder.operations()
    assert sum(operation.self_time.values()) == pytest.approx(operation.duration)


def test_a_checkpoint_hashes_its_chunks_through_the_patched_name_once(tracing, rng):
    """``core.dedup_tree.floor_ratio`` divides a checkpoint by its
    ``hashing.hash_chunks`` span, which wraps the name ``dedup_tree`` bound:
    the compiled tree passes (the path this runs on wherever a compiler
    exists) must keep calling it, once per checkpoint, as the NumPy passes do."""
    n, cs = 64 * 64, 64
    engine = ENGINES["tree"](n, cs)
    buf = rng.integers(0, 256, n, dtype=np.uint8)
    recorder = tracing.SpanRecorder()
    with recorder:
        for _ in range(3):
            engine.checkpoint(buf)
            buf = buf.copy()
            buf[:512] = rng.integers(0, 256, 512, dtype=np.uint8)
    spans = recorder.spans
    hashes = [s for s in spans if s.name == "hashing.hash_chunks"]
    assert len(hashes) == 3
    parents = [s.parent for s in hashes]
    assert len(set(parents)) == 3
    assert {spans[i].name for i in parents} == {"core.dedup_tree.checkpoint"}
