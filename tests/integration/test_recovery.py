"""Integration: checkpoint/restart recovery semantics."""

import numpy as np
import pytest

from repro.core import Restorer, TreeDedup, restore_indexed
from repro.core.provenance import restore_record_indexed
from repro.core.store import load_provenance, load_record, save_record, verify_record
from repro.errors import GraphError, IntegrityError
from repro.graphs import generate
from repro.oranges import GdvEngine, OrangesApp
from repro.runtime import NodeRuntime
from tests.conftest import read_frame, write_frame


@pytest.fixture(scope="module")
def graph():
    return generate("delaunay", 384, seed=6)


@pytest.mark.parametrize("counting", ["per-vertex", "rooted"])
@pytest.mark.parametrize("layout", ["vertex-major", "orbit-major"])
class TestResume:
    def test_resume_reproduces_uninterrupted_run(self, graph, counting, layout):
        engine = GdvEngine(graph, 4, layout=layout, counting=counting)
        engine.process_batch(150)
        state = engine.buffer.reshape(-1).view(np.uint8).copy()
        frontier = engine.next_vertex

        resumed = GdvEngine(graph, 4, layout=layout, counting=counting)
        resumed.load_state(state, frontier)
        resumed.run_to_completion()

        reference = GdvEngine(graph, 4, layout=layout, counting=counting)
        reference.run_to_completion()
        assert np.array_equal(resumed.gdv, reference.gdv)


class TestResumeThroughRecord:
    def test_restore_then_resume_via_disk(self, graph, tmp_path, rng):
        from repro.core import IncrementalCheckpointer

        engine = GdvEngine(graph, 4)
        ckpt = IncrementalCheckpointer(
            engine.buffer_nbytes, 128, record_dir=tmp_path / "rec"
        )
        frontiers = []
        for snapshot in engine.checkpoint_stream(6):
            ckpt.checkpoint(snapshot)
            frontiers.append(engine.next_vertex)
            if len(frontiers) == 4:
                break
        state, _ = restore_indexed(tmp_path / "rec")

        resumed = GdvEngine(graph, 4)
        resumed.load_state(state, frontiers[-1])
        resumed.run_to_completion()

        reference = GdvEngine(graph, 4)
        reference.run_to_completion()
        assert np.array_equal(resumed.gdv, reference.gdv)


@pytest.fixture(scope="module")
def golden_trace():
    """The fixed-seed ORANGES trace the Tree goldens are captured from."""
    app = OrangesApp("unstructured_mesh", num_vertices=512, seed=2)
    engine = app.fresh_engine()
    tree = TreeDedup(engine.buffer_nbytes, 64)
    diffs, states = [], []
    for snap in engine.checkpoint_stream(5):
        buf = snap.reshape(-1).view(np.uint8)
        diffs.append(tree.checkpoint(buf))
        states.append(buf.copy())
    return diffs, states


class TestGoldenTraceRecovery:
    def test_scrubbed_disk_roundtrip_bit_identical(self, golden_trace, tmp_path):
        diffs, states = golden_trace
        path = save_record(diffs, tmp_path / "rec", method="tree")
        assert verify_record(path).ok
        restored = Restorer().restore_all(load_record(path))
        assert len(restored) == len(states)
        for got, want in zip(restored, states):
            assert np.array_equal(got, want)

    def test_corruption_detected_then_salvaged(self, golden_trace, tmp_path):
        diffs, states = golden_trace
        path = save_record(diffs, tmp_path / "rec", method="tree")
        blob = bytearray(read_frame(path, 3))
        blob[len(blob) // 2] ^= 0x20
        write_frame(path, 3, bytes(blob))

        report = verify_record(path)
        assert not report.ok
        assert [c.loadable for c in report.checkpoints] == [
            True, True, True, False, True
        ]

        # Every checkpoint restores from its own row; the ones whose row
        # names the damaged frame are refused, never restored wrong.
        for k, want in enumerate(states):
            if 3 in load_provenance(path, k).referenced():
                with pytest.raises(IntegrityError):
                    restore_record_indexed(path, k)
            else:
                got, _ = restore_record_indexed(path, k)
                assert np.array_equal(got, want)

    def test_crash_restart_bit_identical(self, golden_trace):
        _, states = golden_trace
        node = NodeRuntime(
            data_len=states[0].shape[0], chunk_size=64, num_processes=1
        )
        for i, state in enumerate(states):
            node.checkpoint_all([state], now=i * 10.0)
        report = node.crash_restart(0, at_time=1000.0)
        assert report.restored_ckpt_id == len(states) - 1
        assert np.array_equal(report.restored_state, states[-1])
        assert report.in_flight_ckpts == []

    def test_crash_mid_cadence_restores_earlier_golden(self, golden_trace):
        _, states = golden_trace
        node = NodeRuntime(
            data_len=states[0].shape[0], chunk_size=64, num_processes=1
        )
        for i, state in enumerate(states):
            node.checkpoint_all([state], now=i * 10.0)
        # Crash right after checkpoint 2 became durable but before 3 ran.
        crash_at = node.persisted[0][2].persisted_at + 0.001
        report = node.crash_restart(0, at_time=crash_at)
        assert report.restored_ckpt_id == 2
        assert np.array_equal(report.restored_state, states[2])


class TestLoadStateValidation:
    def test_wrong_size_rejected(self, graph):
        engine = GdvEngine(graph, 4)
        with pytest.raises(GraphError):
            engine.load_state(np.zeros(10, dtype=np.uint8), 0)

    def test_bad_frontier_rejected(self, graph):
        engine = GdvEngine(graph, 4)
        state = engine.buffer.reshape(-1).view(np.uint8).copy()
        with pytest.raises(GraphError):
            engine.load_state(state, graph.num_vertices + 1)
