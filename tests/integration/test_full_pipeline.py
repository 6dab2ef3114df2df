"""End-to-end integration: ORANGES → dedup → wire format → restore,
across methods, codecs, graphs and the scaling driver."""

import numpy as np
import pytest

from repro.core import ENGINES, CheckpointDiff, IncrementalCheckpointer, Restorer
from repro.core.store import load_record
from repro.compress import CompressionCheckpointer, get_codec
from repro.graphs import generate
from repro.oranges import GdvEngine, OrangesApp
from repro.runtime import AsyncFlushPipeline, StorageTier, StrongScalingDriver


class TestOrangesEndToEnd:
    @pytest.fixture(scope="class")
    def app(self):
        return OrangesApp("unstructured_mesh", num_vertices=512, seed=2)

    @pytest.mark.parametrize("method", sorted(ENGINES))
    def test_every_method_restores_every_checkpoint(self, app, method):
        backend = app.make_backend(method, chunk_size=64)
        app.run({method: backend}, num_checkpoints=4)
        engine = app.fresh_engine()
        snaps = [s.copy().reshape(-1).view(np.uint8) for s in engine.checkpoint_stream(4)]
        for i, want in enumerate(snaps):
            assert np.array_equal(backend.restore(i), want), f"{method} ckpt {i}"

    def test_wire_format_survives_oranges_stream(self, app):
        backend = app.make_backend("tree", chunk_size=64)
        app.run({"tree": backend}, num_checkpoints=4)
        blobs = [d.to_bytes() for d in load_record(backend.record.writer.store)]
        parsed = [CheckpointDiff.from_bytes(b) for b in blobs]
        direct = backend.restore(3)
        reparsed = Restorer().restore(parsed, 3)
        assert np.array_equal(direct, reparsed)

    def test_compression_restores_identical(self, app):
        backend = app.make_backend("compress:cascaded")
        app.run({"z": backend}, num_checkpoints=3)
        engine = app.fresh_engine()
        last = None
        for snap in engine.checkpoint_stream(3):
            last = snap.copy()
        assert np.array_equal(
            backend.restore(), last.reshape(-1).view(np.uint8)
        )


class TestDedupIntoFlushPipeline:
    def test_diff_sizes_drive_runtime_behaviour(self, rng):
        """Full checkpoints block the staging tier at high frequency;
        tree diffs sail through — Fig. 3's architecture argument."""
        n = 64 * 512
        base = rng.integers(0, 256, n, dtype=np.uint8)
        stream = [base.copy()]
        cur = base
        for _ in range(7):
            cur = cur.copy()
            cur[:256] = rng.integers(0, 256, 256, dtype=np.uint8)
            stream.append(cur.copy())

        def run(method):
            engine = ENGINES[method](n, 64)
            pipe = AsyncFlushPipeline(
                [
                    StorageTier("host", int(n * 1.5), 1e6),
                    StorageTier("ssd", n * 100, 5e5),
                    StorageTier("pfs", n * 10_000, 1e7),
                ]
            )
            for i, snap in enumerate(stream):
                diff = engine.checkpoint(snap)
                pipe.submit(f"ck{i}", diff.serialized_size, now=i * 0.001)
            return pipe

        full_pipe = run("full")
        tree_pipe = run("tree")
        assert tree_pipe.total_blocked_seconds < full_pipe.total_blocked_seconds
        assert tree_pipe.last_persisted_at < full_pipe.last_persisted_at


class TestScalingConsistency:
    def test_partitioned_records_restore(self):
        graph = generate("delaunay", 256, seed=3)
        driver = StrongScalingDriver(graph, method="tree", chunk_size=64)
        result = driver.run(4, num_checkpoints=3)
        assert result.total_stored_bytes > 0
        # Ratio must improve over the single full-buffer baseline.
        assert result.dedup_ratio > 1.0

    def test_ratio_independent_of_process_count_order_of_magnitude(self):
        graph = generate("delaunay", 256, seed=3)
        driver = StrongScalingDriver(graph, method="tree", chunk_size=64)
        r1 = driver.run(1, num_checkpoints=3)
        r4 = driver.run(4, num_checkpoints=3)
        assert 0.3 < r1.dedup_ratio / r4.dedup_ratio < 3.0


class TestCrossBackendAgreement:
    def test_all_methods_restore_identical_states(self, rng):
        """Every backend must reconstruct byte-identical checkpoints from
        the same stream — the strongest cross-implementation check."""
        n = 64 * 256
        g = generate("asia_osm", 256, seed=4)
        engine = GdvEngine(g, 4)
        backends = {
            name: IncrementalCheckpointer(engine.buffer_nbytes, 64, method=name)
            for name in ENGINES
        }
        backends["codec"] = CompressionCheckpointer(engine.buffer_nbytes, "deflate")
        for snap in engine.checkpoint_stream(3):
            for b in backends.values():
                b.checkpoint(snap)
        references = backends["full"]
        for i in range(3):
            want = references.restore(i)
            for name, backend in backends.items():
                assert np.array_equal(backend.restore(i), want), name
