"""Tests for the strong-scaling driver (Fig. 6 harness)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpusim import thetagpu
from repro.graphs import generate
from repro.runtime import (
    StrongScalingDriver,
    induced_partition_graph,
    partition_vertices,
)


class TestPartitioning:
    def test_partition_covers_all_vertices(self):
        parts = partition_vertices(100, 7)
        assert sum(len(p) for p in parts) == 100
        joined = np.concatenate(parts)
        assert np.array_equal(joined, np.arange(100))

    def test_balanced(self):
        parts = partition_vertices(100, 4)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_parts_than_vertices_rejected(self):
        with pytest.raises(SimulationError):
            partition_vertices(3, 4)

    def test_induced_partition_graph(self):
        g = generate("delaunay", 256, seed=1)
        parts = partition_vertices(g.num_vertices, 4)
        local = induced_partition_graph(g, parts[1])
        assert local.num_vertices == len(parts[1])
        # Local edges are a subset of the global edge count.
        assert local.num_edges <= g.num_edges

    def test_partitions_cut_cross_edges(self):
        g = generate("delaunay", 128, seed=1)
        parts = partition_vertices(g.num_vertices, 2)
        total_local = sum(
            induced_partition_graph(g, p).num_edges for p in parts
        )
        assert total_local < g.num_edges  # some edges crossed the cut


class TestDriver:
    @pytest.fixture(scope="class")
    def graph(self):
        return generate("delaunay", 512, seed=1)

    def test_single_process_run(self, graph):
        driver = StrongScalingDriver(graph, method="tree", chunk_size=128)
        result = driver.run(1, num_checkpoints=3)
        assert result.num_processes == 1
        assert result.dedup_ratio > 1.0
        assert result.critical_path_seconds > 0

    def test_tree_beats_full_in_stored_bytes(self, graph):
        tree = StrongScalingDriver(graph, method="tree").run(2, num_checkpoints=3)
        full = StrongScalingDriver(graph, method="full").run(2, num_checkpoints=3)
        assert tree.total_stored_bytes < full.total_stored_bytes / 2
        assert tree.total_full_bytes == full.total_full_bytes

    def test_per_process_breakdown(self, graph):
        result = StrongScalingDriver(graph).run(4, num_checkpoints=2)
        assert len(result.per_process_stored) == 4
        assert sum(result.per_process_stored) == result.total_stored_bytes

    def test_contention_applied_at_scale(self, graph):
        # 8 processes pack one ThetaGPU node (oversubscribed host link);
        # an idealised node with an uncontended link must be faster.
        from repro.gpusim import ClusterSpec, NodeSpec, a100
        from repro.utils.units import GB

        ideal_node = NodeSpec(
            name="ideal",
            device=a100(),
            gpus_per_node=8,
            host_link_bandwidth=8 * 25.0 * GB,
            host_memory_bytes=1000 * GB,
        )
        ideal = ClusterSpec(name="ideal", node=ideal_node, num_nodes=1,
                            pfs_bandwidth=250.0 * GB)
        packed = StrongScalingDriver(
            graph, cluster=thetagpu(num_nodes=1), method="full"
        ).run(8, num_checkpoints=2)
        uncontended = StrongScalingDriver(
            graph, cluster=ideal, method="full"
        ).run(8, num_checkpoints=2)
        assert packed.critical_path_seconds > uncontended.critical_path_seconds

    def test_aggregate_throughput_positive(self, graph):
        result = StrongScalingDriver(graph).run(2, num_checkpoints=2)
        assert 0 < result.aggregate_throughput < float("inf")


class TestEventCapture:
    def test_capture_off_by_default(self):
        g = generate("delaunay", 128, seed=1)
        result = StrongScalingDriver(g, chunk_size=64).run(2, num_checkpoints=3)
        assert result.events == []

    def test_per_rank_journals_merge_into_result(self):
        from repro.telemetry.events import CHECKPOINT_COMMITTED, HEARTBEAT

        g = generate("delaunay", 128, seed=1)
        driver = StrongScalingDriver(g, chunk_size=64, capture_events=True)
        result = driver.run(2, num_checkpoints=3)
        commits = [e for e in result.events if e["type"] == CHECKPOINT_COMMITTED]
        beats = [e for e in result.events if e["type"] == HEARTBEAT]
        assert len(commits) == 2 * 3
        assert len(beats) == 2 * 3  # one liveness beat per commit
        assert {e["type"] for e in result.events} == {
            CHECKPOINT_COMMITTED,
            HEARTBEAT,
        }
        assert {e["rank"] for e in commits} == {0, 1}
        times = [e["sim_time"] for e in result.events]
        assert times == sorted(times)

    def test_node_names_follow_gpu_topology(self):
        g = generate("delaunay", 256, seed=1)
        driver = StrongScalingDriver(
            g, cluster=thetagpu(), chunk_size=64, capture_events=True
        )
        gpus = thetagpu().node.gpus_per_node
        procs = gpus + 1  # force a second node
        result = driver.run(procs, num_checkpoints=2)
        nodes = {e["node"] for e in result.events}
        assert nodes == {"node0", "node1"}

    def test_captured_run_matches_uncaptured_numbers(self):
        g = generate("delaunay", 128, seed=1)
        plain = StrongScalingDriver(g, chunk_size=64).run(2, num_checkpoints=3)
        captured = StrongScalingDriver(
            g, chunk_size=64, capture_events=True
        ).run(2, num_checkpoints=3)
        assert captured.total_stored_bytes == plain.total_stored_bytes
        assert captured.total_full_bytes == plain.total_full_bytes
        assert captured.critical_path_seconds == plain.critical_path_seconds

    def test_captured_events_feed_health_clean(self):
        from repro.telemetry import evaluate_health

        g = generate("delaunay", 128, seed=1)
        result = StrongScalingDriver(
            g, chunk_size=64, capture_events=True
        ).run(2, num_checkpoints=3)
        report = evaluate_health(result.events)
        assert report.status == "ok"
