"""Chunk-lineage attribution: classes, census math, sweep, events.

The golden tests run every engine over the fixed-seed ORANGES trace and
hold the attribution to two exact invariants: the four byte classes
partition each checkpoint's logical bytes, and they agree byte-for-byte
with the region byte sums of each diff's :func:`chunk_map`.
"""

import numpy as np
import pytest

from repro.compress import get_codec
from repro.core import ENGINES
from repro.core.serialize import chunk_map
from repro.core.store import load_provenance, save_record
from repro.oranges import OrangesApp
from repro.telemetry import events
from tests.conftest import ram_record
from repro.telemetry.attribution import (
    CLASS_FIRST,
    CLASS_FIXED,
    CLASS_SHIFT,
    ChunkCensus,
    attribute_record,
    chunk_size_sweep,
    classify_chunks,
    sweep_report,
)

CHUNK = 64
CHECKPOINTS = 5


@pytest.fixture(scope="module")
def oranges_chains():
    """The golden ORANGES trace checkpointed by every engine."""
    chains = {}
    for method in sorted(ENGINES):
        app = OrangesApp("unstructured_mesh", num_vertices=512, seed=2)
        engine = app.fresh_engine()
        dedup = ENGINES[method](engine.buffer_nbytes, CHUNK)
        diffs = []
        for snap in engine.checkpoint_stream(CHECKPOINTS):
            flat = np.ascontiguousarray(snap.reshape(-1).view(np.uint8))
            diffs.append(dedup.checkpoint(flat))
        chains[method] = diffs
    return chains


@pytest.fixture
def tree_diffs(rng):
    """Small synthetic chain with known FIRST/SHIFT/FIXED geometry."""
    n = 64 * 128
    base = rng.integers(0, 256, n, dtype=np.uint8)
    engine = ENGINES["tree"](n, CHUNK)
    diffs = [engine.checkpoint(base)]
    nxt = base.copy()
    nxt[: 16 * 64] = rng.integers(0, 256, 16 * 64, dtype=np.uint8)  # FIRST
    nxt[32 * 64 : 40 * 64] = base[0 : 8 * 64]                       # SHIFT
    diffs.append(engine.checkpoint(nxt))
    return diffs


class TestGoldenOranges:
    def test_classes_partition_logical_bytes(self, oranges_chains):
        for method, diffs in oranges_chains.items():
            attribution = attribute_record(ram_record(diffs), method, emit=False)
            for c in attribution.checkpoints:
                total = (
                    c.first_bytes + c.shift_bytes + c.fixed_bytes + c.zero_bytes
                )
                assert total == c.data_len, (method, c.ckpt_id)

    def test_agrees_with_diff_level_analysis(self, oranges_chains):
        """RPIX-derived classes match each diff's region byte sums.

        The index has no changed-vs-unchanged notion for untouched zero
        chunks, so its *zero* and *fixed* classes together equal the bytes
        no region of the diff covers.
        """
        for method, diffs in oranges_chains.items():
            attribution = attribute_record(ram_record(diffs), method, emit=False)
            for diff, c in zip(diffs, attribution.checkpoints):
                cmap = chunk_map(diff)
                first = int((cmap.first_end - cmap.first_start).sum())
                shift = int((cmap.shift_end - cmap.shift_start).sum())
                assert c.first_bytes == first, (method, c.ckpt_id)
                assert c.shift_bytes == shift, (method, c.ckpt_id)
                assert c.zero_bytes + c.fixed_bytes == diff.data_len - first - shift, (
                    method,
                    c.ckpt_id,
                )

    def test_on_disk_costs_come_from_diffs(self, oranges_chains):
        """The record's frames report each checkpoint's on-disk costs."""
        diffs = oranges_chains["tree"]
        attribution = attribute_record(ram_record(diffs), emit=False)
        for diff, c in zip(diffs, attribution.checkpoints):
            assert c.stored_bytes == diff.serialized_size
            assert c.metadata_bytes == diff.metadata_bytes

    def test_method_is_the_engine_not_the_seed_frame(self, oranges_chains):
        for method, diffs in oranges_chains.items():
            attribution = attribute_record(ram_record(diffs), emit=False)
            assert attribution.method == diffs[-1].method, method

    def test_summary_renders_one_row_per_checkpoint(self, oranges_chains):
        attribution = attribute_record(
            ram_record(oranges_chains["tree"]), emit=False
        )
        text = attribution.summary()
        # Header x2 + one row per checkpoint + aggregate footer.
        assert len(text.splitlines()) == CHECKPOINTS + 3
        assert "sharing" in text


class TestClassifyChunks:
    def test_first_checkpoint_is_all_first(self, tree_diffs):
        table = load_provenance(ram_record(tree_diffs))
        classes = classify_chunks(table, 0)
        assert (classes == CLASS_FIRST).all()

    def test_known_geometry(self, tree_diffs):
        table = load_provenance(ram_record(tree_diffs))
        classes = classify_chunks(table, 1)
        assert (classes[:16] == CLASS_FIRST).all()
        assert (classes[32:40] == CLASS_SHIFT).all()
        fixed = np.r_[classes[16:32], classes[40:]]
        assert (fixed == CLASS_FIXED).all()

    def test_intra_checkpoint_duplicate_has_one_owner(self, rng):
        n = 64 * 8
        base = rng.integers(0, 256, n, dtype=np.uint8)
        engine = ENGINES["tree"](n, CHUNK)
        diffs = [engine.checkpoint(base)]
        nxt = base.copy()
        fresh = rng.integers(0, 256, CHUNK, dtype=np.uint8)
        nxt[2 * 64 : 3 * 64] = fresh
        nxt[5 * 64 : 6 * 64] = fresh
        diffs.append(engine.checkpoint(nxt))
        table = load_provenance(ram_record(diffs))
        classes = classify_chunks(table, 1)
        # The lowest chunk id owns the freshly written cell; the other
        # duplicate of the same content is a shift.
        assert classes[2] == CLASS_FIRST
        assert classes[5] == CLASS_SHIFT

    def test_attribution_counts_sharing(self, rng):
        n = 64 * 8
        base = rng.integers(0, 256, n, dtype=np.uint8)
        engine = ENGINES["tree"](n, CHUNK)
        diffs = [engine.checkpoint(base)]
        attribution = attribute_record(ram_record(diffs), emit=False)
        # 8 distinct random chunks: no sharing, depth 0 everywhere.
        assert attribution.unique_cells == 8
        assert attribution.sharing_factor == 1.0
        assert attribution.max_lineage_depth == 0

    def test_lineage_depth_grows_down_the_chain(self, tree_diffs):
        attribution = attribute_record(ram_record(tree_diffs), emit=False)
        # Checkpoint 1's fixed chunks still resolve to checkpoint 0 cells.
        assert attribution.checkpoints[1].max_lineage_depth == 1
        assert attribution.max_lineage_depth == 1


class TestAttributeRecord:
    def test_stored_record_matches_in_memory(self, tree_diffs, tmp_path):
        directory = tmp_path / "rec"
        save_record(tree_diffs, directory, method="tree")
        from_disk = attribute_record(directory, emit=False)
        in_memory = attribute_record(ram_record(tree_diffs), "rec", emit=False)
        assert from_disk.record == "rec"
        assert from_disk.totals == in_memory.totals
        assert from_disk.unique_cells == in_memory.unique_cells

    def test_as_dict_round_trips_classes(self, tree_diffs):
        doc = attribute_record(ram_record(tree_diffs), emit=False).as_dict()
        totals = doc["totals"]
        assert (
            totals["first"] + totals["shift"] + totals["fixed"] + totals["zero"]
            == doc["logical_bytes"]
        )
        assert doc["achieved_ratio"] is not None


class TestEvents:
    def test_attribute_emits_one_record_summary(self, tree_diffs):
        with events.journal_to(None) as journal:
            attribute_record(ram_record(tree_diffs), record="recA")
        rows = [
            r
            for r in journal.records()
            if r["type"] == events.ATTRIBUTION_SUMMARY
        ]
        assert len(rows) == 1
        row = rows[0]
        assert row["scope"] == "record"
        assert row["record"] == "recA"
        assert (
            row["first_bytes"]
            + row["shift_bytes"]
            + row["fixed_bytes"]
            + row["zero_bytes"]
            == row["logical_bytes"]
        )

    def test_emit_false_is_silent(self, tree_diffs):
        record = ram_record(tree_diffs)
        with events.journal_to(None) as journal:
            attribute_record(record, emit=False)
        assert journal.records() == []

    def test_census_emits_row_per_record_plus_summary(self, tree_diffs):
        census = ChunkCensus()
        census.add_record(ram_record(tree_diffs), "a")
        with events.journal_to(None) as journal:
            census.report()
        rows = journal.records()
        assert [r["scope"] for r in rows] == ["census_record", "census"]
        assert rows[1]["pool_forecast_ratio"] > 0


class TestChunkCensus:
    def _chain(self, seed, n=64 * 64):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 256, n, dtype=np.uint8)
        engine = ENGINES["tree"](n, CHUNK)
        diffs = [engine.checkpoint(base)]
        nxt = base.copy()
        nxt[:256] = rng.integers(0, 256, 256, dtype=np.uint8)
        diffs.append(engine.checkpoint(nxt))
        return diffs

    def test_identical_records_fully_cross_duplicate(self):
        census = ChunkCensus()
        census.add_record(ram_record(self._chain(7)), "a")
        census.add_record(ram_record(self._chain(7)), "b")
        report = census.report(emit=False)
        for row in report.records:
            assert row["cross_duplicate_share"] == 1.0
        # One shared pool stores the content once, so the fleet forecast
        # doubles the intra-record ratio.
        assert report.pool_forecast_ratio == pytest.approx(
            2 * report.best_intra_ratio
        )
        assert any(f["records"] == 2 for f in report.top_families)

    def test_disjoint_records_share_nothing(self):
        census = ChunkCensus()
        census.add_record(ram_record(self._chain(7)), "a")
        census.add_record(ram_record(self._chain(8)), "b")
        report = census.report(emit=False)
        for row in report.records:
            assert row["cross_duplicate_share"] == 0.0
            assert row["pool_ratio"] == pytest.approx(row["intra_ratio"])

    def test_pool_forecast_at_least_best_intra(self):
        census = ChunkCensus()
        census.add_record(ram_record(self._chain(7)), "a")
        census.add_record(ram_record(self._chain(7)), "b")
        census.add_record(ram_record(self._chain(9)), "c")
        report = census.report(emit=False)
        assert report.pool_forecast_ratio >= report.best_intra_ratio
        assert report.num_records == 3

    def test_per_record_charges_sum_to_pool(self):
        census = ChunkCensus()
        census.add_record(ram_record(self._chain(7)), "a")
        census.add_record(ram_record(self._chain(7)), "b")
        report = census.report(emit=False)
        charged = sum(
            row["logical_bytes"] / row["pool_ratio"] for row in report.records
        )
        # pool_ratio is rounded to 4 decimals in the row, so the charges
        # invert it only approximately.
        assert charged == pytest.approx(report.pool_unique_bytes, rel=1e-3)

    def test_stored_record_matches_in_memory_ingest(self, tmp_path):
        diffs = self._chain(7)
        directory = tmp_path / "rec"
        save_record(diffs, directory, method="tree")
        memory = ChunkCensus().add_record(ram_record(diffs), "rec")
        disk = ChunkCensus().add_record(directory)
        assert disk.name == "rec"
        assert disk.unique_chunks == memory.unique_chunks
        assert disk.unique_bytes == memory.unique_bytes

    def test_duplicate_name_rejected(self):
        census = ChunkCensus()
        census.add_record(ram_record(self._chain(7)), "a")
        with pytest.raises(ValueError, match="already holds"):
            census.add_record(ram_record(self._chain(8)), "a")

    def test_empty_census_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            ChunkCensus().report()

    def test_summary_lists_every_record(self):
        census = ChunkCensus()
        census.add_record(ram_record(self._chain(7)), "alpha")
        census.add_record(ram_record(self._chain(8)), "beta")
        text = census.report(emit=False).summary()
        assert "alpha" in text and "beta" in text
        assert "shared-pool forecast" in text


class TestChunkSizeSweep:
    def test_prices_every_requested_size(self, tree_diffs):
        points = chunk_size_sweep(ram_record(tree_diffs), (32, 64, 128))
        assert [p.chunk_size for p in points] == [32, 64, 128]
        logical = 2 * tree_diffs[0].data_len
        for p in points:
            assert 0 < p.unique_bytes <= logical
            assert p.dedup_ratio > 1.0  # ckpt 1 mostly repeats ckpt 0
            # Metadata can only subtract from the content-level ratio.
            assert p.net_ratio < p.dedup_ratio
            assert p.metadata_bytes == 2 * p.num_chunks * 12

    def test_finer_chunks_cost_more_metadata(self, tree_diffs):
        fine, coarse = chunk_size_sweep(ram_record(tree_diffs), (32, 256))
        assert fine.metadata_bytes > coarse.metadata_bytes
        assert fine.num_chunks > coarse.num_chunks

    def test_empty_sizes_rejected(self, tree_diffs):
        with pytest.raises(ValueError):
            chunk_size_sweep(ram_record(tree_diffs), ())

    def test_report_has_one_row_per_point(self, tree_diffs):
        points = chunk_size_sweep(ram_record(tree_diffs), (64, 128))
        assert len(sweep_report(points).splitlines()) == 3


class TestHybridChains:
    """A hybrid (dedup + compression) chain is read through the codec its
    frames name: sweep and census see the same bytes as the raw chain."""

    @staticmethod
    def _chains(seed=5, n=64 * 256, steps=4):
        """Each step rewrites 16 chunks of 128 B whose first halves are one
        repeated 64 B block: new at 128 B, duplicates at 64 B."""
        rng = np.random.default_rng(seed)
        raw = ENGINES["tree"](n, 128)
        hybrid = ENGINES["tree"](n, 128, payload_codec=get_codec("bitcomp"))
        buf = rng.integers(0, 256, n, dtype=np.uint8)
        raw_diffs, hybrid_diffs = [], []
        for k in range(steps):
            if k:
                buf = buf.copy()
                chunks = rng.integers(0, 256, (16, 128), dtype=np.uint8)
                chunks[:, :64] = rng.integers(0, 256, 64, dtype=np.uint8)
                buf[k * 2048 : (k + 1) * 2048] = chunks.reshape(-1)
            raw_diffs.append(raw.checkpoint(buf))
            hybrid_diffs.append(hybrid.checkpoint(buf))
        assert any(d.codec == "bitcomp" for d in hybrid_diffs)
        return raw_diffs, hybrid_diffs

    def test_sweep_equals_the_raw_chains(self):
        raw, hybrid = self._chains()
        sizes = (64, 128, 256)
        assert chunk_size_sweep(ram_record(hybrid), sizes) == chunk_size_sweep(
            ram_record(raw), sizes
        )

    def test_census_pools_with_the_raw_chain(self, tmp_path):
        raw, hybrid = self._chains()
        census = ChunkCensus()
        want = census.add_record(ram_record(raw), "raw")
        census.add_record(ram_record(hybrid), "hybrid")
        census.add_record(save_record(hybrid, tmp_path / "rec", method="tree"))
        report = census.report(emit=False)
        assert report.pool_unique_chunks == want.unique_chunks
        assert all(row["cross_duplicate_share"] == 1.0 for row in report.records)
