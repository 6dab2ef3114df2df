"""Tests for the graphlet atlas: counts, canonical orbits, classification."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.oranges import (
    EXPECTED_GRAPHLETS,
    EXPECTED_ORBITS,
    GraphletAtlas,
    get_atlas,
    pair_bit,
)


def mask_from_edges(k, edges):
    mask = 0
    for i, j in edges:
        mask |= 1 << pair_bit(k, i, j)
    return mask


class TestCounts:
    @pytest.mark.parametrize("max_size", [2, 3, 4, 5])
    def test_orbit_totals(self, max_size):
        atlas = get_atlas(max_size)
        assert atlas.num_orbits == EXPECTED_ORBITS[max_size]

    @pytest.mark.parametrize("max_size", [2, 3, 4, 5])
    def test_graphlet_totals(self, max_size):
        atlas = get_atlas(max_size)
        assert atlas.num_graphlets == EXPECTED_GRAPHLETS[max_size]

    def test_atlas_cached(self):
        assert get_atlas(4) is get_atlas(4)

    def test_bad_size_rejected(self):
        with pytest.raises(GraphError):
            GraphletAtlas(6)
        with pytest.raises(GraphError):
            GraphletAtlas(1)


class TestStandardNumbering:
    """Orbits 0-14 must match Pržulj's standard numbering exactly."""

    def setup_method(self):
        self.atlas = get_atlas(4)

    def test_edge(self):
        assert self.atlas.classify(2, 0b1).tolist() == [0, 0]

    def test_path3(self):
        mask = mask_from_edges(3, [(0, 1), (1, 2)])
        assert self.atlas.classify(3, mask).tolist() == [1, 2, 1]

    def test_triangle(self):
        assert self.atlas.classify(3, 0b111).tolist() == [3, 3, 3]

    def test_path4(self):
        mask = mask_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert self.atlas.classify(4, mask).tolist() == [4, 5, 5, 4]

    def test_claw(self):
        mask = mask_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert self.atlas.classify(4, mask).tolist() == [7, 6, 6, 6]

    def test_cycle4(self):
        mask = mask_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert self.atlas.classify(4, mask).tolist() == [8, 8, 8, 8]

    def test_paw(self):
        mask = mask_from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert self.atlas.classify(4, mask).tolist() == [11, 10, 10, 9]

    def test_diamond(self):
        mask = mask_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert self.atlas.classify(4, mask).tolist() == [13, 12, 13, 12]

    def test_k4(self):
        assert self.atlas.classify(4, 0b111111).tolist() == [14] * 4


class TestClassification:
    def test_relabeled_masks_same_orbit_multiset(self):
        atlas = get_atlas(4)
        a = mask_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        b = mask_from_edges(4, [(3, 2), (2, 0), (0, 1)])  # P4 relabeled
        assert sorted(atlas.classify(4, a).tolist()) == sorted(
            atlas.classify(4, b).tolist()
        )

    def test_disconnected_rejected(self):
        atlas = get_atlas(4)
        with pytest.raises(GraphError):
            atlas.classify(4, mask_from_edges(4, [(0, 1), (2, 3)]))

    def test_orbit_ids_partition_range(self):
        atlas = get_atlas(5)
        seen = set()
        for info in atlas.graphlets:
            seen.update(info.position_orbits)
        assert seen == set(range(73))

    def test_five_node_orbit_ids_start_at_15(self):
        atlas = get_atlas(5)
        five = [g for g in atlas.graphlets if g.size == 5]
        assert min(min(g.position_orbits) for g in five) == 15

    def test_path5_has_three_orbits(self):
        atlas = get_atlas(5)
        mask = mask_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        orbits = atlas.classify(5, mask)
        # P5: ends, near-ends, middle — 3 distinct orbits.
        assert len(set(orbits.tolist())) == 3
        assert orbits[0] == orbits[4]
        assert orbits[1] == orbits[3]

    def test_k5_single_orbit(self):
        atlas = get_atlas(5)
        mask = (1 << 10) - 1
        assert len(set(atlas.classify(5, mask).tolist())) == 1
