"""Unit and property tests for the grid hierarchy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.hierarchy import GridHierarchy
from repro.amr.regrid import apply_cluster_boxes
from repro.runtime import root_blocks


def make_hierarchy(n=16, levels=3, blocks=(4, 1, 1)):
    domain = Box.cube(0, n, 3)
    h = GridHierarchy(domain, refinement_ratio=2, max_levels=levels)
    h.create_root_grids(root_blocks(domain, blocks))
    return h


class TestConstruction:
    def test_bad_ratio_raises(self):
        with pytest.raises(ValueError):
            GridHierarchy(Box.cube(0, 8, 2), refinement_ratio=1)

    def test_bad_levels_raises(self):
        with pytest.raises(ValueError):
            GridHierarchy(Box.cube(0, 8, 2), max_levels=0)

    def test_empty_domain_raises(self):
        with pytest.raises(ValueError):
            GridHierarchy(Box((0, 0), (0, 4)))

    def test_root_grids_must_tile_exactly(self):
        h = GridHierarchy(Box.cube(0, 8, 2), max_levels=2)
        with pytest.raises(ValueError):
            h.create_root_grids([Box((0, 0), (4, 8))])  # covers half

    def test_root_grids_must_not_overlap(self):
        h = GridHierarchy(Box.cube(0, 8, 2), max_levels=2)
        with pytest.raises(ValueError):
            h.create_root_grids([Box((0, 0), (6, 8)), Box((4, 0), (8, 8))])

    def test_root_grids_must_be_inside(self):
        h = GridHierarchy(Box.cube(0, 8, 2), max_levels=2)
        with pytest.raises(ValueError):
            h.create_root_grids([Box((0, 0), (8, 10))])

    def test_double_root_creation_raises(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            h.create_root_grids([h.domain])


class TestAddRemove:
    def test_add_child(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        child = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        assert child.parent_gid == root.gid
        assert root.children == (child.gid,)
        h.validate()

    def test_add_level0_via_add_grid_raises(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            h.add_grid(0, Box.cube(0, 2, 3))

    def test_child_outside_parent_raises(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]  # box [0,4) x [0,16)^2
        with pytest.raises(ValueError):
            h.add_grid(1, Box((30, 0, 0), (32, 4, 4)), root.gid)

    def test_overlapping_siblings_raise(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        with pytest.raises(ValueError):
            h.add_grid(1, Box((2, 2, 2), (6, 6, 6)), root.gid)

    def test_wrong_parent_level_raises(self):
        h = make_hierarchy(levels=3)
        root = h.level_grids(0)[0]
        with pytest.raises(ValueError):
            h.add_grid(2, Box((0, 0, 0), (4, 4, 4)), root.gid)

    def test_remove_subtree(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        c1 = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        c2 = h.add_grid(2, Box((0, 0, 0), (4, 4, 4)), c1.gid)
        h.remove_grid(c1.gid)
        assert not h.has_grid(c1.gid)
        assert not h.has_grid(c2.gid)
        assert root.children == ()
        h.validate()

    def test_clear_level_removes_finer(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        c1 = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        h.add_grid(2, Box((0, 0, 0), (4, 4, 4)), c1.gid)
        h.clear_level(1)
        assert h.level_grids(1) == []
        assert h.level_grids(2) == []
        assert h.level_grids(0)  # roots survive

    def test_clear_level0_raises(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            h.clear_level(0)

    def test_version_bumps_on_change(self):
        h = make_hierarchy()
        v0 = h.version
        root = h.level_grids(0)[0]
        c = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        assert h.version > v0
        v1 = h.version
        h.remove_grid(c.gid)
        assert h.version > v1


class TestLevelVersions:
    """``level_versions[l]`` moves exactly when level ``l`` gains or loses a
    grid, so geometry cached for one level survives regrids of others."""

    def test_finer_regrid_leaves_coarser_levels_alone(self):
        h = make_hierarchy()
        apply_cluster_boxes(h, 0, [Box((0, 0, 0), (8, 8, 8))], 1.0)
        v0, v1, v2 = h.level_versions
        assert v1 > 0 and v2 == 0
        apply_cluster_boxes(h, 1, [Box((0, 0, 0), (6, 6, 6))], 1.0)
        assert h.level_versions[0] == v0
        assert h.level_versions[1] == v1
        assert h.level_versions[2] > v2
        # rebuilding level 1 clears level 2 too, but never touches level 0
        apply_cluster_boxes(h, 0, [Box((0, 0, 0), (4, 4, 4))], 1.0)
        assert h.level_versions[0] == v0

    def test_add_grid_bumps_only_its_level(self):
        h = make_hierarchy()
        before = list(h.level_versions)
        h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), h.level_grids(0)[0].gid)
        assert h.level_versions == [before[0], before[1] + 1, before[2]]

    def test_remove_grid_bumps_its_level_and_descendant_levels(self):
        h = make_hierarchy(levels=4)
        root = h.level_grids(0)[0]
        c1 = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        c2 = h.add_grid(2, Box((0, 0, 0), (4, 4, 4)), c1.gid)
        h.add_grid(3, Box((0, 0, 0), (4, 4, 4)), c2.gid)
        other = h.add_grid(1, Box((8, 0, 0), (12, 4, 4)), h.level_grids(0)[1].gid)
        before = list(h.level_versions)
        h.remove_grid(c1.gid)
        assert h.level_versions[0] == before[0]
        assert all(h.level_versions[l] > before[l] for l in (1, 2, 3))
        before = list(h.level_versions)
        h.remove_grid(other.gid)  # childless: its own level only
        assert h.level_versions == [before[0], before[1] + 1, before[2], before[3]]

    def test_clear_level_bumps_only_non_empty_cleared_levels(self):
        h = make_hierarchy(levels=4)
        root = h.level_grids(0)[0]
        c1 = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        h.add_grid(2, Box((0, 0, 0), (4, 4, 4)), c1.gid)
        before = list(h.level_versions)
        h.clear_level(1)
        assert h.level_versions[0] == before[0]
        assert h.level_versions[1] > before[1]
        assert h.level_versions[2] > before[2]
        assert h.level_versions[3] == before[3]  # level 3 was empty
        before = list(h.level_versions)
        h.clear_level(1)  # nothing left to clear
        assert h.level_versions == before


class TestQueries:
    def test_nlevels(self):
        h = make_hierarchy()
        assert h.nlevels == 1
        root = h.level_grids(0)[0]
        h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        assert h.nlevels == 2

    def test_level_domain(self):
        h = make_hierarchy(n=16)
        assert h.level_domain(0) == Box.cube(0, 16, 3)
        assert h.level_domain(2) == Box.cube(0, 64, 3)

    def test_level_workload(self):
        h = make_hierarchy(n=16, blocks=(4, 1, 1))
        assert h.level_workload(0) == 16**3

    def test_total_cells(self):
        h = make_hierarchy(n=16)
        assert h.total_cells() == 16**3

    def test_subtree_preorder(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        c1 = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        c2 = h.add_grid(2, Box((0, 0, 0), (4, 4, 4)), c1.gid)
        gids = [g.gid for g in h.subtree(root.gid)]
        assert gids == [root.gid, c1.gid, c2.gid]

    def test_descendants_of_deduplicates(self):
        h = make_hierarchy()
        roots = h.level_grids(0)
        c1 = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), roots[0].gid)
        descendants = h.descendants_of([roots[0].gid, roots[0].gid])
        assert [g.gid for g in descendants] == [c1.gid]


class TestSiblingPairs:
    def test_adjacent_slabs(self):
        h = make_hierarchy(n=16, blocks=(4, 1, 1))
        pairs = h.sibling_pairs(0)
        # 4 slabs in a row -> 3 adjacent pairs
        assert len(pairs) == 3
        for a, b, area in pairs:
            assert a < b
            assert area == 2 * 16 * 16  # two-way full face exchange

    def test_blocks_grid_pair_count(self):
        h = make_hierarchy(n=16, blocks=(2, 2, 1))
        pairs = h.sibling_pairs(0)
        # 2x2 arrangement: 4 face pairs + 2 diagonal pairs
        assert len(pairs) == 6

    def test_no_pairs_single_grid(self):
        h = make_hierarchy(n=16, blocks=(1, 1, 1))
        assert h.sibling_pairs(0) == []

    def test_pairs_sorted_and_deterministic(self):
        h = make_hierarchy(n=16, blocks=(4, 2, 1))
        assert h.sibling_pairs(0) == sorted(h.sibling_pairs(0))


class TestValidateCatchesCorruption:
    def test_validate_ok(self):
        h = make_hierarchy()
        h.validate()

    def test_validate_catches_bad_parent_link(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        c = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        root._children.remove(c.gid)  # corrupt on purpose
        with pytest.raises(AssertionError):
            h.validate()


@given(
    blocks=st.sampled_from([(1, 1, 1), (2, 1, 1), (2, 2, 1), (4, 2, 2)]),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=25, deadline=None)
def test_property_random_subtrees_keep_invariants(blocks, seed):
    """Randomly grown hierarchies always satisfy validate()."""
    import numpy as np

    rng = np.random.default_rng(seed)
    h = make_hierarchy(n=16, levels=3, blocks=blocks)
    for _ in range(10):
        # pick a random grid, try to add a child in its refined box
        grids = [g for g in h.all_grids() if g.level < h.max_levels - 1]
        g = grids[rng.integers(len(grids))]
        refined = g.box.refine(2)
        lo = [int(rng.integers(refined.lo[d], refined.hi[d])) for d in range(3)]
        hi = [min(refined.hi[d], lo[d] + int(rng.integers(1, 5))) for d in range(3)]
        box = Box(tuple(lo), tuple(hi))
        if box.is_empty:
            continue
        try:
            h.add_grid(g.level + 1, box, g.gid)
        except ValueError:
            pass  # overlap with an existing sibling: legal rejection
    h.validate()
