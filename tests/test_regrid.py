"""Unit tests for the regridding pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import GridHierarchy
from repro.amr.regrid import (
    RegridParams,
    _validate_pieces,
    apply_cluster_boxes,
    assemble_flags,
    regrid_level,
)
from repro.runtime import root_blocks


class BoxFlagApp:
    """Test application flagging a fixed box (in level-0 physical coords)."""

    name = "boxflag"

    def __init__(self, flag_box_level0, domain_cells=16, max_levels=3):
        self.flag_box = flag_box_level0
        self.domain_cells = domain_cells
        self.refinement_ratio = 2
        self.max_levels = max_levels
        self.domain = Box.cube(0, domain_cells, 3)

    def flags(self, level, box, time):
        target = self.flag_box.refine(2**level)
        out = np.zeros(box.shape, dtype=bool)
        inter = box.intersection(target)
        if not inter.is_empty:
            out[inter.slices(origin=box.lo)] = True
        return out

    def work_per_cell(self, level):
        return 1.0


def fresh(app):
    h = GridHierarchy(app.domain, 2, app.max_levels)
    h.create_root_grids(root_blocks(app.domain, (4, 1, 1)))
    return h


class TestAssembleFlags:
    def test_collects_from_all_roots(self):
        app = BoxFlagApp(Box((2, 2, 2), (6, 6, 6)))
        h = fresh(app)
        field = assemble_flags(h, app, 0, 0.0)
        assert field.nflagged == 4**3

    def test_shape_mismatch_raises(self):
        class BadApp(BoxFlagApp):
            def flags(self, level, box, time):
                return np.zeros((1, 1, 1), dtype=bool)

        app = BadApp(Box((0, 0, 0), (2, 2, 2)))
        h = fresh(app)
        with pytest.raises(ValueError):
            assemble_flags(h, app, 0, 0.0)


class TestRegridLevel:
    def test_creates_children_covering_flags(self):
        app = BoxFlagApp(Box((3, 3, 3), (6, 6, 6)))
        h = fresh(app)
        created = regrid_level(h, app, 0, 0.0)
        assert created
        h.validate()
        # the flagged region (buffered by 1) must be covered at level 1
        flagged = Box((3, 3, 3), (6, 6, 6)).refine(2)
        covered = 0
        for g in h.level_grids(1):
            covered += g.box.intersection(flagged).ncells
        assert covered == flagged.ncells

    def test_no_flags_no_children(self):
        app = BoxFlagApp(Box((0, 0, 0), (0, 2, 2)))  # empty flag box
        h = fresh(app)
        assert regrid_level(h, app, 0, 0.0) == []

    def test_regrid_replaces_old_level(self):
        app = BoxFlagApp(Box((3, 3, 3), (6, 6, 6)))
        h = fresh(app)
        first = regrid_level(h, app, 0, 0.0)
        second = regrid_level(h, app, 0, 0.0)
        for g in first:
            assert not h.has_grid(g.gid)
        for g in second:
            assert h.has_grid(g.gid)

    def test_children_split_at_parent_boundaries(self):
        # flag a box straddling the boundary between root slabs at x=4
        app = BoxFlagApp(Box((2, 2, 2), (7, 6, 6)))
        h = fresh(app)
        created = regrid_level(h, app, 0, 0.0)
        h.validate()  # nesting in a single parent each
        parents = {g.parent_gid for g in created}
        assert len(parents) >= 2  # pieces on both sides of x=4

    def test_max_level_is_respected(self):
        app = BoxFlagApp(Box((2, 2, 2), (6, 6, 6)), max_levels=2)
        h = fresh(app)
        regrid_level(h, app, 0, 0.0)
        assert regrid_level(h, app, 1, 0.0) == []

    def test_recursive_levels(self):
        app = BoxFlagApp(Box((2, 2, 2), (8, 8, 8)), max_levels=3)
        h = fresh(app)
        regrid_level(h, app, 0, 0.0)
        created2 = regrid_level(h, app, 1, 0.0)
        assert created2
        h.validate()
        for g in created2:
            assert g.level == 2

    def test_work_per_cell_taken_from_app(self):
        class Heavy(BoxFlagApp):
            def work_per_cell(self, level):
                return 3.0 if level > 0 else 1.0

        app = Heavy(Box((2, 2, 2), (5, 5, 5)))
        h = fresh(app)
        created = regrid_level(h, app, 0, 0.0)
        assert all(g.work_per_cell == 3.0 for g in created)

    def test_buffering_expands_refined_region(self):
        app = BoxFlagApp(Box((4, 4, 4), (6, 6, 6)))
        h = fresh(app)
        no_buffer = RegridParams(buffer_width=0)
        wide_buffer = RegridParams(buffer_width=2)
        cells_no = sum(g.ncells for g in regrid_level(h, app, 0, 0.0, no_buffer))
        cells_wide = sum(g.ncells for g in regrid_level(h, app, 0, 0.0, wide_buffer))
        assert cells_wide > cells_no

    def test_min_piece_cells_drops_slivers(self):
        app = BoxFlagApp(Box((3, 3, 3), (5, 5, 5)))
        h = fresh(app)
        params = RegridParams(min_piece_cells=10_000)  # absurd: drop all
        assert regrid_level(h, app, 0, 0.0, params) == []


def single_root(domain_cells=16, max_levels=3):
    h = GridHierarchy(Box.cube(0, domain_cells, 3), 2, max_levels)
    h.create_root_grids([Box.cube(0, domain_cells, 3)])
    return h


def grid_rows(grids):
    return [(g.gid, g.level, g.box, g.parent_gid, g.work_per_cell) for g in grids]


class TestApplyClusterBoxesValidation:
    def test_overlapping_clusters_raise(self):
        h = single_root()
        boxes = [Box((0, 0, 0), (2, 2, 2)), Box((1, 1, 1), (3, 3, 3))]
        with pytest.raises(ValueError, match="overlaps"):
            apply_cluster_boxes(h, 0, boxes, 1.0, validate=True)

    def test_overlap_far_apart_in_axis0_order_raises(self):
        # a long box opening at x=0 and a small one at x=15 overlap; twelve
        # disjoint boxes sort between them on axis 0
        h = single_root()
        long_box = Box((0, 0, 0), (16, 2, 2))
        between = [Box((k, 4, 4), (k + 1, 5, 5)) for k in range(1, 13)]
        late = Box((15, 1, 1), (16, 2, 2))
        with pytest.raises(ValueError, match="overlaps"):
            apply_cluster_boxes(h, 0, [long_box, *between, late], 1.0,
                                validate=True)

    def test_piece_escaping_parent_raises(self):
        h = single_root(domain_cells=8)
        parents = h.level_grids(0)
        refined = BoxArray.from_boxes([p.box for p in parents]).refine(2)
        pieces = BoxArray.from_boxes([Box((10, 0, 0), (17, 4, 4))])
        with pytest.raises(ValueError, match="not nested"):
            _validate_pieces(1, parents, np.zeros(1, dtype=np.int64),
                             pieces, refined)

    def test_validate_flag_builds_identical_grids(self):
        app = BoxFlagApp(Box((2, 2, 2), (11, 7, 9)))
        built = []
        for validate in (True, False):
            h = fresh(app)
            boxes = [Box((1, 1, 1), (6, 5, 5)), Box((6, 1, 1), (12, 8, 10)),
                     Box((1, 5, 1), (6, 8, 3))]
            created = apply_cluster_boxes(h, 0, boxes, 2.0, validate=validate)
            h.validate()
            built.append((grid_rows(created), grid_rows(h.level_grids(1))))
        assert built[0] == built[1]
        assert len(built[0][0]) == 6  # each box is cut at a root-slab face
