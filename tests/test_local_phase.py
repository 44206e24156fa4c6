"""Unit and property tests for LPT placement and greedy rebalancing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.grid import Grid
from repro.core.local_phase import lpt_assign, plan_rebalance
from repro.metrics.imbalance import imbalance_ratio


def make_grids(sizes, level=0):
    grids = []
    for i, s in enumerate(sizes):
        # stack boxes along x so they are valid disjoint grids
        grids.append(Grid(gid=i, level=0, box=Box((i * 100, 0), (i * 100 + s, 1))))
    return grids


class TestLPT:
    def test_even_split(self):
        grids = make_grids([4, 4, 4, 4])
        targets = {0: 8.0, 1: 8.0}
        owner = lpt_assign(grids, targets)
        loads = {0: 0.0, 1: 0.0}
        for g in grids:
            loads[owner[g.gid]] += g.workload
        assert loads[0] == loads[1] == 8.0

    def test_weighted_targets(self):
        grids = make_grids([3, 3, 3, 3])
        targets = {0: 9.0, 1: 3.0}
        owner = lpt_assign(grids, targets)
        loads = {0: 0.0, 1: 0.0}
        for g in grids:
            loads[owner[g.gid]] += g.workload
        assert loads[0] == 9.0
        assert loads[1] == 3.0

    def test_empty_targets_raise(self):
        with pytest.raises(ValueError):
            lpt_assign(make_grids([1]), {})

    def test_deterministic(self):
        grids = make_grids([5, 3, 8, 2, 7])
        targets = {0: 10.0, 1: 10.0, 2: 5.0}
        assert lpt_assign(grids, targets) == lpt_assign(grids, targets)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=30),
        nprocs=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_lpt_near_optimal(self, sizes, nprocs):
        """LPT's max load <= target + largest grid (standard LPT bound)."""
        grids = make_grids(sizes)
        total = float(sum(sizes))
        targets = {p: total / nprocs for p in range(nprocs)}
        owner = lpt_assign(grids, targets)
        loads = {p: 0.0 for p in range(nprocs)}
        for g in grids:
            loads[owner[g.gid]] += g.workload
        assert sum(loads.values()) == pytest.approx(total)
        assert max(loads.values()) <= total / nprocs + max(sizes)


def lpt_assign_scan(grids, targets):
    """Reference O(grids x procs) LPT: a full ``max()`` scan per grid.
    Kept here as the oracle the heap-ordered :func:`lpt_assign` must match."""
    loads = {pid: 0.0 for pid in targets}
    out = {}
    for g in sorted(grids, key=lambda g: (-g.workload, g.gid)):
        pid = max(loads, key=lambda p: (targets[p] - loads[p], -p))
        out[g.gid] = pid
        loads[pid] += g.workload
    return out


def make_weighted_grids(sizes, work):
    return [Grid(gid=i, level=0, box=Box((i * 100, 0), (i * 100 + s, 1)),
                 work_per_cell=w)
            for i, (s, w) in enumerate(zip(sizes, work))]


class TestLPTMatchesScanOracle:
    """The heap keyed on ``(-deficit, pid)`` picks exactly the processor the
    per-grid ``max()`` scan picks, ties and all."""

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=12), max_size=40),
        work=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.25]),
                      min_size=40, max_size=40),
        pids=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                      max_size=12, unique=True),
        target_values=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 4.0, 4.0, 7.5]),
                      st.floats(min_value=0.0, max_value=100.0)),
            min_size=12, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_identical_to_scan(self, sizes, work, pids, target_values):
        grids = make_weighted_grids(sizes, work)
        targets = dict(zip(pids, target_values))
        assert lpt_assign(grids, targets) == lpt_assign_scan(grids, targets)

    @pytest.mark.parametrize("sizes, work, targets", [
        # equal targets and equal workloads: ties go to the smallest pid
        ([2] * 9, [1.0] * 9, {p: 6.0 for p in range(3)}),
        # zero workloads never change a deficit
        ([3, 1, 4, 1, 5], [0.0] * 5, {0: 2.0, 1: 2.0}),
        # a single processor takes everything
        ([5, 3, 8], [1.0] * 3, {7: 1.0}),
        # more processors than grids
        ([4, 2], [1.0, 1.0], {p: 1.0 for p in range(8)}),
        # non-contiguous pids, given out of order
        ([6, 2, 2, 3, 1], [1.0] * 5, {90: 4.0, 3: 4.0, 41: 6.0, 12: 4.0}),
        # no grids at all
        ([], [], {0: 1.0, 5: 1.0}),
    ])
    def test_edge_cases(self, sizes, work, targets):
        grids = make_weighted_grids(sizes, work)
        assert lpt_assign(grids, targets) == lpt_assign_scan(grids, targets)


class TestPlanRebalance:
    def test_no_moves_when_balanced(self):
        grids = make_grids([4, 4])
        owner = {0: 0, 1: 1}
        targets = {0: 4.0, 1: 4.0}
        assert plan_rebalance(grids, owner, targets) == []

    def test_fixes_gross_imbalance(self):
        grids = make_grids([4, 4, 4, 4])
        owner = {g.gid: 0 for g in grids}
        targets = {0: 8.0, 1: 8.0}
        moves = plan_rebalance(grids, owner, targets)
        loads = {0: 16.0, 1: 0.0}
        for gid, src, dst in moves:
            w = grids[gid].workload
            loads[src] -= w
            loads[dst] += w
        assert loads[0] == loads[1] == 8.0

    def test_moves_reference_current_owner(self):
        grids = make_grids([4, 4, 4, 4])
        owner = {g.gid: 0 for g in grids}
        targets = {0: 8.0, 1: 8.0}
        for gid, src, dst in plan_rebalance(grids, owner, targets):
            assert src == 0 and dst == 1

    def test_owner_outside_targets_raises(self):
        grids = make_grids([4])
        with pytest.raises(ValueError):
            plan_rebalance(grids, {0: 9}, {0: 4.0, 1: 0.0})

    def test_tolerance_suppresses_tiny_moves(self):
        grids = make_grids([10, 9])
        owner = {0: 0, 1: 1}
        targets = {0: 9.5, 1: 9.5}
        assert plan_rebalance(grids, owner, targets, tolerance=0.2) == []

    def test_respects_max_moves(self):
        grids = make_grids([1] * 20)
        owner = {g.gid: 0 for g in grids}
        targets = {0: 10.0, 1: 10.0}
        moves = plan_rebalance(grids, owner, targets, max_moves=3)
        assert len(moves) == 3

    def test_indivisible_grid_not_shuttled(self):
        """One huge grid on each side: no move can improve -> no moves."""
        grids = make_grids([10, 10])
        owner = {0: 0, 1: 0}
        targets = {0: 10.0, 1: 10.0}
        moves = plan_rebalance(grids, owner, targets, tolerance=0.01)
        # moving one 10-unit grid to pid 1 balances exactly
        loads = {0: 20.0, 1: 0.0}
        for gid, src, dst in moves:
            loads[src] -= grids[gid].workload
            loads[dst] += grids[gid].workload
        assert loads == {0: 10.0, 1: 10.0}

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=40),
        seed=st.integers(min_value=0, max_value=999),
        nprocs=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_never_worse(self, sizes, seed, nprocs):
        """Rebalancing never increases the imbalance ratio."""
        import numpy as np

        rng = np.random.default_rng(seed)
        grids = make_grids(sizes)
        owner = {g.gid: int(rng.integers(nprocs)) for g in grids}
        total = float(sum(sizes))
        targets = {p: total / nprocs for p in range(nprocs)}

        def loads_of(ownmap):
            loads = {p: 0.0 for p in range(nprocs)}
            for g in grids:
                loads[ownmap[g.gid]] += g.workload
            return loads

        before = imbalance_ratio(loads_of(owner))
        own2 = dict(owner)
        for gid, src, dst in plan_rebalance(grids, owner, targets):
            assert own2[gid] == src
            own2[gid] = dst
        after = imbalance_ratio(loads_of(own2))
        assert after <= before + 1e-9

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=8, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_small_grids_balance_tightly(self, sizes):
        """With many small grids, the greedy pass ends near the target."""
        grids = make_grids(sizes)
        owner = {g.gid: 0 for g in grids}
        total = float(sum(sizes))
        targets = {0: total / 2, 1: total / 2}
        own2 = dict(owner)
        for gid, src, dst in plan_rebalance(grids, owner, targets, tolerance=0.01):
            own2[gid] = dst
        loads = {0: 0.0, 1: 0.0}
        for g in grids:
            loads[own2[g.gid]] += g.workload
        # within one largest-grid of perfect balance
        assert abs(loads[0] - loads[1]) <= 2 * max(sizes)
