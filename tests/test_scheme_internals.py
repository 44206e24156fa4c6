"""Depth tests for scheme internals not covered by the behavioural suites."""

from __future__ import annotations

import pytest

from repro.amr.box import Box
from repro.amr.hierarchy import GridHierarchy
from repro.config import SchemeParams
from repro.core import make_scheme
from repro.core.base import BalanceContext, execute_moves
from repro.core.gain import WorkloadHistory
from repro.core.policies import group_imbalance_exists
from repro.distsys import ClusterSimulator, ConstantTraffic, build_system, wan_spec
from repro.distsys.events import LocalBalanceEvent
from repro.partition import GridAssignment
from repro.runtime import root_blocks


def make_ctx(blocks=(8, 1, 1)):
    domain = Box.cube(0, 16, 3)
    h = GridHierarchy(domain, 2, 3)
    h.create_root_grids(root_blocks(domain, blocks))
    system = build_system(wan_spec(2, base_speed=2e4), traffic=ConstantTraffic(0.2))
    return BalanceContext(
        hierarchy=h,
        assignment=GridAssignment(h, system),
        system=system,
        sim=ClusterSimulator(system),
        history=WorkloadHistory(),
    )


class TestExecuteMoves:
    def test_stale_plan_rejected(self):
        ctx = make_ctx()
        make_scheme("parallel").initial_distribution(ctx)
        gid = ctx.hierarchy.level_grids(0)[0].gid
        actual = ctx.assignment.pid_of(gid)
        wrong_src = (actual + 1) % ctx.system.nprocs
        with pytest.raises(ValueError):
            execute_moves(ctx, [(gid, wrong_src, actual)], level=0,
                          purpose="local-balance")

    def test_two_hop_plan_follows_the_grid(self):
        """A plan may move one grid twice (A->B, then B->C): the second hop
        is checked against where the first one left the grid, and both
        hops' messages are charged in execution order."""
        ctx = make_ctx()
        make_scheme("parallel").initial_distribution(ctx)
        grid = ctx.hierarchy.level_grids(0)[0]
        a = ctx.assignment.pid_of(grid.gid)
        b, c = (a + 1) % ctx.system.nprocs, (a + 2) % ctx.system.nprocs
        sent = []
        run_comm = ctx.sim.run_comm

        def recording(messages, **kwargs):
            sent.extend(zip(messages.src.tolist(), messages.dst.tolist()))
            return run_comm(messages, **kwargs)

        ctx.sim.run_comm = recording
        n, cells = execute_moves(ctx, [(grid.gid, a, b), (grid.gid, b, c)],
                                 level=0, purpose="local-balance")
        assert (n, cells) == (2, 2 * grid.ncells)
        assert sent == [(a, b), (b, c)]
        assert ctx.assignment.pid_of(grid.gid) == c

    def test_second_hop_from_the_old_owner_is_stale(self):
        ctx = make_ctx()
        make_scheme("parallel").initial_distribution(ctx)
        gid = ctx.hierarchy.level_grids(0)[0].gid
        a = ctx.assignment.pid_of(gid)
        b, c = (a + 1) % ctx.system.nprocs, (a + 2) % ctx.system.nprocs
        with pytest.raises(ValueError, match="stale"):
            execute_moves(ctx, [(gid, a, b), (gid, a, c)], level=0,
                          purpose="local-balance")
        assert ctx.assignment.pid_of(gid) == a  # nothing applied

    def test_empty_moves_log_event_without_cost(self):
        ctx = make_ctx()
        make_scheme("parallel").initial_distribution(ctx)
        clock = ctx.sim.clock
        execute_moves(ctx, [], level=1, purpose="local-balance")
        assert ctx.sim.clock == clock
        ev = ctx.sim.log.of_type(LocalBalanceEvent)
        assert len(ev) == 1 and ev[0].moved_grids == 0

    def test_moves_charge_migration_and_update_owner(self):
        ctx = make_ctx()
        make_scheme("parallel").initial_distribution(ctx)
        grid = ctx.hierarchy.level_grids(0)[0]
        src = ctx.assignment.pid_of(grid.gid)
        dst = (src + 2) % ctx.system.nprocs  # other group for nonzero cost
        n, cells = execute_moves(ctx, [(grid.gid, src, dst)], level=0,
                                 purpose="local-balance")
        assert (n, cells) == (1, grid.ncells)
        assert ctx.assignment.pid_of(grid.gid) == dst
        assert ctx.sim.balance_overhead > 0


class TestImbalanceDetection:
    def setup_ctx(self, loads, threshold=1.05, walltime=10.0):
        ctx = make_ctx()
        ctx.scheme_params = SchemeParams(imbalance_threshold=threshold)
        make_scheme("distributed").initial_distribution(ctx)
        ctx.history.record_solve(0, loads)
        ctx.history.end_coarse_step(walltime)
        return ctx

    def test_no_history_no_imbalance(self):
        assert not group_imbalance_exists(make_ctx())

    def test_balanced_below_threshold(self):
        ctx = self.setup_ctx({0: 10.0, 1: 10.0, 2: 10.2, 3: 10.0})
        assert not group_imbalance_exists(ctx)

    def test_imbalanced_above_threshold(self):
        ctx = self.setup_ctx({0: 20.0, 1: 0.0, 2: 10.0, 3: 0.0})
        assert group_imbalance_exists(ctx)

    def test_one_group_idle_counts_as_imbalance(self):
        ctx = self.setup_ctx({0: 20.0, 1: 0.0, 2: 0.0, 3: 0.0})
        assert group_imbalance_exists(ctx)

    def test_all_idle_is_balanced(self):
        ctx = self.setup_ctx({0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0})
        assert not group_imbalance_exists(ctx)


class TestParallelPlacementCost:
    def test_remote_placement_charges_interpolation_transfer(self):
        """When the baseline places a child away from its parent, the
        interpolated initial data crosses the network once."""
        ctx = make_ctx()
        scheme = make_scheme("parallel")
        scheme.initial_distribution(ctx)
        # force every processor except a remote one to look "loaded"
        parent = ctx.hierarchy.level_grids(0)[0]
        parent_pid = ctx.assignment.pid_of(parent.gid)
        child = ctx.hierarchy.add_grid(1, parent.box.refine(2), parent.gid)
        clock = ctx.sim.clock
        scheme.place_new_grids(ctx, [child.gid])
        placed = ctx.assignment.pid_of(child.gid)
        if placed != parent_pid:
            assert ctx.sim.clock > clock  # transfer was charged
