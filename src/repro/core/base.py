"""Scheme interface and the shared migration machinery.

A DLB scheme is a policy object the runtime consults at fixed points of the
SAMR integration (Fig. 5): initial distribution, placement of freshly
regridded grids, the per-level local balancing opportunity, and the
per-coarse-step global balancing opportunity.  Policies *plan* moves; the
shared :func:`execute_moves` applies them -- migrating a grid sends its data
over whatever link separates the two owners and updates the assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..amr.hierarchy import GridHierarchy
from ..config import SchemeParams, SimParams
from ..distsys.comm import Message, MessageKind
from ..distsys.events import LocalBalanceEvent
from ..distsys.simulator import ClusterSimulator
from ..distsys.system import DistributedSystem
from ..obs import NULL_TRACER, Tracer
from ..partition.mapping import GridAssignment
from .gain import WorkloadHistory

__all__ = ["BalanceContext", "Move", "DLBScheme", "execute_moves"]

#: a planned grid migration: (gid, src_pid, dst_pid)
Move = Tuple[int, int, int]


@dataclass
class BalanceContext:
    """Everything a scheme needs to observe and act on the run."""

    hierarchy: GridHierarchy
    assignment: GridAssignment
    system: DistributedSystem
    sim: ClusterSimulator
    sim_params: SimParams = field(default_factory=SimParams)
    scheme_params: SchemeParams = field(default_factory=SchemeParams)
    history: WorkloadHistory = field(default_factory=WorkloadHistory)
    #: span sink for scheme-side instrumentation; disabled no-op by default
    tracer: Tracer = field(default=NULL_TRACER)


def execute_moves(
    ctx: BalanceContext,
    moves: Sequence[Move],
    level: int,
    purpose: str,
) -> Tuple[int, int]:
    """Migrate the planned grids and charge the communication.

    Returns ``(moved_grids, moved_cells)``.  No-op (and no cost) for an
    empty plan.  The event log receives a :class:`LocalBalanceEvent` for
    local purposes; global redistribution logs its own richer event.
    """
    if not moves:
        if purpose != "global-redistribution":
            # The balancing *process* ran even when it found nothing to move
            # -- Fig. 5 marks every invocation, and tests assert on them.
            ctx.sim.log.record(
                LocalBalanceEvent(
                    time=ctx.sim.clock, level=level,
                    moved_grids=0, moved_cells=0, elapsed=0.0,
                )
            )
        return 0, 0
    messages: List[Message] = []
    cells = 0
    # Owners as the plan has moved them so far: a plan may move one grid
    # twice (A->B, then B->C), and its second hop starts where the first
    # one ended, not where the grid sat before the plan.
    owner: Dict[int, int] = {}
    for gid, src, dst in moves:
        if owner.get(gid, ctx.assignment.pid_of(gid)) != src:
            raise ValueError(f"move plan stale: grid {gid} is not on {src}")
        owner[gid] = dst
        grid = ctx.hierarchy.grid(gid)
        cells += grid.migration_cells()
        messages.append(
            Message(src, dst, grid.migration_cells() * ctx.sim_params.bytes_per_cell,
                    MessageKind.MIGRATION)
        )
    result = ctx.sim.run_comm(
        messages, level=level, purpose=purpose, count_as_balance=True
    )
    for gid, _src, dst in moves:
        ctx.assignment.assign(gid, dst)
    if purpose != "global-redistribution":
        ctx.sim.log.record(
            LocalBalanceEvent(
                time=ctx.sim.clock,
                level=level,
                moved_grids=len(moves),
                moved_cells=cells,
                elapsed=result.elapsed,
            )
        )
    return len(moves), cells


class DLBScheme:
    """Policy interface; concrete schemes override the four hooks.

    All hooks may mutate the assignment (via planned moves) and charge time
    on the simulator; they must leave every hierarchy grid assigned.
    """

    #: scheme label used in reports ("parallel DLB" / "distributed DLB")
    name: str = "abstract"

    def initial_distribution(self, ctx: BalanceContext) -> None:
        """Distribute the freshly created level-0 grids (no comm charged --
        initial data is loaded in place, as in the paper's runs)."""
        raise NotImplementedError

    def place_new_grids(self, ctx: BalanceContext, new_gids: Sequence[int]) -> None:
        """Give first owners to grids just created by a regrid.

        Placement is bookkeeping, not migration: a new grid's data is
        *produced* by interpolation from its parent, so the only traffic it
        can cause is the parent-child exchange the solver already accounts
        -- unless the scheme places it away from the parent, in which case
        the interpolated data crosses the network once (charged here).
        """
        raise NotImplementedError

    def local_balance(self, ctx: BalanceContext, level: int, time: float) -> None:
        """Per-level balancing opportunity (Fig. 5 'local' marks)."""
        raise NotImplementedError

    def global_balance(self, ctx: BalanceContext, time: float) -> None:
        """Per-coarse-step balancing opportunity (Fig. 5 'global' marks)."""
        raise NotImplementedError
