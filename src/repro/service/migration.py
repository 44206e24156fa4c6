"""The balance-point bridge: DLB schemes as shard migration policies.

At every balance interval the serving loop hands this engine the observed
per-shard request work.  The engine translates it into exactly the inputs
a DLB scheme consumes during an AMR run -- per-grid workloads, a
:class:`~repro.core.gain.WorkloadHistory` coarse step, the simulator clock
-- then invokes the scheme's own ``global_balance`` / ``local_balance``
hooks *unchanged*.  The paper's Gain > gamma*Cost gate, the
capacity-proportional partition, the SFC curves, the diffusion sweeps: all
of them run against shards precisely as they run against grids, because
shards *are* grids (:mod:`repro.service.shards`).

What comes back out is a :class:`MigrationOutcome`: which shards moved
where, how many bytes of state crossed which topology routes (priced by
the simulator's own communication machinery, migration messages over
``route_between``), and how long the transfer took -- the *in-flight
window* during which the serving loop degrades the moved shards' requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..core.base import BalanceContext
from ..core.composed import ComposedScheme
from ..core.gain import WorkloadHistory
from ..distsys.events import RedistributionEvent
from ..distsys.simulator import ClusterSimulator
from .shards import ShardMap

__all__ = ["MigrationEngine", "MigrationOutcome"]


@dataclass
class MigrationOutcome:
    """What one balance point did, as the serving loop sees it.

    ``moves`` maps moved gid -> (src_pid, dst_pid); ``duration`` is the
    simulated seconds the redistribution took (comm + repartition
    overhead), i.e. the length of the in-flight stall window starting at
    the balance time.
    """

    time: float
    moves: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    bytes_moved: float = 0.0
    duration: float = 0.0

    @property
    def migrations(self) -> int:
        return len(self.moves)


class MigrationEngine:
    """Feed observed shard load to a scheme and execute its plan.

    Owns the :class:`BalanceContext` (hierarchy + assignment + system +
    simulator + history) for the whole run; the serving loop calls
    :meth:`initial_placement` once and :meth:`balance` at each balance
    point.
    """

    def __init__(self, shard_map: ShardMap, sim: ClusterSimulator,
                 scheme: ComposedScheme, sim_params, scheme_params,
                 tracer=None) -> None:
        self.shard_map = shard_map
        self.sim = sim
        self.scheme = scheme
        self.history = WorkloadHistory()
        ctx_kwargs = dict(
            hierarchy=shard_map.hierarchy,
            assignment=shard_map.assignment,
            system=shard_map.system,
            sim=sim,
            sim_params=sim_params,
            scheme_params=scheme_params,
            history=self.history,
        )
        if tracer is not None:
            ctx_kwargs["tracer"] = tracer
        self.ctx = BalanceContext(**ctx_kwargs)
        self.balance_invocations = 0

    # ------------------------------------------------------------------ #

    def initial_placement(self) -> None:
        """Let the scheme's global policy distribute the shards at t=0.

        Identical to the AMR run's start-of-run placement: no communication
        is charged (shard state is *loaded* in place, not moved).
        """
        self.scheme.initial_distribution(self.ctx)

    def balance(self, time: float, work_by_shard: np.ndarray,
                per_pid_work: Dict[int, float],
                interval: float) -> MigrationOutcome:
        """Run one balance point at simulated ``time``.

        ``work_by_shard`` (shard order) becomes the grids' workloads;
        ``per_pid_work`` and ``interval`` (the measured serving work and
        wall-clock of the elapsed balance interval) become the coarse-step
        record the gain model predicts from -- the paper's "predict the
        coming step from the previous one", with a serving interval playing
        the coarse step.
        """
        self.balance_invocations += 1
        self.shard_map.update_loads(work_by_shard)
        self.history.record_solve(0, per_pid_work)
        self.history.end_coarse_step(max(float(interval), 1e-12))

        before = self.shard_map.placement()
        self.sim.clock = float(time)

        # the scheme's own decision layers, untouched: the gate decides
        # whether moving shards is worth it, the partition decides where
        self.scheme.global_balance(self.ctx, time)
        self.scheme.local_balance(self.ctx, 0, self.sim.clock)

        duration = max(0.0, self.sim.clock - float(time))
        after = self.shard_map.placement()
        moves = {
            gid: (before[gid], pid)
            for gid, pid in after.items()
            if gid in before and before[gid] != pid
        }
        # state shipped: every moved shard's full state crosses a link --
        # intra-group moves included (the simulator accounts those as local
        # bytes, so the remote-bytes accumulator alone would undercount)
        bytes_moved = sum(
            self.shard_map.hierarchy.grid(gid).migration_cells()
            for gid in moves
        ) * self.ctx.sim_params.bytes_per_cell
        # splits create fresh gids the diff cannot pair with a source; their
        # transfer is still priced into `duration` by the scheme's own comm
        return MigrationOutcome(
            time=float(time),
            moves=moves,
            bytes_moved=float(bytes_moved),
            duration=duration,
        )

    # ------------------------------------------------------------------ #

    @property
    def redistributions(self) -> int:
        return len(self.sim.log.of_type(RedistributionEvent))

    @property
    def decisions(self) -> List:
        return list(getattr(self.scheme, "decisions", []))
