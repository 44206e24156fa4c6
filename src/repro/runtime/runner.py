"""The SAMR runtime: wires the AMR kernel, the cluster simulator and a DLB
scheme into one executable run.

:class:`SAMRRunner` implements the integrator hooks: each solver sub-step
turns into a bulk-synchronous compute phase (per-processor loads from the
assignment) followed by a ghost/parent-child communication phase; regrids
rebuild the finer level and hand the new grids to the scheme; the balancing
hooks delegate to the scheme (Fig. 4's control flow).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..amr.box import Box
from ..amr.hierarchy import GridHierarchy
from ..amr.integrator import IntegratorHooks, SAMRIntegrator, SubStep
from ..amr.grid import Grid
from ..amr.regrid import RegridParams, apply_cluster_boxes, plan_regrid
from ..config import SchemeParams, SimParams
from ..core.base import BalanceContext
from ..core.composed import ComposedScheme
from ..core.gain import WorkloadHistory
from ..distsys.comm import MessageBatch, MessageKind
from ..distsys.events import (
    EventLog,
    FaultEvent,
    GlobalDecisionEvent,
    RedistributionEvent,
    RegridEvent,
)
from ..distsys.simulator import ClusterSimulator
from ..distsys.system import DistributedSystem
from ..faults.schedule import FaultSchedule
from ..metrics.timing import RunResult
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from ..partition.mapping import GridAssignment

__all__ = ["SAMRRunner", "root_blocks", "default_blocks_per_axis"]


def default_blocks_per_axis(domain: Box, nprocs: int, min_per_proc: int = 4) -> Tuple[int, ...]:
    """Choose a root-block tiling giving every processor several blocks.

    Balancing granularity comes from having more level-0 grids than
    processors; we aim for at least ``min_per_proc`` blocks per processor,
    axis counts as equal as possible, and block edges that divide the
    domain exactly.
    """
    ndim = domain.ndim
    shape = domain.shape
    counts = [1] * ndim
    # greedily double the axis with the largest current block edge while
    # the total count is short of the goal and the axis still divides
    goal = max(1, min_per_proc * nprocs)
    while _prod(counts) < goal:
        # candidate axes where doubling still divides the domain evenly
        cands = [
            d for d in range(ndim)
            if shape[d] % (counts[d] * 2) == 0 and shape[d] // (counts[d] * 2) >= 2
        ]
        if not cands:
            break
        d = max(cands, key=lambda d: shape[d] / counts[d])
        counts[d] *= 2
    return tuple(counts)


def _prod(xs: Sequence[int]) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def _paired_batch(
    src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray, kind: MessageKind
) -> MessageBatch:
    """Two-way exchange batch: ``(src->dst, dst->src)`` per pair, interleaved
    pair by pair (message order feeds order-sensitive bundling in the cost
    model)."""
    k = src.shape[0]
    s = np.empty(2 * k, dtype=np.int64)
    d = np.empty(2 * k, dtype=np.int64)
    b = np.empty(2 * k, dtype=np.float64)
    s[0::2] = src
    s[1::2] = dst
    d[0::2] = dst
    d[1::2] = src
    b[0::2] = nbytes
    b[1::2] = nbytes
    return MessageBatch.of_kind(s, d, b, kind)


def root_blocks(domain: Box, blocks_per_axis: Sequence[int]) -> List[Box]:
    """Tile ``domain`` into a regular lattice of blocks.

    Every axis count must divide the domain size on that axis exactly.
    Blocks are ordered lexicographically by their lattice position, so the
    list is contiguous along axis 0 first -- the layout the distributed
    scheme's contiguous group split relies on.
    """
    ndim = domain.ndim
    counts = tuple(int(c) for c in blocks_per_axis)
    if len(counts) != ndim:
        raise ValueError(f"blocks_per_axis must have {ndim} entries, got {counts}")
    shape = domain.shape
    for d in range(ndim):
        if counts[d] < 1 or shape[d] % counts[d] != 0:
            raise ValueError(
                f"axis {d}: {counts[d]} blocks do not divide {shape[d]} cells"
            )
    sizes = [shape[d] // counts[d] for d in range(ndim)]
    blocks = []
    for idx in itertools.product(*(range(c) for c in counts)):
        lo = tuple(domain.lo[d] + idx[d] * sizes[d] for d in range(ndim))
        hi = tuple(domain.lo[d] + (idx[d] + 1) * sizes[d] for d in range(ndim))
        blocks.append(Box(lo, hi))
    return blocks


class SAMRRunner(IntegratorHooks):
    """One simulated SAMR execution: application x system x scheme.

    Parameters
    ----------
    app:
        The :class:`~repro.amr.applications.base.AMRApplication` driving
        refinement.
    system:
        The simulated machine federation.
    scheme:
        The DLB policy under test.
    blocks_per_axis:
        Root-grid tiling (default: enough blocks for ~4 per processor).
    dt0:
        Level-0 time step.
    sim_params / scheme_params / regrid_params:
        Knobs; see the respective dataclasses.
    fault_schedule:
        Optional :class:`~repro.faults.FaultSchedule`.  When given, it is
        applied to ``system`` before anything else (installing external CPU
        load models and link overlays) and handed to the simulator so fault
        window boundaries show up in the event log as
        :class:`~repro.distsys.events.FaultEvent` records.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  The runner binds it to the
        simulator clock and opens spans around every integrator hook
        (``solve``, ``regrid``, ``local_balance``, ``global_balance``) on
        top of the simulator's phase spans; the ``global_balance`` span
        carries the decision's ``gain`` / ``cost`` / ``redistributed``
        attributes.  ``None`` (the default) is the zero-cost disabled path
        -- results are bit-identical to an un-instrumented run.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.  When given, the
        runner records ``dlb.*`` and ``comm.*`` series during the run and
        attaches :meth:`~repro.obs.MetricsRegistry.snapshot` to the
        :class:`RunResult`.
    recorder:
        Optional workload-trace recorder (duck-typed; see
        :class:`repro.traces.TraceRecorder`).  A pure observer: it is told
        about every solve/regrid/balance hook and regrid outcome but never
        influences the run, so a recorded run is bit-identical to a plain
        one.
    """

    def __init__(
        self,
        app,
        system: DistributedSystem,
        scheme: ComposedScheme,
        blocks_per_axis: Optional[Sequence[int]] = None,
        dt0: float = 1.0,
        sim_params: Optional[SimParams] = None,
        scheme_params: Optional[SchemeParams] = None,
        regrid_params: Optional[RegridParams] = None,
        log: Optional[EventLog] = None,
        fault_schedule: Optional[FaultSchedule] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        recorder=None,
    ) -> None:
        if fault_schedule is not None:
            system = fault_schedule.apply(system)
        self.app = app
        self.system = system
        self.scheme = scheme
        self.fault_schedule = fault_schedule
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.sim_params = sim_params or SimParams()
        self.scheme_params = scheme_params or SchemeParams()
        self.regrid_params = regrid_params or RegridParams()
        self.recorder = recorder

        self.hierarchy = GridHierarchy(
            app.domain, app.refinement_ratio, app.max_levels
        )
        if blocks_per_axis is None:
            blocks_per_axis = default_blocks_per_axis(app.domain, system.nprocs)
        self.hierarchy.create_root_grids(
            root_blocks(app.domain, blocks_per_axis),
            work_per_cell=app.work_per_cell(0),
        )
        if self.recorder is not None:
            self.recorder.attach(self)
        self._finish_setup(log, dt0)

    def _finish_setup(self, log: Optional[EventLog], dt0: float) -> None:
        """Wire the simulator, assignment and integrator around the root
        grids.  Shared with :class:`~repro.traces.TraceReplayRunner`, which
        builds its hierarchy from a trace header instead of an application
        but is otherwise the same machine."""
        self.sim = ClusterSimulator(self.system, log, fault_schedule=self.fault_schedule,
                                    tracer=self.tracer)
        self.tracer.bind_clock(lambda: self.sim.clock)
        self.assignment = GridAssignment(self.hierarchy, self.system)
        self.history = WorkloadHistory()
        self.ctx = BalanceContext(
            hierarchy=self.hierarchy,
            assignment=self.assignment,
            system=self.system,
            sim=self.sim,
            sim_params=self.sim_params,
            scheme_params=self.scheme_params,
            history=self.history,
            tracer=self.tracer,
        )
        # Initial adaptation: refine the t=0 initial conditions before
        # distributing, as production SAMR codes do -- both schemes then
        # start from the same balanced state and the measured difference is
        # the *dynamic* behaviour, which is what the paper compares.
        for level in range(self.hierarchy.max_levels - 1):
            self._rebuild_fine_level(level, 0.0)
        self.scheme.initial_distribution(self.ctx)
        self.assignment.validate()
        self.integrator = SAMRIntegrator(self.hierarchy, self, dt0=dt0)
        self._step_start_clock = 0.0
        #: per-level sibling-adjacency cache keyed by the level's
        #: ``hierarchy.level_versions`` entry at which it was computed (a
        #: finer regrid leaves the coarser levels' adjacency valid)
        self._sibling_cache: Dict[int, Tuple[int, List[Tuple[int, int, int]]]] = {}
        #: per-level message-geometry caches (gid lists + volume arrays),
        #: also keyed by the level's version
        self._ghost_cache: Dict[int, Tuple[int, Tuple[list, list, np.ndarray]]] = {}
        self._pc_cache: Dict[int, Tuple[int, Tuple[list, list, np.ndarray]]] = {}

    def _rebuild_fine_level(self, level: int, time: float) -> List[Grid]:
        """Rebuild level ``level + 1``: plan from application flags, then
        install.  :class:`~repro.traces.TraceReplayRunner` overrides this to
        take the cluster boxes from the trace instead of the solver."""
        boxes = plan_regrid(self.hierarchy, self.app, level, time,
                            self.regrid_params)
        wpc = self.app.work_per_cell(level + 1)
        if self.recorder is not None:
            self.recorder.on_regrid(level, time, boxes, wpc)
        return apply_cluster_boxes(self.hierarchy, level, boxes, wpc,
                                   min_piece_cells=self.regrid_params.min_piece_cells)

    # ------------------------------------------------------------------ #
    # IntegratorHooks
    # ------------------------------------------------------------------ #

    def solve(self, step: SubStep) -> None:
        level = step.level
        if self.recorder is not None:
            self.recorder.on_solve(step)
        with self.tracer.span("solve", level=level, seq=step.seq):
            loads = self.assignment.level_loads(level)
            self.sim.run_compute(loads, level=level, seq=step.seq)
            self.history.record_solve(level, loads)
            batch = MessageBatch.concatenate(
                [self._ghost_messages(level), self._parent_child_messages(level)]
            )
            if len(batch):
                self.sim.run_comm(batch, level=level, purpose="ghost")
            if self.metrics is not None:
                self.metrics.counter("dlb.solver.level_updates").inc()
                self.metrics.counter("dlb.solver.messages").inc(len(batch))
                self.metrics.counter("comm.batch_bytes").inc(batch.total_bytes())

    def regrid(self, level: int, time: float) -> None:
        with self.tracer.span("regrid", level=level) as span:
            created = self._rebuild_fine_level(level, time)
            self.assignment.prune()
            if created:
                self.sim.charge_overhead(
                    self.sim_params.regrid_seconds_per_grid * len(created),
                    as_balance=False,
                )
                self.scheme.place_new_grids(self.ctx, [g.gid for g in created])
            self.sim.log.record(
                RegridEvent(
                    time=self.sim.clock,
                    fine_level=level + 1,
                    ngrids=len(created),
                    ncells=sum(g.ncells for g in created),
                )
            )
            span.set_attribute("created_grids", len(created))

    def local_balance(self, level: int, time: float) -> None:
        if self.recorder is not None:
            self.recorder.on_local(level, time)
        with self.tracer.span("local_balance", level=level):
            self.scheme.local_balance(self.ctx, level, time)

    def global_balance(self, time: float) -> None:
        if self.recorder is not None:
            self.recorder.on_global(time)
        if self.integrator.coarse_steps_done > 0:
            self.history.end_coarse_step(self.sim.clock - self._step_start_clock)
        self._step_start_clock = self.sim.clock
        observing = self.tracer.enabled or self.metrics is not None
        before = len(self.sim.log) if observing else 0
        with self.tracer.span(
            "global_balance", step=self.integrator.coarse_steps_done
        ) as span:
            self.scheme.global_balance(self.ctx, time)
            if observing:
                self._observe_decision(span, before)

    def _observe_decision(self, span, log_index: int) -> None:
        """Attach the scheme's balancing outcome to the open span/metrics.

        Scans events the scheme just recorded: the ``GlobalDecisionEvent``
        (if the scheme evaluated the gate) yields the span's ``gain`` /
        ``cost`` / ``invoked`` attributes and the ``dlb.gain`` /
        ``dlb.cost`` observations; redistribution events yield the
        ``redistributed`` grid count and the ``dlb.redistributions``
        counters.
        """
        new_events = list(self.sim.log)[log_index:]
        decision = None
        redistributed = 0
        moved_cells = 0
        for e in new_events:
            if type(e) is GlobalDecisionEvent:
                decision = e
            elif type(e) is RedistributionEvent:
                redistributed += e.moved_grids
                moved_cells += e.moved_cells
        if decision is not None:
            span.set_attributes(gain=decision.gain, cost=decision.cost,
                                invoked=decision.invoked,
                                redistributed=redistributed)
            if self.metrics is not None:
                self.metrics.counter("dlb.decisions").inc()
                self.metrics.histogram("dlb.gain").observe(decision.gain)
                self.metrics.histogram("dlb.cost").observe(decision.cost)
                if decision.invoked:
                    self.metrics.counter("dlb.invocations").inc()
        if redistributed and self.metrics is not None:
            self.metrics.counter("dlb.redistributions").inc()
            self.metrics.counter("dlb.moved_grids").inc(redistributed)
            self.metrics.counter("dlb.moved_cells").inc(moved_cells)

    # ------------------------------------------------------------------ #
    # message generation
    # ------------------------------------------------------------------ #

    def _sibling_pairs(self, level: int) -> List[Tuple[int, int, int]]:
        """Sibling adjacency at ``level``, cached on the level's version."""
        version = self.hierarchy.level_versions[level]
        cached = self._sibling_cache.get(level)
        if cached is not None and cached[0] == version:
            return cached[1]
        pairs = self.hierarchy.sibling_pairs(level, self.sim_params.ghost_width)
        self._sibling_cache[level] = (version, pairs)
        return pairs

    def _ghost_arrays(self, level: int) -> Tuple[list, list, np.ndarray]:
        """Sibling-pair geometry at ``level`` as (gids_a, gids_b, areas),
        cached on the level's version like :meth:`_sibling_pairs`."""
        version = self.hierarchy.level_versions[level]
        cached = self._ghost_cache.get(level)
        if cached is not None and cached[0] == version:
            return cached[1]
        pairs = self._sibling_pairs(level)
        if pairs:
            arr = np.asarray(pairs, dtype=np.int64)
            arrays = (arr[:, 0].tolist(), arr[:, 1].tolist(), arr[:, 2])
        else:
            arrays = ([], [], np.empty(0, dtype=np.int64))
        self._ghost_cache[level] = (version, arrays)
        return arrays

    def _ghost_messages(self, level: int) -> MessageBatch:
        """Sibling ghost-zone exchange for one solve at ``level``."""
        gids_a, gids_b, area = self._ghost_arrays(level)
        if not gids_a:
            return MessageBatch.empty()
        pa = self.assignment.pids_of(gids_a)
        pb = self.assignment.pids_of(gids_b)
        cross = pa != pb  # co-located pairs exchange in memory: no messages
        if not cross.any():
            return MessageBatch.empty()
        # `area` is the two-way exchange volume; split across directions
        half = area[cross] * self.sim_params.bytes_per_cell / 2.0
        return _paired_batch(pa[cross], pb[cross], half, MessageKind.SIBLING)

    def _pc_arrays(self, level: int) -> Tuple[list, list, np.ndarray]:
        """Parent/child geometry at ``level``: (gids, parent_gids,
        boundary-cell counts), cached on the level's version (a grid's
        parent never changes while the grid lives)."""
        version = self.hierarchy.level_versions[level]
        cached = self._pc_cache.get(level)
        if cached is not None and cached[0] == version:
            return cached[1]
        grids = self.hierarchy.level_grids(level)
        arrays = (
            [g.gid for g in grids],
            [g.parent_gid for g in grids],
            np.fromiter((g.boundary_cells() for g in grids),
                        dtype=np.int64, count=len(grids)),
        )
        self._pc_cache[level] = (version, arrays)
        return arrays

    def _parent_child_messages(self, level: int) -> MessageBatch:
        """Boundary prolongation + restriction between ``level`` and its
        parent level, for one solve at ``level``."""
        if level == 0:
            return MessageBatch.empty()
        gids, parent_gids, bcells = self._pc_arrays(level)
        if not gids:
            return MessageBatch.empty()
        child = self.assignment.pids_of(gids)
        parent = self.assignment.pids_of(parent_gids)
        cross = child != parent
        if not cross.any():
            return MessageBatch.empty()
        bpc = self.sim_params.bytes_per_cell * self.sim_params.parent_child_factor
        nbytes = bcells[cross] * bpc
        return _paired_batch(parent[cross], child[cross], nbytes,
                             MessageKind.PARENT_CHILD)

    # ------------------------------------------------------------------ #
    # driving
    # ------------------------------------------------------------------ #

    def run(self, ncoarse_steps: int) -> RunResult:
        """Advance ``ncoarse_steps`` level-0 steps and summarise."""
        if ncoarse_steps < 1:
            raise ValueError(f"ncoarse_steps must be >= 1, got {ncoarse_steps}")
        with self.tracer.span("run", scheme=self.scheme.name, app=self.app.name,
                              steps=ncoarse_steps):
            self.integrator.run(ncoarse_steps)
            # close the last coarse step's history record
            self.history.end_coarse_step(self.sim.clock - self._step_start_clock)
            self._step_start_clock = self.sim.clock
        return self.result()

    def result(self) -> RunResult:
        """Snapshot of the run so far as a :class:`RunResult`."""
        if self.metrics is not None:
            self.metrics.gauge("run.total_time").set(self.sim.clock)
            self.metrics.gauge("compute.time").set(self.sim.compute_time)
            self.metrics.gauge("comm.time").set(self.sim.comm_time)
            self.metrics.gauge("balance.overhead").set(self.sim.balance_overhead)
            self.metrics.gauge("probe.time").set(self.sim.probe_time)
            for kind, nbytes in sorted(self.sim.remote_bytes_by_kind.items()):
                remote = self.metrics.counter("comm.remote_bytes", kind=kind)
                remote.inc(max(0.0, nbytes - remote.value))
        return RunResult(
            scheme=self.scheme.name,
            app=self.app.name,
            system="+".join(str(g.nprocs) for g in self.system.groups) + "procs",
            nsteps=self.integrator.coarse_steps_done,
            total_time=self.sim.clock,
            compute_time=self.sim.compute_time,
            comm_time=self.sim.comm_time,
            balance_overhead=self.sim.balance_overhead,
            probe_time=self.sim.probe_time,
            local_comm_busy=self.sim.local_comm_busy,
            remote_comm_busy=self.sim.remote_comm_busy,
            comm_by_purpose=dict(self.sim.comm_time_by_purpose),
            remote_bytes_by_kind=dict(self.sim.remote_bytes_by_kind),
            final_grids=self.hierarchy.ngrids,
            final_cells=self.hierarchy.total_cells(),
            redistributions=len(self.sim.log.of_type(RedistributionEvent)),
            decisions=len(getattr(self.scheme, "decisions", [])),
            faults=len(self.sim.log.of_type(FaultEvent)),
            events=self.sim.log,
            metrics=self.metrics.snapshot() if self.metrics is not None else None,
        )
