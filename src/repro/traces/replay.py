"""Trace-driven execution: re-balance a recorded workload without the solver.

:class:`TraceReplayRunner` is an :class:`~repro.runtime.SAMRRunner` whose
workload signal comes from a trace instead of an AMR application: the root
tiling and initial refinement come from the trace header, every regrid
installs the recorded cluster boxes (clipped against the replay's own
level-0 grids), and -- whenever the replayed hierarchy still matches the
recorded one -- ghost/parent-child message volumes come from the recorded
manifests instead of geometry recomputation.  Everything else (the cluster
simulator, the scheme, faults, background traffic) is the real machinery,
so the same trace can be re-balanced under different systems, schemes, γ
values and fault schedules at a ≥10x speedup over the full solve.

Fidelity contract: under the *same* system and scheme the trace was
recorded with, replay reproduces the recorded run's DLB decisions and
``RunResult`` bit-for-bit (pinned by ``tests/test_trace_replay.py``).
Under a different scheme or system the hierarchy may evolve differently
(global redistribution splits level-0 grids), so replay degrades
gracefully: recorded cluster boxes are re-clipped against the actual
grids, and stale manifests fall back to geometric recomputation (counted
in the ``trace.manifest_fallbacks`` metric).  This is the standard
trace-driven approximation of the DLB literature.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..amr.grid import Grid
from ..amr.hierarchy import GridHierarchy
from ..amr.integrator import SubStep
from ..amr.regrid import RegridParams, apply_cluster_boxes
from ..config import SchemeParams, SimParams
from ..core.composed import ComposedScheme
from ..distsys.comm import MessageBatch, MessageKind
from ..distsys.events import EventLog
from ..distsys.system import DistributedSystem
from ..faults.schedule import FaultSchedule
from ..metrics.timing import RunResult
from ..obs import NULL_TRACER, MetricsRegistry, Tracer, get_default_metrics
from ..runtime.runner import SAMRRunner, _paired_batch
from .schema import Trace, TraceReplayError, decode_box, read_trace

__all__ = ["TraceReplayRunner", "replay_trace", "load_trace_source",
           "default_replay_steps"]


class _TraceApp:
    """Application shim during replay: carries the recorded identity
    (name/domain/levels) so ``RunResult`` fields match the recorded run;
    the solver entry points must never be reached."""

    def __init__(self, trace: Trace) -> None:
        self.name = trace.app
        self.domain = trace.domain
        self.refinement_ratio = trace.refinement_ratio
        self.max_levels = trace.max_levels

    def flags(self, level, box, time):  # pragma: no cover - guard
        raise RuntimeError("trace replay must not evaluate application flags")

    def work_per_cell(self, level):  # pragma: no cover - guard
        raise RuntimeError("trace replay takes work-per-cell from the trace")


class TraceReplayRunner(SAMRRunner):
    """Feed a recorded trace through the simulator + any registry scheme.

    Parameters mirror :class:`~repro.runtime.SAMRRunner` minus the
    application (the trace stands in for it); ``strict=True`` additionally
    verifies every recorded per-grid workload vector against the replayed
    hierarchy and raises :class:`TraceReplayError` on the first divergence
    -- the mode the golden equivalence tests run in.
    """

    def __init__(
        self,
        trace: Union[Trace, str, Path],
        system: DistributedSystem,
        scheme: ComposedScheme,
        sim_params: Optional[SimParams] = None,
        scheme_params: Optional[SchemeParams] = None,
        log: Optional[EventLog] = None,
        fault_schedule: Optional[FaultSchedule] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        strict: bool = False,
    ) -> None:
        if not isinstance(trace, Trace):
            trace = read_trace(trace)
        if fault_schedule is not None:
            system = fault_schedule.apply(system)
        self.trace = trace
        self.app = _TraceApp(trace)
        self.system = system
        self.scheme = scheme
        self.fault_schedule = fault_schedule
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.sim_params = sim_params or SimParams()
        self.scheme_params = scheme_params or SchemeParams()
        self.regrid_params = RegridParams(
            min_piece_cells=trace.min_piece_cells)
        self.recorder = None
        self.strict = strict
        self._records = trace.records
        self._cursor = 0
        #: per-level installed message manifests (version-keyed)
        self._manifests: Dict[int, Tuple[int, list, list]] = {}
        #: solves that had to recompute geometry because the replayed
        #: hierarchy diverged from the recorded one (cross-scheme replay)
        self.manifest_fallbacks = 0

        self.hierarchy = GridHierarchy(
            self.app.domain, self.app.refinement_ratio, self.app.max_levels
        )
        self.hierarchy.create_root_grids(
            trace.root_boxes, work_per_cell=trace.root_work_per_cell
        )
        self._finish_setup(log, trace.dt0)

    # -- record stream ----------------------------------------------------- #

    def _next_record(self, op: str) -> dict:
        """Advance to the next non-manifest record, which must be ``op``."""
        while True:
            if self._cursor >= len(self._records):
                raise TraceReplayError(
                    f"trace exhausted while expecting a {op!r} record "
                    f"(the trace holds {self.trace.nsteps} coarse steps)"
                )
            rec = self._records[self._cursor]
            self._cursor += 1
            if rec["op"] == "manifest":
                # unpack once into gid lists + volume arrays so every solve
                # at this hierarchy version batches without re-parsing
                sib = np.asarray(rec["sib"], dtype=np.int64).reshape(-1, 3)
                pc = np.asarray(rec["pc"], dtype=np.int64).reshape(-1, 3)
                self._manifests[rec["l"]] = (
                    rec["v"],
                    (sib[:, 0].tolist(), sib[:, 1].tolist(), sib[:, 2]),
                    (pc[:, 0].tolist(), pc[:, 1].tolist(), pc[:, 2]),
                )
                continue
            break
        if rec["op"] != op:
            raise TraceReplayError(
                f"replay desynchronised at record {self._cursor - 1}: "
                f"expected {op!r}, trace holds {rec['op']!r}"
            )
        return rec

    # -- overridden hooks --------------------------------------------------- #

    def _rebuild_fine_level(self, level: int, time: float) -> List[Grid]:
        rec = self._next_record("regrid")
        if rec["l"] != level or rec["t"] != time:
            raise TraceReplayError(
                f"replay desynchronised: regrid of level {level + 1} at "
                f"t={time} found recorded regrid of level {rec['l'] + 1} "
                f"at t={rec['t']}"
            )
        boxes = [decode_box(b) for b in rec["b"]]
        # clipping disjoint cluster boxes against disjoint parents makes
        # nesting/disjointness hold by construction -> skip validation
        return apply_cluster_boxes(self.hierarchy, level, boxes, rec["wpc"],
                                   min_piece_cells=self.regrid_params.min_piece_cells,
                                   validate=False)

    def solve(self, step: SubStep) -> None:
        rec = self._next_record("solve")
        if rec["l"] != step.level or rec["q"] != step.seq:
            raise TraceReplayError(
                f"replay desynchronised: solve level={step.level} "
                f"seq={step.seq} found recorded solve level={rec['l']} "
                f"seq={rec['q']}"
            )
        if self.strict:
            w = [g.workload for g in self.hierarchy.level_grids(step.level)]
            if w != rec["w"]:
                raise TraceReplayError(
                    f"strict replay divergence at level {step.level} "
                    f"seq {step.seq}: replayed workloads != recorded "
                    f"({len(w)} vs {len(rec['w'])} grids)"
                )
        super().solve(step)

    def local_balance(self, level: int, time: float) -> None:
        rec = self._next_record("local")
        if rec["l"] != level:
            raise TraceReplayError(
                f"replay desynchronised: local balance at level {level} "
                f"found recorded level {rec['l']}"
            )
        super().local_balance(level, time)

    def global_balance(self, time: float) -> None:
        rec = self._next_record("global")
        if rec["s"] != self.integrator.coarse_steps_done:
            raise TraceReplayError(
                f"replay desynchronised: coarse step "
                f"{self.integrator.coarse_steps_done} found recorded "
                f"step {rec['s']}"
            )
        super().global_balance(time)

    # -- manifest fast path -------------------------------------------------- #

    def _ghost_messages(self, level: int) -> MessageBatch:
        manifest = self._manifests.get(level)
        if manifest is None or manifest[0] != self.hierarchy.version:
            if manifest is not None:
                self.manifest_fallbacks += 1
            return super()._ghost_messages(level)
        gids_a, gids_b, area = manifest[1]
        if not gids_a:
            return MessageBatch.empty()
        pa = self.assignment.pids_of(gids_a)
        pb = self.assignment.pids_of(gids_b)
        cross = pa != pb
        if not cross.any():
            return MessageBatch.empty()
        half = area[cross] * self.sim_params.bytes_per_cell / 2.0
        return _paired_batch(pa[cross], pb[cross], half, MessageKind.SIBLING)

    def _parent_child_messages(self, level: int) -> MessageBatch:
        if level == 0:
            return MessageBatch.empty()
        manifest = self._manifests.get(level)
        if manifest is None or manifest[0] != self.hierarchy.version:
            return super()._parent_child_messages(level)
        gids, parent_gids, bcells = manifest[2]
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

    # -- driving ------------------------------------------------------------ #

    def run(self, ncoarse_steps: int) -> RunResult:
        if ncoarse_steps > self.trace.nsteps:
            raise TraceReplayError(
                f"trace holds {self.trace.nsteps} coarse steps; cannot "
                f"replay {ncoarse_steps} (re-record with more steps or "
                f"lower config.steps)"
            )
        result = super().run(ncoarse_steps)
        m = get_default_metrics()
        m.counter("trace.replayed_runs").inc()
        m.counter("trace.replayed_records").inc(self._cursor)
        if self.manifest_fallbacks:
            m.counter("trace.manifest_fallbacks").inc(self.manifest_fallbacks)
        return result


def default_replay_steps(source) -> int:
    """How many coarse steps a replay of ``source`` covers by default.

    Synthetic generators have no inherent length, so they get the
    harness's default of 4; file traces replay in full.  Raises
    :class:`TraceFormatError` for unreadable files -- callers (the
    ``repro replay`` / ``repro submit`` commands) surface it as a usage
    error.
    """
    from .synth import parse_synth_source

    if parse_synth_source(str(source)) is not None:
        return 4
    return max(1, read_trace(source).nsteps)


def load_trace_source(cfg) -> Trace:
    """Resolve an :class:`ExperimentConfig`'s trace source to a
    :class:`Trace`: either a recorded file or a registered ``synth:<name>``
    generator (parameterised by the config's domain/levels/steps and the
    trace params' seed/intensity)."""
    from ..harness.experiment import make_system
    from .schema import TraceFormatError, trace_file_hash
    from .synth import generate_trace, make_synth_workload, parse_synth_source

    tp = cfg.trace
    if tp is None:
        raise ValueError("config has no trace source")
    name = parse_synth_source(tp.source)
    if name is not None:
        workload = make_synth_workload(
            name,
            domain_cells=cfg.domain_cells,
            max_levels=cfg.max_levels,
            seed=tp.seed,
            intensity=tp.intensity,
        )
        return generate_trace(workload, steps=cfg.steps,
                              nprocs=make_system(cfg).nprocs)
    if tp.content_hash:
        actual = trace_file_hash(tp.source)
        if actual != tp.content_hash:
            raise TraceFormatError(
                f"{tp.source}: content changed since the run was keyed "
                f"(expected sha256 {tp.content_hash[:12]}…, found "
                f"{actual[:12]}…)"
            )
    return read_trace(tp.source)


def replay_trace(
    source,
    config=None,
    scheme: str = "distributed",
    *,
    executor=None,
    tracer: Optional[Tracer] = None,
    seed: Optional[int] = None,
    strict: bool = False,
):
    """Re-balance a workload trace under ``config``'s system and ``scheme``.

    ``source`` is a trace file path, a ``"synth:<name>"`` generator spec, or
    an in-memory :class:`Trace`.  ``config`` pins the system/traffic/fault
    side of the run (``None`` uses the defaults with ``steps`` taken from
    the trace); its ``app_name``/``domain_cells``/``max_levels`` fields are
    ignored for file traces -- the trace fixes the workload.  File and synth
    sources go through :func:`~repro.harness.experiment.run_experiment`, so
    ``executor`` (worker pools + the content-addressed cache, keyed by the
    trace file's sha256) works exactly as for solver runs; an in-memory
    ``Trace`` always runs in-process and is never cached.

    Returns the replayed :class:`~repro.metrics.RunResult`.
    """
    from ..harness.experiment import run_experiment

    in_memory = isinstance(source, Trace)
    if config is None:
        from ..harness.experiment import ExperimentConfig

        steps = source.nsteps if in_memory else read_trace(source).nsteps
        config = ExperimentConfig(steps=steps)
    if not in_memory:
        from dataclasses import replace

        from ..config import TraceParams

        cfg = replace(config, trace=TraceParams(source=str(source),
                                                strict=strict))
        return run_experiment(cfg, scheme, executor=executor, tracer=tracer,
                              seed=seed)
    if executor is not None:
        raise ValueError(
            "an in-memory Trace cannot go through an executor; write it "
            "with write_trace() and replay the file instead"
        )
    from ..harness.experiment import (
        _apply_seed,
        make_faults,
        make_scheme,
        make_system,
    )

    cfg = _apply_seed(config, seed)
    metrics = MetricsRegistry() if tracer is not None else None
    start_count = tracer.record_count if tracer is not None else 0
    runner = TraceReplayRunner(
        source,
        make_system(cfg),
        make_scheme(scheme),
        sim_params=cfg.sim_params,
        scheme_params=cfg.effective_scheme_params(),
        fault_schedule=make_faults(cfg),
        tracer=tracer,
        metrics=metrics,
        strict=strict,
    )
    result = runner.run(cfg.steps)
    if tracer is not None:
        result.spans = tracer.records()[start_count:]
    return result
