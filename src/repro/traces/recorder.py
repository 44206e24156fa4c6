"""Recording the workload signal of a live SAMR run.

:class:`TraceRecorder` is a pure observer the runner notifies from its
integrator hooks (``SAMRRunner(recorder=...)``): it copies out per-substep
per-grid workloads, regrid cluster boxes and ghost/parent-child message
manifests, and never feeds anything back -- a recorded run is bit-identical
to an unrecorded one.

Design note: regrids are recorded as *cluster boxes* in coarse coordinates
(the pre-clipping output of Berger--Rigoutsos), not as the realized fine
grids.  The realized grids depend on how the scheme has split the level-0
grids; the cluster boxes depend only on the application's flags.  Replay
re-clips them against its own level-0 grids, which makes the same trace
(a) bit-for-bit exact under the recorded system+scheme and (b) a faithful
workload signal under any other scheme/system/γ/fault schedule.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from ..amr.box import Box
from ..amr.integrator import SubStep
from ..obs import get_default_metrics
from .schema import Trace, build_header, encode_box, write_trace

__all__ = ["TraceRecorder", "record_run"]


class TraceRecorder:
    """Observes one :class:`~repro.runtime.SAMRRunner` run into a trace.

    Parameters
    ----------
    scheme_name:
        Registry name of the scheme driving the recorded run (the trace
        header's ``scheme``).
    config:
        Optional :class:`~repro.harness.experiment.ExperimentConfig` the
        run was built from; its canonical serialization and hash land in
        the trace header for provenance.
    manifests:
        Record ghost/parent-child message manifests (default).  They are
        what lets same-scheme replay skip sibling-adjacency geometry -- the
        dominant cost after the solver -- so leave them on unless trace
        size matters more than replay speed.
    """

    def __init__(self, scheme_name: str, config=None,
                 manifests: bool = True) -> None:
        self.config = config
        self.scheme_name = scheme_name
        self.manifests = manifests
        self.records: List[Dict[str, Any]] = []
        self.runner = None
        self._root_boxes: List[Box] = []
        self._root_wpc = 1.0
        self._nglobals = 0
        #: per-level hierarchy version of the last emitted manifest
        self._manifest_version: Dict[int, int] = {}

    # -- runner hooks (called by SAMRRunner) -------------------------------

    def attach(self, runner) -> None:
        """Called once by the runner, right after the root grids exist."""
        self.runner = runner
        roots = runner.hierarchy.level_grids(0)
        self._root_boxes = [g.box for g in roots]
        self._root_wpc = roots[0].work_per_cell

    def on_global(self, time: float) -> None:
        self.records.append({"op": "global", "t": time, "s": self._nglobals})
        self._nglobals += 1

    def on_solve(self, step: SubStep) -> None:
        level = step.level
        if self.manifests:
            self._maybe_emit_manifest(level)
        w = [g.workload for g in self.runner.hierarchy.level_grids(level)]
        self.records.append({"op": "solve", "l": level, "q": step.seq, "w": w})

    def on_regrid(self, level: int, time: float, boxes: List[Box],
                  wpc: float) -> None:
        self.records.append({
            "op": "regrid", "l": level, "t": time,
            "b": [encode_box(b) for b in boxes], "wpc": wpc,
        })

    def on_local(self, level: int, time: float) -> None:
        self.records.append({"op": "local", "l": level, "t": time})

    def _maybe_emit_manifest(self, level: int) -> None:
        h = self.runner.hierarchy
        if self._manifest_version.get(level) == h.version:
            return
        self._manifest_version[level] = h.version
        # shares the runner's version-keyed cache, so the pairs computed
        # here are the exact objects the subsequent solve reuses
        sib: List[List[int]] = [
            [a, b, area] for a, b, area in self.runner._sibling_pairs(level)
        ]
        pc: List[List[int]] = []
        if level > 0:
            pc = [[g.gid, g.parent_gid, g.boundary_cells()]
                  for g in h.level_grids(level)]
        self.records.append({"op": "manifest", "l": level, "v": h.version,
                             "sib": sib, "pc": pc})

    # -- finishing ---------------------------------------------------------

    def finish(self) -> Trace:
        """Assemble the trace after the run completed."""
        if self.runner is None:
            raise RuntimeError("recorder was never attached to a runner")
        config_payload, config_hash = _config_payload(self.config)
        header = build_header(
            app=self.runner.app.name,
            scheme=self.scheme_name,
            nsteps=self.runner.integrator.coarse_steps_done,
            dt0=self.runner.integrator.dt0,
            domain=self.runner.hierarchy.domain,
            refinement_ratio=self.runner.hierarchy.refinement_ratio,
            max_levels=self.runner.hierarchy.max_levels,
            root_boxes=self._root_boxes,
            root_wpc=self._root_wpc,
            min_piece_cells=self.runner.regrid_params.min_piece_cells,
            seed=getattr(self.config, "traffic_seed", 0),
            config=config_payload,
            config_hash=config_hash,
        )
        return Trace(header=header, records=self.records)


def _config_payload(config) -> Tuple[Any, str]:
    """Canonical (payload, sha256) of the recorded config, for the header."""
    if config is None:
        return None, ""
    from ..exec.cache import canonical_json, canonical_value

    return canonical_value(config), hashlib.sha256(
        canonical_json(config).encode("utf-8")).hexdigest()


def record_run(
    config,
    scheme: str = "distributed",
    *,
    out=None,
    tracer=None,
    seed: Optional[int] = None,
    manifests: bool = True,
):
    """Run one experiment while recording its workload trace.

    Same shape as :func:`~repro.harness.experiment.run_experiment` (always
    in-process -- recording needs the live runner, so there is no executor
    path), plus:

    ``out``
        Optional path; when given the trace is also written there as
        deterministic gzipped JSONL (conventionally ``*.trace.jsonl.gz``).
    ``manifests``
        Forwarded to :class:`TraceRecorder`.

    Returns ``(RunResult, Trace)``.  The result is bit-identical to
    ``run_experiment(config, scheme)`` -- recording is observation only.
    """
    from ..harness.experiment import (
        _apply_seed,
        make_app,
        make_faults,
        make_scheme,
        make_system,
    )
    from ..obs import MetricsRegistry
    from ..runtime import SAMRRunner

    cfg = _apply_seed(config, seed)
    if getattr(cfg, "trace", None) is not None:
        raise ValueError(
            "cannot record a replayed run: config.trace must be None"
        )
    recorder = TraceRecorder(scheme, config=cfg, manifests=manifests)
    metrics = MetricsRegistry() if tracer is not None else None
    start_count = tracer.record_count if tracer is not None else 0
    runner = SAMRRunner(
        make_app(cfg),
        make_system(cfg),
        make_scheme(scheme),
        sim_params=cfg.sim_params,
        scheme_params=cfg.effective_scheme_params(),
        fault_schedule=make_faults(cfg),
        tracer=tracer,
        metrics=metrics,
        recorder=recorder,
    )
    result = runner.run(cfg.steps)
    if tracer is not None:
        result.spans = tracer.records()[start_count:]
    trace = recorder.finish()
    m = get_default_metrics()
    m.counter("trace.recorded_runs").inc()
    m.counter("trace.recorded_records").inc(len(trace.records))
    if out is not None:
        nbytes = write_trace(trace, out)
        m.gauge("trace.file_bytes").set(nbytes)
    return result, trace
