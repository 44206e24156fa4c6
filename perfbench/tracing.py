"""Spans and counts recorded around the public calls of each ``repro`` layer.

The benchmark's traced run installs a wrapper on the attribute that callers
actually look up -- a module global such as
``repro.core.policies.lpt_assign`` or a method in a class ``__dict__`` such
as ``ClusterSimulator.run_comm`` -- so nothing under ``src/`` changes.  A
wrapper records one span (name, start, end, parent span, op id) in memory
and, where the target has a natural work count, adds it to a per-op
counter.  A target that no longer exists is a hard error: a rename in the
program must fail the benchmark, not turn a layer into a silent zero.

A span's self time is its duration minus the time its child spans cover.
Children always run on the thread that opened the parent and never overlap
each other, so the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: a counting hook: (args, kwargs, result) -> {count name: value}; a name
#: without a dot is relative to the span name (``calls`` -> ``amr.cluster.calls``)
CountFn = Callable[[tuple, dict, Any], Dict[str, float]]


def _calls(args, kwargs, result) -> Dict[str, float]:
    return {"calls": 1}


def _len_result(key: str) -> CountFn:
    def count(args, kwargs, result) -> Dict[str, float]:
        return {"calls": 1, key: len(result)}
    return count


def _lpt_grids(args, kwargs, result) -> Dict[str, float]:
    grids = args[0] if args else kwargs["grids"]
    return {"calls": 1, "grids": len(grids)}


def _comm_batch(args, kwargs, result) -> Dict[str, float]:
    # run_comm(self, messages, ...): a MessageBatch from the solver, a list
    # of Message from the migration paths
    batch = args[1] if len(args) > 1 else kwargs["messages"]
    if hasattr(batch, "total_bytes"):
        return {"calls": 1, "messages": len(batch),
                "bytes": float(batch.total_bytes())}
    return {"calls": 1, "messages": len(batch),
            "bytes": float(sum(m.nbytes for m in batch))}


def _cache_lookup(args, kwargs, result) -> Dict[str, float]:
    return {"exec.cache.hits": 0 if result is None else 1,
            "exec.cache.misses": 1 if result is None else 0}


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``module`` + ``qualname`` (``func`` or
    ``Class.method``), recorded as span ``name``."""

    name: str
    module: str
    qualname: str
    count: Optional[CountFn] = None


TARGETS: Tuple[Target, ...] = (
    # repro.amr -- looked up from repro.amr.regrid / the runners' modules
    Target("amr.flags", "repro.amr.regrid", "assemble_flags"),
    Target("amr.cluster", "repro.amr.regrid", "cluster_flags",
           _len_result("boxes")),
    Target("amr.regrid.plan", "repro.runtime.runner", "plan_regrid"),
    Target("amr.regrid.apply", "repro.runtime.runner", "apply_cluster_boxes",
           _len_result("grids")),
    Target("amr.regrid.apply", "repro.traces.replay", "apply_cluster_boxes",
           _len_result("grids")),
    Target("amr.sibling_pairs", "repro.amr.hierarchy",
           "GridHierarchy.sibling_pairs", _len_result("pairs")),
    # repro.runtime: the integrator hooks of both runners
    Target("runtime.init", "repro.runtime.runner", "SAMRRunner.__init__"),
    Target("runtime.init", "repro.traces.replay", "TraceReplayRunner.__init__"),
    Target("runtime.run", "repro.runtime.runner", "SAMRRunner.run"),
    Target("runtime.run", "repro.traces.replay", "TraceReplayRunner.run"),
    Target("runtime.solve", "repro.runtime.runner", "SAMRRunner.solve", _calls),
    Target("runtime.solve", "repro.traces.replay", "TraceReplayRunner.solve",
           _calls),
    Target("runtime.regrid", "repro.runtime.runner", "SAMRRunner.regrid"),
    Target("runtime.local_balance", "repro.runtime.runner",
           "SAMRRunner.local_balance"),
    Target("runtime.local_balance", "repro.traces.replay",
           "TraceReplayRunner.local_balance"),
    Target("runtime.global_balance", "repro.runtime.runner",
           "SAMRRunner.global_balance"),
    Target("runtime.global_balance", "repro.traces.replay",
           "TraceReplayRunner.global_balance"),
    # repro.traces
    Target("traces.generate", "repro.traces.synth", "generate_trace"),
    # repro.core: policy helpers are module globals of repro.core.policies
    Target("core.lpt_assign", "repro.core.policies", "lpt_assign", _lpt_grids),
    Target("core.plan_rebalance", "repro.core.policies", "plan_rebalance"),
    Target("core.initial_distribution", "repro.core.composed",
           "ComposedScheme.initial_distribution"),
    Target("core.place_new_grids", "repro.core.composed",
           "ComposedScheme.place_new_grids"),
    Target("core.local_balance", "repro.core.composed",
           "ComposedScheme.local_balance"),
    Target("core.global_balance", "repro.core.composed",
           "ComposedScheme.global_balance"),
    Target("core.plan_global", "repro.core.policies", "FlatPartition.plan"),
    Target("core.plan_global", "repro.core.policies",
           "ContiguousGroupPartition.plan"),
    Target("core.plan_global", "repro.core.policies", "SFCPartition.plan"),
    # repro.distsys
    Target("distsys.compute", "repro.distsys.simulator",
           "ClusterSimulator.run_compute", _calls),
    Target("distsys.comm", "repro.distsys.simulator",
           "ClusterSimulator.run_comm", _comm_batch),
    Target("distsys.probe", "repro.distsys.simulator",
           "ClusterSimulator.probe_inter_link", _calls),
    Target("distsys.build_system", "repro.harness.experiment", "build_system"),
    Target("distsys.build_system", "repro.distsys", "build_system"),
    # repro.exec: the daemon imports task_key from the package at call time
    Target("exec.task_key", "repro.exec", "task_key", _calls),
    Target("exec.cache.get", "repro.exec.cache", "ResultCache.get_run_dict",
           _cache_lookup),
    Target("exec.cache.get", "repro.exec.cache", "ResultCache.get",
           _cache_lookup),
    # repro.harness
    Target("harness.run_experiment", "repro.harness.experiment",
           "run_experiment"),
)


def resolve(target: Target) -> Tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` of a target, or LookupError.

    Methods must be defined in the class's own ``__dict__``: wrapping an
    inherited attribute would silently time a different function.
    """
    try:
        module = importlib.import_module(target.module)
    except ImportError as err:
        raise LookupError(f"wrapper target module {target.module} is gone: "
                          f"{err}") from err
    owner: Any = module
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"wrapper target {target.module}:"
                              f"{target.qualname} no longer exists")
    if isinstance(owner, type):
        value = owner.__dict__.get(attr)
    else:
        value = getattr(owner, attr, None)
    if value is None or not callable(value):
        raise LookupError(f"wrapper target {target.module}:{target.qualname} "
                          "no longer exists")
    return owner, attr, value


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, op id]
        self.spans: List[list] = []
        #: (op id, counter name) -> value
        self.counts: Dict[Tuple[Any, str], float] = defaultdict(float)
        #: op id stamped on every span opened from now on (any thread)
        self.op: Any = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Optional[CountFn]) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            op = recorder.op
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(
                    [name, 0.0, 0.0, stack[-1] if stack else None, op])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = recorder.spans[index]
                span[1], span[2] = start, end
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    recorder.add(op, key if "." in key else f"{name}.{key}",
                                 value)
            return result

        return traced

    def add(self, op: Any, name: str, value: float) -> None:
        with self._lock:
            self.counts[(op, name)] += value

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; LookupError if any no longer exists."""
        resolved = [(t, *resolve(t)) for t in TARGETS]
        for target, owner, attr, value in resolved:
            self._installed.append((owner, attr, value))
            setattr(owner, attr, self.wrap(target.name, value, target.count))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> Dict[Tuple[Any, str], float]:
        """(op id, span name) -> summed self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[Tuple[Any, str], float] = defaultdict(float)
        for (name, start, end, parent, op), child in zip(self.spans, covered):
            out[(op, name)] += (end - start) - child
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, one per span, in opening order."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")
