"""Simulator scaling study: paper scheme vs SFC vs diffusion at 1000+ procs.

The ROADMAP scaling study: replay one synthetic hotspot workload through the
cluster simulator across {16, 64, 256, 1024, 4096} processors spread over
{2, 4, 8, 16, 32} groups, under the paper's two-phase scheme
(``distributed``), the two SFC compositions (``sfc:morton`` /
``sfc:hilbert``) and the ``diffusion`` control.  What this measures is the
*simulator's* wall-clock -- the PR's O(P^2)-elimination contract -- next to
the simulated makespans the schemes produce.

The numbers land in ``BENCH_scale.json`` at the repo root.  Acceptance:

* the largest configuration (4096 procs, 32 groups, 2-step replay)
  completes in seconds per scheme;
* simulator time grows near-linearly in P: wall-clock per processor at the
  largest P stays within ``SLACK`` of the first measured point (an O(P^2)
  structure fails this by ~two orders of magnitude);
* at the largest P no scheme's simulator time exceeds ``MAX_VS_DISTRIBUTED``
  times the paper scheme's.  The ratio is machine-independent and catches an
  O(grids x procs) policy scan that the two bounds above still let through.

Environment overrides (the CI ``scale-smoke`` job shrinks the sweep):

* ``REPRO_SCALE_PROCS``   comma list of processor counts (default full sweep)
* ``REPRO_SCALE_SCHEMES`` comma list of scheme names
* ``REPRO_SCALE_STEPS``   coarse steps to replay (default 2)
* ``REPRO_SCALE_DOMAIN``  root cells per axis (default 32)
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.registry import make_scheme
from repro.distsys import build_system, multi_site_spec
from repro.harness.report import format_table
from repro.traces import TraceReplayRunner, make_synth_workload
from repro.traces.synth import generate_trace

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_scale.json"

#: full sweep: procs paired with group counts (P/G fixed at 128 from 256 up)
DEFAULT_PROCS = (16, 64, 256, 1024, 4096)
GROUPS_FOR = {16: 2, 64: 4, 256: 8, 1024: 16, 4096: 32}
DEFAULT_SCHEMES = ("distributed", "sfc:morton", "sfc:hilbert", "diffusion")

#: near-linear slack: fixed per-phase overheads dominate at small P, so the
#: per-processor wall-clock may legitimately *fall* before flattening; an
#: O(P^2) hot structure overshoots this bound by ~two orders of magnitude
SLACK = 8.0
#: hard ceiling for one scheme's replay at the largest configuration
MAX_SECONDS = 60.0
#: relative ceiling at the largest configuration: a scheme's simulator time
#: over ``distributed``'s at the same point (an LPT scan over every
#: processor per grid put diffusion at ~3.5x)
MAX_VS_DISTRIBUTED = 2.5


def _env_tuple(name, default, cast=int):
    raw = os.environ.get(name)
    if not raw:
        return default
    return tuple(cast(x.strip()) for x in raw.split(",") if x.strip())


def _groups_for(nprocs: int) -> int:
    g = GROUPS_FOR.get(nprocs)
    if g is None:
        g = max(2, min(32, nprocs // 128))
    return min(g, nprocs)


def _scenario():
    procs = _env_tuple("REPRO_SCALE_PROCS", DEFAULT_PROCS)
    schemes = _env_tuple("REPRO_SCALE_SCHEMES", DEFAULT_SCHEMES, cast=str)
    steps = int(os.environ.get("REPRO_SCALE_STEPS", "2"))
    domain = int(os.environ.get("REPRO_SCALE_DOMAIN", "32"))
    workload = make_synth_workload("hotspot", domain_cells=domain,
                                   max_levels=3, ndim=3)
    points = []
    for nprocs in procs:
        ngroups = _groups_for(nprocs)
        t0 = time.perf_counter()
        trace = generate_trace(workload, steps=steps, nprocs=nprocs)
        gen_s = time.perf_counter() - t0
        system = build_system(multi_site_spec([nprocs // ngroups] * ngroups))
        for scheme in schemes:
            t0 = time.perf_counter()
            runner = TraceReplayRunner(trace, system, make_scheme(scheme))
            result = runner.run(steps)
            sim_s = time.perf_counter() - t0
            points.append({
                "nprocs": nprocs,
                "ngroups": ngroups,
                "scheme": scheme,
                "simulator_seconds": sim_s,
                "trace_generation_seconds": gen_s,
                "simulated_total_time": result.total_time,
                "simulated_compute_time": result.compute_time,
                "simulated_comm_time": result.comm_time,
            })
    return {
        "benchmark": "simulator-scaling",
        "workload": {"name": "hotspot", "domain_cells": domain,
                     "max_levels": 3, "ndim": 3, "steps": steps},
        "cpu_count": os.cpu_count(),
        "procs": list(procs),
        "schemes": list(schemes),
        "points": points,
    }


def test_simulator_scales_near_linearly(once, benchmark):
    record = once(benchmark, _scenario)

    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    rows = [
        (f"{p['nprocs']} ({p['ngroups']}g)", p["scheme"],
         p["simulator_seconds"], p["simulated_total_time"])
        for p in record["points"]
    ]
    print()
    print(format_table(
        ["procs", "scheme", "simulator [s]", "simulated makespan [s]"], rows,
        title=f"replay sweep, {record['workload']['domain_cells']}^3 hotspot "
              f"x{record['workload']['steps']} steps -> {BENCH_PATH.name}",
    ))

    by_scheme: dict = {}
    for p in record["points"]:
        by_scheme.setdefault(p["scheme"], []).append(p)
    for scheme, pts in by_scheme.items():
        pts.sort(key=lambda p: p["nprocs"])
        largest = pts[-1]
        assert largest["simulator_seconds"] <= MAX_SECONDS, (
            f"{scheme} at {largest['nprocs']} procs took "
            f"{largest['simulator_seconds']:.1f}s (> {MAX_SECONDS}s): the "
            "simulator no longer completes the extreme-scale replay in seconds"
        )
        if len(pts) >= 2 and largest["nprocs"] > pts[0]["nprocs"]:
            first_per_proc = pts[0]["simulator_seconds"] / pts[0]["nprocs"]
            last_per_proc = (largest["simulator_seconds"]
                             / largest["nprocs"])
            assert last_per_proc <= SLACK * first_per_proc, (
                f"{scheme}: simulator seconds per processor grew "
                f"{last_per_proc / first_per_proc:.1f}x from "
                f"{pts[0]['nprocs']} to {largest['nprocs']} procs -- "
                "super-linear scaling (an O(P^2) structure?)"
            )

    top = max(p["nprocs"] for p in record["points"])
    at_top = {p["scheme"]: p["simulator_seconds"]
              for p in record["points"] if p["nprocs"] == top}
    if "distributed" in at_top:
        base = at_top["distributed"]
        for scheme, seconds in at_top.items():
            assert seconds <= MAX_VS_DISTRIBUTED * base, (
                f"{scheme} at {top} procs took {seconds:.2f}s, "
                f"{seconds / base:.1f}x distributed's {base:.2f}s (> "
                f"{MAX_VS_DISTRIBUTED}x): a per-grid scan over processors?"
            )
