"""The benchmark's three workloads.

Each is a closed loop with one client in one process: the next op starts
when the previous one has returned.  ``setup(seed)`` builds every input
from the workload seed (its time is the ``inputs`` part of ``setup_s``);
``warm_up()`` runs one untimed op so lazy set-up is done; ``op(i)`` runs
and times op ``i``.  An op returns an :class:`Outcome` whose ``digest`` the
runner checks against the pinned reference (default seed) or the warm-up
op (any other seed).  ``small=True`` shrinks every input for the self-check;
those digests are not pinned.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import hashlib
import json
import os
import re
import shutil
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Tuple


def digest(obj) -> str:
    """sha256 of the canonical JSON of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """One op: its result digest, timed span and result-derived values."""

    digest: str
    #: ``time.perf_counter()`` at the start and the end of the timed part
    start: float
    end: float
    #: simulated makespan, the end-to-end value every workload reports
    #: besides the host ones
    sim_makespan_s: float
    #: exact per-op counts read from the result
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _run_counts(result) -> Dict[str, float]:
    evaluated = float(result.decisions)
    redistributed = float(result.redistributions)
    return {"core.gate.evaluated": evaluated,
            "core.gate.redistributed": redistributed,
            "core.gate.redistribute_ratio":
                redistributed / evaluated if evaluated else 0.0}


class Workload:
    name = ""
    #: True when every op's inputs differ, so ops are checked in op()
    #: itself and only the warm-up digest is compared with the reference
    varies_per_op = False

    def __init__(self, small: bool = False) -> None:
        self.small = small

    def setup(self, seed: int, work_dir: Path) -> None:
        raise NotImplementedError

    def warm_up(self) -> Outcome:
        return self.op(0)

    def op(self, index: int) -> Outcome:
        raise NotImplementedError

    def layer_counts(self) -> Dict[str, float]:
        """Cumulative counters read from outside the op; the runner reads
        them before and after each traced op and reports the difference."""
        return {}

    def close(self) -> None:
        pass


class AmrShockpool(Workload):
    """The paper's setting: ShockPool3D under the distributed scheme on two
    WAN-linked groups (4+4).  Bursty background traffic makes the seed
    change the input: under the harness's default constant traffic the
    traffic seed has no effect at all."""

    name = "amr-shockpool"

    def setup(self, seed, work_dir):
        from repro.harness.experiment import ExperimentConfig

        self.config = ExperimentConfig(
            app_name="shockpool3d", network="wan", procs_per_group=4,
            domain_cells=16 if self.small else 48, max_levels=3,
            steps=2 if self.small else 8, traffic_kind="bursty",
            traffic_seed=seed)

    def op(self, index):
        from repro.harness import experiment, persist

        t0 = time.perf_counter()
        result = experiment.run_experiment(self.config, "distributed")
        t1 = time.perf_counter()
        return Outcome(digest(persist.run_result_to_dict(result)), t0, t1,
                       result.total_time, _run_counts(result))


class Replay4096(Workload):
    """The extreme-scale point: a synthetic hotspot trace replayed under
    ``diffusion`` over 32 sites of 128 processors, whose WAN links carry
    bursty background traffic drawn from the workload seed.

    The trace is generated in set-up and is the same for every seed: where
    the hotspot sits decides how hard it is to balance, so a seeded trace
    would make a run's figures depend on one draw of it (makespan spread
    0.19 over five seeds).  The replay spans only about 4.5 simulated
    seconds, so the traffic uses 0.25-s buckets instead of the harness's
    5-s ones, with the harness's bursty levels.  Each op builds a fresh
    runner and scheme."""

    name = "replay-4096"

    def setup(self, seed, work_dir):
        from repro import distsys
        from repro.distsys.traffic import BurstyTraffic
        from repro.traces import make_synth_workload, synth

        sites = 2 if self.small else 32
        workload = make_synth_workload(
            "hotspot", domain_cells=16 if self.small else 32, max_levels=3,
            ndim=3, seed=0)
        self.trace = synth.generate_trace(workload, steps=2,
                                          nprocs=128 * sites)
        traffic = BurstyTraffic(seed=seed, base=0.12, burst=0.66,
                                bucket_seconds=0.25)
        self.system = distsys.build_system(
            distsys.multi_site_spec([128] * sites), traffic=traffic)

    def op(self, index):
        from repro.core.registry import make_scheme
        from repro.harness import persist
        from repro.traces import replay

        t0 = time.perf_counter()
        runner = replay.TraceReplayRunner(self.trace, self.system,
                                          make_scheme("diffusion"))
        result = runner.run(2)
        t1 = time.perf_counter()
        return Outcome(digest(persist.run_result_to_dict(result)), t0, t1,
                       result.total_time, _run_counts(result))


#: Prometheus series -> per-layer counter (sums and counts are cumulative)
_SERVE_SERIES = {
    "serve_job_queue_seconds_sum": "serve.queue_wait_s",
    "serve_job_wall_seconds_sum": "serve.job_wall_s",
    "serve_jobs_executed_total": "serve.jobs_executed",
    "serve_cache_hits_total": "serve.cache_hits",
    'serve_jobs_completed_total{status="failed"}': "serve.jobs_failed",
}
_PROM_LINE = re.compile(r"^(\S+)\s+(\S+)$")


class DaemonSweep(Workload):
    """The job daemon in-process (2 workers, fresh cache dir per run) and
    one client.  Op ``i`` submits a shockpool sweep at seed ``s+i`` (all
    misses: forked jobs and cache writes), then the sweep of op ``i-1``
    (all hits, served at submit), which must return byte-identical runs.
    The op's time is the miss sweep's round trip; its simulated time is the
    sum of the six runs' makespans."""

    name = "daemon-sweep"
    varies_per_op = True
    PROCS = (1, 2, 4)
    SCHEMES = ("parallel", "distributed")

    def setup(self, seed, work_dir):
        from repro.harness.experiment import ExperimentConfig
        from repro.serve import ServeClient, ServeServer

        self.seed = seed
        self.base = ExperimentConfig(app_name="shockpool3d", domain_cells=16,
                                     steps=2, traffic_kind="bursty")
        self.dir = work_dir / f"daemon-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cache_dir = self.dir / "cache"
        # relative: a unix socket path must stay under ~100 bytes
        sock = os.path.relpath(self.dir / "s.sock")
        started: concurrent.futures.Future = concurrent.futures.Future()

        def body():
            async def amain():
                server = ServeServer(socket_path=sock, workers=2,
                                     queue_size=16,
                                     cache_dir=str(self.cache_dir))
                await server.start()
                started.set_result((server, asyncio.get_running_loop()))
                await server.serve_until_shutdown()

            try:
                asyncio.run(amain())
            except BaseException as err:
                if not started.done():
                    started.set_exception(err)
                raise

        self.thread = threading.Thread(target=body, daemon=True)
        self.thread.start()
        self.server, self.loop = started.result(timeout=60)
        self.client = ServeClient(socket_path=sock, timeout=600)
        #: runs of each miss sweep, by seed (a few KB per op)
        self.stored: Dict[int, List[dict]] = {}

    def _sweep(self, seed: int, cached: bool):
        cfg = replace(self.base, traffic_seed=seed)
        t0 = time.perf_counter()
        job = self.client.submit_sweep(cfg, procs=self.PROCS,
                                       schemes=self.SCHEMES)
        t1 = time.perf_counter()
        if job.status != "done":
            raise RuntimeError(f"sweep at seed {seed} ended {job.status}")
        runs = sorted(job.runs, key=lambda r: (r["procs"], r["scheme"]))
        if len(runs) != len(self.PROCS) * len(self.SCHEMES):
            raise RuntimeError(f"sweep returned {len(runs)} runs")
        if any(r["status"] != "done" or r["cached"] != cached for r in runs):
            raise RuntimeError(f"sweep at seed {seed}: expected every run "
                               f"{'cached' if cached else 'executed'}")
        return (t0, t1), [{"procs": r["procs"], "scheme": r["scheme"],
                       "run": r["run"]} for r in runs]

    def _miss(self, seed: int) -> Tuple[float, float]:
        timed, self.stored[seed] = self._sweep(seed, cached=False)
        return timed

    def _hit(self, seed: int) -> Tuple[float, float]:
        timed, runs = self._sweep(seed, cached=True)
        if digest(runs) != digest(self.stored[seed]):
            raise RuntimeError(f"cache hits at seed {seed} differ from the "
                               "runs that stored them")
        return timed

    def _outcome(self, seed: int, timed: Tuple[float, float]) -> Outcome:
        """The sweep at ``seed``: its digest and summed simulated time."""
        runs = self.stored[seed]
        return Outcome(digest(runs), *timed,
                       sum(r["run"]["total_time"] for r in runs))

    def warm_up(self):
        timed = self._miss(self.seed)
        self._hit(self.seed)
        return self._outcome(self.seed, timed)

    def op(self, index):
        timed = self._miss(self.seed + index)
        self._hit(self.seed + index - 1)
        return self._outcome(self.seed + index, timed)

    def layer_counts(self):
        counts = {name: 0.0 for name in _SERVE_SERIES.values()}
        for line in self.client.metrics_text().splitlines():
            match = _PROM_LINE.match(line)
            if match and match.group(1) in _SERVE_SERIES:
                counts[_SERVE_SERIES[match.group(1)]] = float(match.group(2))
        # cumulative like the daemon's series: the runner reports the
        # per-op difference, i.e. the entries this op's misses stored
        counts["exec.cache.writes"] = float(
            sum(1 for _ in self.cache_dir.glob("*/*.json")))
        return counts

    def close(self):
        # request_shutdown must run on the server's own loop
        self.loop.call_soon_threadsafe(self.server.request_shutdown)
        self.thread.join(timeout=120)
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (AmrShockpool, Replay4096, DaemonSweep)}
