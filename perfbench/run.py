#!/usr/bin/env python3
"""One end-to-end benchmark for the SAMR-DLB reproduction.

    python3 perfbench/run.py --workload amr-shockpool --seed 0 \
        --seconds 22 --trace 0

Run from the repository root; the program is imported from ``src/``.  A
run measures, in order:

1. set-up, in fresh interpreters: a cold ``import repro.api`` plus building
   the workload's inputs from ``--seed`` (median of several);
2. one untimed warm-up op, so lazy set-up is done before timing;
3. ops in a closed loop for ``--seconds`` with tracing off;
4. with ``--trace 1``, every second op of that loop runs with a wrapper
   around every public call of each ``repro`` layer (see ``tracing.py``),
   giving per-op self time and counts per layer.

Every op's result is hashed and checked: at the default seed against the
digest pinned in ``reference.json``, at any other seed against the warm-up
op (a workload whose ops differ checks each op itself).  An op that raises or hashes differently counts as failed.  The report
lists every metric by name with its unit and sample count; the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer with
``--trace 1``).  Spans of a traced run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

#: the seed whose result digests are pinned in reference.json
DEFAULT_SEED = 0
#: fresh-interpreter set-up samples per run
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
#: the fewest timed ops per run, even past --seconds; a traced run gets
#: one more, so at least 2 untraced and 2 traced
MIN_OPS = 3

#: iterations of the speed kernel, and the seconds it takes at the host
#: speed end-to-end host times are reported at (its median on the 2-CPU
#: development box)
KERNEL_ITERATIONS = 30_000
REFERENCE_KERNEL_S = 0.0038
#: kernel runs timed back to back between ops and on either side of a
#: set-up sample
BURST = 12
#: seconds between kernel runs inside an op, and the fewest such samples
#: that replace the bursts around the op
SAMPLE_INTERVAL_S = 0.2
MIN_IN_OP_SAMPLES = 5

#: end-to-end metrics, every one reported on every workload: name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "sim_makespan_s": "s"}

#: cumulative `python -X importtime` entries -> per-layer metric
IMPORTS = {"numpy": "setup.import.numpy_s",
           "repro.serve": "setup.import.repro_serve_s",
           "repro.harness.figures": "setup.import.repro_harness_figures_s",
           "repro.distsys.topology": "setup.import.repro_distsys_topology_s"}


def _self(*names):
    return [(f"{n}.self_s", "s") for n in names]


def _count(*names):
    return [(n, "count") for n in names]


#: per-layer metrics (traced run), in report order
PER_LAYER = dict(
    _self("amr.flags", "amr.cluster") + _count("amr.cluster.calls",
                                              "amr.cluster.boxes")
    + _self("amr.regrid.plan", "amr.regrid.apply")
    + _count("amr.regrid.apply.grids") + _self("amr.sibling_pairs")
    + _count("amr.sibling_pairs.pairs")
    + _self("runtime.init", "runtime.run", "runtime.solve")
    + _count("runtime.solve.calls")
    + _self("runtime.regrid", "runtime.local_balance",
            "runtime.global_balance", "traces.generate", "core.lpt_assign")
    + _count("core.lpt_assign.calls", "core.lpt_assign.grids")
    + _self("core.initial_distribution", "core.plan_rebalance",
            "core.place_new_grids", "core.local_balance",
            "core.global_balance", "core.plan_global")
    + _count("core.gate.evaluated", "core.gate.redistributed")
    + [("core.gate.redistribute_ratio", "ratio")]
    + _self("distsys.compute") + _count("distsys.compute.calls")
    + _self("distsys.comm") + _count("distsys.comm.calls",
                                     "distsys.comm.messages")
    + [("distsys.comm.bytes", "B")] + _count("distsys.probe.calls")
    + _self("distsys.build_system", "exec.task_key") + _count("exec.task_key.calls")
    + _self("exec.cache.get")
    + _count("exec.cache.hits", "exec.cache.misses")
    + [("exec.cache.hit_ratio", "ratio")] + _count("exec.cache.writes")
    + [("serve.queue_wait_s", "s"), ("serve.job_wall_s", "s")]
    + _count("serve.jobs_executed", "serve.cache_hits", "serve.jobs_failed")
    + _self("harness.run_experiment")
    + [("setup.import_s", "s"), ("setup.inputs_s", "s")]
    + [(m, "s") for m in IMPORTS.values()]
    + [("trace.overhead_ratio", "ratio")]
)

#: predicted split, checked on the traced run of each workload: workload ->
#: (statement, (per-layer metrics, traced wall_s) -> value, value -> holds)
PREDICTIONS = {
    "replay-4096": ("core.lpt_assign.self_s is most of wall_s",
                    lambda layer, wall: layer["core.lpt_assign.self_s"] / wall,
                    lambda value: value > 0.5),
    "amr-shockpool": ("amr.* self time is most of wall_s",
                      lambda layer, wall: sum(
                          v for k, v in layer.items()
                          if k.startswith("amr.") and k.endswith(".self_s"))
                      / wall, lambda value: value > 0.5),
    "daemon-sweep": ("exec.cache.hit_ratio is 0.5 exactly",
                     lambda layer, wall: layer["exec.cache.hit_ratio"],
                     lambda value: value == 0.5),
}


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git (which
    would search directories outside the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values):
    return statistics.median(values) if values else None


def kernel() -> float:
    """Seconds a fixed piece of interpreter work takes right now."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(KERNEL_ITERATIONS):
        table[i & 1023] = acc
        acc += i * 3 % 7
    return time.perf_counter() - t0


def burst():
    """``BURST`` kernel times, back to back."""
    return [kernel() for _ in range(BURST)]


def speed_factor(samples) -> float:
    """Reference kernel time over the mean of ``samples``."""
    return REFERENCE_KERNEL_S / statistics.fmean(samples)


class SpeedProbe:
    """Samples the host speed while an op runs.

    Host speed on a shared machine drifts by tens of percent within a
    second.  End-to-end host times are therefore scaled by
    :func:`speed_factor` of kernel times taken while the op ran, so two
    runs compare the program, not the neighbours' load at the time.  Inside
    ``with probe:`` a ``SIGALRM`` every ``SAMPLE_INTERVAL_S`` runs the
    kernel once in the main thread, between two bytecodes of the op;
    :meth:`scaled` subtracts those kernel runs from the op's time.
    """

    def __init__(self):
        #: (start, seconds) of each kernel run of the current op
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, kernel()))

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, outcome, around) -> tuple:
        """(host seconds of the op at the reference speed, speed factor).
        ``around`` holds the kernel times of the bursts before and after
        the op; they set the speed when the op was too short for
        ``MIN_IN_OP_SAMPLES`` samples of its own."""
        inside = [seconds for start, seconds in self.samples
                  if outcome.start <= start < outcome.end]
        speed = speed_factor(inside if len(inside) >= MIN_IN_OP_SAMPLES
                             else around)
        return (outcome.wall_s - sum(inside)) * speed, speed


# --------------------------------------------------------------------------
# set-up in fresh interpreters
# --------------------------------------------------------------------------

def probe_setup(workload_name: str, seed: int) -> None:
    """Child body: cold import, then the workload's inputs; print their
    times and the speed factor of the kernel bursts on either side.

    Set-up takes well under a second, and kernel runs sampled inside it
    ran slower than the same kernel outside, so they tracked the import
    worse than bursts around it; on a series of 30 cold imports the
    coefficient of variation was 0.14 raw, 0.09 scaled by the burst after
    and 0.055 scaled by the bursts on both sides."""
    before = burst()
    t0 = time.perf_counter()
    import repro.api  # noqa: F401
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    workload.setup(seed, OUT)
    t2 = time.perf_counter()
    speed = speed_factor(before + burst())
    workload.close()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1,
                      "speed": speed}))


def _child(args, env=None) -> subprocess.CompletedProcess:
    proc = subprocess.run(args, capture_output=True, text=True, timeout=120,
                          env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[1:3])} failed:\n{proc.stderr}")
    return proc


def setup_samples(workload_name: str, seed: int):
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = _child([sys.executable, __file__, "--workload", workload_name,
                       "--seed", str(seed), "--probe-setup"])
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def import_times():
    """Median cumulative import seconds of each IMPORTS module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    per_module = {m: [] for m in IMPORTS}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = _child([sys.executable, "-X", "importtime", "-c",
                       "import repro.api"], env=env)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in IMPORTS:
                seen[parts[2]] = int(parts[1]) / 1e6
        for module in IMPORTS:
            # a module repro.api does not import costs it nothing
            per_module[module].append(seen.get(module, 0.0))
    return {IMPORTS[m]: median(v) for m, v in per_module.items()}


# --------------------------------------------------------------------------
# the op loop
# --------------------------------------------------------------------------

class Ledger:
    """Every op attempted in a run, with its failures and expected digest."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, index):
        """Run op ``index`` (``None``: the warm-up); its Outcome, or None
        when it failed."""
        self.attempted += 1
        try:
            outcome = (self.workload.warm_up() if index is None
                       else self.workload.op(index))
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=-2))
            return None
        checked = index is None or not self.workload.varies_per_op
        if checked and self.expected is None:
            self.expected = outcome.digest
        elif checked and outcome.digest != self.expected:
            self.failed += 1
            self.errors.append(f"op {index or 'warm-up'}: digest "
                               f"{outcome.digest} != expected {self.expected}")
            return None
        return outcome

    def loop(self, budget, min_ops, trace=None):
        """Loop of ops for about ``budget`` seconds: no op starts that would
        typically end past the budget, but at least ``min_ops`` are
        attempted; each op starts when the previous one has returned.
        Each untraced op's time is scaled to the reference host speed
        (:class:`SpeedProbe`, with a burst of kernel runs after every op).
        With a ``trace``, every second op is traced, so drift hits traced
        and untraced ops alike; traced ops are not sampled, so no kernel
        time lands in a span, and keep their raw time (speed factor 1).
        Returns the successful (index, Outcome, host seconds, speed
        factor) tuples: untraced, traced."""
        untraced, traced, attempts = [], [], []
        probe = SpeedProbe()
        start = time.perf_counter()
        before = burst()
        index = 1
        while True:
            elapsed = time.perf_counter() - start
            typical = median(attempts) or 0.0
            if len(attempts) >= min_ops and elapsed + typical > budget:
                break
            t0 = time.perf_counter()
            tracing = trace is not None and index % 2 == 0
            if tracing:
                trace.begin(index)
                try:
                    outcome = self.run(index)
                finally:
                    trace.end(index)
            else:
                with probe:
                    outcome = self.run(index)
            after = burst()
            attempts.append(time.perf_counter() - t0)
            if outcome is not None:
                timed = ((outcome.wall_s, 1.0) if tracing
                         else probe.scaled(outcome, before + after))
                (traced if tracing else untraced).append(
                    (index, outcome) + timed)
            before = after
            index += 1
        return untraced, traced


class Tracing:
    """Wrappers installed around one traced op at a time, plus the
    workload's outside counters read before and after it."""

    def __init__(self, recorder, workload):
        self.recorder = recorder
        self.workload = workload
        self.deltas = {}
        self._marks = {}

    def begin(self, index):
        self._marks[index] = self.workload.layer_counts()
        self.recorder.op = index
        self.recorder.install()

    def end(self, index):
        self.recorder.uninstall()
        self.recorder.op = None
        now = self.workload.layer_counts()
        self.deltas[index] = {k: now[k] - self._marks[index][k] for k in now}


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(done, samples, rss_mb):
    """Host times at the reference host speed; simulated values as is."""
    metrics = {}
    if done:
        metrics["wall_s"] = median([scaled for _, _, scaled, _ in done])
        # a mean: on the daemon workloads ops cycle through seeds whose
        # sums take only a few distinct values, so a median would settle
        # on the most common one whatever the workload seed
        metrics["sim_makespan_s"] = statistics.fmean(
            [o.sim_makespan_s for _, o, _, _ in done])
    metrics["setup_s"] = median([(s["import_s"] + s["inputs_s"]) * s["speed"]
                                 for s in samples])
    metrics["peak_rss_mb"] = rss_mb
    return metrics


def per_op_layers(recorder, traced, deltas):
    """{op index: {per-layer metric: value}} for every traced op."""
    self_times = recorder.self_times()
    rows = {}
    for index, outcome, _, _ in traced:
        row = {name: 0.0 for name in PER_LAYER}
        for (op, name), value in self_times.items():
            if op == index:
                row[f"{name}.self_s"] = row.get(f"{name}.self_s", 0.0) + value
        for (op, name), value in recorder.counts.items():
            if op == index:
                row[name] = row.get(name, 0.0) + value
        row.update(outcome.counts)
        row.update(deltas.get(index, {}))
        lookups = row["exec.cache.hits"] + row["exec.cache.misses"]
        row["exec.cache.hit_ratio"] = (row["exec.cache.hits"] / lookups
                                       if lookups else 0.0)
        rows[index] = row
    return rows


def per_layer(recorder, traced, deltas, samples, imports, untraced_wall):
    rows = per_op_layers(recorder, traced, deltas)
    metrics = {}
    for name in PER_LAYER:
        metrics[name] = median([row[name] for row in rows.values()]) or 0.0
    # work done in set-up (trace generation, the replay system) is part of
    # the layer's cost too: add the set-up scope to the per-op median
    for (op, name), value in recorder.self_times().items():
        if op == "setup" and f"{name}.self_s" in metrics:
            metrics[f"{name}.self_s"] += value
    metrics["setup.import_s"] = median([s["import_s"] for s in samples])
    metrics["setup.inputs_s"] = median([s["inputs_s"] for s in samples])
    metrics.update(imports)
    traced_wall = median([o.wall_s for _, o, _, _ in traced])
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall
                                       if traced_wall and untraced_wall
                                       else 0.0)
    return metrics


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, ledger, done, traced, metrics, units):
    import numpy

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env cpu_count={os.cpu_count()} python={platform.python_version()}"
          f" numpy={numpy.__version__} git_rev={git_rev()}")
    print(f"ops attempted={ledger.attempted} failed={ledger.failed} "
          f"(1 warm-up, {len(done)} timed untraced"
          + (f", {len(traced)} traced)" if args.trace else ")"))
    for error in ledger.errors[:3]:
        print("  failure: " + error.strip().replace("\n", "\n    "))
    walls = [o.wall_s for _, o, _, _ in done]
    if walls:
        speeds = [speed for *_, speed in done]
        print(f"wall_s per op, unscaled: n={len(walls)} "
              f"median={_fmt(median(walls))} min={_fmt(min(walls))} "
              f"max={_fmt(max(walls))}; host speed factor median="
              f"{_fmt(median(speeds))} min={_fmt(min(speeds))} "
              f"max={_fmt(max(speeds))}")
    for name, value in metrics.items():
        print(f"  {name:<44} {_fmt(value):>14} {units[name]}")
    if args.trace and traced:
        statement, measure, check = PREDICTIONS[args.workload]
        # self times are unscaled host seconds: compare with unscaled wall
        value = measure(metrics, median([o.wall_s for _, o, _, _ in traced]))
        holds = check(value)
        print(f"prediction: {statement}: measured {value:.3f} -> "
              f"{'holds' if holds else 'does NOT hold'}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC}/repro is missing "
              "(run from a checkout of the repository)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    samples = setup_samples(args.workload, args.seed)
    imports = import_times() if args.trace else {}

    import repro.api  # noqa: F401
    from tracing import Recorder

    recorder = Recorder() if args.trace else None
    workload = WORKLOADS[args.workload]()
    if recorder is not None:
        recorder.op = "setup"
        recorder.install()
    try:
        workload.setup(args.seed, OUT)
    finally:
        if recorder is not None:
            recorder.uninstall()
    try:
        pinned = json.loads(REFERENCE.read_text())
        expected = (pinned[args.workload] if args.seed == DEFAULT_SEED
                    else None)
        ledger = Ledger(workload, expected)
        ledger.run(None)
        # read before the timed loop: the daemon keeps every job it ran, so
        # a later reading would grow with the op count, i.e. host speed
        rss_mb = peak_rss_mb()
        tracing = (Tracing(recorder, workload) if recorder is not None
                   else None)
        done, traced = ledger.loop(
            args.seconds, MIN_OPS if tracing is None else MIN_OPS + 1, tracing)
    finally:
        workload.close()

    if recorder is None:
        metrics = end_to_end(done, samples, rss_mb)
        units = END_TO_END
    else:
        # unscaled, less the kernel runs sampled inside the op, to compare
        # with the unscaled traced ops interleaved with them
        untraced_wall = median([scaled / speed
                                for _, _, scaled, speed in done])
        metrics = per_layer(recorder, traced, tracing.deltas, samples,
                            imports, untraced_wall)
        units = PER_LAYER
        recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    report(args, ledger, done, traced, metrics, units)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
