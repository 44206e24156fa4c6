#!/usr/bin/env python3
"""Fast self-check of the benchmark (a few seconds; run it on every change).

    python3 perfbench/selfcheck.py

With every workload's inputs shrunk, it checks that each wrapper target
still resolves, that one op runs, that a traced op returns the same result
digest as the untraced one and records spans on the workload's main
layers, and that ``BENCHMARK.json`` names exactly the workloads and
metrics ``run.py`` reports.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

#: span names a traced op of each workload must record
MAIN_LAYERS = {
    "amr-shockpool": ("harness.run_experiment", "amr.cluster",
                      "runtime.solve", "distsys.comm"),
    "replay-4096": ("runtime.init", "core.lpt_assign", "runtime.solve",
                    "amr.sibling_pairs"),
    "daemon-sweep": ("exec.task_key", "exec.cache.get"),
}


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = sorted(w["name"] for w in spec["workloads"])
    assert names == sorted(WORKLOADS), names
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END, e2e
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == run.PER_LAYER, sorted(set(layers) ^ set(run.PER_LAYER))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import repro.api  # noqa: F401
    from tracing import TARGETS, Recorder, resolve

    for target in TARGETS:
        resolve(target)
        assert any(m.startswith(target.name + ".") for m in run.PER_LAYER), (
            f"{target.name} feeds no per-layer metric")
    print(f"ok  {len(TARGETS)} wrapper targets resolve")
    check_benchmark_json()
    print("ok  BENCHMARK.json matches run.py")

    for name, cls in WORKLOADS.items():
        workload = cls(small=True)
        with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
            workload.setup(1, Path(tmp))
            try:
                plain = workload.warm_up()
                recorder = Recorder()
                recorder.op = 1
                recorder.install()
                try:
                    traced = workload.op(
                        1 if workload.varies_per_op else 0)
                finally:
                    recorder.uninstall()
            finally:
                workload.close()
        if not workload.varies_per_op:
            assert traced.digest == plain.digest, (
                f"{name}: traced digest differs from untraced")
        seen = {span[0] for span in recorder.spans}
        missing = [layer for layer in MAIN_LAYERS[name] if layer not in seen]
        assert not missing, f"{name}: no spans for {missing}"
        print(f"ok  {name}: op {plain.wall_s:.2f}s, traced op "
              f"{traced.wall_s:.2f}s, {len(recorder.spans)} spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
