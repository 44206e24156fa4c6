"""Replay correctness: the golden bit-for-bit contract, cross-scheme
replays, desync detection and the executor/cache integration.

The central claim (docs/TRACES.md): replaying a just-recorded trace under
the identical system + scheme reproduces the recorded run's DLB decisions
and :class:`RunResult` *bit-for-bit* -- including the full event log --
without running the AMR solver.
"""

from dataclasses import replace

import pytest

from repro.config import ExecParams, FaultParams, TraceParams
from repro.exec import make_executor
from repro.harness.experiment import (
    ExperimentConfig,
    resolve_trace_config,
    run_experiment,
    run_sequential,
)
from repro.harness.persist import run_result_to_dict
from repro.harness.sweep import run_fault_scenarios, run_sweep
from repro.traces import (
    TraceFormatError,
    TraceReplayError,
    TraceReplayRunner,
    record_run,
    replay_trace,
    write_trace,
)

SMALL = ExperimentConfig(procs_per_group=2, steps=3, domain_cells=16,
                         max_levels=3)
ALL_SCHEMES = ("parallel", "distributed", "static", "diffusion")


def _events_as_tuples(result):
    """The full event log, comparable field by field."""
    return [
        (type(e).__name__, sorted(vars(e).items()))
        for e in (result.events or [])
    ]


class TestGoldenEquivalence:
    """Replay under the recorded scheme + system is bit-for-bit exact."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_replay_reproduces_recorded_run(self, scheme):
        recorded, trace = record_run(SMALL, scheme)
        replayed = replay_trace(trace, SMALL, scheme, strict=True)
        assert run_result_to_dict(replayed) == run_result_to_dict(recorded)
        assert _events_as_tuples(replayed) == _events_as_tuples(recorded)

    def test_replay_through_harness_from_file(self, tmp_path):
        out = tmp_path / "run.trace.jsonl.gz"
        recorded, _ = record_run(SMALL, "distributed", out=out)
        cfg = replace(SMALL, trace=TraceParams(source=str(out), strict=True))
        replayed = run_experiment(cfg, "distributed")
        assert run_result_to_dict(replayed) == run_result_to_dict(recorded)

    def test_replay_with_faults_matches_faulted_recording(self):
        faulted = replace(SMALL, fault=FaultParams(scenario="slowdown"))
        recorded, trace = record_run(faulted, "distributed")
        replayed = replay_trace(trace, faulted, "distributed", strict=True)
        assert run_result_to_dict(replayed) == run_result_to_dict(recorded)

    def test_manifest_fast_path_is_used(self):
        _, trace = record_run(SMALL, "distributed")
        from repro.core.registry import make_scheme
        from repro.harness.experiment import make_system

        runner = TraceReplayRunner(trace, make_system(SMALL),
                                   make_scheme("distributed"),
                                   sim_params=SMALL.sim_params,
                                   scheme_params=SMALL.effective_scheme_params(),
                                   strict=True)
        runner.run(SMALL.steps)
        assert runner.manifest_fallbacks == 0

    def test_manifest_free_replay_still_matches(self):
        """Manifests are an optimisation: without them the replayer
        recomputes adjacency geometrically to identical results."""
        recorded, trace = record_run(SMALL, "distributed", manifests=False)
        assert not any(r["op"] == "manifest" for r in trace.records)
        replayed = replay_trace(trace, SMALL, "distributed", strict=True)
        assert run_result_to_dict(replayed) == run_result_to_dict(recorded)


class TestCrossReplay:
    """One trace, many what-ifs: different scheme / gamma / system / faults."""

    @pytest.fixture(scope="class")
    def trace(self):
        _, trace = record_run(SMALL, "distributed")
        return trace

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_any_scheme_replays(self, trace, scheme):
        result = replay_trace(trace, SMALL, scheme)
        assert result.nsteps == SMALL.steps
        assert result.total_time > 0

    def test_gamma_changes_decisions(self, trace):
        eager = replay_trace(trace, replace(SMALL, gamma=0.0), "distributed")
        reluctant = replay_trace(trace, replace(SMALL, gamma=1e9), "distributed")
        assert eager.redistributions >= reluctant.redistributions
        assert reluctant.redistributions == 0

    def test_other_system_shape(self, trace):
        result = replay_trace(trace, replace(SMALL, procs_per_group=4,
                                             network="lan"), "distributed")
        assert result.system == "4+4procs"

    def test_fault_schedule_applies(self, trace):
        clean = replay_trace(trace, SMALL, "static")
        hurt = replay_trace(trace, replace(SMALL, fault=FaultParams(
            scenario="slowdown", severity=8.0)), "static")
        assert hurt.total_time > clean.total_time

    def test_sequential_reference(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        record_run(SMALL, "distributed", out=out)
        # strict stays on: run_sequential drops it (the E(1) reference is a
        # cross-scheme replay by construction)
        cfg = replace(SMALL, trace=TraceParams(source=str(out), strict=True))
        result = run_sequential(cfg)
        assert result.total_time > 0
        assert result.comm_time == 0.0


class TestDesyncDetection:
    def test_more_steps_than_recorded_raises(self):
        _, trace = record_run(SMALL, "distributed")
        from repro.core.registry import make_scheme
        from repro.harness.experiment import make_system

        runner = TraceReplayRunner(trace, make_system(SMALL),
                                   make_scheme("distributed"),
                                   sim_params=SMALL.sim_params)
        with pytest.raises(TraceReplayError, match="holds"):
            runner.run(SMALL.steps + 5)

    def test_harness_clamps_to_trace_length(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        record_run(SMALL, "distributed", out=out)
        cfg = replace(SMALL, steps=50,
                      trace=TraceParams(source=str(out)))
        result = run_experiment(cfg, "distributed")
        assert result.nsteps == SMALL.steps

    def test_strict_cross_scheme_divergence_raises(self):
        """Recorded under a splitting scheme, strictly replayed under a
        non-splitting one: the hierarchies legitimately diverge and strict
        says so instead of silently re-balancing different workloads."""
        _, trace = record_run(SMALL, "distributed")
        with pytest.raises(TraceReplayError, match="divergence"):
            replay_trace(trace, SMALL, "static", strict=True)


class TestExecutorIntegration:
    def test_replay_results_cache_by_trace_content(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        recorded, _ = record_run(SMALL, "distributed", out=out)
        ex = make_executor(ExecParams(jobs=1, use_cache=True,
                                      cache_dir=str(tmp_path / "cache")))
        cfg = replace(SMALL, trace=TraceParams(source=str(out)))
        first = run_experiment(cfg, "distributed", executor=ex)
        assert ex.last_stats.cache_hits == 0
        second = run_experiment(cfg, "distributed", executor=ex)
        assert ex.last_stats.cache_hits == 1
        assert first.total_time == second.total_time == recorded.total_time

        # the same bytes under another name must hit as well
        copy = tmp_path / "renamed.trace.jsonl.gz"
        copy.write_bytes(out.read_bytes())
        run_experiment(replace(cfg, trace=TraceParams(source=str(copy))),
                       "distributed", executor=ex)
        assert ex.last_stats.cache_hits == 1

    def test_changed_bytes_fail_pinned_hash(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        record_run(SMALL, "distributed", out=out)
        cfg = resolve_trace_config(
            replace(SMALL, trace=TraceParams(source=str(out))))
        # overwrite with a different (valid) trace: pinned hash must reject
        _, other = record_run(replace(SMALL, steps=2), "distributed")
        write_trace(other, out)
        with pytest.raises(TraceFormatError, match="content changed"):
            run_experiment(cfg, "distributed")

    def test_replay_trace_str_source_uses_executor(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        recorded, _ = record_run(SMALL, "distributed", out=out)
        ex = make_executor(ExecParams(jobs=1, use_cache=True,
                                      cache_dir=str(tmp_path / "cache")))
        result = replay_trace(str(out), SMALL, "distributed", executor=ex)
        assert result.total_time == recorded.total_time

    def test_scheme_defaults_to_distributed(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        recorded, trace = record_run(SMALL, out=out)
        assert trace.scheme == "distributed"
        assert replay_trace(str(out), SMALL).total_time == recorded.total_time
        assert replay_trace(trace, SMALL).total_time == recorded.total_time

    def test_replay_trace_object_rejects_executor(self):
        _, trace = record_run(SMALL, "distributed")
        with pytest.raises(ValueError, match="write_trace"):
            replay_trace(trace, SMALL, "distributed", executor=object())


class TestSweepsOverTraces:
    def test_sweep_from_file_trace(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        record_run(SMALL, "distributed", out=out)
        cfg = replace(SMALL, trace=TraceParams(source=str(out)))
        sweep = run_sweep(cfg, procs_per_group=(1, 2))
        assert len(sweep.pairs) == 2
        for pair in sweep.pairs:
            assert pair.parallel.total_time > 0
            assert pair.distributed.total_time > 0

    def test_fault_scenarios_from_synth_trace(self):
        cfg = replace(SMALL, trace=TraceParams(source="synth:adversarial"))
        results = run_fault_scenarios(cfg, scenarios=("none", "slowdown"))
        assert set(results) == {"none", "slowdown"}
        for pair in results.values():
            assert pair.distributed.app == "synth:adversarial"

    def test_synth_replay_deterministic_across_calls(self):
        cfg = replace(SMALL, trace=TraceParams(source="synth:hotspot", seed=3))
        a = run_experiment(cfg, "distributed")
        b = run_experiment(cfg, "distributed")
        assert run_result_to_dict(a) == run_result_to_dict(b)

    def test_unknown_synth_name_raises(self):
        cfg = replace(SMALL, trace=TraceParams(source="synth:warpdrive"))
        with pytest.raises(ValueError, match="registered"):
            run_experiment(cfg, "distributed")


class TestGeometryCaches:
    """Synthetic traces carry no manifests, so their replay computes sibling
    geometry through the runner's caches, keyed per level."""

    def test_level0_adjacency_computed_once_per_replay(self, monkeypatch):
        from repro.amr.hierarchy import GridHierarchy
        from repro.core.registry import make_scheme
        from repro.harness.experiment import make_system
        from repro.traces.replay import load_trace_source

        cfg = replace(SMALL, steps=2,
                      trace=TraceParams(source="synth:hotspot", seed=1))
        trace = load_trace_source(cfg)
        assert not any(r["op"] == "manifest" for r in trace.records)
        calls = []
        real = GridHierarchy.sibling_pairs

        def counting(self, level, ghost=1):
            calls.append(level)
            return real(self, level, ghost)

        monkeypatch.setattr(GridHierarchy, "sibling_pairs", counting)
        runner = TraceReplayRunner(trace, make_system(cfg),
                                   make_scheme("distributed"),
                                   sim_params=cfg.sim_params,
                                   scheme_params=cfg.effective_scheme_params())
        runner.run(2)
        assert calls.count(0) == 1
        assert calls.count(1) > 1  # finer levels are regridded between solves

    def test_global_version_sequence_unchanged(self):
        """Manifests record the global ``hierarchy.version``; per-level
        versions must leave its sequence exactly as it was."""
        cfg = replace(SMALL, steps=2)
        _, trace = record_run(cfg, "distributed")
        versions = [(r["l"], r["v"]) for r in trace.records
                    if r["op"] == "manifest"]
        assert versions == [(0, 63), (1, 116), (2, 152), (1, 152), (2, 229),
                            (0, 241), (1, 291), (2, 326), (1, 326), (2, 404)]


class TestObservability:
    def test_replay_emits_trace_metrics(self):
        from repro.obs import get_default_metrics

        _, trace = record_run(SMALL, "distributed")
        before = get_default_metrics().counter("trace.replayed_runs").value
        replay_trace(trace, SMALL, "distributed")
        after = get_default_metrics().counter("trace.replayed_runs").value
        assert after == before + 1

    def test_record_emits_trace_metrics(self):
        from repro.obs import get_default_metrics

        before = get_default_metrics().counter("trace.recorded_runs").value
        record_run(SMALL, "distributed")
        after = get_default_metrics().counter("trace.recorded_runs").value
        assert after == before + 1

    def test_traced_replay_has_spans(self):
        from repro.obs import Tracer

        _, trace = record_run(SMALL, "distributed")
        tracer = Tracer()
        result = replay_trace(trace, SMALL, "distributed", tracer=tracer)
        assert result.spans
        assert tracer.record_count > 0
