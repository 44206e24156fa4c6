"""The repro.api facade: a stable, importable surface with one call shape.

``EXPECTED_API`` is a frozen copy of ``repro.api.__all__``: removing or
renaming an entry is a breaking change and must fail here first.  Adding a
name is fine -- extend this list in the same change.
"""

import inspect
from functools import partial

import pytest

import repro
import repro.api as api
import repro.core
import repro.distsys
import repro.distsys.comm
from repro.api import (
    ExperimentConfig,
    replicate,
    run_experiment,
    run_fault_scenarios,
    run_paired,
    run_sequential,
    run_sweep,
)
from repro.core.registry import (
    SchemeSpec,
    get_scheme_spec,
    make_scheme,
    register_scheme,
)
from repro.distsys import build_system, comm_phase_time, wan_spec

EXPECTED_API = [
    # configuration
    "ExperimentConfig",
    "SimParams",
    "SchemeParams",
    "FaultParams",
    "ExecParams",
    "TraceParams",
    "ServiceConfig",
    "sequential_config",
    # system construction
    "SystemSpec",
    "GroupSpec",
    "LINK_PRESETS",
    "build_system",
    "parallel_spec",
    "lan_spec",
    "wan_spec",
    "multi_site_spec",
    # network topologies
    "NetworkTopology",
    "TopologySpec",
    "EdgeSpec",
    "Route",
    "star",
    "ring",
    "torus",
    "fat_tree",
    "wan_mesh",
    "from_edges",
    "DIFFUSION_SOS_SPEC",
    "DIFFUSION_DIMEX_SPEC",
    # schemes: policy protocols + registry
    "WeightPolicy",
    "DecisionPolicy",
    "GlobalPartitionPolicy",
    "LocalBalancePolicy",
    "SchemeSpec",
    "register_scheme",
    "available_schemes",
    "make_scheme",
    # entry points
    "quick_run",
    "run_experiment",
    "run_sequential",
    "run_paired",
    "run_sweep",
    "run_fault_scenarios",
    "replicate",
    "execute_scheme",
    "PAPER_CONFIGS",
    "FAULT_SWEEP_SCENARIOS",
    # results
    "RunResult",
    "PairedResult",
    "SweepResult",
    "ReplicatedResult",
    "efficiency",
    # execution engines
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ExecTask",
    "ExecStats",
    "ResultCache",
    "get_default_executor",
    "set_default_executor",
    # observability
    "Tracer",
    "MetricsRegistry",
    "chrome_trace",
    "write_chrome_trace",
    "write_span_jsonl",
    "flame_summary",
    "validate_chrome_trace",
    "prometheus_text",
    # serving daemon
    "ServeServer",
    "ServeClient",
    "AsyncServeClient",
    "JobResult",
    "ServeError",
    "QueueFullError",
    # workload traces
    "Trace",
    "TraceFormatError",
    "TraceReplayError",
    "TraceReplayRunner",
    "record_run",
    "replay_trace",
    "read_trace",
    "write_trace",
    "SyntheticWorkload",
    "register_synth_workload",
    "available_synth_workloads",
    "make_synth_workload",
    # serving simulator (DLB as a request router)
    "simulate_service",
    "ServiceReport",
    "LatencyHistogram",
    "report_hash",
    "format_service_report",
    "register_router_policy",
    "available_router_policies",
    "make_router_policy",
    "available_arrival_presets",
    # persistence
    "save_run",
    "load_run",
    "save_sweep",
    "load_sweep",
    "save_replicated",
    "load_replicated",
    "save_fault_scenarios",
    "load_fault_scenarios",
    # reporting and timelines
    "format_table",
    "format_percent",
    "comparison_block",
    "step_timeline",
    "render_step_timeline",
    "render_event_listing",
]

SMALL = ExperimentConfig(procs_per_group=1, steps=2)


class TestSurface:
    def test_all_is_frozen(self):
        assert api.__all__ == EXPECTED_API

    def test_every_name_importable_and_bound(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_no_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))


class TestCallShape:
    """Every run_* entry point takes (config, ..., *, executor, tracer, seed)."""

    @pytest.mark.parametrize("fn", [run_experiment, run_sequential,
                                    run_paired, run_sweep,
                                    run_fault_scenarios, replicate])
    def test_unified_keywords(self, fn):
        params = inspect.signature(fn).parameters
        for name in ("executor", "tracer", "seed"):
            if fn in (run_sequential,) and name == "executor":
                continue  # sequential runs in-process by design
            assert name in params, f"{fn.__name__} lacks {name}="
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
            assert params[name].default is None

    def test_first_parameter_is_config(self):
        for fn in (run_experiment, run_sequential, run_paired, run_sweep,
                   run_fault_scenarios, replicate):
            first = next(iter(inspect.signature(fn).parameters))
            assert first == "config", fn.__name__


class TestSeedOverride:
    def test_seed_overrides_traffic_seed(self):
        cfg = ExperimentConfig(procs_per_group=1, steps=2,
                               traffic_kind="bursty", traffic_seed=1)
        base = run_experiment(cfg, "distributed")
        reseeded = run_experiment(cfg, "distributed", seed=99)
        explicit = run_experiment(
            ExperimentConfig(procs_per_group=1, steps=2,
                             traffic_kind="bursty", traffic_seed=99),
            "distributed")
        assert reseeded.total_time == explicit.total_time
        assert reseeded.total_time != base.total_time

    def test_replicate_seed_anchors_consecutive_seeds(self):
        rep = replicate(SMALL, seed=5)
        assert rep.seeds == [5, 6, 7]


class TestRemovedCallForms:
    """Every retired second call form fails with a typed error."""

    @pytest.mark.parametrize("call,error,match", [
        pytest.param(lambda: run_paired(SMALL, True), TypeError,
                     "positional", id="run_paired-positional"),
        pytest.param(lambda: run_sweep(SMALL, (1,)), TypeError,
                     "positional", id="run_sweep-positional"),
        pytest.param(lambda: run_fault_scenarios(SMALL, ("none",)), TypeError,
                     "positional", id="run_fault_scenarios-positional"),
        pytest.param(lambda: replicate(SMALL, (3,)), TypeError,
                     "positional", id="replicate-positional"),
        pytest.param(lambda: run_experiment(SMALL, scheme_name="parallel"),
                     TypeError, "scheme_name", id="run_experiment-scheme_name"),
        pytest.param(lambda: make_scheme("parallel DLB"), ValueError,
                     r"registered schemes: .*distributed.*parallel",
                     id="make_scheme-display-label"),
        pytest.param(lambda: get_scheme_spec("distributed DLB"), ValueError,
                     r"registered schemes: .*distributed",
                     id="get_scheme_spec-display-label"),
        pytest.param(lambda: build_system([2, 2]), TypeError,
                     r"SystemSpec.*parallel_spec.*multi_site_spec",
                     id="build_system-group-sizes"),
        *(pytest.param(partial(getattr, repro.distsys, name), AttributeError,
                       name, id=f"distsys.{name}")
          for name in ("parallel_system", "lan_system", "wan_system",
                       "multi_site_system")),
        pytest.param(
            lambda: comm_phase_time(build_system(wan_spec(1)), [], 0.0),
            TypeError, "MessageBatch", id="comm_phase_time-list"),
        pytest.param(
            lambda: register_scheme(SchemeSpec(name="removed-factory"),
                                    lambda spec: make_scheme(spec)),
            TypeError, "positional", id="register_scheme-factory"),
        *(pytest.param(partial(getattr, module, name), AttributeError,
                       name, id=f"{module.__name__}.{name}")
          for module, names in (
              (repro, ("DistributedDLB", "ParallelDLB", "StaticDLB",
                       "DiffusionDLB")),
              (repro.core, ("DistributedDLB", "ParallelDLB", "StaticDLB",
                            "DiffusionDLB", "DLBScheme")),
              (repro.distsys, ("Message",)),
              (repro.distsys.comm, ("Message",)),
          )
          for name in names),
    ])
    def test_removed_form_raises(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_register_scheme_signature(self):
        params = inspect.signature(register_scheme).parameters
        assert list(params) == ["spec", "replace"]
        assert params["replace"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_build_system_signature(self):
        params = inspect.signature(build_system).parameters
        assert list(params) == ["spec", "traffic"]
        assert params["traffic"].kind is inspect.Parameter.KEYWORD_ONLY
        assert params["traffic"].default is None
