"""The trace schema and synthetic generators: format round-trips, corrupt
inputs, generator determinism (see docs/TRACES.md)."""

import gzip
import json
from dataclasses import replace

import pytest

from repro.config import TraceParams
from repro.core.registry import available_schemes
from repro.harness.experiment import ExperimentConfig
from repro.traces import (
    Trace,
    TraceFormatError,
    TraceRecorder,
    available_synth_workloads,
    generate_trace,
    make_synth_workload,
    parse_synth_source,
    read_trace,
    record_run,
    register_synth_workload,
    trace_file_hash,
    write_trace,
)
from repro.traces.schema import validate_header, validate_record
from repro.traces.synth import MovingHotspot, SyntheticWorkload, disjoint_boxes

SMALL = ExperimentConfig(procs_per_group=1, steps=2, domain_cells=16,
                         max_levels=3)


@pytest.fixture(scope="module")
def recorded():
    """One small recorded trace, shared by the whole module."""
    _, trace = record_run(SMALL, "distributed")
    return trace


class TestRoundTrip:
    def test_write_read_is_identity(self, recorded, tmp_path):
        path = tmp_path / "t.trace.jsonl.gz"
        write_trace(recorded, path)
        assert read_trace(path) == recorded

    def test_write_read_write_is_byte_identical(self, recorded, tmp_path):
        """The determinism contract: identical traces, identical bytes --
        including across a read/write cycle and across file names."""
        p1 = tmp_path / "first.trace.jsonl.gz"
        p2 = tmp_path / "second-name.trace.jsonl.gz"
        write_trace(recorded, p1)
        write_trace(read_trace(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert trace_file_hash(p1) == trace_file_hash(p2)

    def test_header_carries_provenance(self, recorded):
        h = recorded.header
        assert h["app"] == "ShockPool3D"
        assert h["scheme"] == "distributed"
        assert h["nsteps"] == SMALL.steps
        assert h["config_hash"]
        assert h["salt"].startswith("repro-")

    def test_describe_mentions_the_essentials(self, recorded):
        text = recorded.describe()
        assert "ShockPool3D" in text and "2 steps" in text

    def test_default_replay_steps(self, recorded, tmp_path):
        from repro.traces import TraceFormatError, default_replay_steps

        path = tmp_path / "t.trace.jsonl.gz"
        write_trace(recorded, path)
        # file traces replay in full; synthetic sources get the harness
        # default of 4 (they have no inherent length)
        assert default_replay_steps(path) == recorded.nsteps
        assert default_replay_steps("synth:hotspot") == 4
        with pytest.raises(TraceFormatError):
            default_replay_steps(tmp_path / "missing.trace.jsonl.gz")


class TestCorruptInputs:
    def _write(self, tmp_path, lines, name="bad.trace.jsonl.gz"):
        path = tmp_path / name
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for line in lines:
                fh.write(json.dumps(line) + "\n")
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            read_trace(tmp_path / "nope.trace.jsonl.gz")

    def test_not_gzip(self, tmp_path):
        path = tmp_path / "plain.trace.jsonl.gz"
        path.write_text("this is not gzip\n")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace.jsonl.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("")
        with pytest.raises(TraceFormatError, match="empty"):
            read_trace(path)

    def test_wrong_format_marker(self, tmp_path):
        path = self._write(tmp_path, [{"format": "other", "version": 1}])
        with pytest.raises(TraceFormatError, match="not a repro workload trace"):
            read_trace(path)

    def test_future_version_rejected(self, recorded, tmp_path):
        header = dict(recorded.header, version=999)
        path = self._write(tmp_path, [header])
        with pytest.raises(TraceFormatError, match="version"):
            read_trace(path)

    def test_missing_header_field(self, recorded, tmp_path):
        header = dict(recorded.header)
        del header["root_wpc"]
        path = self._write(tmp_path, [header])
        with pytest.raises(TraceFormatError, match="root_wpc"):
            read_trace(path)

    def test_truncated_body_detected(self, recorded, tmp_path):
        """Dropping records after the fact must trip the footer count."""
        good = tmp_path / "good.trace.jsonl.gz"
        write_trace(recorded, good)
        with gzip.open(good, "rt", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        clipped = lines[:5] + [lines[-1]]  # keep header + footer
        bad = tmp_path / "clipped.trace.jsonl.gz"
        with gzip.open(bad, "wt", encoding="ascii") as fh:
            fh.write("\n".join(clipped) + "\n")
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(bad)

    def test_missing_footer_detected(self, recorded, tmp_path):
        path = self._write(tmp_path,
                           [recorded.header] + recorded.records[:3])
        with pytest.raises(TraceFormatError, match="footer"):
            read_trace(path)

    def test_truncated_gzip_stream(self, recorded, tmp_path):
        good = tmp_path / "good.trace.jsonl.gz"
        write_trace(recorded, good)
        data = good.read_bytes()
        bad = tmp_path / "cut.trace.jsonl.gz"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError):
            read_trace(bad)

    def test_invalid_json_line(self, recorded, tmp_path):
        good = tmp_path / "good.trace.jsonl.gz"
        write_trace(recorded, good)
        with gzip.open(good, "rt", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        lines[2] = "{not json"
        bad = tmp_path / "badjson.trace.jsonl.gz"
        with gzip.open(bad, "wt", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            read_trace(bad)

    def test_unknown_record_op(self):
        with pytest.raises(TraceFormatError, match="unknown op"):
            validate_record({"op": "teleport"}, 0)

    def test_record_missing_field(self):
        with pytest.raises(TraceFormatError, match="missing field"):
            validate_record({"op": "solve", "l": 0}, 3)

    def test_bool_header_field_rejected(self, recorded):
        header = dict(recorded.header, nsteps=True)
        with pytest.raises(TraceFormatError, match="wrong type"):
            validate_header(header)

    def test_write_validates(self, recorded, tmp_path):
        broken = Trace(header=dict(recorded.header),
                       records=[{"op": "nope"}])
        with pytest.raises(TraceFormatError):
            write_trace(broken, tmp_path / "x.trace.jsonl.gz")


class TestTraceParams:
    def test_requires_source(self):
        with pytest.raises(ValueError, match="source"):
            TraceParams()

    def test_rejects_bare_synth_prefix(self):
        with pytest.raises(ValueError, match="empty synthetic"):
            TraceParams(source="synth:")

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(ValueError, match="intensity"):
            TraceParams(source="synth:hotspot", intensity=0.0)

    def test_is_synthetic(self):
        assert TraceParams(source="synth:hotspot").is_synthetic
        assert not TraceParams(source="run.trace.jsonl.gz").is_synthetic


class TestSynthRegistry:
    def test_builtins_registered(self):
        names = available_synth_workloads()
        assert {"hotspot", "bursty", "adversarial"} <= set(names)

    def test_make_unknown_raises(self):
        with pytest.raises(ValueError, match="registered"):
            make_synth_workload("warpdrive")

    def test_parse_synth_source(self):
        assert parse_synth_source("synth:hotspot") == "hotspot"
        assert parse_synth_source("some/file.trace.jsonl.gz") is None
        with pytest.raises(ValueError):
            parse_synth_source("synth:")

    def test_register_custom(self):
        class Blob(SyntheticWorkload):
            name = "test-blob"

            def cluster_boxes(self, coarse_level, time):
                return [self._frac_box([0.2] * 3, [0.6] * 3, coarse_level)]

        register_synth_workload(Blob)
        try:
            assert "test-blob" in available_synth_workloads()
            trace = generate_trace(make_synth_workload("test-blob"),
                                   steps=2, nprocs=2)
            assert trace.app == "synth:test-blob"
            assert trace.nsteps == 2
        finally:
            from repro.traces.synth import _SYNTH

            del _SYNTH["test-blob"]

    def test_register_rejects_default_name(self):
        with pytest.raises(ValueError, match="non-default name"):
            register_synth_workload(SyntheticWorkload)


class TestSynthGenerators:
    @pytest.mark.parametrize("name", ["hotspot", "bursty", "adversarial"])
    def test_deterministic(self, name):
        mk = lambda: make_synth_workload(name, domain_cells=16, max_levels=3,
                                         seed=11)
        assert (generate_trace(mk(), steps=3, nprocs=4)
                == generate_trace(mk(), steps=3, nprocs=4))

    @pytest.mark.parametrize("name", ["hotspot", "bursty", "adversarial"])
    def test_seed_changes_trace(self, name):
        a = generate_trace(make_synth_workload(name, seed=1), steps=3, nprocs=4)
        b = generate_trace(make_synth_workload(name, seed=2), steps=3, nprocs=4)
        if name == "adversarial":  # seed-free by design (worst case is fixed)
            assert a.records == b.records
        else:
            assert a.records != b.records

    def test_generated_trace_round_trips(self, tmp_path):
        trace = generate_trace(MovingHotspot(seed=5), steps=2, nprocs=4)
        path = tmp_path / "synth.trace.jsonl.gz"
        write_trace(trace, path)
        assert read_trace(path) == trace

    def test_header_marks_synthetic(self):
        trace = generate_trace(MovingHotspot(), steps=2, nprocs=2)
        assert trace.app == "synth:hotspot"
        assert trace.scheme == "synth"
        assert trace.header["config"] is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MovingHotspot(domain_cells=2)
        with pytest.raises(ValueError):
            MovingHotspot(intensity=0)
        with pytest.raises(ValueError):
            generate_trace(MovingHotspot(), steps=0, nprocs=2)

    def test_disjoint_boxes(self):
        from repro.amr.box import Box

        a = Box((0, 0, 0), (4, 4, 4))
        b = Box((2, 2, 2), (6, 6, 6))
        out = disjoint_boxes([a, b])
        assert sum(x.ncells for x in out) == a.ncells + b.ncells - 2**3
        for i, x in enumerate(out):
            for y in out[i + 1:]:
                assert not x.intersects(y)


class TestRecordRun:
    def test_recording_does_not_perturb_the_run(self):
        from repro.harness.experiment import run_experiment
        from repro.harness.persist import run_result_to_dict

        base = run_experiment(SMALL, "distributed")
        result, _ = record_run(SMALL, "distributed")
        assert run_result_to_dict(result) == run_result_to_dict(base)

    def test_header_scheme_is_the_registry_name(self, recorded):
        # not the display label "distributed DLB", which is output only
        assert recorded.scheme == "distributed"
        assert recorded.scheme in available_schemes()

    def test_recorder_needs_a_scheme_name(self):
        with pytest.raises(TypeError, match="scheme_name"):
            TraceRecorder(config=SMALL)

    def test_rejects_replay_config(self):
        cfg = replace(SMALL, trace=TraceParams(source="synth:hotspot"))
        with pytest.raises(ValueError, match="record a replayed run"):
            record_run(cfg, "distributed")

    def test_writes_file(self, tmp_path):
        out = tmp_path / "r.trace.jsonl.gz"
        _, trace = record_run(SMALL, "parallel", out=out)
        assert out.is_file()
        assert read_trace(out) == trace
