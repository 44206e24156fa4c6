"""Unit tests for the message cost model.

:func:`reference_phase_time` is the per-message loop the cost model was
first written as: it bundles and accounts one message at a time in plain
Python.  ``comm_phase_time`` costs a :class:`MessageBatch` with array passes
and must agree with it exactly (``==`` on the whole
:class:`CommPhaseResult`), on single-link and routed systems alike.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsys import (
    ClusterSimulator,
    GroupSpec,
    SystemSpec,
    build_system,
    multi_site_spec,
    torus,
    wan_spec,
)
from repro.distsys.comm import (
    CommGeometry,
    CommPhaseResult,
    MessageBatch,
    MessageKind,
    comm_phase_time,
)
from repro.distsys.network import Link
from repro.distsys.traffic import ConstantTraffic

#: one message as the reference loop takes it: (src, dst, nbytes, kind)
Msg = Tuple[int, int, float, MessageKind]


def reference_phase_time(system, messages: Sequence[Msg],
                         time: float) -> CommPhaseResult:
    """The per-message loop: the oracle for ``comm_phase_time``."""
    geo = CommGeometry(system)
    # bundle volumes per (src, dst) pair
    bundles: Dict[Tuple[int, int], float] = {}
    result = CommPhaseResult()
    for src, dst, nbytes, kind in messages:
        if src == dst:
            continue  # self-message: no network cost
        bundles[(src, dst)] = bundles.get((src, dst), 0.0) + nbytes
        if system.is_remote(src, dst):
            result.remote_messages += 1
            result.remote_bytes += nbytes
            result.remote_bytes_by_kind[kind.value] = (
                result.remote_bytes_by_kind.get(kind.value, 0.0) + nbytes
            )
        else:
            result.local_messages += 1
            result.local_bytes += nbytes

    def route_links(src: int, dst: int) -> List[Tuple[Link, int]]:
        ga, gb = geo.group_of_pid[src], geo.group_of_pid[dst]
        start = int(geo.route_start[ga, gb])
        return [(geo.links[int(geo.route_links_flat[k])],
                 int(geo.route_endpoint_flat[k]))
                for k in range(start, start + int(geo.route_len[ga, gb]))]

    # every link of a bundle's route carries its bytes; only endpoint links
    # pay the per-bundle overhead; links run concurrently
    per_link: Dict[int, list] = {}  # id -> [link, remote, bytes, nendpoints]
    for (src, dst), nbytes in bundles.items():
        remote = system.is_remote(src, dst)
        for link, endpoint in route_links(src, dst):
            rec = per_link.get(id(link))
            if rec is None:
                per_link[id(link)] = [link, remote, nbytes, endpoint]
            else:
                rec[1] = remote
                rec[2] += nbytes
                rec[3] += endpoint

    elapsed = 0.0
    for link, remote, nbytes, nendpoints in per_link.values():
        if geo.multihop:
            busy = (link.alpha(time) + nendpoints * link.per_message_overhead
                    + nbytes * link.beta(time))
        else:
            busy = link.phase_time(nendpoints, nbytes, time)
        if remote:
            result.remote_time += busy
        else:
            result.local_time += busy
        elapsed = max(elapsed, busy)
    result.elapsed = elapsed
    return result


def batch_of(messages: Sequence[Msg]) -> MessageBatch:
    kinds = list(MessageKind)
    return MessageBatch(
        [m[0] for m in messages], [m[1] for m in messages],
        [m[2] for m in messages], [kinds.index(m[3]) for m in messages],
    )


def sibling(src, dst, nbytes) -> MessageBatch:
    """A batch of sibling messages from parallel lists."""
    return MessageBatch.of_kind(src, dst, nbytes, MessageKind.SIBLING)


@pytest.fixture
def system():
    return build_system(wan_spec(2), traffic=ConstantTraffic(0.0))


def wan_params(system, t=0.0):
    link = system.inter_link(0, 1)
    return link.alpha(t), link.beta(t), link.per_message_overhead


class TestMessage:
    def test_negative_bytes_raise(self):
        with pytest.raises(ValueError):
            sibling([0], [1], [-5])

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="lengths"):
            MessageBatch([0, 1], [1], [5.0], [0])

    def test_kinds_cover_taxonomy(self):
        assert {k.value for k in MessageKind} == {
            "sibling", "parent_child", "migration", "probe", "control",
        }

    def test_concatenate_preserves_order(self):
        a = sibling([0], [1], [1.0])
        b = MessageBatch.of_kind([2, 3], [3, 0], [2.0, 3.0],
                                 MessageKind.MIGRATION)
        joined = MessageBatch.concatenate([a, MessageBatch.empty(), b])
        assert joined.src.tolist() == [0, 2, 3]
        assert joined.nbytes.tolist() == [1.0, 2.0, 3.0]
        assert joined.total_bytes() == 6.0


class TestOnlyBatches:
    @pytest.mark.parametrize("messages", [[], (), None, [(0, 1, 5.0)]])
    def test_comm_phase_time_rejects_non_batches(self, system, messages):
        with pytest.raises(TypeError, match="MessageBatch"):
            comm_phase_time(system, messages, 0.0)

    def test_run_comm_rejects_a_list_before_charging(self, system):
        sim = ClusterSimulator(system)
        with pytest.raises(TypeError, match="MessageBatch"):
            sim.run_comm([])
        assert sim.clock == 0.0 and sim.comm_time == 0.0


class TestCommPhaseTime:
    def test_empty_phase_free(self):
        r = comm_phase_time(build_system(wan_spec(1)), MessageBatch.empty(), 0.0)
        assert r == CommPhaseResult()

    def test_self_message_free(self, system):
        r = comm_phase_time(system, sibling([0], [0], [1e6]), 0.0)
        assert r.elapsed == 0.0
        assert r.local_messages == 0

    def test_single_remote_message(self, system):
        alpha, beta, oh = wan_params(system)
        r = comm_phase_time(system, sibling([0], [2], [1000]), 0.0)
        assert r.elapsed == pytest.approx(alpha + oh + 1000 * beta)
        assert r.remote_messages == 1
        assert r.remote_bytes == 1000

    def test_same_pair_bundled_single_latency(self, system):
        alpha, beta, oh = wan_params(system)
        msgs = batch_of([(0, 2, 1000, MessageKind.SIBLING),
                         (0, 2, 3000, MessageKind.PARENT_CHILD)])
        r = comm_phase_time(system, msgs, 0.0)
        # one bundle: one latency, one overhead, summed volume
        assert r.elapsed == pytest.approx(alpha + oh + 4000 * beta)
        assert r.remote_bytes_by_kind == {"sibling": 1000.0,
                                          "parent_child": 3000.0}

    def test_distinct_pairs_overlap_latency_pay_overhead(self, system):
        """Concurrent transfers overlap the propagation latency but each
        bundle pays its software overhead."""
        alpha, beta, oh = wan_params(system)
        r = comm_phase_time(system, sibling([0, 1], [2, 3], [1000, 1000]), 0.0)
        assert r.elapsed == pytest.approx(alpha + 2 * oh + 2000 * beta)

    def test_links_run_concurrently(self, system):
        """A local and a remote transfer overlap; the WAN dominates."""
        alpha, beta, oh = wan_params(system)
        # 0->2 crosses the WAN, 0->1 stays inside group 0
        r = comm_phase_time(system, sibling([0, 0], [2, 1], [1000, 1000]), 0.0)
        assert r.elapsed == pytest.approx(alpha + oh + 1000 * beta)
        assert r.local_time > 0
        assert r.remote_time > r.local_time

    def test_local_vs_remote_classification(self, system):
        r = comm_phase_time(system, sibling([0, 2, 1], [1, 3, 2], [10, 20, 30]),
                            0.0)
        assert r.local_messages == 2
        assert r.remote_messages == 1
        assert r.local_bytes == 30
        assert r.remote_bytes == 30

    def test_traffic_slows_transfers(self):
        quiet = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))
        busy = build_system(wan_spec(2), traffic=ConstantTraffic(0.6))
        msgs = MessageBatch.of_kind([0], [2], [1e6], MessageKind.MIGRATION)
        assert (
            comm_phase_time(busy, msgs, 0.0).elapsed
            > comm_phase_time(quiet, msgs, 0.0).elapsed
        )

    def test_merge_accumulates(self):
        a = CommPhaseResult(elapsed=1.0, local_time=0.5, remote_time=1.0,
                            local_messages=1, remote_messages=2,
                            local_bytes=10, remote_bytes=20)
        b = CommPhaseResult(elapsed=2.0, local_time=0.25, remote_time=0.5,
                            local_messages=3, remote_messages=4,
                            local_bytes=30, remote_bytes=40)
        a.merge(b)
        assert a.elapsed == 3.0
        assert a.local_messages == 4
        assert a.remote_bytes == 60


class TestSingleLinkAnalytic:
    """n distinct remote pairs sharing one link cost exactly
    ``alpha(t) + n * per_message_overhead + W * beta(t)``."""

    @given(
        pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       min_size=1, max_size=16, unique=True),
        sizes=st.lists(st.integers(0, 10**7), min_size=16, max_size=16),
        t=st.floats(min_value=0.0, max_value=500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_cost_is_alpha_plus_overheads_plus_bytes(self, pairs, sizes, t):
        system = build_system(wan_spec(4), traffic=ConstantTraffic(0.3))
        src = [a for a, _ in pairs]            # group 0: pids 0..3
        dst = [4 + b for _, b in pairs]        # group 1: pids 4..7
        nbytes = [float(s) for s in sizes[:len(pairs)]]
        link = system.inter_link(0, 1)
        r = comm_phase_time(system, sibling(src, dst, nbytes), t)
        n, total = len(pairs), float(sum(sizes[:len(pairs)]))
        expected = (link.alpha(t) + n * link.per_message_overhead
                    + total * link.beta(t))
        assert r.elapsed == expected
        assert r.remote_time == expected
        assert r.remote_messages == n and r.local_messages == 0


def _torus_system():
    topo = torus((2, 3))
    return build_system(SystemSpec(
        groups=tuple(GroupSpec(name=n, nprocs=2) for n in topo.groups),
        topology=topo,
    ))


#: the geometries the oracle is drawn over: one shared WAN link, three
#: sites with a link per site pair, and a multi-hop 2x3 torus
SYSTEMS = {
    "wan": build_system(wan_spec(2)),
    "three-site": build_system(multi_site_spec([2, 1, 3])),
    "torus": _torus_system(),
}


@st.composite
def phases(draw):
    """A system and a message sequence on it: any pids (self-messages
    included), fractional byte counts, any kinds, possibly empty."""
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    nprocs = SYSTEMS[name].nprocs
    messages = draw(st.lists(
        st.tuples(
            st.integers(0, nprocs - 1),
            st.integers(0, nprocs - 1),
            st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
            st.sampled_from(list(MessageKind)),
        ),
        max_size=40,
    ))
    return name, messages


class TestBatchMatchesReferenceLoop:
    def test_torus_is_routed(self):
        assert CommGeometry(SYSTEMS["torus"]).multihop
        assert not CommGeometry(SYSTEMS["three-site"]).multihop

    @given(phase=phases(), t=st.floats(min_value=0.0, max_value=1000.0))
    @settings(max_examples=200, deadline=None)
    def test_equal_results(self, phase, t):
        name, messages = phase
        system = SYSTEMS[name]
        batch = comm_phase_time(system, batch_of(messages), t)
        assert batch == reference_phase_time(system, messages, t)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_empty_and_self_only_phases(self, name):
        system = SYSTEMS[name]
        only_self = [(p, p, 1e6, MessageKind.SIBLING) for p in range(system.nprocs)]
        for messages in ([], only_self):
            assert (comm_phase_time(system, batch_of(messages), 1.0)
                    == reference_phase_time(system, messages, 1.0)
                    == CommPhaseResult())
