"""Property-style equivalence of every BoxArray kernel vs the scalar Box API.

The :class:`~repro.amr.boxarray.BoxArray` batch kernels replaced per-object
``Box`` calls on every hot path of the runtime (sibling adjacency, regrid
clipping, ghost-overlap discovery, message batching).  Their contract is
*bit-for-bit equivalence*: all arithmetic is ``int64`` lattice counts, so the
batched answer must equal the scalar answer exactly -- not approximately.

Two layers of protection:

* property-style sweeps over ~1000 seeded random box pairs (including empty
  boxes, touching boxes, and separations right at the ghost width) comparing
  every kernel against its scalar reference;
* golden re-runs of the benchmark experiment under all four DLB schemes plus
  the faulted and trace record/replay variants, hashed against
  ``tests/data/golden_bench_solver.json`` (captured before the vectorized
  kernels were introduced).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_bench_solver.json"


# --------------------------------------------------------------------- #
# random box generation
# --------------------------------------------------------------------- #


def _random_boxes(rng: np.random.Generator, n: int, ndim: int) -> list:
    """Random boxes stressing the interesting regimes.

    Mix of generic boxes, empty boxes (zero extent on >= 1 axis), touching
    boxes (gap 0) and near-misses at exactly the ghost width -- the regimes
    where clamping and the ghost-separation screen must agree with the
    scalar arithmetic.
    """
    boxes = []
    for _ in range(n):
        lo = rng.integers(-8, 12, size=ndim)
        kind = rng.integers(0, 4)
        if kind == 0:  # generic
            ext = rng.integers(1, 7, size=ndim)
        elif kind == 1:  # empty on at least one axis
            ext = rng.integers(0, 4, size=ndim)
            ext[rng.integers(0, ndim)] = 0
        elif kind == 2:  # thin slabs (adjacency/touching cases)
            ext = rng.integers(1, 3, size=ndim)
        else:  # larger blocks
            ext = rng.integers(3, 10, size=ndim)
        boxes.append(Box(tuple(int(x) for x in lo), tuple(int(x) for x in lo + ext)))
    return boxes


def _pair_sets(ndim: int):
    """~1000 (a, b) box pairs per rank, seeded."""
    rng = np.random.default_rng(20010101 + ndim)
    a = _random_boxes(rng, 32, ndim)
    b = _random_boxes(rng, 32, ndim)
    # adjacency-heavy extra set: boxes laid out on a near-touching lattice
    # so gaps of exactly 0, 1 and 2 cells (the ghost regimes) are common
    c = []
    for _ in range(16):
        lo = rng.integers(0, 6, size=ndim) * 3
        ext = rng.integers(1, 4, size=ndim)
        c.append(Box(tuple(int(x) for x in lo), tuple(int(x) for x in lo + ext)))
    return a, b, c


@pytest.fixture(params=[2, 3], ids=["2d", "3d"])
def pairs(request):
    a, b, c = _pair_sets(request.param)
    return a + c, b + c  # 48 x 48 = 2304 ordered pairs per rank


# --------------------------------------------------------------------- #
# unary kernels
# --------------------------------------------------------------------- #


def test_unary_kernels_match_scalar(pairs):
    boxes, _ = pairs
    ba = BoxArray.from_boxes(boxes)
    assert len(ba) == len(boxes)
    np.testing.assert_array_equal(ba.shapes(), [b.shape for b in boxes])
    np.testing.assert_array_equal(ba.ncells(), [b.ncells for b in boxes])
    np.testing.assert_array_equal(ba.is_empty(), [b.is_empty for b in boxes])
    np.testing.assert_array_equal(
        ba.surface_cells(), [b.surface_cells() for b in boxes]
    )


def test_transforms_match_scalar(pairs):
    boxes, _ = pairs
    ba = BoxArray.from_boxes(boxes)
    for n in (1, 2):
        grown = ba.grow(n)
        for i, b in enumerate(boxes):
            g = b.grow(n)
            assert tuple(grown.lo[i]) == g.lo and tuple(grown.hi[i]) == g.hi
    for ratio in (2, 4):
        ref = ba.refine(ratio)
        coar = ba.coarsen(ratio)
        for i, b in enumerate(boxes):
            r = b.refine(ratio)
            c = b.coarsen(ratio)
            assert tuple(ref.lo[i]) == r.lo and tuple(ref.hi[i]) == r.hi
            assert tuple(coar.lo[i]) == c.lo and tuple(coar.hi[i]) == c.hi


def test_grow_negative_raises_like_scalar():
    thin = Box((0, 0, 0), (1, 5, 5))
    ba = BoxArray.from_boxes([thin])
    with pytest.raises(ValueError):
        thin.grow(-1)
    with pytest.raises(ValueError):
        ba.grow(-1)


def test_clip_matches_scalar_intersection(pairs):
    boxes, others = pairs
    bounds = Box((0,) * boxes[0].ndim, (8,) * boxes[0].ndim)
    clipped = BoxArray.from_boxes(boxes).clip(bounds)
    for i, b in enumerate(boxes):
        ref = b.intersection(bounds)
        assert tuple(clipped.lo[i]) == ref.lo
        assert tuple(clipped.hi[i]) == ref.hi


def test_elementwise_intersection_matches_scalar(pairs):
    boxes, others = pairs
    inter = BoxArray.from_boxes(boxes).intersection(BoxArray.from_boxes(others))
    for i, (a, b) in enumerate(zip(boxes, others)):
        ref = a.intersection(b)
        assert tuple(inter.lo[i]) == ref.lo
        assert tuple(inter.hi[i]) == ref.hi


# --------------------------------------------------------------------- #
# pairwise (N x M) kernels
# --------------------------------------------------------------------- #


def test_intersection_pairwise_matches_scalar(pairs):
    boxes, others = pairs
    lo, hi = BoxArray.from_boxes(boxes).intersection_pairwise(
        BoxArray.from_boxes(others)
    )
    for i, a in enumerate(boxes):
        for j, b in enumerate(others):
            ref = a.intersection(b)
            assert tuple(lo[i, j]) == ref.lo, (a, b)
            assert tuple(hi[i, j]) == ref.hi, (a, b)


def test_intersects_and_ncells_pairwise_match_scalar(pairs):
    boxes, others = pairs
    ba, bb = BoxArray.from_boxes(boxes), BoxArray.from_boxes(others)
    cells = ba.intersection_ncells_pairwise(bb)
    contains = ba.contains_pairwise(bb)
    for i, a in enumerate(boxes):
        for j, b in enumerate(others):
            assert bool(cells[i, j] > 0) == a.intersects(b), (a, b)
            assert int(cells[i, j]) == a.intersection(b).ncells, (a, b)
            assert bool(contains[i, j]) == a.contains(b), (a, b)


@pytest.mark.parametrize("ghost", [1, 2, 3])
def test_shared_face_area_pairwise_matches_scalar(pairs, ghost):
    boxes, others = pairs
    area = BoxArray.from_boxes(boxes).shared_face_area_pairwise(
        BoxArray.from_boxes(others), ghost
    )
    for i, a in enumerate(boxes):
        for j, b in enumerate(others):
            assert int(area[i, j]) == a.shared_face_area(b, ghost), (a, b, ghost)


@pytest.mark.parametrize("ghost", [1, 2, 3])
def test_shared_face_area_pairs_matches_pairwise(pairs, ghost):
    """The screened pair-list kernel equals the full matrix on every pair --
    including the pairs its separation screen rejects without computing."""
    boxes, _ = pairs
    ba = BoxArray.from_boxes(boxes)
    n = len(ba)
    full = ba.shared_face_area_pairwise(ba, ghost)
    ia, ib = np.triu_indices(n, k=1)
    vals = ba.shared_face_area_pairs(ia, ib, ghost)
    np.testing.assert_array_equal(vals, full[ia, ib])
    # and against the scalar reference directly
    for k in range(0, len(ia), 97):
        a, b = boxes[int(ia[k])], boxes[int(ib[k])]
        assert int(vals[k]) == a.shared_face_area(b, ghost)


def test_first_overlap_pair_matches_scalar(pairs):
    """The axis-0 sweep finds an overlap exactly when the O(N^2) scalar
    double loop does, and the reported pair really intersects."""
    boxes, _ = pairs
    ba = BoxArray.from_boxes(boxes)
    scalar_any = any(
        boxes[i].intersects(boxes[j])
        for i in range(len(boxes)) for j in range(i + 1, len(boxes))
    )
    pair = ba.first_overlap_pair()
    assert (pair is not None) == scalar_any
    if pair is not None:
        i, j = pair
        assert i < j
        assert boxes[i].intersects(boxes[j])


def test_first_overlap_pair_disjoint_tiling():
    tiles = [Box((i * 4, j * 4), (i * 4 + 4, j * 4 + 4))
             for i in range(8) for j in range(8)]
    assert BoxArray.from_boxes(tiles).first_overlap_pair() is None


def test_first_overlap_pair_ignores_empty_boxes():
    boxes = [Box((0, 0), (4, 4)), Box((2, 2), (2, 6)), Box((2, 2), (2, 2))]
    assert BoxArray.from_boxes(boxes).first_overlap_pair() is None
    boxes.append(Box((3, 3), (6, 6)))
    assert BoxArray.from_boxes(boxes).first_overlap_pair() == (0, 3)


def test_first_overlap_pair_shared_slab():
    # every box shares one axis-0 interval: the sweep window is the whole
    # suffix, exercising the batched candidate path
    cols = [Box((0, k), (8, k + 1)) for k in range(64)]
    assert BoxArray.from_boxes(cols).first_overlap_pair() is None
    cols[40] = Box((0, 39), (8, 41))
    assert BoxArray.from_boxes(cols).first_overlap_pair() == (39, 40)


def test_roundtrip_and_box_accessor():
    boxes = [Box((0, 0), (2, 3)), Box((5, 5), (5, 9)), Box((-4, 1), (0, 2))]
    ba = BoxArray.from_boxes(boxes)
    assert ba.to_boxes() == boxes
    # inverted entries clamp on unpacking, like Box.intersection
    inv = BoxArray(np.array([[[3, 0], [1, 4]]]))
    assert inv.box(0) == Box((3, 0), (3, 4))


# --------------------------------------------------------------------- #
# golden re-runs: the vectorized runtime is bit-for-bit the scalar one
# --------------------------------------------------------------------- #


def _result_hash(result) -> str:
    from repro.harness.persist import run_result_to_dict

    payload = json.dumps(run_result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def bench_config(golden):
    from repro.harness import ExperimentConfig

    cfg = golden["config"]
    return ExperimentConfig(
        app_name=cfg["app"], network=cfg["network"],
        procs_per_group=cfg["procs_per_group"], steps=cfg["steps"],
        domain_cells=cfg["domain_cells"], max_levels=cfg["max_levels"],
    )


@pytest.mark.parametrize("scheme", ["diffusion", "distributed", "parallel", "static"])
def test_golden_scheme_results_unchanged(golden, bench_config, scheme):
    from repro.harness import run_experiment

    result = run_experiment(bench_config, scheme)
    assert _result_hash(result) == golden["results"][f"bench/{scheme}"], (
        f"vectorized run of scheme {scheme!r} diverged from the scalar golden"
    )


def test_golden_faulted_result_unchanged(golden, bench_config):
    from repro.config import FaultParams
    from repro.harness import run_experiment

    config = dataclasses.replace(bench_config, fault=FaultParams(scenario="slowdown"))
    result = run_experiment(config, "distributed")
    assert _result_hash(result) == golden["results"]["faulted/distributed"]


def test_golden_trace_record_replay_unchanged(golden, bench_config, tmp_path):
    from repro.traces import record_run, replay_trace, write_trace

    recorded, trace = record_run(bench_config, "distributed")
    assert _result_hash(recorded) == golden["results"]["bench/recorded"]

    replayed = replay_trace(trace, bench_config, "distributed", strict=True)
    assert _result_hash(replayed) == golden["results"]["bench/replayed"]

    trace_path = tmp_path / "golden.trace.jsonl.gz"
    write_trace(trace, trace_path)
    digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    assert digest == golden["trace_sha256"], (
        "recorded trace bytes diverged from the scalar golden"
    )
