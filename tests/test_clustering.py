"""Unit and property tests for Berger--Rigoutsos clustering.

The clustering invariants every SAMR grid generator must hold:

* every flagged cell is covered by some output box;
* output boxes are pairwise disjoint;
* output boxes stay inside the input field's box;
* each output box meets the efficiency threshold unless it cannot be
  split further.

On top of the invariants, the level-synchronous ``cluster_flags`` must
return exactly the boxes of the recursive one-box-at-a-time clusterer it
replaced, kept below as the oracle ``_scalar_cluster_flags``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.clustering import ClusterParams, cluster_flags, fill_efficiency
from repro.amr.flagging import FlagField
from repro.harness import ExperimentConfig, run_experiment


def make_field(shape, coords):
    flags = np.zeros(shape, dtype=bool)
    for c in coords:
        flags[c] = True
    return FlagField(Box((0,) * len(shape), shape), flags)


# --------------------------------------------------------------------- #
# oracle: the recursive clusterer
# --------------------------------------------------------------------- #


def _scalar_cluster_flags(field: FlagField, params: Optional[ClusterParams] = None) -> List[Box]:
    """The recursive Berger--Rigoutsos clusterer, one box at a time.

    This was ``cluster_flags`` before the level-synchronous rewrite: a
    depth-first work-list over candidate boxes, each shrunk with
    :meth:`_SignatureTable.shrink` (per-axis prefix-sum tables) and split
    by :func:`_find_split`.  It is kept here as the oracle the batched
    clusterer must match box for box.
    """
    params = params or ClusterParams()
    if not field.any:
        return []
    table = _SignatureTable(field)
    out: List[Box] = []
    stack = [table.shrink(field.box)]
    while stack:
        item = stack.pop()
        if item is None:
            continue
        box, sigs, nflagged = item
        if nflagged == 0:
            continue
        # shape/ncells read off the signatures (len(sigs[d]) == box.shape[d]
        # after shrink) to skip per-box property recomputation.
        shape = tuple(s.shape[0] for s in sigs)
        ncells = 1
        for extent in shape:
            ncells *= extent
        eff = nflagged / ncells
        splittable = any(s >= 2 * params.min_width for s in shape)
        if (eff >= params.min_efficiency and ncells <= params.max_cells) or not splittable:
            if ncells > params.max_cells and splittable:
                pass  # fall through to split below
            else:
                out.append(box)
                continue
        split = _find_split(box, sigs, params)
        if split is None:
            out.append(box)
            continue
        left, right = split
        stack.append(table.shrink(left))
        stack.append(table.shrink(right))
    out.sort()
    return out


#: (shrunk box, its per-axis signatures, its flagged-cell count)
_Candidate = Tuple[Box, List[np.ndarray], int]


class _SignatureTable:
    """Per-axis prefix-sum tables answering signature queries for any sub-box.

    For each axis ``d`` the table holds the flag array cumulatively summed
    (``np.cumsum``) along every *other* axis, zero-padded by one plane at the
    low end.  The signature :math:`\\Sigma_d` of an arbitrary sub-box is then
    an inclusion--exclusion combination of ``2^(ndim-1)`` table slices — one
    vectorized expression per axis instead of a reduction over the sub-box.
    All arithmetic is ``int64`` counts, so results match the direct
    ``sub.sum(axis=...)`` bit-for-bit.
    """

    __slots__ = ("origin", "ndim", "tables", "others")

    def __init__(self, field: FlagField) -> None:
        self.origin = field.box.lo
        flags = field.flags
        self.ndim = flags.ndim
        self.tables: List[np.ndarray] = []
        self.others: List[Tuple[int, ...]] = []
        for d in range(self.ndim):
            t = flags.astype(np.int64)
            for ax in range(self.ndim):
                if ax != d:
                    t = t.cumsum(axis=ax)
            pad = [(0, 0) if ax == d else (1, 0) for ax in range(self.ndim)]
            self.tables.append(np.pad(t, pad))
            self.others.append(tuple(ax for ax in range(self.ndim) if ax != d))

    def signature(self, box: Box, d: int) -> np.ndarray:
        """:math:`\\Sigma_d` over ``box`` (len ``box.shape[d]``, int64)."""
        o = self.origin
        blo = box.lo
        bhi = box.hi
        table = self.tables[d]
        # Direct inclusion-exclusion expressions for the common ranks; the
        # generic mask loop below covers the rest.  Integer arithmetic, so
        # the evaluation order is immaterial.
        if self.ndim == 3:
            l0, l1, l2 = blo[0] - o[0], blo[1] - o[1], blo[2] - o[2]
            h0, h1, h2 = bhi[0] - o[0], bhi[1] - o[1], bhi[2] - o[2]
            if d == 0:
                s = slice(l0, h0)
                return (
                    table[s, h1, h2] - table[s, l1, h2]
                    - table[s, h1, l2] + table[s, l1, l2]
                )
            if d == 1:
                s = slice(l1, h1)
                return (
                    table[h0, s, h2] - table[l0, s, h2]
                    - table[h0, s, l2] + table[l0, s, l2]
                )
            s = slice(l2, h2)
            return (
                table[h0, h1, s] - table[l0, h1, s]
                - table[h0, l1, s] + table[l0, l1, s]
            )
        if self.ndim == 2:
            l0, l1 = blo[0] - o[0], blo[1] - o[1]
            h0, h1 = bhi[0] - o[0], bhi[1] - o[1]
            if d == 0:
                return table[slice(l0, h0), h1] - table[slice(l0, h0), l1]
            return table[h0, slice(l1, h1)] - table[l0, slice(l1, h1)]
        lo = tuple(blo[a] - o[a] for a in range(self.ndim))
        hi = tuple(bhi[a] - o[a] for a in range(self.ndim))
        others = self.others[d]
        base: List[object] = [0] * self.ndim
        base[d] = slice(lo[d], hi[d])
        out: Optional[np.ndarray] = None
        for mask in range(1 << len(others)):
            idx = list(base)
            bits = 0
            for j, ax in enumerate(others):
                if (mask >> j) & 1:
                    idx[ax] = lo[ax]
                    bits += 1
                else:
                    idx[ax] = hi[ax]
            term = table[tuple(idx)]
            if out is None:
                out = term.copy()
            elif bits % 2:
                out -= term
            else:
                out += term
        assert out is not None
        return out

    def shrink(self, box: Box) -> Optional[_Candidate]:
        """Bounding box of the flagged cells inside ``box`` plus its
        signatures and flag count (None if the box holds no flags).

        The shrunk box's signatures are the original ones sliced to the
        nonzero range: trimming a zero-signature plane along one axis removes
        only flagless cells, so the other axes' signatures are unchanged.
        """
        if box.is_empty:
            return None
        sigs = [self.signature(box, d) for d in range(self.ndim)]
        nz0 = np.nonzero(sigs[0])[0]
        if len(nz0) == 0:
            return None
        lo = list(box.lo)
        hi = list(box.hi)
        for d in range(self.ndim):
            nz = nz0 if d == 0 else np.nonzero(sigs[d])[0]
            a, b = int(nz[0]), int(nz[-1]) + 1
            lo[d] = box.lo[d] + a
            hi[d] = box.lo[d] + b
            sigs[d] = sigs[d][a:b]
        # corners are validated box corners plus in-range offsets
        return Box._unchecked(tuple(lo), tuple(hi)), sigs, int(sigs[0].sum())


def _find_split(
    box: Box, sigs: List[np.ndarray], params: ClusterParams
) -> Optional[Tuple[Box, Box]]:
    """Choose a split plane for an inefficient/oversized box.

    Candidate planes per preference tier are enumerated as arrays; ties
    resolve to the first candidate in (axis, position) order via
    ``np.argmax``'s first-maximum rule — the same winner the former scalar
    scan with its strict ``>`` updates produced.
    """
    min_w = params.min_width
    # --- (a) holes: zero-signature planes ----------------------------- #
    best_hole: Optional[Tuple[int, int]] = None  # (axis, plane)
    best_hole_centrality = -1.0
    for d in range(box.ndim):
        sig = sigs[d]
        if len(sig) < 2 * min_w:
            continue  # no plane can leave min_width on both sides
        zeros = np.nonzero(sig == 0)[0]
        if len(zeros) == 0:
            continue
        # each hole cell offers two planes (before / after it), tried in
        # that order by the scalar scan: interleave to preserve it
        cand = np.empty(2 * len(zeros), dtype=np.int64)
        cand[0::2] = box.lo[d] + zeros  # split before the hole cell
        cand[1::2] = cand[0::2] + 1
        cand = cand[(cand >= box.lo[d] + min_w) & (cand <= box.hi[d] - min_w)]
        if len(cand) == 0:
            continue
        # prefer holes near the middle of the box
        centrality = -np.abs((cand - box.lo[d]) / len(sig) - 0.5)
        k = int(np.argmax(centrality))
        if centrality[k] > best_hole_centrality:
            best_hole_centrality = float(centrality[k])
            best_hole = (d, int(cand[k]))
    if best_hole is not None:
        axis, plane = best_hole
        return box.split(axis, plane)
    # --- (b) Laplacian zero crossing ---------------------------------- #
    best_edge: Optional[Tuple[int, int]] = None  # (axis, plane)
    best_strength = 0
    for d in range(box.ndim):
        sig = sigs[d]
        if len(sig) < 4 or len(sig) < 2 * min_w:
            continue
        lap = sig[2:] - 2 * sig[1:-1] + sig[:-2]  # Δ at interior indices 1..n-2
        cross = np.nonzero(lap[:-1] * lap[1:] < 0)[0]
        if len(cross) == 0:
            continue
        planes = box.lo[d] + cross + 2  # between signature cells i+1, i+2
        valid = (planes >= box.lo[d] + min_w) & (planes <= box.hi[d] - min_w)
        if not valid.any():
            continue
        strength = np.abs(lap[cross[valid]] - lap[cross[valid] + 1])
        planes = planes[valid]
        k = int(np.argmax(strength))
        if int(strength[k]) > best_strength:
            best_strength = int(strength[k])
            best_edge = (d, int(planes[k]))
    if best_edge is not None:
        axis, plane = best_edge
        return box.split(axis, plane)
    # --- (c) bisect the longest axis ----------------------------------- #
    axis = box.longest_axis()
    plane = box.lo[axis] + box.shape[axis] // 2
    if _valid_plane(box, axis, plane, params.min_width):
        return box.split(axis, plane)
    # Try any axis that admits a valid midpoint split.
    for d in sorted(range(box.ndim), key=lambda a: -box.shape[a]):
        plane = box.lo[d] + box.shape[d] // 2
        if _valid_plane(box, d, plane, params.min_width):
            return box.split(d, plane)
    return None


def _valid_plane(box: Box, axis: int, plane: int, min_width: int) -> bool:
    """A split plane is valid if both halves keep the minimum width."""
    return (
        box.lo[axis] + min_width <= plane <= box.hi[axis] - min_width
    )


class TestClusterParams:
    def test_bad_efficiency_raises(self):
        with pytest.raises(ValueError):
            ClusterParams(min_efficiency=0.0)
        with pytest.raises(ValueError):
            ClusterParams(min_efficiency=1.5)

    def test_bad_max_cells_raises(self):
        with pytest.raises(ValueError):
            ClusterParams(max_cells=0)

    def test_bad_min_width_raises(self):
        with pytest.raises(ValueError):
            ClusterParams(min_width=0)


class TestFillEfficiency:
    def test_full_box(self):
        f = FlagField.full(Box((0, 0), (4, 4)))
        assert fill_efficiency(f, f.box) == 1.0

    def test_empty_box_is_zero(self):
        f = FlagField.full(Box((0, 0), (4, 4)))
        assert fill_efficiency(f, Box((2, 2), (2, 4))) == 0.0

    def test_partial(self):
        f = make_field((4, 4), [(0, 0), (0, 1)])
        assert fill_efficiency(f, f.box) == 2 / 16


class TestClusterFlags:
    def test_no_flags_no_boxes(self):
        f = FlagField.empty(Box((0, 0), (8, 8)))
        assert cluster_flags(f) == []

    def test_single_blob_single_box(self):
        f = make_field((8, 8), [(2, 2), (2, 3), (3, 2), (3, 3)])
        boxes = cluster_flags(f)
        assert boxes == [Box((2, 2), (4, 4))]

    def test_two_separated_blobs_split(self):
        f = make_field((16, 4), [(1, 1), (1, 2), (14, 1), (14, 2)])
        boxes = cluster_flags(f, ClusterParams(min_efficiency=0.7, min_width=1))
        assert len(boxes) == 2

    def test_max_cells_respected_for_splittable_boxes(self):
        f = FlagField.full(Box((0, 0), (16, 16)))
        params = ClusterParams(min_efficiency=0.5, max_cells=64, min_width=2)
        boxes = cluster_flags(f, params)
        assert all(b.ncells <= 64 for b in boxes)

    def test_deterministic_output(self):
        rng = np.random.default_rng(3)
        flags = rng.random((20, 20)) < 0.3
        f = FlagField(Box((0, 0), (20, 20)), flags)
        assert cluster_flags(f) == cluster_flags(f)

    def test_diagonal_line_efficient_boxes(self):
        n = 16
        f = make_field((n, n), [(i, i) for i in range(n)])
        boxes = cluster_flags(f, ClusterParams(min_efficiency=0.5, min_width=1))
        for b in boxes:
            eff = fill_efficiency(f, b)
            splittable = any(s >= 2 for s in b.shape)
            assert eff >= 0.5 or not splittable

    def test_l_shape_produces_multiple_boxes(self):
        coords = [(i, 0) for i in range(8)] + [(0, j) for j in range(8)]
        f = make_field((8, 8), coords)
        boxes = cluster_flags(f, ClusterParams(min_efficiency=0.8, min_width=1))
        assert len(boxes) >= 2
        covered = set()
        for b in boxes:
            covered |= set(b)
        assert set((c[0], c[1]) for c in coords) <= covered


@st.composite
def random_fields(draw):
    w = draw(st.integers(min_value=1, max_value=20))
    h = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    density = draw(st.sampled_from([0.02, 0.1, 0.3, 0.7]))
    rng = np.random.default_rng(seed)
    flags = rng.random((w, h)) < density
    return FlagField(Box((0, 0), (w, h)), flags)


class TestClusterProperties:
    @given(random_fields())
    @settings(max_examples=60, deadline=None)
    def test_coverage(self, field):
        """Every flagged cell lies in exactly one output box."""
        boxes = cluster_flags(field)
        for coord in map(tuple, field.flagged_coordinates()):
            hits = sum(b.contains_point(coord) for b in boxes)
            assert hits == 1

    @given(random_fields())
    @settings(max_examples=60, deadline=None)
    def test_disjoint_and_contained(self, field):
        boxes = cluster_flags(field)
        for i, a in enumerate(boxes):
            assert field.box.contains(a)
            assert not a.is_empty
            for b in boxes[i + 1 :]:
                assert not a.intersects(b)

    @given(random_fields())
    @settings(max_examples=60, deadline=None)
    def test_efficiency_or_unsplittable(self, field):
        params = ClusterParams(min_efficiency=0.6, min_width=2)
        for b in cluster_flags(field, params):
            eff = fill_efficiency(field, b)
            splittable = any(s >= 2 * params.min_width for s in b.shape)
            assert eff >= params.min_efficiency or not splittable

    @given(random_fields())
    @settings(max_examples=30, deadline=None)
    def test_boxes_contain_flags(self, field):
        """No output box is empty of flags (shrink-to-fit)."""
        for b in cluster_flags(field):
            assert field.restrict(b).any


@st.composite
def nd_fields(draw):
    """1-D to 4-D flag fields at a random origin: uniform noise, or a few
    solid blobs (holes and signature edges between them)."""
    ndim = draw(st.integers(min_value=1, max_value=4))
    cap = {1: 64, 2: 20, 3: 10, 4: 6}[ndim]
    shape = tuple(draw(st.lists(st.integers(1, cap), min_size=ndim, max_size=ndim)))
    origin = tuple(draw(st.lists(st.integers(-20, 20), min_size=ndim, max_size=ndim)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    if draw(st.booleans()):
        flags = rng.random(shape) < draw(st.sampled_from([0.02, 0.1, 0.3, 0.7]))
    else:
        flags = np.zeros(shape, dtype=bool)
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            lo = [int(rng.integers(0, n)) for n in shape]
            hi = [int(rng.integers(l + 1, n + 1)) for l, n in zip(lo, shape)]
            flags[tuple(slice(l, h) for l, h in zip(lo, hi))] = True
    return FlagField(Box(origin, tuple(o + n for o, n in zip(origin, shape))), flags)


cluster_params = st.builds(
    ClusterParams,
    min_efficiency=st.sampled_from([0.5, 0.7, 0.9]),
    max_cells=st.sampled_from([1, 16, 64, 4096]),
    min_width=st.integers(min_value=1, max_value=3),
)


class TestMatchesRecursiveOracle:
    @given(nd_fields(), cluster_params)
    @settings(max_examples=250, deadline=None)
    def test_random_fields(self, field, params):
        assert cluster_flags(field, params) == _scalar_cluster_flags(field, params)

    def test_every_call_of_a_shockpool_run(self, monkeypatch):
        import repro.amr.regrid as regrid

        calls = []

        def recording(field, params=None):
            calls.append((field, params))
            return cluster_flags(field, params)

        monkeypatch.setattr(regrid, "cluster_flags", recording)
        config = ExperimentConfig(app_name="shockpool3d", network="wan",
                                  procs_per_group=4, steps=3,
                                  domain_cells=32, max_levels=3)
        run_experiment(config, "distributed")
        assert len(calls) >= 10
        sizes = []
        for field, params in calls:
            boxes = cluster_flags(field, params)
            assert boxes == _scalar_cluster_flags(field, params)
            sizes.append(len(boxes))
        assert max(sizes) >= 50
