"""Batch box geometry: many boxes as one ``(N, 2, ndim)`` integer array.

:class:`~repro.amr.box.Box` is the right value object for reasoning about a
single grid patch, but every hot loop of the SAMR runtime -- sibling
adjacency, regrid clipping, ghost-overlap discovery -- asks the *same*
geometric question of hundreds of boxes at once.  Doing that through
per-object method calls costs a Python-level loop per pair; extreme-scale
AMR codes (Schornbaum & Ruede's flat block arrays) instead keep box
coordinates in contiguous arrays and answer batched queries with array
arithmetic.

This module is that representation: a :class:`BoxArray` wraps an
``(N, 2, ndim)`` ``int64`` array (``[:, 0, :]`` = inclusive lower corners,
``[:, 1, :]`` = exclusive upper corners) and provides vectorized versions of
the :class:`Box` kernels.  Every kernel is *bit-for-bit equivalent* to the
scalar method it replaces -- all operations are integer arithmetic, so
equivalence is exact, and ``tests/test_boxarray.py`` pins it property-style
over random box pairs.  The scalar :class:`Box` API remains the public value
type; :class:`BoxArray` is the runtime's batch engine.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .box import Box

__all__ = ["BoxArray"]


class BoxArray:
    """A flat batch of half-open axis-aligned boxes on the integer lattice.

    Parameters
    ----------
    corners:
        Integer array of shape ``(N, 2, ndim)``; ``corners[i, 0]`` is box
        ``i``'s inclusive lower corner and ``corners[i, 1]`` its exclusive
        upper corner.  The array is taken by reference (no copy) when it is
        already a C-contiguous ``int64`` array.

    Notes
    -----
    Unlike :class:`Box`, a :class:`BoxArray` may hold *inverted* entries
    (``hi < lo`` on some axis) as the result of a vanishing pairwise
    intersection; :meth:`ncells` treats them as empty, exactly as
    :meth:`Box.intersection`'s per-axis clamping does.
    """

    __slots__ = ("corners",)

    def __init__(self, corners: np.ndarray) -> None:
        a = np.asarray(corners, dtype=np.int64)
        if a.ndim != 3 or a.shape[1] != 2 or a.shape[2] < 1:
            raise ValueError(
                f"corners must have shape (N, 2, ndim), got {a.shape}"
            )
        self.corners = a

    # ------------------------------------------------------------------ #
    # construction / conversion
    # ------------------------------------------------------------------ #

    @classmethod
    def from_boxes(cls, boxes: Iterable[Box], ndim: Optional[int] = None) -> "BoxArray":
        """Pack a sequence of :class:`Box` objects into one array."""
        seq = list(boxes)
        if not seq:
            if ndim is None:
                raise ValueError("empty BoxArray needs an explicit ndim")
            return cls(np.empty((0, 2, ndim), dtype=np.int64))
        nd = seq[0].ndim
        a = np.empty((len(seq), 2, nd), dtype=np.int64)
        for i, b in enumerate(seq):
            if b.ndim != nd:
                raise ValueError(f"rank mismatch: {nd}-d vs {b.ndim}-d at index {i}")
            a[i, 0] = b.lo
            a[i, 1] = b.hi
        return cls(a)

    @classmethod
    def from_box(cls, box: Box) -> "BoxArray":
        """A one-element batch (convenient broadcasting partner)."""
        return cls.from_boxes([box])

    def to_boxes(self) -> List[Box]:
        """Unpack into scalar :class:`Box` objects (clamping ``hi >= lo``)."""
        return [self.box(i) for i in range(len(self))]

    def box(self, i: int) -> Box:
        """The ``i``-th entry as a :class:`Box` (clamping ``hi >= lo``)."""
        lo = self.corners[i, 0]
        hi = np.maximum(lo, self.corners[i, 1])
        return Box(tuple(int(x) for x in lo), tuple(int(x) for x in hi))

    # ------------------------------------------------------------------ #
    # basic geometry
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.corners.shape[0]

    @property
    def ndim(self) -> int:
        return self.corners.shape[2]

    @property
    def lo(self) -> np.ndarray:
        """Lower corners, shape ``(N, ndim)``."""
        return self.corners[:, 0, :]

    @property
    def hi(self) -> np.ndarray:
        """Upper corners, shape ``(N, ndim)``."""
        return self.corners[:, 1, :]

    def shapes(self) -> np.ndarray:
        """Per-box cell counts along each axis (clamped at 0), ``(N, ndim)``."""
        return np.maximum(self.hi - self.lo, 0)

    def ncells(self) -> np.ndarray:
        """Total cells per box (0 for empty/inverted entries), ``(N,)``."""
        return self.shapes().prod(axis=1)

    def is_empty(self) -> np.ndarray:
        """Boolean mask of empty entries, matching :attr:`Box.is_empty`."""
        return (self.hi <= self.lo).any(axis=1)

    def surface_cells(self) -> np.ndarray:
        """Cells on each box's surface shell (:meth:`Box.surface_cells`)."""
        shape = self.shapes()
        inner = np.maximum(shape - 2, 0)
        out = shape.prod(axis=1) - inner.prod(axis=1)
        out[self.is_empty()] = 0
        return out

    # ------------------------------------------------------------------ #
    # elementwise transforms (all return new BoxArrays)
    # ------------------------------------------------------------------ #

    def grow(self, n: int) -> "BoxArray":
        """Pad every box by ``n`` cells per face; raises if any box inverts,
        matching :meth:`Box.grow`."""
        a = self.corners.copy()
        a[:, 0, :] -= n
        a[:, 1, :] += n
        if n < 0 and bool((a[:, 1, :] < a[:, 0, :]).any()):
            bad = int(np.argmax((a[:, 1, :] < a[:, 0, :]).any(axis=1)))
            raise ValueError(f"grow({n}) would invert box {self.box(bad)}")
        return BoxArray(a)

    def refine(self, ratio: int) -> "BoxArray":
        """Image of every box on a mesh refined by ``ratio``."""
        Box._check_ratio(ratio)
        return BoxArray(self.corners * ratio)

    def coarsen(self, ratio: int) -> "BoxArray":
        """Smallest covering coarse boxes (floor ``lo``, ceil ``hi``)."""
        Box._check_ratio(ratio)
        a = np.empty_like(self.corners)
        a[:, 0, :] = self.corners[:, 0, :] // ratio
        a[:, 1, :] = -((-self.corners[:, 1, :]) // ratio)
        return BoxArray(a)

    def clip(self, bounds: Box) -> "BoxArray":
        """Intersect every box with one bounding :class:`Box`."""
        lo = np.maximum(self.lo, np.asarray(bounds.lo, dtype=np.int64))
        hi = np.minimum(self.hi, np.asarray(bounds.hi, dtype=np.int64))
        hi = np.maximum(lo, hi)
        return BoxArray(np.stack([lo, hi], axis=1))

    def intersection(self, other: "BoxArray") -> "BoxArray":
        """Elementwise intersection (lengths must match or broadcast from 1).

        Matches :meth:`Box.intersection` including the per-axis ``hi >= lo``
        clamp of non-overlapping dimensions.
        """
        lo = np.maximum(self.lo, other.lo)
        hi = np.maximum(lo, np.minimum(self.hi, other.hi))
        return BoxArray(np.stack(np.broadcast_arrays(lo, hi), axis=1))

    # ------------------------------------------------------------------ #
    # pairwise (N x M) kernels
    # ------------------------------------------------------------------ #

    def _pairwise_corners(self, other: "BoxArray") -> Tuple[np.ndarray, np.ndarray]:
        """Broadcast corner views for pairwise ops: ``(N,1,ndim)``/``(M,ndim)``."""
        if other.ndim != self.ndim:
            raise ValueError(f"rank mismatch: {self.ndim}-d vs {other.ndim}-d")
        return self.corners[:, None, :, :], other.corners[None, :, :, :]

    def intersection_pairwise(self, other: "BoxArray") -> Tuple[np.ndarray, np.ndarray]:
        """All ``N x M`` intersections as ``(lo, hi)`` arrays of shape
        ``(N, M, ndim)``, with :meth:`Box.intersection`'s clamping."""
        a, b = self._pairwise_corners(other)
        lo = np.maximum(a[:, :, 0, :], b[:, :, 0, :])
        hi = np.maximum(lo, np.minimum(a[:, :, 1, :], b[:, :, 1, :]))
        return lo, hi

    def intersection_ncells_pairwise(self, other: "BoxArray") -> np.ndarray:
        """Cell counts of all ``N x M`` intersections, shape ``(N, M)``."""
        a, b = self._pairwise_corners(other)
        lo = np.maximum(a[:, :, 0, :], b[:, :, 0, :])
        hi = np.minimum(a[:, :, 1, :], b[:, :, 1, :])
        return np.maximum(hi - lo, 0).prod(axis=2)

    def contains_pairwise(self, other: "BoxArray") -> np.ndarray:
        """Boolean ``(N, M)``: does box ``i`` contain box ``j`` entirely?

        Matches :meth:`Box.contains`: an empty ``other`` is contained in
        every box.
        """
        a, b = self._pairwise_corners(other)
        inside = (
            (a[:, :, 0, :] <= b[:, :, 0, :]) & (a[:, :, 1, :] >= b[:, :, 1, :])
        ).all(axis=2)
        return inside | other.is_empty()[None, :]

    def first_overlap_pair(self) -> Optional[Tuple[int, int]]:
        """Indices ``(i, j)``, ``i < j``, of one pair of boxes sharing at
        least a cell (:meth:`Box.intersects`), or ``None`` when all boxes
        are pairwise disjoint.

        Sweep along axis 0: with boxes sorted by ``lo[:, 0]``, box ``i``
        can only overlap followers whose axis-0 interval opens before
        ``hi[i, 0]``, so a K-deep tiling costs ``O(N * K)`` vectorized
        comparisons instead of the ``O(N^2)`` Python double loop.  Candidate
        pairs are materialised in bounded batches, so a degenerate input
        (every box sharing one axis-0 slab) stays within fixed memory.
        """
        mask = ~self.is_empty()  # empty boxes never intersect anything
        idx = np.nonzero(mask)[0]
        m = len(idx)
        if m < 2:
            return None
        order = idx[np.argsort(self.lo[idx, 0], kind="stable")]
        lo_s = self.lo[order]
        hi_s = self.hi[order]
        starts = np.arange(1, m)
        ends = np.maximum(
            np.searchsorted(lo_s[:, 0], hi_s[:-1, 0], side="left"), starts
        )
        counts = ends - starts
        batch_cap = 4_000_000
        row = 0
        while row < m - 1:
            stop = row + 1
            total = int(counts[row])
            while stop < m - 1 and total + counts[stop] <= batch_cap:
                total += int(counts[stop])
                stop += 1
            if total:
                c = counts[row:stop]
                ia = np.repeat(np.arange(row, stop), c)
                off = np.arange(total) - np.repeat(np.cumsum(c) - c, c)
                ib = ia + 1 + off
                hit = (
                    np.maximum(lo_s[ia], lo_s[ib])
                    < np.minimum(hi_s[ia], hi_s[ib])
                ).all(axis=1)
                where = np.nonzero(hit)[0]
                if len(where):
                    k = int(where[0])
                    i0, j0 = int(order[ia[k]]), int(order[ib[k]])
                    return (i0, j0) if i0 < j0 else (j0, i0)
            row = stop
        return None

    def shared_face_area_pairs(
        self, ia: np.ndarray, ib: np.ndarray, ghost: int = 1
    ) -> np.ndarray:
        """Exchange volumes for explicit index pairs ``(ia[k], ib[k])``.

        Same arithmetic as :meth:`shared_face_area_pairwise` but evaluated
        only on the requested pairs (e.g. the strict upper triangle for
        symmetric sibling adjacency), avoiding the full ``N x M`` matrix.

        Pairs separated by more than ``2 * ghost`` along any single axis are
        screened out per axis before the full exchange-volume expression
        runs: for such pairs every ghost-grown overlap term is clamped to
        zero, so the screen only removes pairs whose volume is exactly 0.
        """
        npairs = len(ia)
        out = np.zeros(npairs, dtype=np.int64)
        pos = None  # surviving pair positions in `out` (None = all)
        ia_w, ib_w = np.asarray(ia), np.asarray(ib)
        for d in range(self.ndim):
            lo_d = self.corners[:, 0, d]
            hi_d = self.corners[:, 1, d]
            near = (
                np.minimum(hi_d[ia_w], hi_d[ib_w]) + 2 * ghost
                > np.maximum(lo_d[ia_w], lo_d[ib_w])
            )
            sel = np.nonzero(near)[0]
            if len(sel) == len(ia_w):
                continue
            pos = sel if pos is None else pos[sel]
            ia_w, ib_w = ia_w[sel], ib_w[sel]
            if len(ia_w) == 0:
                return out
        alo = self.corners[ia_w, 0, :]
        ahi = self.corners[ia_w, 1, :]
        blo = self.corners[ib_w, 0, :]
        bhi = self.corners[ib_w, 1, :]
        direct = np.maximum(np.minimum(ahi, bhi) - np.maximum(alo, blo), 0).prod(axis=1)
        recv_a = np.maximum(
            np.minimum(ahi + ghost, bhi) - np.maximum(alo - ghost, blo), 0
        ).prod(axis=1) - direct
        recv_b = np.maximum(
            np.minimum(bhi + ghost, ahi) - np.maximum(blo - ghost, alo), 0
        ).prod(axis=1) - direct
        vals = np.maximum(recv_a, 0) + np.maximum(recv_b, 0)
        empty = self.is_empty()
        mask = empty[ia_w] | empty[ib_w]
        if mask.any():
            vals = np.where(mask, 0, vals)
        if pos is None:
            return vals
        out[pos] = vals
        return out

    def shared_face_area_pairwise(
        self, other: "BoxArray", ghost: int = 1
    ) -> np.ndarray:
        """Two-way ghost-exchange volumes for all pairs, shape ``(N, M)``.

        Bit-for-bit the matrix of :meth:`Box.shared_face_area`: each side
        receives ``self.grow(ghost) & other`` minus directly shared cells,
        clamped at zero, and the two directions add.  All arithmetic is on
        ``int64`` lattice counts, so the equivalence is exact.
        """
        a, b = self._pairwise_corners(other)
        alo, ahi = a[:, :, 0, :], a[:, :, 1, :]
        blo, bhi = b[:, :, 0, :], b[:, :, 1, :]
        direct = np.maximum(np.minimum(ahi, bhi) - np.maximum(alo, blo), 0).prod(axis=2)
        recv_a = np.maximum(
            np.minimum(ahi + ghost, bhi) - np.maximum(alo - ghost, blo), 0
        ).prod(axis=2) - direct
        recv_b = np.maximum(
            np.minimum(bhi + ghost, ahi) - np.maximum(blo - ghost, alo), 0
        ).prod(axis=2) - direct
        out = np.maximum(recv_a, 0) + np.maximum(recv_b, 0)
        # Box.shared_face_area returns 0 when either operand is empty.
        empty = self.is_empty()[:, None] | other.is_empty()[None, :]
        if empty.any():
            out = np.where(empty, 0, out)
        return out

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoxArray(n={len(self)}, ndim={self.ndim})"


BoxLike = Union[Box, BoxArray, Sequence[Box]]
