"""Berger--Rigoutsos clustering: turn flagged cells into efficient boxes.

The SAMR grid generator takes the set of flagged cells on a level and covers
it with a small number of rectangular boxes whose *fill efficiency* (fraction
of cells inside the box that are flagged) exceeds a threshold.  This is the
classic signature/edge-detection algorithm of Berger & Rigoutsos (IEEE Trans.
SMC 21(5), 1991), the same grid generator family used by ENZO.

The algorithm, per candidate box:

1. Shrink the box to the bounding box of its flagged cells.
2. Accept it if its efficiency is high enough or it is too small to split.
3. Otherwise find a split plane, in preference order:
   a. a *hole* -- a zero of the flag signature :math:`\\Sigma_d(i)` (the flag
      count summed over all axes but ``d``);
   b. the strongest zero crossing of the signature Laplacian
      :math:`\\Delta_d(i) = \\Sigma_d(i+1) - 2\\Sigma_d(i) + \\Sigma_d(i-1)`;
   c. the midpoint of the longest axis.
4. Repeat on both halves.

:func:`cluster_flags` runs this one tree level at a time: every pending
box of a level goes through steps 1--3 together, as array passes over one
summed-area table of the flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .box import Box
from .flagging import FlagField

__all__ = ["ClusterParams", "cluster_flags", "fill_efficiency"]


@dataclass(frozen=True)
class ClusterParams:
    """Tunable knobs of the grid generator.

    Parameters
    ----------
    min_efficiency:
        Minimum acceptable flagged-cell fraction of an output box.
    max_cells:
        Upper bound on the number of cells in an output box; larger boxes are
        split even if efficient.  Bounding the box size is what gives the
        load balancer enough *units* to move around -- one huge grid cannot
        be balanced.
    min_width:
        Boxes are never split below this width along any axis.
    """

    min_efficiency: float = 0.7
    max_cells: int = 4096
    min_width: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.min_efficiency <= 1.0:
            raise ValueError(f"min_efficiency must be in (0, 1], got {self.min_efficiency}")
        if self.max_cells < 1:
            raise ValueError(f"max_cells must be >= 1, got {self.max_cells}")
        if self.min_width < 1:
            raise ValueError(f"min_width must be >= 1, got {self.min_width}")


def fill_efficiency(field: FlagField, box: Box) -> float:
    """Fraction of ``box``'s cells that are flagged (0 for an empty box)."""
    if box.is_empty:
        return 0.0
    sub = field.restrict(box)
    return sub.nflagged / box.ncells


def cluster_flags(field: FlagField, params: Optional[ClusterParams] = None) -> List[Box]:
    """Cover the flagged cells of ``field`` with efficient boxes.

    Returns a list of disjoint boxes, each contained in ``field.box``, that
    together cover every flagged cell.  The list is sorted (deterministic
    output for identical input).

    The Berger--Rigoutsos work-list is processed one tree level at a time.
    Every pending box's signatures :math:`\\Sigma_d` are read from one
    summed-area table built once per call, and shrink, accept and split
    run as segmented array passes over all pending boxes at once (see
    :func:`_split_planes` for the tie-breaks).  Each box is treated exactly
    as the one-box-at-a-time recursion treats it -- signatures are integer
    counts, and the only floats (efficiency, hole centrality) are the same
    float64 expressions -- so the boxes are identical.
    """
    params = params or ClusterParams()
    if not field.any:
        return []
    flags = field.flags
    ndim = flags.ndim
    # sat[i_0, ..., i_n] = number of flags in [0, i_0) x ... x [0, i_n)
    sat = np.zeros(tuple(n + 1 for n in flags.shape), dtype=np.int64)
    inner = sat[(slice(1, None),) * ndim]
    inner[...] = flags
    for ax in reversed(range(ndim)):
        inner.cumsum(axis=ax, out=inner)
    table = sat.ravel()
    stride = np.array(sat.strides, dtype=np.int64) // sat.itemsize
    take_lo, take_hi, sign = _corner_tables(ndim)
    min_w = params.min_width
    # pending boxes, relative to field.box.lo: shape (nbox, ndim) each
    lo = np.zeros((1, ndim), dtype=np.int64)
    hi = np.array([flags.shape], dtype=np.int64)
    done_lo: List[np.ndarray] = []
    done_hi: List[np.ndarray] = []
    while True:
        # -- signatures of every (box, axis) pair, box-major axis-minor:
        # prefix sums P_d(x) over the box for x = lo_d .. hi_d by
        # inclusion-exclusion on the table, then first differences.  Pair
        # p's signature is sig[start[p]:start[p] + ext[p]]; the entry after
        # it straddles two pairs, and every range check below excludes it.
        ext = (hi - lo).ravel()
        rep = ext + 1
        start = rep.cumsum() - rep
        pos = np.arange(start[-1] + rep[-1]) - np.repeat(start, rep)
        step = np.repeat((np.zeros_like(lo) + stride).ravel(), rep)
        base = ((lo * stride) @ take_lo + (hi * stride) @ take_hi).reshape(len(ext), -1)
        prefix = table[np.repeat(base, rep, axis=0) + (pos * step)[:, None]] @ sign
        nflagged = prefix[start[::ndim] + ext[::ndim]] - prefix[start[::ndim]]
        sig = prefix[1:] - prefix[:-1]
        # -- shrink every box to the bounding box of its flags: pair p's
        # nonzero range is sig[start + a : start + b].  Each pending box
        # holds flags: the root does, and each half of a split keeps one of
        # its parent's nonzero end planes.  Trimming zero planes along one
        # axis removes no flags, so the other axes' signatures are unchanged.
        nz = sig.nonzero()[0]
        a = nz[nz.searchsorted(start)] - start
        b = nz[nz.searchsorted(start + ext) - 1] - start + 1
        shape = (b - a).reshape(-1, ndim)
        lo, hi = lo + a.reshape(-1, ndim), lo + b.reshape(-1, ndim)
        # -- accept efficient (or unsplittable) boxes
        ncells = shape.prod(axis=1)
        splittable = (shape >= 2 * min_w).any(axis=1)
        accept = ~splittable | (
            (nflagged / ncells >= params.min_efficiency) & (ncells <= params.max_cells)
        )
        done_lo.append(lo[accept])
        done_hi.append(hi[accept])
        if accept.all():
            break
        # -- split the rest in two; the halves are the next level's boxes
        split = ~accept
        rows = split.nonzero()[0]
        axis, cut = _split_planes(sig, start, start + a, shape, split, min_w)
        axis, cut = axis[rows], cut[rows] + lo[rows, axis[rows]]
        lo = np.repeat(lo[rows], 2, axis=0)
        hi = np.repeat(hi[rows], 2, axis=0)
        left = np.arange(0, len(lo), 2)
        hi[left, axis] = cut
        lo[left + 1, axis] = cut
    lo = np.concatenate(done_lo)
    hi = np.concatenate(done_hi)
    order = np.lexsort(np.concatenate([lo, hi], axis=1).T[::-1])
    origin = np.asarray(field.box.lo, dtype=np.int64)
    return [
        Box._unchecked(tuple(l), tuple(h))
        for l, h in zip((lo[order] + origin).tolist(), (hi[order] + origin).tolist())
    ]


# --------------------------------------------------------------------- #
# internals
# --------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def _corner_tables(ndim: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inclusion--exclusion tables for the signature prefix sums.

    The prefix sum :math:`P_d(x)` of a box along axis ``d`` is a signed sum
    of ``2^(ndim-1)`` summed-area-table entries: axis ``d`` at ``x``, every
    other axis at its ``lo`` or ``hi`` corner.  With per-box corners scaled
    by the table strides, ``(lo * s) @ take_lo + (hi * s) @ take_hi`` is
    the flat table index of every (axis, corner) term at ``x = lo_d``,
    shape ``(nbox, ndim * 2^(ndim-1))``; ``sign`` holds the corner signs.
    """
    ncorner = 1 << (ndim - 1)
    take_lo = np.zeros((ndim, ndim * ncorner), dtype=np.int64)
    take_hi = np.zeros_like(take_lo)
    sign = np.empty(ncorner, dtype=np.int64)
    for mask in range(ncorner):
        sign[mask] = -1 if bin(mask).count("1") % 2 else 1
    for d in range(ndim):
        others = [ax for ax in range(ndim) if ax != d]
        for mask in range(ncorner):
            col = d * ncorner + mask
            take_lo[d, col] = 1
            for j, ax in enumerate(others):
                if (mask >> j) & 1:
                    take_lo[ax, col] = 1
                else:
                    take_hi[ax, col] = 1
    for table in (take_lo, take_hi, sign):
        table.setflags(write=False)  # shared by every call
    return take_lo, take_hi, sign


def _first_max(group: np.ndarray, value: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For each distinct id in ``group``, the id and the position of its
    first maximum of ``value`` (the stable sort keeps equal values in
    position order)."""
    order = np.lexsort((-value, group))
    ids = group[order]
    head = np.ones(len(ids), dtype=bool)
    head[1:] = ids[1:] != ids[:-1]
    return ids[head], order[head]


def _split_planes(
    sig: np.ndarray, start: np.ndarray, off: np.ndarray, shape: np.ndarray,
    split: np.ndarray, min_width: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Split axis and plane (relative to the box's ``lo``) for every box
    with ``split`` set; other entries are unspecified.

    ``sig`` holds one segment per (box, axis) pair from ``start``, box-major
    then axis-minor; the shrunk box's signature along that axis is
    ``sig[off:off + shape[box, axis]]``.  Planes are chosen in preference
    order, a tier only for boxes left over by the one before; a plane is
    valid if both halves keep ``min_width``:

    a. a *hole* (zero signature cell): the planes before and after it, the
       one nearest the middle (``-|rel / L - 0.5|`` in float64);
    b. the strongest zero crossing of the signature Laplacian
       (``|lap_j - lap_{j+1}|`` between cells ``j + 1`` and ``j + 2``);
    c. the midpoint of the longest axis (always valid: the box is
       splittable).

    Within a box, ties go to the first candidate in (axis, position,
    before/after) order -- the segments' own order, so :func:`_first_max`
    yields it.  Zeros and crossings outside a shrunk signature fail the
    range checks.
    """
    ndim = shape.shape[1]
    lens = shape.ravel()
    axis = np.zeros(len(shape), dtype=np.int64)
    plane = np.zeros(len(shape), dtype=np.int64)
    pending = split.copy()
    # (a) holes
    zero = (sig == 0).nonzero()[0]
    if len(zero):
        pair = start.searchsorted(zero, side="right") - 1
        rel = zero - off[pair]
        cand = np.stack([rel, rel + 1], axis=1).ravel()
        pair = np.repeat(pair, 2)
        n = lens[pair]
        ok = ((cand >= min_width) & (cand <= n - min_width)
              & pending[pair // ndim]).nonzero()[0]
        if len(ok):
            cand, pair = cand[ok], pair[ok]
            box, k = _first_max(pair // ndim, -np.abs(cand / n[ok] - 0.5))
            axis[box] = pair[k] % ndim
            plane[box] = cand[k]
            pending[box] = False
    # (b) Laplacian zero crossings
    if pending.any():
        lap = sig[2:] - 2 * sig[1:-1] + sig[:-2]
        cross = (lap[:-1] * lap[1:] < 0).nonzero()[0]
        pair = start.searchsorted(cross, side="right") - 1
        j = cross - off[pair]
        n = lens[pair]
        ok = ((j >= 0) & (j <= n - 4) & (j + 2 >= min_width) & (j + 2 <= n - min_width)
              & pending[pair // ndim]).nonzero()[0]
        if len(ok):
            cross, pair = cross[ok], pair[ok]
            box, k = _first_max(pair // ndim, np.abs(lap[cross] - lap[cross + 1]))
            axis[box] = pair[k] % ndim
            plane[box] = j[ok][k] + 2
            pending[box] = False
    # (c) bisect the longest axis
    box = pending.nonzero()[0]
    if len(box):
        axis[box] = shape[box].argmax(axis=1)
        plane[box] = shape[box, axis[box]] // 2
    return axis, plane
