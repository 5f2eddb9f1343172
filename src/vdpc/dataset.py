"""Point-set ingestion and the pairwise distances.

A dataset is an (N, D) array of feature vectors with optional integer
ground-truth labels.  Its Euclidean distances are held or streamed.
Held (coordinates of at most ``_HOLD_LIMIT`` points, or a condensed
file), they are one symmetric N-by-N float64 matrix, filled by row
blocks of a NumPy pair form that equals SciPy's ``cdist`` bitwise;
held distances need NumPy alone.  Streamed (coordinates of more
points), every pass computes its blocks with ``cdist`` and drops them,
and SciPy is imported in the calling thread before any pass.  Both
modes give the same values bitwise; README "Known limitations" gives
their memory and time.
``CondensedDistances`` hides the mode: its block source (``_block``,
``_pairs``) is the one place that reads the matrix or computes a
distance, ``_scan`` the one reader of ranges of them but ρ's tiles
(``row_sums``), and every query goes through one of its methods.  On
streamed coordinates of at most ``_TREE_MAX_DIM`` dimensions, δ and
kNN take candidates from a k-d tree, and a strict bound proves that no
other point could win; d_c's count and DBSCAN's ε-pairs read only the
pairs within reach of their radius along the widest coordinate
(``_window``).  From ``_POOL_MIN_BLOCKS`` tasks on, every pass spreads
its blocks over the calling thread and ``workers − 1`` pool threads,
one thread per core the process may run on, and from ``_TREE_POOL_MIN``
points a k-d tree query runs on every core; each block is computed as
on one thread, so no result depends on the core count.  ``map_rows``
lends those threads to passes over other arrays (aSNNC's
shared-neighbour counts).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import DataError

__all__ = [
    "Dataset",
    "CondensedDistances",
    "load_points_csv",
    "load_condensed_matrix",
    "pairwise_distances",
]

_BLOCK_CELLS = 1 << 18  # matrix cells per block in the row-block loops
# ``pairwise_distances`` streams the distances of more points than this (a
# 128 MiB matrix).  Streaming costs a sweep, which reuses one matrix for
# every cut-off, about as much as it saves a single run here (README).
_HOLD_LIMIT = 4096
# Fewer blocks than this run inline: such a pass takes a few milliseconds,
# and its thread hand-offs can cost as much on a loaded host.
_POOL_MIN_BLOCKS = 8
# A k-d tree query of fewer points than this runs on the calling thread.
# For 17 neighbours among t710's 10,000 points (2-core host, medians of
# 20 to 2,000 queries), 7 points took 29 us on one thread against 133 us
# on two, 512 points 1.2 against 1.4 ms, 1,024 points 3.0 against 2.4 ms,
# and all 10,000 (δ's one query) 28 against 19 ms.
_TREE_POOL_MIN = 1024
# ``row_sums`` tiles the distances by nodes of NumPy's row-sum tree of at
# most _TILE columns, a tile of at most _TILE² = _BLOCK_CELLS cells.  On a
# 2-core host, ρ at pct 2 took 0.141 s on t710 at 512 columns against
# 0.192 s at 256 and 0.167 s at 1,024 (medians of 9), and 3.03 s on a 25k
# ``density_mix`` against 3.25 s and 3.16 s (medians of 3).  Past _SEGMENTS
# such nodes (about 32k points) the sums are kept for nodes a tree level
# wider, so they take at most 512 bytes a point.
_TILE = 512
_SEGMENTS = 64
_LEAF = 128  # NumPy sums a node of at most 128 columns without a split
_TREE_MAX_DIM = 5  # δ's and kNN's k-d tree serves up to 5 coordinates
_MARGIN = 1 + 2.0**-20  # a bound widened past ``cdist``'s rounding (``_window``)
_SHRINK = 1 - 2.0**-20  # bound over the last tree distance (see ``_candidates``)
_CANDIDATES = 16  # tree candidates of a point for δ, besides itself
_KNN_EXTRA = 4  # and for its k nearest, besides itself and k

log = logging.getLogger("vdpc")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """N feature vectors of uniform dimension with optional labels."""

    points: np.ndarray
    ground_truth: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self):
        try:
            pts = np.asarray(self.points)
        except ValueError:  # rows of different lengths
            raise DataError("points must be rows of one length") from None
        if pts.dtype.kind not in "biuf":  # a cast would drop imaginary parts
            raise DataError("points must be real numbers, got %s values" % pts.dtype)
        pts = pts.astype(np.float64, copy=False)
        if pts.ndim != 2:
            raise DataError("points must be a 2-D array of feature vectors")
        if pts.shape[1] == 0:
            raise DataError("points need at least one coordinate")
        if len(pts) < 2:
            raise DataError("a dataset needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise DataError("points contain non-finite values")
        # a read-only view: the caller's own array stays writable
        object.__setattr__(self, "points", _readonly(pts.view()))
        if self.ground_truth is not None:
            gt = np.asarray(self.ground_truth)
            if gt.ndim != 1 or len(gt) != len(pts):
                raise DataError(
                    "ground truth length %d does not match %d points"
                    % (gt.size, len(pts))
                )
            object.__setattr__(self, "ground_truth", _readonly(_integer_labels(gt)))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _integer_labels(gt: np.ndarray) -> np.ndarray:
    """Ground-truth labels as int64, refusing any that are not integers,
    and float labels beyond ±2^53, where float64 skips integers (1e20 and
    2e20 would both cast to -2^63)."""
    kind = gt.dtype.kind
    if kind == "f":
        if np.any(gt != np.round(gt)):  # NaN and ±inf included
            raise DataError("ground truth holds non-integer values")
        if np.any(np.abs(gt) > 2.0**53):
            raise DataError(
                "ground truth holds a label beyond ±2^53, which a float "
                "cannot hold exactly"
            )
    elif kind not in "biu" or (kind == "u" and np.any(gt > np.iinfo(np.int64).max)):
        raise DataError("ground truth must hold integer labels that fit in int64")
    return gt.astype(np.int64)


class EpsNeighbors(NamedTuple):
    """The pairs i < j of positions in a point subset closer than ε."""

    i: np.ndarray  # the lower position of each pair
    j: np.ndarray  # the higher one
    source: str  # "window" or "matrix"


class CondensedDistances:
    """Pairwise Euclidean distances of ``n`` points.

    The constructor takes the condensed form ``d``: dist(i, j) for i < j
    at index i*n - i*(i+1)/2 + (j-i-1), and holds the symmetric n-by-n
    matrix with a zero diagonal.  ``pairwise_distances`` holds that
    matrix up to ``_HOLD_LIMIT`` points and streams past it.  ``points``
    holds the coordinates the distances come from, times the exact power
    of two ``scale`` (see ``pairwise_distances``), or None when the
    distances were given directly.  Only the block source, ``_block``
    and ``_pairs``, reads the matrix or computes a distance.
    """

    def __init__(self, n: int, d: np.ndarray):
        d = np.asarray(d, dtype=np.float64).ravel()
        m = n * (n - 1) // 2
        if n < 2:
            raise DataError("need at least 2 points")
        if d.size != m:
            raise DataError(
                "expected %d pairwise distances for n=%d, got %d"
                % (m, n, d.size)
            )
        top = _checked_max(d)
        _require_memory(n)
        square = np.zeros((n, n))
        start = 0
        for i in range(n - 1):  # row i's pairs (i, j > i), mirrored into column i
            stop = start + n - 1 - i
            square[i, i + 1 :] = square[i + 1 :, i] = d[start:stop]
            start = stop
        self._keep(n, square, top)

    def _keep(
        self,
        n: int,
        square: np.ndarray | None,
        max_distance: float | None,
        points: np.ndarray | None = None,
        scale: float = 1.0,
    ) -> None:
        """Keep a checked symmetric matrix without copying it, or, with
        ``square`` None, the coordinates to stream the distances from."""
        self.n = n
        self._square = None if square is None else _readonly(square)
        self._max = max_distance  # None until a streamed pass finds it
        self.points = points
        self.scale = scale
        self._memo: dict = {}  # what runs on these distances share (``_kept``)
        self._tree = None  # a k-d tree over streamed ``points``, built on first use
        self._cdist = None  # SciPy's ``cdist``, imported for streamed distances

    def _kept(self, key, make: Callable[[], object]):
        """``make()``, computed once per ``key`` on these distances; nothing
        is kept when it raises."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    # -- the block source: every distance is read or computed here ------

    def _block(self, rows, cols=None) -> np.ndarray:
        """Distances of the points ``rows`` to the points ``cols`` (all by
        default), each an index array or a slice.  Held: a read-only view
        of the matrix for slices, a copy for index arrays (whole rows
        gathered first, at most ``_BLOCK_CELLS`` cells of them at a time,
        then their columns).  Streamed: ``cdist`` of the coordinates
        times 1/``scale``, equal to the held matrix bitwise."""
        if self._square is not None:
            if cols is None:
                return self._square[rows]
            if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
                step = max(1, _BLOCK_CELLS // self.n)
                if len(rows) > step:  # few columns: bound the row gather
                    return np.concatenate([self._block(rows[a:a + step], cols)
                                           for a in range(0, len(rows), step)])
                return np.take(self._square[rows], cols, axis=1)
            return self._square[rows, cols]
        pts = self.points
        block = self._cdist(pts[rows], pts if cols is None else pts[cols])
        if self.scale != 1.0:
            with np.errstate(over="ignore"):  # see ``pairwise_distances``
                block *= 1.0 / self.scale
        return block

    def _pairs(
        self, i: np.ndarray, j: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """dist(i, j) for broadcast index arrays: gathered from the held
        matrix, or ``sqrt(((a0-b0)² + (a1-b1)²) + …)`` of the coordinates,
        summed left to right, which is ``cdist``'s value bitwise (the held
        fill, written into ``out``)."""
        if self._square is not None:
            return self._square[i, j]
        first, *rest = self.points.T
        out = np.subtract(first[i], first[j], out=out)
        out *= out
        for x in rest:
            diff = x[i] - x[j]
            diff *= diff
            out += diff
        np.sqrt(out, out=out)
        if self.scale != 1.0:
            with np.errstate(over="ignore"):
                out *= 1.0 / self.scale
        return out

    def _scan(self, fn: Callable[[slice, np.ndarray], object],
              order=None, begin=None, end=None) -> list:
        """The results of ``fn(r, block)``, in order, for consecutive row
        blocks r of the m positions of ``order`` (all points by default),
        run by ``_map``: the one reader of ranges of the distances.  ``block`` holds the
        distances of the points at positions r to those at positions
        begin[r.start] up to end[r.stop - 1] (0 up to m by default): a
        read-only view of a held matrix without ``order``, else ``fn``'s
        own, which it may overwrite.  Each begin[p] is 0 or p, so it rises
        by at most one a position, and below end[p]; a block of s rows
        then spans at most s + W columns, W the largest end - begin, and
        the blocks of ``_slices(m, W + isqrt(_BLOCK_CELLS))`` hold at most
        ``_BLOCK_CELLS`` cells each (one row at least)."""
        m = self.n if order is None else len(order)
        if m == 0:
            return []
        begin = np.broadcast_to(0 if begin is None else begin, m)
        end = np.broadcast_to(m if end is None else end, m)

        def run(r: slice):
            cols = slice(int(begin[r.start]), int(end[r.stop - 1]))
            if order is None:
                return fn(r, self._block(r, cols))
            return fn(r, self._block(order[r], order[cols]))

        width = int((end - begin).max())
        return _map(run, _slices(m, width + math.isqrt(_BLOCK_CELLS)))

    # -- readers ---------------------------------------------------------

    @property
    def max_distance(self) -> float:
        """The largest pairwise distance; a streamed pass finds it on
        first use unless ρ's tile pass (``row_sums``) already has."""
        if self._max is None:
            self._max = max(self._scan(lambda r, b: _checked_max(b), begin=np.arange(self.n)))
        return self._max

    def eps_neighbors(self, pts: np.ndarray, eps: float) -> EpsNeighbors:
        """The pairs of positions i < j in the ascending point subset
        ``pts`` with dist(pts[i], pts[j]) < eps, as int32.

        One pass over upper row blocks of the subset's distances: on
        streamed coordinates those within reach of eps along the subset's
        widest coordinate (``_window``), else the whole upper triangle.
        The distances decide every pair either way, so both give the same
        pairs bitwise, in their own order.  Each pass logs its points, the
        pairs kept, the block cells and the window's coordinate, or the
        whole triangle.
        """
        m = len(pts)
        axis, order, ends = self._window(eps, pts) or (None, np.arange(m), None)

        def upper(r: slice, block: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
            k, c = np.divmod(np.flatnonzero(block < eps), block.shape[1])
            up = c > k  # the strict upper triangle, in C order
            i, j = order[k[up] + r.start], order[c[up] + r.start]
            lo, hi = np.minimum(i, j), np.maximum(i, j)  # positions in ``pts``
            return lo.astype(np.int32), hi.astype(np.int32), block.size

        found = self._scan(upper, pts[order], np.arange(m), ends)
        none = np.empty(0, dtype=np.int32)  # the pairs of an empty subset
        i, j = (np.concatenate([none, *(f[side] for f in found)]) for side in (0, 1))
        log.debug(
            "eps-pairs: %d points, Eps=%r, %d pairs kept, %d block cells, %s",
            m, eps, len(i), sum(f[2] for f in found),
            "whole triangle" if axis is None else "window along coordinate %d" % axis,
        )
        return EpsNeighbors(i, j, "matrix" if axis is None else "window")

    @staticmethod
    def map_rows(fn: Callable[[slice], object], size: int, width: int) -> list:
        """``[fn(r) for r in _slices(size, width)]``: row blocks of at most
        ``_BLOCK_CELLS`` cells of ``width`` columns, spread over the calling
        thread and ``workers − 1`` pool threads by ``_map`` as the passes
        over the distances are; ``fn`` may only read shared state or write
        the rows ``r`` of its own output."""
        return _map(fn, _slices(size, width))

    def row_sums(self, kernel: Callable[[np.ndarray, np.ndarray], object]) -> np.ndarray:
        """Each point's sum of the kernel of its distances to every point,
        itself included, bitwise equal to ``sum(axis=1)`` of its full row
        of kernel values, with each value computed once.  ``kernel(block,
        out)`` writes the elementwise kernel of a block of distances into
        ``out``: the block itself when streamed, a fresh array when held.

        NumPy sums a C-contiguous row by a fixed tree over its column
        positions (``_half``), so the sum over a node's columns alone is
        that node's partial sum.  The columns are cut into segments, the
        nodes of at most ``_TILE`` columns (``_nodes``), and for each pair
        of segments p <= q one tile, the kernel of ``_block(p, q)``, gives
        the rows of p their sums over q and, transposed, the rows of q
        their sums over p: the distances are bitwise symmetric.  Each
        row's segment sums are then added up the tree (``_fold``).  Past
        ``_SEGMENTS`` segments the sums are kept for coarser nodes, each
        folded from its tiles, so a pass holds at most ``_SEGMENTS``·n
        floats of sums besides, per thread, one tile of at most
        ``_TILE``² = ``_BLOCK_CELLS`` cells, whose transpose is summed down
        its columns (``_column_sums``).  One task per coarse segment of
        rows runs its tiles by ``_map``; tasks write disjoint sums, so no
        result depends on the core count.  A streamed pass also keeps the
        largest distance while it is unknown.  Each pass logs its points,
        source, segments and tiles.
        """
        n = self.n
        width = _TILE
        while len(coarse := _nodes(0, n, width)) > _SEGMENTS:
            width *= 2
        fine = _nodes(0, n, _TILE)
        parts = [[f for f in fine if a <= f[0] < b] for a, b in coarse]
        sums = np.empty((len(coarse), n))  # sums[c, i]: row i over coarse[c]
        find_max = self._max is None
        streamed = self._cdist is not None

        def tile(rows: slice, cols: slice, across: np.ndarray,
                 down: np.ndarray | None) -> float:
            """The kernel of one tile: its row sums into ``across``, those of
            its transpose into ``down`` unless None; its largest distance."""
            block = self._block(rows, cols)
            top = float(block.max()) if find_max else -math.inf  # before ``kernel``
            terms = block if streamed else np.empty(block.shape)
            kernel(block, terms)
            across[:] = terms.sum(axis=1)
            if down is not None:
                down[:] = _column_sums(terms)
            return top

        def task(p: int) -> float:
            (pa, pb), top = coarse[p], -math.inf
            for q in range(p, len(coarse)):
                qa, qb = coarse[q]
                here = np.empty((len(parts[q]), pb - pa))  # rows of p over q's tiles
                there = here if q == p else np.empty((len(parts[p]), qb - qa))
                for a, (ra, rb) in enumerate(parts[p]):
                    for b, (ca, cb) in enumerate(parts[q]):
                        if q > p or b >= a:
                            top = max(top, tile(
                                slice(ra, rb), slice(ca, cb), here[b, ra - pa : rb - pa],
                                there[a, ca - qa : cb - qa] if ra != ca else None))
                sums[q, pa:pb] = _fold(here, parts[q], qa, qb)
                if q != p:
                    sums[p, qa:qb] = _fold(there, parts[p], pa, pb)
            return top

        tops = _map(task, list(range(len(coarse))))
        if find_max:
            self._max = max(tops)
        log.debug(
            "row sums of %d points: %s, %d segments of at most %d columns, "
            "%d tiles, largest distance %s", n, "streamed" if streamed else "held",
            len(coarse), width, len(fine) * (len(fine) + 1) // 2,
            "found" if find_max else "known",
        )
        return _fold(sums, coarse, 0, n)

    def _window(
        self, hi: float, pts: np.ndarray
    ) -> tuple[int, np.ndarray, np.ndarray] | None:
        """For streamed coordinates, a point subset ``pts`` and a normal
        float ``hi``: the subset's widest coordinate a, the order of its
        positions along it, and for each position p in that order the end
        of its window, one past the last position within reach of p along
        a.  Every pair farther apart along a than the reach is farther
        apart than hi, so a pass that reads the distances up to hi may
        skip it.  None where the whole triangle is read: held distances,
        an empty subset, and hi inf or not a normal float."""
        tiny = np.finfo(np.float64).tiny
        if self._cdist is None or not len(pts) or not tiny <= hi < math.inf:
            return None
        x = self.points[pts]
        axis = int(np.argmax(np.ptp(x, axis=0)))
        order = np.argsort(x[:, axis], kind="stable")
        x = x[order, axis]
        # ``cdist``'s value is at least the gap along one coordinate less a
        # few ulps, which hi widened by 2^-20 covers.  Four ulps of the
        # largest coordinate cover the rounding of x + reach, and gaps too
        # small for their squares to keep their precision (below 2^-511).
        # That coordinate is taken over all points, 2^-256 or more once
        # scaled; a subset's own may be smaller than such a gap.
        reach = hi * self.scale * _MARGIN + 4.0 * float(np.spacing(np.abs(self.points).max()))
        return axis, order, np.searchsorted(x, x + reach, side="right")

    def row(self, i: int) -> np.ndarray:
        """Point i's distances to every point, read-only."""
        return _readonly(self._block(slice(i, i + 1))[0])

    def nearest(
        self, rows: np.ndarray, cols: np.ndarray, rank: np.ndarray | None = None
    ) -> np.ndarray:
        """Position in ``cols`` of the nearest column to each of ``rows``,
        ties to the lower position.

        With a total order ``rank`` (0 = first), a row only considers the
        columns ranked before it, unless no column is; then it considers
        all of them.  ``cols`` must not be empty.
        """
        rows, cols = np.asarray(rows), np.asarray(cols)
        out = np.empty(len(rows), dtype=np.intp)

        def scan(r: slice) -> None:
            block = self._block(rows[r], cols)
            if rank is not None:
                later = rank[cols] >= rank[rows[r, None]]
                block[later & ~later.all(axis=1, keepdims=True)] = np.inf
            out[r] = block.argmin(axis=1)  # the first of equal minima

        _map(scan, _slices(len(rows), len(cols)))
        return out

    def _treeable(self) -> bool:
        """Whether a k-d tree may propose neighbours: for streamed
        coordinates, which ``cdist`` computes, of at most ``_TREE_MAX_DIM``
        dimensions.  Held distances are read directly."""
        return self._cdist is not None and self.points.shape[1] <= _TREE_MAX_DIM

    def _candidates(
        self, points: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """k-d tree candidates of each of ``points``: the indices of its
        ``count`` nearest points by tree distance (at most n, self among
        them), and a bound in matrix units that every point outside them
        reaches, so that an answer among them strictly below it has no
        rival outside.

        The tree and ``cdist`` round their distances differently, by a
        few ulps.  The bound is the last tree distance shrunk by 2^-20,
        which only has to cover that difference, over ``scale``; inf when
        every point is a candidate; and 0, which no distance is below,
        where it or its square in tree units is not a normal float, as
        its relative precision is then lost.  None, so that the caller
        reads the rows, where no tree may serve (``_treeable``).
        """
        if not self._treeable():
            return None
        if self._tree is None:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self.points)
        count = min(count, self.n)  # the tree would pad with inf and index n
        workers = _workers() if len(points) >= _TREE_POOL_MIN else 1
        t, idx = self._tree.query(self.points[points], count, workers=workers)
        idx = idx.reshape(len(points), count)
        if count == self.n:
            return idx, np.full(len(points), np.inf)
        t = t.reshape(len(points), count)[:, -1] * _SHRINK
        bound = t / self.scale
        tiny = np.finfo(np.float64).tiny
        bound[(t * t < tiny) | (bound < tiny)] = 0.0
        return idx, bound

    def nearest_earlier(self, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance to and index of each point's nearest point earlier in
        the total order ``order`` (a permutation of 0..n-1), ties to the
        earliest; the first point gets (inf, -1).

        With a tree (``_candidates``), a point's answer is the nearest
        earlier one of its ``_CANDIDATES`` nearest when that is strictly
        below their bound; the other points read their rows through
        ``nearest``.  Without one, each point reads its distances to the
        points before it in ``order`` (``_earlier_triangle``).  Both give
        the answer of a loop over the full rows bitwise.
        """
        n = self.n
        every = np.arange(n)
        found = self._candidates(every, _CANDIDATES + 1)
        if found is None:
            dist, near = self._earlier_triangle(order)
            source, count, read = "rows", 0, n
        else:
            idx, bound = found
            rank = np.empty(n, dtype=np.intp)
            rank[order] = every
            d = self._pairs(every[:, None], idx)
            r = rank[idx]
            d[r >= rank[:, None]] = np.inf  # only earlier points count
            dist = d.min(axis=1)
            r[d != dist[:, None]] = n  # the earliest of the nearest
            near = idx[every, r.argmin(axis=1)]
            bad = np.flatnonzero(dist >= bound)
            bad = bad[bad != order[0]]
            near[bad] = order[self.nearest(bad, order, rank)]
            dist[bad] = self._pairs(bad, near[bad])
            dist[order[0]], near[order[0]] = np.inf, -1
            source, count, read = "tree", idx.shape[1], len(bad)
        log.debug(
            "nearest earlier point of %d points: %s source, %d candidates, "
            "%d rows read", n, source, count, read,
        )
        return dist, near

    def _earlier_triangle(self, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``nearest_earlier`` by the lower triangle of the distances in
        ``order``: each row block of positions r reads its points'
        distances to the points at positions up to r.stop, and the first
        of equal minima before a point's own position is the earliest."""
        n = self.n
        dist = np.empty(n)
        near = np.empty(n, dtype=np.int64)

        def earlier(r: slice, block: np.ndarray) -> None:
            size = r.stop - r.start
            block[:, r.start :][~np.tri(size, k=-1, dtype=bool)] = np.inf
            at = block.argmin(axis=1)
            near[order[r]] = order[at]
            dist[order[r]] = block[np.arange(size), at]

        self._scan(earlier, order, end=np.arange(1, n + 1))
        dist[order[0]], near[order[0]] = np.inf, -1
        return dist, near

    def knn(self, points: np.ndarray, k: int) -> np.ndarray:
        """The k nearest neighbours of each of ``points``, self excluded
        and distance ties broken by ascending index; each row of the
        (m, k) result lists them in ascending index order.

        With a tree (``_candidates``, by row blocks of at most
        ``_BLOCK_CELLS`` candidates), a row is final when its k-th
        candidate by (distance, index) among k + 1 + ``_KNN_EXTRA`` is
        strictly below their bound, so every point tied with it is a
        candidate; the other rows read the matrix, as every row does
        without a tree.
        """
        m = len(points)
        cols = np.empty((m, k), dtype=np.int64)
        ok = np.zeros(m, dtype=bool)  # rows decided by their candidates
        count = min(k + 1 + _KNN_EXTRA, self.n) if self._treeable() else 0
        for r in _slices(m, count) if count else ():
            pts = points[r]
            idx, bound = self._candidates(pts, count)
            d = self._pairs(pts[:, None], idx)
            d[idx == pts[:, None]] = np.inf  # self ranks last
            first = np.lexsort((idx, d))[:, :k]  # by (distance, index)
            rows = np.arange(len(pts))[:, None]
            final = d[rows, first[:, -1:]][:, 0] < bound
            cols[r][final] = np.sort(idx[rows, first], axis=1)[final]
            ok[r] = final
        bad = np.flatnonzero(~ok)

        def scan(r: slice) -> None:
            rows = bad[r]
            block = self._block(points[rows])
            block[np.arange(len(block)), points[rows]] = np.inf  # self ranks last
            # The k smallest by (distance, index): every value below the k-th,
            # then the lowest-indexed values equal to it, up to k of them.
            kth = np.partition(block, k - 1, axis=1)[:, k - 1 : k]
            keep = block < kth
            tied = block == kth
            room = k - keep.sum(axis=1, keepdims=True)
            keep |= tied & (np.cumsum(tied, axis=1) <= room)
            cols[rows] = np.nonzero(keep)[1].reshape(-1, k)

        _map(scan, _slices(len(bad), self.n))
        log.debug(
            "%d nearest of %d points: %s source, %d candidates, %d rows read",
            k, m, "tree" if count else "rows", count, len(bad),
        )
        return cols

    def kth_smallest(self, k: int) -> float:
        """Exact k-th smallest (1-based) of the n(n-1)/2 distances i < j.

        A sampled selection, not a sort (Floyd and Rivest, 1975): the
        sorted distances of about m^(2/3) pairs, the same on every call
        (``_sample_pairs``), give a bracket [lo, hi] of four standard
        deviations of the k-th's sample rank each side (``_bracket``).
        One pass over row blocks of the strict upper triangle counts the
        distances below lo, equal to lo and equal to hi, and keeps those
        strictly between (about 8·m^(2/3)·sqrt(q(1-q)) of them at
        q = k/m), so a bracket end shared by many pairs costs no memory;
        ``np.partition`` finishes among the kept ones.  Streamed
        coordinates are sorted along their widest one, and the pass
        computes only the pairs within reach of hi along it
        (``_window``): every pair it skips is above hi, so the counts
        are those of the whole triangle.  If the k-th distance is not in
        the bracket, the bracket is widened fourfold and the pass
        repeated; it ends at the whole triangle, so the answer is always
        exact and only the time depends on the sample.  Each selection
        logs its bracket, the values held, the passes it took, the cells
        of the blocks they read or computed, and the window's
        coordinate, or the whole triangle.
        """
        m = self.n * (self.n - 1) // 2
        if not 1 <= k <= m:
            raise IndexError("k=%d outside 1..%d" % (k, m))
        sample = np.sort(self._pairs(*_sample_pairs(self.n, _sample_size(m))))
        width, passes, cells = 4.0, 0, 0
        while True:
            lo, hi = _bracket(sample, k, m, width)
            passes += 1

            def count(r: slice, block: np.ndarray):
                # The strict upper triangle of the upper part: the part right
                # of its diagonal square, then the triangle inside it.
                size = r.stop - r.start
                tri = ~np.tri(size, dtype=bool)
                below = at_lo = at_hi = 0
                held = []
                for v in (block[:, size:], block[:, :size][tri]):
                    low = v < lo
                    below += int(np.count_nonzero(low))
                    inside = v <= hi
                    inside ^= low  # lo <= v <= hi, as v < lo implies v <= hi
                    # As a rule few are inside; many only when lo or hi is a
                    # value shared by many pairs, and those stay in place.
                    if np.count_nonzero(inside) * 8 <= v.size:
                        v = v[inside]
                    at_lo += int(np.count_nonzero(v == lo))
                    at_hi += int(np.count_nonzero(v == hi)) if hi != lo else 0
                    held.append(v[(lo < v) & (v < hi)])
                return below, at_lo, at_hi, held, block.size

            axis, order, ends = self._window(hi, np.arange(self.n)) or (None, None, None)
            counts = self._scan(count, order, np.arange(self.n), ends)
            below, at_lo, at_hi = (sum(c[i] for c in counts) for i in range(3))
            held = np.concatenate([v for c in counts for v in c[3]])
            cells += sum(c[4] for c in counts)
            j = k - below  # rank of the k-th among the distances in [lo, hi]
            j_held = j - at_lo  # its rank among the held ones, strictly inside
            if 1 <= j <= at_lo:
                kth = lo
            elif 1 <= j_held <= len(held):
                kth = float(np.partition(held, j_held - 1)[j_held - 1])
            elif 1 <= j_held - len(held) <= at_hi:
                kth = hi
            else:
                width *= 4.0
                continue
            log.debug(
                "d_c selection: k=%d of m=%d distances, sample of %d, bracket "
                "[%r, %r], %d values held, %d counting passes, %d block cells, %s",
                k, m, len(sample), lo, hi, len(held), passes, cells,
                "whole triangle" if order is None
                else "window along coordinate %d" % axis,
            )
            return kth


@functools.cache
def _pool(pid: int, workers: int) -> ThreadPoolExecutor:
    """The thread pool of this process for ``workers`` threads, created on
    first use.  Keyed by process id, because a forked child does not have
    its parent's threads."""
    return ThreadPoolExecutor(workers, thread_name_prefix="vdpc-blocks")


def _slices(size: int, width: int) -> list[slice]:
    """Consecutive slices of 0..size, each of at most ``_BLOCK_CELLS``
    cells of ``width`` columns (one row at least)."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return [slice(a, min(a + step, size)) for a in range(0, size, step)]


def _half(m: int) -> int:
    """Where NumPy's pairwise sum splits a node of m > ``_LEAF`` columns:
    at half of m, rounded down to a multiple of 8."""
    h = m // 2
    return h - h % 8


def _nodes(a: int, b: int, width: int) -> list[tuple[int, int]]:
    """The nodes of NumPy's pairwise tree over the columns a..b that have
    at most ``width`` columns and a parent with more, in column order; a
    leaf of at most ``_LEAF`` columns is never split."""
    if b - a <= max(width, _LEAF):
        return [(a, b)]
    h = a + _half(b - a)
    return _nodes(a, h, width) + _nodes(h, b, width)


def _column_sums(t: np.ndarray) -> np.ndarray:
    """The sums down the columns of a C-contiguous ``t``, bitwise equal to
    ``sum(axis=1)`` of its transpose without a transposed copy: NumPy's
    pairwise tree walked over the rows.  A leaf sums every eighth row
    into 8 accumulators in order, combines them pairwise, and adds the
    rows past its last multiple of 8 in order."""
    m = len(t)
    if m > _LEAF:
        h = _half(m)
        return _column_sums(t[:h]) + _column_sums(t[h:])
    e = m - m % 8
    r = t[:e].reshape(-1, 8, t.shape[1]).sum(axis=0)  # zeros below 8 rows
    for _ in range(3):  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        r = r[0::2] + r[1::2]
    total = r[0]
    for row in t[e:]:
        total += row
    return total


def _fold(sums: np.ndarray, nodes: list[tuple[int, int]], a: int, b: int) -> np.ndarray:
    """The row sums over the node a..b of NumPy's pairwise tree, given in
    ``sums[c]`` the row sums over ``nodes[c]``, consecutive nodes covering
    a..b: each node's sum is its left child's plus its right child's."""
    if (a, b) in nodes:
        return sums[nodes.index((a, b))]
    h = a + _half(b - a)
    return _fold(sums, nodes, a, h) + _fold(sums, nodes, h, b)


def _workers() -> int:
    """The cores this process may run on (1 where it cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _map(fn: Callable, tasks: list) -> list:
    """``[fn(t) for t in tasks]`` (row slices as a rule), spread over the
    calling thread and ``workers − 1`` pool threads, one thread per core
    this process may run on; inline with one core or fewer than
    ``_POOL_MIN_BLOCKS`` tasks.  Each pool thread is handed its first task
    as it is submitted and the caller starts on task 0; then each thread
    claims the next unclaimed task.  Once all have stopped, the error of
    the lowest failed task is raised.  NumPy and ``cdist`` release the
    interpreter lock on a block, so the blocks of a pass run side by side."""
    workers = _workers()
    if workers < 2 or len(tasks) < _POOL_MIN_BLOCKS:
        return [fn(t) for t in tasks]
    out, errors = [None] * len(tasks), {}
    claim = itertools.count(workers)  # one C call a claim: atomic under the GIL

    def run(k: int) -> None:
        while k < len(tasks):
            try:
                out[k] = fn(tasks[k])
            except Exception as e:
                errors[k] = e
            k = next(claim)

    pool = _pool(os.getpid(), workers - 1)
    futures = [pool.submit(run, k) for k in range(1, workers)]
    run(0)
    for f in futures:
        f.result()
    if errors:
        raise errors[min(errors)]
    return out


def _sample_size(m: int) -> int:
    """Pairs in d_c's sample out of m: about m^(2/3)."""
    return math.ceil(m ** (2.0 / 3.0))


def _sample_pairs(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """s pairs i != j of n points, the same on every call: the first s
    values of the splitmix64 stream from state 0 (Steele, Lea and Flood,
    OOPSLA 2014), whose high and low 32 bits pick i among n and j among
    the other n - 1 points by multiply-shift (exact for n up to 2^32)."""
    z = np.arange(1, s + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)  # the state after each step
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    i = z >> np.uint64(32)
    i *= np.uint64(n)
    i >>= np.uint64(32)
    z &= np.uint64(0xFFFFFFFF)
    z *= np.uint64(n - 1)
    z >>= np.uint64(32)
    i, j = i.view(np.int64), z.view(np.int64)  # both below 2^32
    j += j >= i  # any other point
    return i, j


def _bracket(sample: np.ndarray, k: int, m: int, width: float) -> tuple[float, float]:
    """Values at sample ranks r -/+ (width*sigma + 1), r = q*S with
    q = (k - 1/2)/m, the expected place of the k-th of m distances in the
    sorted sample of S, and sigma = sqrt(S*q*(1 - q)), the standard
    deviation of that place (the count of sampled distances below the
    k-th is binomial); -inf or +inf where a rank falls outside the
    sample."""
    s = len(sample)
    q = (k - 0.5) / m
    r, w = q * s, width * math.sqrt(s * q * (1.0 - q)) + 1.0
    a, b = math.floor(r - w), math.ceil(r + w)
    lo = float(sample[a]) if 0 <= a < s else -math.inf
    hi = float(sample[b]) if b < s else math.inf
    return lo, hi


def _checked_max(v: np.ndarray) -> float:
    """Largest of a block of distances, after checking that all of them
    are finite and non-negative (a NaN propagates into min and max)."""
    lo, hi = float(v.min()), float(v.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DataError("distances contain non-finite values")
    if lo < 0:
        raise DataError("distances must be non-negative")
    return hi


def _require_memory(n: int) -> None:
    """Refuse to hold an n-by-n float64 matrix larger than physical
    memory (streamed distances need no such matrix)."""
    need = 8 * n * n
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise DataError(
            "the distance matrix of %d points needs %d bytes, more than the "
            "%d bytes of physical memory; use fewer points" % (n, need, have)
        )


def _power_of_two_scale(pts: np.ndarray) -> float:
    """1, or the power of two s that brings the largest coordinate
    magnitude from outside [2^-256, 2^256] into [1, 2) (s is at most
    2^1023, the largest finite power, so subnormal magnitudes end up
    below 1)."""
    big = float(np.abs(pts).max())
    if big == 0.0 or 2.0**-256 <= big <= 2.0**256:
        return 1.0
    return math.ldexp(1.0, min(1 - math.frexp(big)[1], 1023))


def pairwise_distances(ds: Dataset) -> CondensedDistances:
    """Euclidean distances of a dataset: the matrix filled by row blocks
    of the pair form, bitwise equal to SciPy's ``squareform(pdist(points))``,
    up to ``_HOLD_LIMIT`` points; past it the same values streamed by
    ``cdist``, each pass computing its blocks from the coordinates and
    dropping them.

    Coordinates too large or too small for their squares are first
    multiplied by an exact power of two s, and each distance by 1/s, so
    the distances are in input units and equal s⁻¹ times the scaled ones.
    That rescale can overflow: a held matrix is checked as it is filled;
    streamed distances are bounded by the coordinates' bounding box, and
    checked by a pass of their own only when that bound overflows.
    """
    n = ds.n
    s = _power_of_two_scale(ds.points)
    pts = ds.points if s == 1.0 else _readonly(ds.points * s)
    cd = CondensedDistances.__new__(CondensedDistances)
    cd._keep(n, None, None, pts, s)
    if n > _HOLD_LIMIT:
        from scipy.spatial.distance import cdist

        cd._cdist = cdist
        span = pts.max(axis=0) - pts.min(axis=0)
        if not math.isfinite(math.hypot(*span.tolist()) * _MARGIN / s):
            cd.max_distance  # found by a pass that checks every distance
        return cd
    _require_memory(n)
    sq = np.empty((n, n))
    every = np.arange(n)
    top = max(_map(lambda r: _checked_max(cd._pairs(every[r, None], every, out=sq[r])),
                   _slices(n, n)))
    cd._keep(n, sq, top, pts, s)
    return cd


def _read_text(path: Path) -> str:
    """The text of a UTF-8 file, less a byte order mark, with universal
    newlines; a missing or unreadable file or other bytes are a
    ``DataError``."""
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except OSError as e:
        raise DataError(f"{path}: cannot read: {e.strerror or e}") from None


def _checked_lines(path: Path, lines: list[tuple[int, str]]) -> np.ndarray:
    """The cells of numbered CSV lines, parsed one line at a time; the
    first line with a cell count unlike the first line's, a non-numeric
    cell or a non-finite value is a ``DataError`` naming it."""
    rows, width = [], len(lines[0][1].split(","))
    for lineno, line in lines:
        cells = line.split(",")
        if len(cells) != width:
            raise DataError(
                f"{path}: line {lineno}: expected {width} cells, got {len(cells)}"
            )
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise DataError(f"{path}: line {lineno}: non-numeric cell") from None
        if not all(map(math.isfinite, row)):
            raise DataError(f"{path}: line {lineno}: non-finite value")
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def load_points_csv(
    path: str | Path,
    has_header: bool = False,
    label_column: int | None = None,
    name: str | None = None,
) -> Dataset:
    """Parse a comma-separated point file into a dataset.

    Every row must hold the same number of finite numeric cells; the
    optional label column is stripped from the features and kept as
    integer ground truth.  Errors name the offending 1-based line.
    """
    path = Path(path)
    lines = []  # (line number, text) of each data line
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if line and not (lineno == 1 and has_header):
            lines.append((lineno, line))
    width = len(lines[0][1].split(",")) if lines else 0

    def cells():
        for _, line in lines:
            row = line.split(",")
            if len(row) != width:
                raise ValueError("ragged line")
            yield from row

    # NumPy parses each cell as ``float`` does, and holds no list of them.
    try:
        arr = np.fromiter(cells(), np.float64, len(lines) * width)
    except ValueError:  # a ragged line or a non-numeric cell
        arr = None
    if arr is None or not np.isfinite(arr).all():
        arr = _checked_lines(path, lines)  # raises at the first bad line
    arr = arr.reshape(len(lines), width)
    if len(arr) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(arr)}")
    gt = None
    if label_column is not None:
        col = label_column if label_column >= 0 else arr.shape[1] + label_column
        if not 0 <= col < arr.shape[1]:
            raise DataError(
                f"{path}: label column {label_column} outside 0..{arr.shape[1] - 1}"
            )
        gt = arr[:, col]
        arr = np.delete(arr, col, axis=1)
        if arr.shape[1] == 0:
            raise DataError(f"{path}: no feature columns left after labels")
    try:
        return Dataset(points=arr, ground_truth=gt, name=name or path.stem)
    except DataError as e:  # the points are checked above: a label is at fault
        raise DataError(f"{path}: label column {label_column} ({e})") from None


def load_condensed_matrix(path: str | Path, n: int) -> CondensedDistances:
    """Parse a plain-number file holding n(n-1)/2 pairwise distances.

    Values may be separated by any mix of whitespace and commas and are
    taken as distances directly, in row-major upper-triangular order;
    ``CondensedDistances`` checks their count and values.
    """
    path = Path(path)
    tokens = (t[0] for t in re.finditer(r"[^\s,]+", _read_text(path)))
    try:  # NumPy parses each token as ``float`` does, and holds no list of them
        values = np.fromiter(tokens, np.float64)
    except ValueError:
        raise DataError(f"{path}: non-numeric entry") from None
    return CondensedDistances(n=n, d=values)
