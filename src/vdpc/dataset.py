"""Point-set ingestion and the pairwise-distance matrix.

A dataset is an (N, D) array of feature vectors with optional integer
ground-truth labels.  Its Euclidean distances are held once, as a
symmetric N-by-N float64 matrix filled by row blocks of ``cdist``, or
read from a condensed upper-triangular vector.  The matrix is private
to ``CondensedDistances``; every query reads it through one of six
methods: ``map_blocks`` (read-only row blocks of the whole matrix: d_c,
ρ, the zero count); ``row`` (one point's row: aDBSCAN's Eps and
MinPts); ``nearest`` (each point's nearest member of a set: boundary,
micro-cluster and noise steps); ``nearest_earlier`` (each point's
nearest earlier point in a total order: δ); ``knn`` (k nearest
neighbours: aSNNC); and ``eps_neighbors`` (DBSCAN's strict
ε-neighbourhoods).  The last three take candidates from a k-d tree over
coordinates of at most ``_TREE_MAX_DIM`` dimensions (for ε-neighbours,
only when they are sparse, in O(pairs) memory); the matrix decides
among them, a strict bound proves that no other point could win, and a
point that fails it reads its matrix row, as every point does without
a tree, so both sources give the same answer bitwise.  The d_c
percentile comes from an exact selection inside a bracket drawn from a
fixed-seed sample, in one counting pass over row blocks as a rule,
never from sorting all N(N-1)/2 distances.  The ``cdist`` fill and every
``map_blocks`` pass spread their row blocks over one thread per core
the process may run on from ``_POOL_MIN_BLOCKS`` blocks on; each block
is computed as on one thread, so no result depends on the core count.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, squareform

from .errors import DataError

__all__ = [
    "Dataset",
    "CondensedDistances",
    "load_points_csv",
    "load_condensed_matrix",
    "pairwise_distances",
]

_BLOCK_CELLS = 1 << 18  # matrix cells per block in the row-block loops
# Fewer blocks than this run inline: such a pass takes a few milliseconds,
# and its thread hand-offs can cost as much on a loaded host.
_POOL_MIN_BLOCKS = 8
_SPARSE_SHARE = 32  # the k-d tree finds ε-neighbours up to m²/32 ordered pairs
_TREE_MAX_DIM = 5  # and only up to 5 coordinates; past that the scan is faster
_MARGIN = 1 + 2.0**-20  # tree radius over eps (see ``_tree_neighbors``)
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
    """Strict ε-neighbourhoods inside a point subset, self included."""

    counts: np.ndarray  # neighbourhood size of each position
    near: Callable[[int], np.ndarray]  # one position's neighbours, ascending
    source: str  # "tree" or "matrix"


class CondensedDistances:
    """Pairwise Euclidean distances of ``n`` points.

    The constructor takes the condensed form ``d``: dist(i, j) for i < j
    at index i*n - i*(i+1)/2 + (j-i-1).  The one stored copy is the
    symmetric n-by-n matrix with a zero diagonal, which only the methods
    below read.  ``points`` holds the coordinates it was computed from,
    times the exact power of two ``scale`` (see ``pairwise_distances``),
    or None when the distances were given directly.
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
        self._hold(squareform(d, checks=False), top)

    def _hold(
        self,
        square: np.ndarray,
        max_distance: float,
        points: np.ndarray | None = None,
        scale: float = 1.0,
    ) -> None:
        """Keep a checked symmetric matrix without copying it."""
        self.n = len(square)
        self._square = _readonly(square)
        self.max_distance = max_distance
        self.points = points
        self.scale = scale
        self._profiles: dict = {}  # density profiles by cut-off rank
        self._levels: dict = {}  # level-pass outcomes by level state (``vdpc_run``)
        self._tree: cKDTree | None = None  # over ``points``, built on first use

    def eps_neighbors(self, pts: np.ndarray, eps: float) -> EpsNeighbors:
        """Strict ε-neighbourhoods inside the ascending point subset ``pts``.

        ``counts[i]`` is the number of positions j, i itself included,
        with dist(pts[i], pts[j]) < eps, and ``near(i)`` lists them
        in ascending order.  A k-d tree over the coordinates proposes the
        pairs when at most m²/``_SPARSE_SHARE`` ordered pairs lie within
        reach and the points have at most ``_TREE_MAX_DIM`` coordinates;
        otherwise, or without coordinates, the matrix rows are scanned.
        The matrix decides every pair either way, so both sources give
        the same answer bitwise.
        """
        r = eps * self.scale * _MARGIN
        if (
            self.points is not None
            and self.points.shape[1] <= _TREE_MAX_DIM
            and r * r >= np.finfo(np.float64).tiny
        ):
            tree = cKDTree(self.points[pts])
            if tree.count_neighbors(tree, r) * _SPARSE_SHARE <= len(pts) ** 2:
                return self._tree_neighbors(tree, r, pts, eps)
        return self._matrix_neighbors(pts, eps)

    def _tree_neighbors(
        self, tree: cKDTree, r: float, pts: np.ndarray, eps: float
    ) -> EpsNeighbors:
        # The tree and ``cdist`` round their distances differently, by a
        # few ulps.  The tree's radius r is eps (in scaled units) widened
        # by 2^-20, which only has to cover that difference, so every pair
        # the matrix puts below eps is proposed; the matrix then keeps
        # exactly those.  r² is a normal float, so the squared distances
        # the tree compares keep their relative precision.
        m = len(pts)
        ij = tree.query_pairs(r, output_type="ndarray")
        ij = ij[self._square[pts[ij[:, 0]], pts[ij[:, 1]]] < eps]
        own = np.arange(m)
        rows = np.concatenate([ij[:, 0], ij[:, 1], own])
        cols = np.concatenate([ij[:, 1], ij[:, 0], own])
        rows, indices = np.divmod(np.sort(rows * m + cols), m)
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
        return EpsNeighbors(
            np.diff(indptr), lambda i: indices[indptr[i] : indptr[i + 1]], "tree"
        )

    def _matrix_neighbors(self, pts: np.ndarray, eps: float) -> EpsNeighbors:
        counts = np.empty(len(pts), dtype=np.int64)
        for r, block in self._blocks(pts, pts):
            counts[r] = (block < eps).sum(axis=1)
        return EpsNeighbors(
            counts, lambda i: np.flatnonzero(self._square[pts[i], pts] < eps), "matrix"
        )

    def _blocks(self, rows: np.ndarray, cols: np.ndarray | None = None):
        """Copies of the matrix rows ``rows`` at ``cols`` (all columns by
        default) by row blocks: ``(r, block)`` for the ``_slices`` r of
        ``rows``, ``block`` being a copy that the caller may overwrite."""
        sq = self._square
        for r in _slices(len(rows), self.n if cols is None else len(cols)):
            yield r, sq[rows[r]] if cols is None else sq[rows[r, None], cols]

    def map_blocks(self, fn: Callable[[slice, np.ndarray], object]) -> list:
        """``[fn(r, view) for r, view in _views(matrix)]``, the views
        read-only, spread over one thread per core by ``_map``; ``fn`` may
        only read shared state or write the rows ``r`` of its own output."""
        return _map(fn, _views(self._square))

    def row(self, i: int) -> np.ndarray:
        """Point i's distances to every point: a read-only view."""
        return self._square[i]

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
        for r, block in self._blocks(rows, cols):
            if rank is not None:
                later = rank[cols] >= rank[rows[r, None]]
                block[later & ~later.all(axis=1, keepdims=True)] = np.inf
            out[r] = block.argmin(axis=1)  # the first of equal minima
        return out

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
        reads the matrix rows, without coordinates or past
        ``_TREE_MAX_DIM`` of them, where ``eps_neighbors`` scans too.
        """
        if self.points is None or self.points.shape[1] > _TREE_MAX_DIM:
            return None
        if self._tree is None:
            self._tree = cKDTree(self.points)
        count = min(count, self.n)  # the tree would pad with inf and index n
        t, idx = self._tree.query(self.points[points], count)
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
        ``nearest``.  Without one, a loop over ``order`` reads every row.
        Both give the answer of the loop bitwise.
        """
        n = self.n
        every = np.arange(n)
        found = self._candidates(every, _CANDIDATES + 1)
        if found is None:
            dist, near = self._earlier_rows(order)
            source, count, read = "rows", 0, n
        else:
            idx, bound = found
            rank = np.empty(n, dtype=np.intp)
            rank[order] = every
            d = self._square[every[:, None], idx]
            r = rank[idx]
            d[r >= rank[:, None]] = np.inf  # only earlier points count
            dist = d.min(axis=1)
            r[d != dist[:, None]] = n  # the earliest of the nearest
            near = idx[every, r.argmin(axis=1)]
            bad = np.flatnonzero(dist >= bound)
            bad = bad[bad != order[0]]
            near[bad] = order[self.nearest(bad, order, rank)]
            dist[bad] = self._square[bad, near[bad]]
            dist[order[0]], near[order[0]] = np.inf, -1
            source, count, read = "tree", idx.shape[1], len(bad)
        log.debug(
            "nearest earlier point of %d points: %s source, %d candidates, "
            "%d rows read", n, source, count, read,
        )
        return dist, near

    def _earlier_rows(self, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``nearest_earlier`` by one pass over the rows in ``order``, each
        row improving the best distances of every point strictly."""
        n = self.n
        dist = np.empty(n)
        near = np.empty(n, dtype=np.int64)
        best_dist = np.full(n, np.inf)
        best_idx = np.full(n, -1, dtype=np.int64)
        improved = np.empty(n, dtype=bool)
        for i in order.tolist():
            dist[i] = best_dist[i]
            near[i] = best_idx[i]
            row = self._square[i]
            np.less(row, best_dist, out=improved)
            np.copyto(best_dist, row, where=improved)
            np.copyto(best_idx, i, where=improved)
        return dist, near

    def knn(self, points: np.ndarray, k: int) -> np.ndarray:
        """The k nearest neighbours of each of ``points``, self excluded
        and distance ties broken by ascending index; each row of the
        (m, k) result lists them in ascending index order.

        With a tree (``_candidates``), a row is final when its k-th
        candidate by (distance, index) among k + 1 + ``_KNN_EXTRA`` is
        strictly below their bound, so every point tied with it is a
        candidate; the other rows read the matrix, as every row does
        without a tree.
        """
        m = len(points)
        cols = np.empty((m, k), dtype=np.int64)
        found = self._candidates(points, k + 1 + _KNN_EXTRA)
        if found is None:
            bad, source, count = np.arange(m), "rows", 0
        else:
            idx, bound = found
            d = self._square[points[:, None], idx]
            d[idx == points[:, None]] = np.inf  # self ranks last
            first = np.lexsort((idx, d))[:, :k]  # by (distance, index)
            rows = np.arange(m)[:, None]
            ok = d[rows, first[:, -1:]][:, 0] < bound
            cols[ok] = np.sort(idx[rows, first], axis=1)[ok]
            bad, source, count = np.flatnonzero(~ok), "tree", idx.shape[1]
        for r, block in self._blocks(points[bad]):
            r = bad[r]
            block[np.arange(len(block)), points[r]] = np.inf  # self ranks last
            # The k smallest by (distance, index): every value below the k-th,
            # then the lowest-indexed values equal to it, up to k of them.
            kth = np.partition(block, k - 1, axis=1)[:, k - 1 : k]
            keep = block < kth
            tied = block == kth
            room = k - keep.sum(axis=1, keepdims=True)
            keep |= tied & (np.cumsum(tied, axis=1) <= room)
            cols[r] = np.nonzero(keep)[1].reshape(-1, k)
        log.debug(
            "%d nearest of %d points: %s source, %d candidates, %d rows read",
            k, m, source, count, len(bad),
        )
        return cols

    def kth_smallest(self, k: int) -> float:
        """Exact k-th smallest (1-based) of the n(n-1)/2 distances i < j.

        A sampled selection, not a sort (Floyd and Rivest, 1975): the
        sorted distances of about m^(2/3) pairs drawn with a fixed seed
        give a bracket [lo, hi] around rank k (``_bracket``).  One pass
        over row blocks of the strict upper triangle counts the distances
        below lo, equal to lo and equal to hi, and keeps those strictly
        between, so a bracket end shared by many pairs costs no memory;
        ``np.partition`` finishes among the kept ones.  If the k-th
        distance is not in the bracket, the bracket is widened fourfold
        and the pass repeated; it ends at the whole triangle, so the
        answer is always exact and only the time depends on the sample.
        """
        m = self.n * (self.n - 1) // 2
        if not 1 <= k <= m:
            raise IndexError("k=%d outside 1..%d" % (k, m))
        sample = _sample_distances(self._square, m)
        width = 4.0
        while True:
            lo, hi = _bracket(sample, k, m, width)

            def count(r: slice, block: np.ndarray):
                # The strict upper triangle of the block: the part right of
                # its diagonal square, then the triangle inside that square.
                tri = ~np.tri(r.stop - r.start, dtype=bool)
                below = at_lo = at_hi = 0
                held = []
                for v in (block[:, r.stop :], block[:, r][tri]):
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
                return below, at_lo, at_hi, held

            counts = self.map_blocks(count)
            below, at_lo, at_hi = (sum(c[i] for c in counts) for i in range(3))
            held = np.concatenate([v for c in counts for v in c[3]])
            j = k - below  # rank of the k-th among the distances in [lo, hi]
            if 1 <= j <= at_lo:
                return lo
            j -= at_lo  # its rank among the held ones, strictly inside
            if 1 <= j <= len(held):
                return float(np.partition(held, j - 1)[j - 1])
            if 1 <= j - len(held) <= at_hi:
                return hi
            width *= 4.0


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


def _views(sq: np.ndarray) -> list[tuple[slice, np.ndarray]]:
    """Views ``(r, sq[r])`` for the ``_slices`` r of a square matrix."""
    return [(r, sq[r]) for r in _slices(len(sq), len(sq))]


def _map(fn: Callable, blocks: list) -> list:
    """``[fn(r, block) for r, block in blocks]``, spread over one thread per
    core this process may run on; inline with one core or fewer than
    ``_POOL_MIN_BLOCKS`` blocks.  NumPy and ``cdist`` release the
    interpreter lock on a block, so the blocks of a pass run side by side."""
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if workers < 2 or len(blocks) < _POOL_MIN_BLOCKS:
        return [fn(r, block) for r, block in blocks]
    return list(_pool(os.getpid(), workers).map(fn, *zip(*blocks)))


def _sample_size(m: int) -> int:
    """Pairs drawn by ``_sample_distances`` out of m: about m^(2/3)."""
    return math.ceil(m ** (2.0 / 3.0))


def _sample_distances(sq: np.ndarray, m: int) -> np.ndarray:
    """Sorted distances of S = ``_sample_size(m)`` pairs i < j of the
    matrix, drawn with replacement by a fixed-seed local generator."""
    s = _sample_size(m)
    rng = np.random.default_rng(0)
    i = rng.integers(0, len(sq), s)
    j = rng.integers(0, len(sq) - 1, s)
    j += j >= i  # any other point, uniformly
    return np.sort(sq[i, j])


def _bracket(sample: np.ndarray, k: int, m: int, width: float) -> tuple[float, float]:
    """Values at sample ranks r -/+ width*sqrt(S), r = (k - 1/2)/m * S, the
    expected place of the k-th of m distances in the sorted sample of S;
    -inf or +inf where a rank falls outside the sample."""
    s = len(sample)
    r, w = (k - 0.5) / m * s, width * math.sqrt(s)
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
    """Refuse an n-by-n float64 matrix larger than physical memory."""
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
    """Euclidean distances of a dataset.  The matrix is filled by row
    blocks of ``cdist``, bitwise equal to ``squareform(pdist(points))``.

    Coordinates too large or too small for their squares are first
    multiplied by an exact power of two s, and each block by 1/s, so the
    matrix is in input units and equals s⁻¹ times the scaled distances.
    """
    n = ds.n
    _require_memory(n)
    s = _power_of_two_scale(ds.points)
    pts = ds.points if s == 1.0 else _readonly(ds.points * s)
    sq = np.empty((n, n))

    def fill(r: slice, block: np.ndarray) -> float:
        cdist(pts[r], pts, out=block)
        if s != 1.0:
            with np.errstate(over="ignore"):  # reported just below
                block *= 1.0 / s
        # Distances of finite coordinates are never NaN or negative, but
        # the 1/s rescale can overflow to +inf.
        top = float(block.max())
        if not math.isfinite(top):
            raise DataError("distances contain non-finite values")
        return top

    top = max(_map(fill, _views(sq)))
    cd = CondensedDistances.__new__(CondensedDistances)
    cd._hold(sq, top, pts, s)
    return cd


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
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    rows: list[list[float]] = []
    width = None
    with path.open("r", encoding="utf-8-sig") as f:
        for lineno, line in enumerate(f, start=1):
            if lineno == 1 and has_header:
                continue
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DataError(
                    f"{path}: line {lineno}: expected {width} cells, "
                    f"got {len(cells)}"
                )
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: non-numeric cell"
                ) from None
            if not all(map(math.isfinite, row)):
                raise DataError(f"{path}: line {lineno}: non-finite value")
            rows.append(row)
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(rows)}")
    arr = np.asarray(rows, dtype=np.float64)
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
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    text = path.read_text(encoding="utf-8-sig")
    tokens = [t for t in re.split(r"[\s,]+", text) if t]
    try:
        values = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError:
        raise DataError(f"{path}: non-numeric entry") from None
    return CondensedDistances(n=n, d=values)
