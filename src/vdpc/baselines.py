"""Reference clustering algorithms: DPC, DBSCAN, and SNNC.

These serve both as standalone baselines and as building blocks of the
level-wise pipeline.  Labels are integer arrays; -1 marks noise and is
only ever present in DBSCAN output.  DBSCAN and SNNC take the connected
components of their graphs from one NumPy union (``_union``), numbered
once by their smallest point (``_component_ids``), and SNNC counts its
shared neighbours from an inverted index of the kNN lists by row
blocks, so the module needs NumPy alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dataset import CondensedDistances
from .density import DensityProfile
from .errors import ParameterError, StageError, _check_count, _check_positive

__all__ = [
    "DbscanParams",
    "relabel_contiguous",
    "dpc_select_centers",
    "dpc_assign",
    "dbscan",
    "snnc",
]

log = logging.getLogger("vdpc")

@dataclass(frozen=True)
class DbscanParams:
    """Neighborhood radius and minimum count (the point itself included)."""

    eps: float
    minpts: int

    def __post_init__(self):
        _check_positive("eps", self.eps)
        _check_count("minpts", self.minpts)


def relabel_contiguous(labels: np.ndarray) -> np.ndarray:
    """Canonicalize cluster ids to 0..k-1 by smallest member index.

    Noise (-1) is preserved.  The result is order-independent: two
    labelings describing the same partition map to identical arrays.
    """
    labels = np.asarray(labels)
    out = np.full(len(labels), -1, dtype=np.int64)
    kept = labels >= 0
    _, first, inverse = np.unique(labels[kept], return_index=True, return_inverse=True)
    out[kept] = np.argsort(np.argsort(first))[inverse]  # ids by first occurrence
    return out


def dpc_select_centers(
    profile: DensityProfile, rho_min: float, delta_min: float
) -> np.ndarray:
    """Points inside the decision-graph rectangle rho >= rho_min,
    delta >= delta_min.  A NaN threshold is refused; +-inf are valid."""
    for name, value in (("rho_min", rho_min), ("delta_min", delta_min)):
        if np.isnan(value):
            raise ParameterError("%s must be a number, got nan" % name)
    sel = np.where((profile.rho >= rho_min) & (profile.delta >= delta_min))[0]
    if len(sel) == 0:
        raise ParameterError(
            "no centers selected; lower the rho_min/delta_min thresholds"
        )
    return sel


def _roots(parent: np.ndarray) -> np.ndarray:
    """The end of each point's parent chain, by pointer jumping.

    ``parent[i]`` is the next point of i's chain and ``parent[r] == r``
    at its end; the chains must be free of other cycles.
    """
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return parent
        parent = up


def _union(parent: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``parent`` (each point's root, the smallest point of its component)
    after joining the components of the edges (i[e], j[e]) between roots.

    A union by pointer jumping: each round hooks the larger end of every
    edge between two roots under the smaller one (the smallest offer
    wins), ``_roots`` brings every point to its root, and the edges move
    to their ends' roots, dropping those inside one component.  ``parent``
    may be overwritten.
    """
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    while True:
        across = lo != hi
        lo, hi = lo[across], hi[across]
        if not len(lo):
            return parent
        np.minimum.at(parent, hi, lo)
        parent = _roots(parent)
        a, b = parent[lo], parent[hi]  # the ends' roots, in either order
        lo, hi = np.minimum(a, b), np.maximum(a, b)


def _component_ids(parent: np.ndarray, keep: np.ndarray | bool = True
                   ) -> np.ndarray:
    """Component ids 0.. in the order of their smallest point, from each
    point's root as ``_union`` leaves it; only the components whose root
    the mask ``keep`` holds (all by default) are numbered, and the points
    of the others get -1."""
    first = (parent == np.arange(len(parent))) & keep
    return np.where(first, np.cumsum(first) - 1, -1)[parent]


def dpc_assign(profile: DensityProfile, centers: np.ndarray) -> np.ndarray:
    """Each center seeds a cluster, numbered in ascending index order; every
    other point takes the label of the first center on its chain of
    nearest denser neighbors."""
    centers = np.asarray(centers)
    if len(centers) == 0:
        raise ParameterError("centers must be non-empty")
    labels = np.full(profile.n, -1, dtype=np.int64)
    labels[np.sort(centers)] = np.arange(len(centers))
    if labels[profile.order[0]] < 0:
        raise StageError(
            "density-peak-assignment",
            "the density argmax is not a center; every non-empty "
            "decision-graph rectangle contains it",
        )
    parent = profile.nneigh.copy()
    parent[centers] = centers
    return labels[_roots(parent)]


def _dbscan_labels(
    cd: CondensedDistances, pts: np.ndarray, eps: float, minpts: int
) -> np.ndarray:
    """DBSCAN over the ascending point set ``pts`` (Ester et al., 1996).

    A core point has at least ``minpts`` points of ``pts`` (itself
    included) at distance strictly below ``eps``.  Clusters are the
    connected components of the core points joined within eps, numbered
    once by their smallest core point: that point is the component's
    root in the union of the core pairs (``_union``), where every
    non-core point is a root of its own, which ``_component_ids`` leaves
    out.  A non-core point within eps of a core point takes the lowest
    cluster among its core neighbours; the others stay noise (-1).
    These are the labels of a breadth-first expansion from the core
    points in ascending index order.  ``labels[i]`` is the label of
    ``pts[i]``.
    """
    m = len(pts)
    i, j = cd.eps_neighbors(pts, eps)
    log.debug(
        "dbscan on %d points: Eps=%r MinPts=%d, %d pairs within Eps",
        m, eps, minpts, len(i),
    )
    core = np.bincount(i, minlength=m) + np.bincount(j, minlength=m) + 1 >= minpts
    both = core[i] & core[j]
    # one dtype for ``parent`` and the values given to ``np.minimum.at``:
    # a cast there makes it about 20 times slower; every point is a root yet
    parent = _union(np.arange(m, dtype=i.dtype), i[both], j[both])
    labels = _component_ids(parent, core)
    border = np.full(m, m, dtype=np.int64)  # m: no core neighbour
    for a, b in ((i, j), (j, i)):
        claim = core[a] & ~core[b]
        np.minimum.at(border, b[claim], labels[a[claim]])
    claimed = border < m
    labels[claimed] = border[claimed]
    return labels


def dbscan(cd: CondensedDistances, params: DbscanParams) -> np.ndarray:
    """Density-reachability clustering with strict neighborhoods over the
    whole dataset; noise is -1 (see ``_dbscan_labels`` for the rules)."""
    return _dbscan_labels(cd, np.arange(cd.n), params.eps, params.minpts)


def _shared_neighbor_components(
    cd: CondensedDistances, points: np.ndarray, k: int
) -> np.ndarray:
    """Connected components of the graph joining points that share more
    than one of their k nearest neighbors; returns per-point component
    ids, numbered in the order of their smallest point.

    The (neighbour, query) keys of the kNN lists, sorted once, are an
    inverted index: each neighbour's holders in ascending query order, so
    the holders after a query's own entry are the later queries that
    share that neighbour.  Row blocks of queries list those holders for
    each of their neighbours and count the pairs (a, b > a) by one
    ``np.bincount`` over the block's size·m bins; a block holds at most
    ``_BLOCK_CELLS`` bins and listed holders, and the blocks run on the
    thread pool (``CondensedDistances.map_rows``).  The pairs counted
    more than once join the components block by block.
    """
    m = len(points)
    nbr = cd.knn(points, k).ravel()
    order = np.argsort(nbr * m + np.repeat(np.arange(m), k))  # the keys are unique
    at = np.empty_like(order)
    at[order] = np.arange(m * k)  # each entry's place in that order
    holder = np.floor_divide(order, k, out=order)  # the queries in that order
    after = np.cumsum(np.bincount(nbr, minlength=cd.n))[nbr] - at - 1
    at += 1  # where the holders after each entry start
    per_row = after.reshape(m, k).sum(axis=1)

    def shared(r: slice) -> tuple[np.ndarray, np.ndarray]:
        e = slice(r.start * k, r.stop * k)
        count = after[e]
        pos = np.repeat(at[e] - (np.cumsum(count) - count), count)
        pos += np.arange(len(pos))
        bins = holder[pos]  # each listed holder b, at bin a·m + b of the block
        bins += np.repeat(np.arange(0, (r.stop - r.start) * m, m), per_row[r])
        pairs = np.flatnonzero(np.bincount(bins, minlength=(r.stop - r.start) * m) > 1)
        return (pairs // m + r.start).astype(np.int32), (pairs % m).astype(np.int32)

    blocks = cd.map_rows(shared, m, m + int(per_row.max()))
    parent = np.arange(m, dtype=np.int32)
    for i, j in blocks:
        parent = _union(parent, parent[i], parent[j])
    comp = _component_ids(parent)
    log.debug(
        "shared-neighbour graph of %d points: k=%d, %d blocks, %d pairs "
        "sharing more than one neighbour, %d components",
        m, k, len(blocks), sum(len(i) for i, _ in blocks), comp.max() + 1,
    )
    return comp


def snnc(cd: CondensedDistances, k: int) -> np.ndarray:
    """Shared-nearest-neighbor clustering over the whole dataset.

    Two points are adjacent when their k-nearest-neighbor sets (self
    excluded) share more than one point; clusters are the connected
    components, numbered 0.. by their smallest point, so unconnected
    points become singleton clusters.
    """
    n = cd.n
    _check_count("k", k)
    if not 1 <= k <= n - 1:
        raise ParameterError("k must be in [1, %d], got %d" % (n - 1, k))
    return _shared_neighbor_components(cd, np.arange(n), k)
