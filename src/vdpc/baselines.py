"""Reference clustering algorithms: DPC, DBSCAN, and SNNC.

These serve both as standalone baselines and as building blocks of the
level-wise pipeline.  Labels are integer arrays; -1 marks noise and is
only ever present in DBSCAN output.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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
    """Breadth-first DBSCAN expansion over the ascending point set ``pts``.

    A core point has at least ``minpts`` points of ``pts`` (itself
    included) at distance strictly below ``eps``.  Clusters grow from
    core points in ascending index order; a non-core point within reach
    keeps the first cluster that claims it; unreached points stay noise
    (-1).  ``labels[i]`` is the label of ``pts[i]``.
    """
    m = len(pts)
    nb = cd.eps_neighbors(pts, eps)
    log.debug(
        "dbscan on %d points: Eps=%r MinPts=%d, %d pairs within Eps (%s source)",
        m, eps, minpts, (int(nb.counts.sum()) - m) // 2, nb.source,
    )
    core = nb.counts >= minpts
    labels = np.full(m, -1, dtype=np.int64)
    cid = 0
    for seed in np.flatnonzero(core):
        if labels[seed] >= 0:
            continue
        labels[seed] = cid
        queue = deque([seed])
        while queue:
            near = nb.near(queue.popleft())
            new = near[labels[near] < 0]
            labels[new] = cid
            queue.extend(new[core[new]])
        cid += 1
    return labels


def dbscan(cd: CondensedDistances, params: DbscanParams) -> np.ndarray:
    """Density-reachability clustering with strict neighborhoods over the
    whole dataset; noise is -1 (see ``_dbscan_labels`` for the rules)."""
    return _dbscan_labels(cd, np.arange(cd.n), params.eps, params.minpts)


def _shared_neighbor_components(
    cd: CondensedDistances, points: np.ndarray, k: int
) -> np.ndarray:
    """Connected components of the graph joining points that share more
    than one of their k nearest neighbors; returns per-point component ids."""
    m = len(points)
    member = csr_matrix(
        (np.ones(m * k, dtype=np.int64), cd.knn(points, k).ravel(),
         np.arange(0, m * k + 1, k)),
        shape=(m, cd.n),
    )
    shared = member @ member.T  # shared-neighbor counts between queries
    _, comp = connected_components(shared > 1, directed=False)
    return comp


def snnc(cd: CondensedDistances, k: int) -> np.ndarray:
    """Shared-nearest-neighbor clustering over the whole dataset.

    Two points are adjacent when their k-nearest-neighbor sets (self
    excluded) share more than one point; clusters are the connected
    components, so unconnected points become singleton clusters.
    """
    n = cd.n
    _check_count("k", k)
    if not 1 <= k <= n - 1:
        raise ParameterError("k must be in [1, %d], got %d" % (n - 1, k))
    comp = _shared_neighbor_components(cd, np.arange(n), k)
    return relabel_contiguous(comp)
