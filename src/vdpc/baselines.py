"""Reference clustering algorithms: DPC, DBSCAN, and SNNC.

These serve both as standalone baselines and as building blocks of the
level-wise pipeline.  Labels are integer arrays; -1 marks noise and is
only ever present in DBSCAN output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .dataset import CondensedDistances
from .density import DensityProfile
from .errors import ParameterError, StageError

__all__ = [
    "DbscanParams",
    "relabel_contiguous",
    "dpc_select_centers",
    "dpc_assign",
    "dbscan",
    "snnc",
]

_BLOCK_CELLS = 1 << 21  # distance cells compared per block when counting


@dataclass(frozen=True)
class DbscanParams:
    """Neighborhood radius and minimum count (the point itself included)."""

    eps: float
    minpts: int

    def __post_init__(self):
        if self.eps <= 0:
            raise ParameterError("eps must be > 0")
        if self.minpts < 1:
            raise ParameterError("minpts must be >= 1")


def relabel_contiguous(labels: np.ndarray) -> np.ndarray:
    """Canonicalize cluster ids to 0..k-1 by smallest member index.

    Noise (-1) is preserved.  The result is order-independent: two
    labelings describing the same partition map to identical arrays.
    """
    labels = np.asarray(labels)
    out = np.full(len(labels), -1, dtype=np.int64)
    next_id = 0
    seen: dict[int, int] = {}
    for i, lab in enumerate(labels):
        if lab < 0:
            continue
        if lab not in seen:
            seen[int(lab)] = next_id
            next_id += 1
        out[i] = seen[int(lab)]
    return out


def dpc_select_centers(
    profile: DensityProfile, rho_min: float, delta_min: float
) -> np.ndarray:
    """Points inside the decision-graph rectangle rho >= rho_min,
    delta >= delta_min."""
    sel = np.where((profile.rho >= rho_min) & (profile.delta >= delta_min))[0]
    if len(sel) == 0:
        raise ParameterError(
            "no centers selected; lower the rho_min/delta_min thresholds"
        )
    return sel


def dpc_assign(profile: DensityProfile, centers: np.ndarray) -> np.ndarray:
    """Each center seeds a cluster; all other points inherit the label of
    their nearest denser neighbor, visited densest-first."""
    centers = np.asarray(centers)
    if len(centers) == 0:
        raise ParameterError("centers must be non-empty")
    labels = np.full(profile.n, -1, dtype=np.int64)
    for cid, c in enumerate(np.sort(centers)):
        labels[c] = cid
    for i in profile.order:
        if labels[i] < 0:
            j = profile.nneigh[i]
            if j < 0:
                raise StageError(
                    "density-peak-assignment",
                    "the density argmax is not a center; every non-empty "
                    "decision-graph rectangle contains it",
                )
            labels[i] = labels[j]
    return labels


def _dbscan_labels(
    sq: np.ndarray, pts: np.ndarray, eps: float, minpts: int
) -> np.ndarray:
    """Breadth-first DBSCAN expansion over the ascending point set ``pts``.

    A core point has at least ``minpts`` points of ``pts`` (itself
    included) at distance strictly below ``eps``.  Clusters grow from
    core points in ascending index order; a non-core point within reach
    keeps the first cluster that claims it; unreached points stay noise
    (-1).  ``labels[i]`` is the label of ``pts[i]``.
    """
    m = len(pts)
    counts = np.empty(m, dtype=np.int64)
    step = max(1, _BLOCK_CELLS // max(m, 1))
    for a in range(0, m, step):
        counts[a:a + step] = (sq[pts[a:a + step, None], pts] < eps).sum(axis=1)
    core = counts >= minpts  # the diagonal zero already counts the point
    labels = np.full(m, -1, dtype=np.int64)
    cid = 0
    for seed in np.flatnonzero(core):
        if labels[seed] >= 0:
            continue
        labels[seed] = cid
        queue = deque([seed])
        while queue:
            near = np.flatnonzero(sq[pts[queue.popleft()], pts] < eps)
            new = near[labels[near] < 0]
            labels[new] = cid
            queue.extend(new[core[new]])
        cid += 1
    return labels


def dbscan(cd: CondensedDistances, params: DbscanParams) -> np.ndarray:
    """Density-reachability clustering with strict neighborhoods over the
    whole dataset; noise is -1 (see ``_dbscan_labels`` for the rules)."""
    return _dbscan_labels(cd.square, np.arange(cd.n), params.eps, params.minpts)


def _knn_sets(
    sq: np.ndarray, points: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row/column arrays of the k nearest neighbors of each query point,
    excluding the point itself, distance ties broken by ascending index."""
    rows = np.empty(len(points) * k, dtype=np.int64)
    cols = np.empty(len(points) * k, dtype=np.int64)
    for r, i in enumerate(points):
        near = np.argsort(sq[i], kind="stable")
        near = near[near != i][:k]
        rows[r * k : (r + 1) * k] = r
        cols[r * k : (r + 1) * k] = near
    return rows, cols


def _shared_neighbor_components(
    sq: np.ndarray, points: np.ndarray, k: int
) -> np.ndarray:
    """Connected components of the graph joining points that share more
    than one of their k nearest neighbors; returns per-point component ids."""
    m = len(points)
    if m == 1:
        return np.zeros(1, dtype=np.int64)
    rows, cols = _knn_sets(sq, points, k)
    member = csr_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)),
        shape=(m, sq.shape[0]),
    )
    shared = member @ member.T  # shared-neighbor counts between queries
    adjacency = shared > 1
    _, comp = connected_components(adjacency, directed=False)
    return comp


def snnc(cd: CondensedDistances, k: int) -> np.ndarray:
    """Shared-nearest-neighbor clustering over the whole dataset.

    Two points are adjacent when their k-nearest-neighbor sets (self
    excluded) share more than one point; clusters are the connected
    components, so unconnected points become singleton clusters.
    """
    n = cd.n
    if not 1 <= k <= n - 1:
        raise ParameterError("k must be in [1, %d], got %d" % (n - 1, k))
    comp = _shared_neighbor_components(cd.square, np.arange(n), k)
    return relabel_contiguous(comp)
