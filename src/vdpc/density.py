"""Density analytics: cut-off distance, local density, delta, decision graph.

The cut-off distance d_c is a percentile of the pairwise distances,
found by an exact selection over the distance matrix, not a sort.
Local density is a Gaussian-kernel sum over all other points.  Delta
is each point's distance to its nearest neighbor of strictly higher
density under a fixed total order (descending density, ties by
ascending index); the density argmax instead receives the maximum
pairwise distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import CondensedDistances, _readonly, _row_blocks
from .errors import ParameterError, _check_positive

__all__ = [
    "DensityProfile",
    "DecisionPoint",
    "cutoff_distance",
    "local_density",
    "delta_and_neighbors",
    "density_profile",
    "decision_graph",
]


def _round_half_away(x: float) -> int:
    return int(np.floor(x + 0.5)) if x >= 0 else int(np.ceil(x - 0.5))


@dataclass(frozen=True)
class DensityProfile:
    """Per-point density statistics shared by every algorithm."""

    rho: np.ndarray
    delta: np.ndarray
    nneigh: np.ndarray  # -1 for the density argmax
    d_c: float
    order: np.ndarray  # indices sorted by descending rho, ties by index

    def __post_init__(self):
        for name in ("rho", "delta", "nneigh", "order"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name))))

    @property
    def n(self) -> int:
        return len(self.rho)

    @property
    def rank(self) -> np.ndarray:
        """Position of each point in the total order (0 = densest)."""
        pos = np.empty(self.n, dtype=np.int64)
        pos[self.order] = np.arange(self.n)
        return pos


class DecisionPoint(NamedTuple):
    index: int
    rho: float
    delta: float


def cutoff_distance(cd: CondensedDistances, pct: float) -> float:
    """Percentile cut-off: the k-th smallest of the pairwise distances.

    k is round-half-away-from-zero of pct/100 times the number of pairs,
    clamped into the valid range.
    """
    _check_positive("pct", pct)
    m = cd.n * (cd.n - 1) // 2
    k = min(max(_round_half_away(min(pct / 100.0 * m, m)), 1), m)
    return cd.kth_smallest(k)


def local_density(cd: CondensedDistances, d_c: float) -> np.ndarray:
    """Gaussian-kernel local density, self excluded, ascending-j order."""
    if d_c <= 0:
        raise ParameterError("d_c must be > 0 (degenerate kernel)")
    sq = cd.square
    n = cd.n
    rho = np.empty(n, dtype=np.float64)
    inv = 1.0 / d_c
    for a, b in _row_blocks(n, n):
        block = sq[a:b] * inv
        np.square(block, out=block)
        np.negative(block, out=block)
        np.exp(block, out=block)
        rho[a:b] = block.sum(axis=1) - 1.0  # remove the self term exp(0)
    return rho


def delta_and_neighbors(
    cd: CondensedDistances, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance and identity of each point's nearest denser neighbor.

    Uses the total order (descending rho, ties by ascending index); the
    first point in the order gets delta = max pairwise distance and no
    neighbor (-1).  Neighbor ties resolve to the earliest point in the
    order, i.e. the densest and then lowest-indexed candidate.
    """
    n = cd.n
    if len(rho) != n:
        raise ParameterError("rho length does not match distance matrix")
    sq = cd.square
    order = np.lexsort((np.arange(n), -np.asarray(rho)))
    delta = np.empty(n, dtype=np.float64)
    nneigh = np.full(n, -1, dtype=np.int64)
    best_dist = np.full(n, np.inf)
    best_idx = np.full(n, -1, dtype=np.int64)
    delta[order[0]] = cd.max_distance
    for pos in range(n):
        i = order[pos]
        if pos > 0:
            delta[i] = best_dist[i]
            nneigh[i] = best_idx[i]
        row = sq[i]
        improved = row < best_dist
        best_dist[improved] = row[improved]
        best_idx[improved] = i
    return delta, nneigh, order


def density_profile(cd: CondensedDistances, pct: float) -> DensityProfile:
    """Compute d_c, rho, delta and the total order in one pass."""
    d_c = cutoff_distance(cd, pct)
    rho = local_density(cd, d_c)
    delta, nneigh, order = delta_and_neighbors(cd, rho)
    return DensityProfile(rho=rho, delta=delta, nneigh=nneigh, d_c=d_c, order=order)


def decision_graph(profile: DensityProfile) -> list[DecisionPoint]:
    """One (index, rho, delta) triple per point, unfiltered."""
    return [
        DecisionPoint(i, float(profile.rho[i]), float(profile.delta[i]))
        for i in range(profile.n)
    ]
