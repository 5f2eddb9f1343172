"""Density analytics: cut-off distance, local density, delta, decision graph.

The cut-off distance d_c is the k-th smallest pairwise distance, k the
rank of a percentile, found by an exact selection, not a sort.  Local
density is a Gaussian-kernel sum over all other points, computed once
per pair on tiles of the upper triangle (``row_sums``) and summed in the
order of ``sum(axis=1)`` over the whole row.  Delta is each
point's distance to its nearest neighbor of strictly higher density
under a fixed total order (descending density, ties by ascending
index); the density argmax instead receives the maximum pairwise
distance.  A profile depends only on the distances and k, so
``_shared_profile`` keeps one per k on the distances object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import CondensedDistances, _readonly
from .errors import ParameterError, _check_positive

__all__ = [
    "DensityProfile",
    "cutoff_distance",
    "local_density",
    "delta_and_neighbors",
    "density_profile",
    "decision_graph",
]


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


def _rank(n: int, pct: float) -> int:
    """Rank of the pct cut-off among the m = n(n-1)/2 pairwise distances:
    pct/100 * m rounded half away from zero, clamped into 1..m."""
    _check_positive("pct", pct)
    m = n * (n - 1) // 2
    return min(max(math.floor(min(pct / 100.0 * m, m) + 0.5), 1), m)


def cutoff_distance(cd: CondensedDistances, pct: float) -> float:
    """Percentile cut-off: the ``_rank(n, pct)``-th smallest distance."""
    return cd.kth_smallest(_rank(cd.n, pct))


def local_density(cd: CondensedDistances, d_c: float) -> np.ndarray:
    """Gaussian-kernel local density, self excluded: each point's kernel
    values summed as ``sum(axis=1)`` sums its whole row (``row_sums``)."""
    if d_c <= 0:
        raise ParameterError("d_c must be > 0 (degenerate kernel)")
    inv = 1.0 / d_c  # inf for a subnormal d_c, where only division is finite

    def kernel(block: np.ndarray, out: np.ndarray) -> None:
        if math.isfinite(inv):
            np.multiply(block, inv, out=out)
        else:
            np.divide(block, d_c, out=out)
        np.square(out, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)

    return cd.row_sums(kernel) - 1.0  # remove the self term exp(0)


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
    order = np.lexsort((np.arange(n), -np.asarray(rho)))
    delta, nneigh = cd.nearest_earlier(order)
    delta[order[0]] = cd.max_distance  # nneigh stays -1 there
    return delta, nneigh, order


def _zero_cutoff_message(cd: CondensedDistances, pct: float) -> str:
    """Why d_c is 0 at ``pct``, and the smallest pct (four digits, rounded
    up) whose cut-off rank passes all the zero distances."""
    n, m = cd.n, cd.n * (cd.n - 1) // 2
    # each row's count of zeros, self included, as float64: exact below 2^53
    rows = cd.row_sums(lambda v, out: np.equal(v, 0.0, out=out))
    zeros = (int(rows.sum()) - n) // 2
    if zeros == m:
        return "d_c is 0: every pairwise distance is zero"
    start = 100.0 * (zeros + 0.5) / m  # rank zeros + 1 begins here
    scale = 10.0 ** (3 - math.floor(math.log10(start)))
    fix = next(p for p in (math.ceil(start * scale + j) / scale for j in (0, 1))
               if _rank(n, p) > zeros)  # j = 1 when rounding fell short
    return ("d_c is 0 at pct=%g: %.4g%% of the %d pairwise distances are zero; "
            "use pct >= %g" % (pct, 100.0 * zeros / m, m, fix))


def density_profile(cd: CondensedDistances, pct: float) -> DensityProfile:
    """Compute d_c, rho, delta and the total order in one pass."""
    d_c = cutoff_distance(cd, pct)
    if d_c == 0:
        raise ParameterError(_zero_cutoff_message(cd, pct))
    rho = local_density(cd, d_c)
    delta, nneigh, order = delta_and_neighbors(cd, rho)
    return DensityProfile(rho=rho, delta=delta, nneigh=nneigh, d_c=d_c, order=order)


def _shared_profile(cd: CondensedDistances, pct: float) -> DensityProfile:
    """``density_profile(cd, pct)``, computed once per cut-off rank of
    these distances: every pct of the same rank gets the same object."""
    return cd._kept(("profile", _rank(cd.n, pct)), lambda: density_profile(cd, pct))


def decision_graph(profile: DensityProfile) -> list[tuple[int, float, float]]:
    """One (index, rho, delta) triple per point, unfiltered."""
    return list(zip(range(profile.n), profile.rho.tolist(), profile.delta.tolist()))
