"""Variational density peak clustering pipeline.

Representatives (high-delta points) seed initial clusters exactly like
DPC.  Their densities are segmented into density levels; when more than
one level exists, the lowest level is clustered by a self-parameterizing
shared-nearest-neighbor pass, undersized low clusters are dissolved into
boundary points and pulled up to higher levels, and every higher level
is clustered by DBSCAN whose radius and minimum count are derived from
the level's extreme representatives.  Micro-clusters are folded into
their neighbors, remaining noise is painted onto nearby denser clusters,
and labels are renumbered contiguously.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    _dbscan_labels,
    _roots,
    _shared_neighbor_components,
    dpc_assign,
    relabel_contiguous,
)
from .dataset import CondensedDistances, Dataset, _readonly, pairwise_distances
from .density import DensityProfile, _rank, _shared_profile
from .errors import ParameterError, StageError, _check_count, _check_positive

__all__ = [
    "VdpcParams",
    "AblationOptions",
    "DensityLevels",
    "ADbscanDerivation",
    "VdpcResult",
    "select_representatives",
    "compute_levels",
    "partition_points",
    "asnnc",
    "split_boundary",
    "reassign_boundary",
    "derive_adbscan_params",
    "adbscan_level",
    "microcluster_postprocess",
    "assign_noise",
    "vdpc_run",
]

log = logging.getLogger("vdpc")

_EDGE = 1e-12  # tolerance for density values sitting on interval edges

ABLATION_CHOICES = {  # the allowed values of each ``AblationOptions`` field
    "k_rule": ("sqrt", "ln"),
    "eps_rule": ("sqrt", "ln"),
    "combo": ("snnc+dbscan", "snnc+snnc", "dbscan+dbscan", "dbscan+snnc"),
    "level_assignment": ("inherit", "midpoint"),
}


@dataclass(frozen=True)
class VdpcParams:
    """User parameters: distance percentile, delta cut-off, segment count."""

    pct: float
    delta_t: float
    num: int = 10

    def __post_init__(self):
        _check_positive("pct", self.pct)
        _check_positive("delta_t", self.delta_t)
        _check_count("num", self.num)
        if self.num > 2**53:  # float64 segment arithmetic needs num exact
            raise ParameterError("num must be at most 2**53, got %d" % self.num)


@dataclass(frozen=True)
class AblationOptions:
    """Variant switches; the defaults are the shipped algorithm."""

    k_rule: str = "sqrt"
    eps_rule: str = "sqrt"
    combo: str = "snnc+dbscan"
    level_assignment: str = "inherit"

    def __post_init__(self):
        for name, choices in ABLATION_CHOICES.items():
            if getattr(self, name) not in choices:
                raise ParameterError("%s must be one of %s" % (name, choices))

    @property
    def low_algorithm(self) -> str:
        return self.combo.split("+")[0]

    @property
    def high_algorithm(self) -> str:
        return self.combo.split("+")[1]


@dataclass(frozen=True)
class DensityLevels:
    """Density segmentation of the representatives."""

    w: float
    gaps: tuple[tuple[float, float], ...]
    intervals: tuple[tuple[float, float], ...]
    numl: int


@dataclass(frozen=True)
class ADbscanDerivation:
    """Radius and minimum count derived from a level's extreme clusters."""

    x_low: int
    x_far: int
    x_high: int
    eps: float
    minpts_low: int
    minpts_high: int
    minpts: int


@dataclass
class VdpcResult:
    """Final labels plus every intermediate stage worth inspecting."""

    labels: np.ndarray
    profile: DensityProfile
    representatives: np.ndarray
    initial_labels: np.ndarray
    levels: DensityLevels
    rep_level: np.ndarray
    point_level: np.ndarray
    low_clusters: list[np.ndarray] = field(default_factory=list)
    low_noise: np.ndarray = field(default_factory=lambda: np.array([], int))
    boundary_points: np.ndarray = field(default_factory=lambda: np.array([], int))
    derivations: list[tuple[int, ADbscanDerivation]] = field(default_factory=list)
    pre_noise_labels: np.ndarray = field(default_factory=lambda: np.array([], int))

    @property
    def k(self) -> int:
        return int(self.labels.max()) + 1


def select_representatives(profile: DensityProfile, delta_t: float) -> np.ndarray:
    """All points whose delta reaches the cut-off, regardless of density."""
    if delta_t <= 0:
        raise ParameterError("delta_t must be > 0")
    reps = np.where(profile.delta >= delta_t)[0]
    if len(reps) == 0:
        raise ParameterError(
            "no representatives at delta_t=%g; choose a smaller delta_t" % delta_t
        )
    return reps


def compute_levels(rep_rhos: np.ndarray, num: int) -> DensityLevels:
    """Segment the representative densities and find the level gaps.

    The density span is cut into ``num`` equal segments of width w.  A
    gap opens between adjacent representatives when they sit at least
    three segments apart and the upper density is at least twice the
    lower one; intervals between gaps are the density levels.  The
    plainer reading — any adjacent spacing of at least 2w is a gap —
    makes the level count depend sharply on ``num`` and collapses on
    every reference workload, so the segment-occupancy rule is used.
    """
    r = np.sort(np.asarray(rep_rhos, dtype=np.float64), kind="stable")
    if len(r) == 0:
        raise ParameterError("need at least one representative density")
    lo, hi = float(r[0]), float(r[-1])
    w = (hi - lo) / num
    at = np.array([], dtype=np.int64)  # gap i lies between r[i] and r[i + 1]
    if w > 0:
        seg = np.minimum(((r - lo) / w).astype(np.int64), num - 1)
        at = np.flatnonzero((np.diff(seg) >= 3) & (r[1:] >= 2.0 * r[:-1]))
    glo, ghi = r[at].tolist(), r[at + 1].tolist()
    return DensityLevels(w=w, gaps=tuple(zip(glo, ghi)), numl=len(at) + 1,
                         intervals=tuple(zip([lo, *ghi], [*glo, hi])))


def partition_points(rho: np.ndarray, levels: DensityLevels) -> np.ndarray:
    """1-based level of each density value: the first interval that holds
    it within ``_EDGE``; otherwise the nearer side of its gap, split at
    the gap midpoint, with values beyond the extremes clamped."""
    lo, hi = np.array(levels.intervals).T
    v = np.asarray(rho, dtype=np.float64)
    inside = (lo - _EDGE <= v[:, None]) & (v[:, None] <= hi + _EDGE)
    by_gap = np.searchsorted((hi[:-1] + lo[1:]) / 2.0, v, side="right") + 1
    return np.where(inside.any(axis=1), inside.argmax(axis=1) + 1, by_gap)


def _rule_count(n: int, rule: str) -> int:
    """ceil(sqrt(n)) or ceil(ln(n)) by rule, at least 1; n >= 1."""
    fn = math.sqrt if rule == "sqrt" else math.log
    return max(math.ceil(fn(n)), 1)


def asnnc(
    cd: CondensedDistances, low_points: np.ndarray, k_rule: str = "sqrt"
) -> list[np.ndarray]:
    """Shared-nearest-neighbor clusters of a point subset.

    The neighbor count is self-set from the subset population; neighbor
    lists are drawn from the whole dataset so that subset members keep
    their true local context.
    """
    low_points = np.sort(np.asarray(low_points))
    m = len(low_points)
    if m == 0:
        return []
    k = min(_rule_count(m, k_rule), cd.n - 1)
    comp = _shared_neighbor_components(cd, low_points, k)
    return [low_points[comp == c] for c in range(comp.max() + 1)]


def split_boundary(
    l1_clusters: list[np.ndarray],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Keep low clusters at least as large as the mean size; dissolve the
    rest into boundary points."""
    if not l1_clusters:
        return [], np.array([], dtype=np.int64)
    sizes = np.array([len(c) for c in l1_clusters], dtype=np.float64)
    mean = sizes.mean()
    kept = [c for c, s in zip(l1_clusters, sizes) if s >= mean]
    bp = [c for c, s in zip(l1_clusters, sizes) if s < mean]
    boundary = (
        np.sort(np.concatenate(bp)) if bp else np.array([], dtype=np.int64)
    )
    return kept, boundary


def reassign_boundary(
    cd: CondensedDistances,
    boundary: np.ndarray,
    reps: np.ndarray,
    rep_level: np.ndarray,
    initial: np.ndarray,
    point_level: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Move each boundary point into the initial cluster of its nearest
    representative of level 2 or higher (ties to the lower index).

    Returns updated copies of the membership and level arrays.  With no
    higher-level representative available the points stay in the lowest
    level and a warning is logged.
    """
    initial = initial.copy()
    point_level = point_level.copy()
    high = reps[rep_level >= 2]
    if len(boundary) == 0:
        return initial, point_level
    if len(high) == 0:
        log.warning(
            "no representative above the lowest level; %d boundary points "
            "stay in the lowest level",
            len(boundary),
        )
        return initial, point_level
    pick = cd.nearest(boundary, high)
    initial[boundary] = initial[high[pick]]
    point_level[boundary] = rep_level[rep_level >= 2][pick]
    return initial, point_level


def derive_adbscan_params(
    cd: CondensedDistances,
    rho: np.ndarray,
    initial: np.ndarray,
    level_points: np.ndarray,
    reps_in_level: np.ndarray,
    interval: tuple[float, float],
    eps_rule: str = "sqrt",
) -> ADbscanDerivation:
    """Derive the DBSCAN radius and minimum count for one density level.

    The anchor cluster belongs to the level's lowest-density
    representative; the radius is the distance from that cluster's
    farthest member to its nearest level neighbors, at a rank set by the
    anchor cluster's in-interval population.  The minimum count averages
    the anchor-disc populations of the lowest and highest clusters.
    """
    stage = "adbscan-derivation"
    pts = np.sort(np.asarray(level_points))
    if len(pts) < 2:
        raise StageError(stage, "level needs at least 2 points")
    if len(reps_in_level) == 0:
        raise StageError(stage, "level has no representative")
    reps_in_level = np.asarray(reps_in_level)
    x_low = int(reps_in_level[np.argmin(rho[reps_in_level])])
    x_high = int(reps_in_level[np.argmax(rho[reps_in_level])])
    members_low = pts[initial[pts] == initial[x_low]]
    members_high = pts[initial[pts] == initial[x_high]]
    x_far = int(members_low[np.argmax(cd.row(x_low)[members_low])])
    lo, hi = interval
    in_interval = int(
        ((rho[members_low] >= lo - _EDGE) & (rho[members_low] <= hi + _EDGE)).sum()
    )
    others = pts[pts != x_far]
    idx = min(_rule_count(max(in_interval, 1), eps_rule), len(others))
    far = cd.row(x_far)
    sim = np.sort(far[others], kind="stable")
    eps = float(sim[idx - 1])
    if eps <= 0:
        raise StageError(stage, "derived radius is zero (coincident points)")
    minpts_low = int((far[members_low] < eps).sum())
    minpts_high = int((cd.row(x_high)[members_high] < eps).sum())
    minpts = math.ceil((minpts_low + minpts_high) / 2.0)
    return ADbscanDerivation(
        x_low=x_low,
        x_far=x_far,
        x_high=x_high,
        eps=eps,
        minpts_low=minpts_low,
        minpts_high=minpts_high,
        minpts=minpts,
    )


def adbscan_level(
    cd: CondensedDistances,
    level_points: np.ndarray,
    derivation: ADbscanDerivation,
) -> tuple[list[np.ndarray], np.ndarray]:
    """DBSCAN restricted to one level; returns (clusters, noise)."""
    pts = np.sort(np.asarray(level_points))
    labels = _dbscan_labels(cd, pts, derivation.eps, derivation.minpts)
    clusters = [pts[labels == c] for c in range(labels.max(initial=-1) + 1)]
    return clusters, pts[labels < 0]


def microcluster_postprocess(
    cd: CondensedDistances, clusters: list[np.ndarray], rho: np.ndarray
) -> list[np.ndarray]:
    """Fold minority micro-clusters into their nearest big neighbor.

    A cluster's center is its densest member; clusters whose center
    density falls below the mean center density are micro-clusters.
    When they are the minority (fewer than half), each of their points
    moves to the nearest non-micro center; otherwise all clusters stand.
    """
    if not clusters:
        return clusters
    centers = [int(c[np.argmax(rho[c])]) for c in clusters]
    center_rho = rho[centers]
    micro = center_rho < center_rho.mean()
    n_micro = int(micro.sum())
    if n_micro == 0 or n_micro >= len(clusters) / 2.0:
        return clusters
    keep = np.flatnonzero(~micro)
    pts = np.concatenate(clusters)
    owner = np.repeat(np.arange(len(clusters)), [len(c) for c in clusters])
    moved = micro[owner]
    owner[moved] = keep[cd.nearest(pts[moved], np.array(centers)[keep])]
    return [np.sort(pts[owner == c]) for c in keep]


def assign_noise(
    cd: CondensedDistances,
    noise: np.ndarray,
    labels: np.ndarray,
    profile: DensityProfile,
) -> np.ndarray:
    """Paint leftover noise onto already-labeled points, densest first.

    Each noise point takes the label of its nearest labeled point of
    strictly higher density under the total order (ties to the lowest
    index); when none exists it takes its nearest labeled point.  Points
    labeled earlier in this pass are visible to later ones.  ``noise``
    holds distinct unlabeled points.

    Painting densest first makes each noise point's label that of its
    nearest denser point among the labeled and the noise points, so the
    labels are read off the ends of those parent chains.
    """
    labels = labels.copy()
    if len(noise) == 0:
        return labels
    labeled = np.flatnonzero(labels >= 0)
    if len(labeled) == 0:
        raise StageError("noise-assignment", "no labeled cluster exists")
    rank = profile.rank
    cols = np.union1d(labeled, noise)
    parent = np.arange(len(labels))
    parent[noise] = cols[cd.nearest(noise, cols, rank)]
    top = noise[rank[noise] == rank[cols].min()]  # nothing denser exists
    parent[top] = labeled[cd.nearest(top, labeled)]
    labels[noise] = labels[_roots(parent)[noise]]
    return labels


def vdpc_run(
    data: Dataset | CondensedDistances,
    params: VdpcParams,
    options: AblationOptions = AblationOptions(),
) -> VdpcResult:
    """Run the full pipeline and return labels plus stage snapshots.

    Runs on the same distances that differ only in ``delta_t``, ``num``
    or the options share one density profile (``_shared_profile``).
    Past the representatives and the levels, a run depends only on its
    level state: the cut-off rank, the representatives, the level
    intervals and the options.  Runs on the same distances with the same
    state share one ``_cluster_levels`` pass, kept on the distances
    object; each run gets its own copies of its arrays.
    """
    cd = data if isinstance(data, CondensedDistances) else pairwise_distances(data)
    profile = _shared_profile(cd, params.pct)
    reps = select_representatives(profile, params.delta_t)
    levels = compute_levels(profile.rho[reps], params.num)
    k = _rank(cd.n, params.pct)
    state = (k, reps.tobytes(), levels.intervals, options)
    if state in cd._memo:
        log.debug("level state seen before (k=%d, %d levels): its labels are "
                  "reused", k, levels.numl)
    kept = cd._kept(state, lambda: _cluster_levels(cd, profile, reps, levels,
                                                   options))
    return VdpcResult(
        profile=profile,
        representatives=reps,
        levels=levels,
        **{name: _own_copy(v) for name, v in kept.items()},
    )


def _cluster_levels(
    cd: CondensedDistances,
    profile: DensityProfile,
    reps: np.ndarray,
    levels: DensityLevels,
    options: AblationOptions,
) -> dict:
    """What a run computes past its levels, as the ``VdpcResult`` fields
    it sets: the DPC labels of the representatives and their levels,
    which are the result when there is one level, and else the level
    stages.  Of ``levels`` it reads only the intervals, not ``w``."""
    initial = _readonly(dpc_assign(profile, reps))
    rep_level = _readonly(partition_points(profile.rho[reps], levels))
    if levels.numl == 1:
        return dict(labels=initial, initial_labels=initial,
                    pre_noise_labels=initial, rep_level=rep_level,
                    point_level=np.ones(cd.n, dtype=np.int64))
    if options.level_assignment == "inherit":  # the representative's level
        point_level = rep_level[initial]
    else:
        point_level = partition_points(profile.rho, levels)

    def cluster_level(p: int, pts: np.ndarray, algorithm: str):
        """(clusters, noise, aDBSCAN derivation or None) of level p."""
        if algorithm == "snnc":
            return asnnc(cd, pts, options.k_rule), np.array([], dtype=np.int64), None
        derivation = derive_adbscan_params(
            cd,
            profile.rho,
            initial,
            pts,
            reps[rep_level == p],
            levels.intervals[p - 1],
            options.eps_rule,
        )
        return (*adbscan_level(cd, pts, derivation), derivation)

    labels = np.full(cd.n, -1, dtype=np.int64)
    next_id = 0

    # lowest level: cluster, keep the big clusters, dissolve the rest
    low_clusters, low_noise, _ = cluster_level(
        1, np.flatnonzero(point_level == 1), options.low_algorithm
    )
    kept, boundary = split_boundary(low_clusters)
    for c in kept:
        labels[c] = next_id
        next_id += 1
    initial, point_level = reassign_boundary(
        cd, boundary, reps, rep_level, initial, point_level
    )

    derivations: list[tuple[int, ADbscanDerivation]] = []
    for p in range(2, levels.numl + 1):
        pts = np.where(point_level == p)[0]
        if len(pts) == 0:
            continue
        clusters, noise, derivation = cluster_level(p, pts, options.high_algorithm)
        if derivation is not None:
            derivations.append((p, derivation))
        clusters = microcluster_postprocess(cd, clusters, profile.rho)
        for j, c in enumerate(clusters):
            labels[c] = next_id + j
        if len(noise) and clusters:
            # each noise point joins the nearest denser cluster center
            # (fallback: the nearest center), ties to the first cluster
            centers = [c[np.argmax(profile.rho[c])] for c in clusters]
            labels[noise] = next_id + cd.nearest(noise, centers, profile.rank)
        next_id += len(clusters)

    # the low-level noise and the noise of levels without clusters
    pre_noise = labels.copy()
    labels = assign_noise(cd, np.flatnonzero(labels < 0), labels, profile)
    return dict(labels=relabel_contiguous(labels), initial_labels=initial,
                rep_level=rep_level, point_level=point_level,
                low_clusters=low_clusters, low_noise=low_noise,
                boundary_points=boundary, derivations=derivations,
                pre_noise_labels=pre_noise)


def _own_copy(value):
    """A copy a caller may change of a kept level-stage field: arrays, also
    inside lists, are copied; the immutable derivation tuples are shared."""
    if isinstance(value, list):
        return [_own_copy(v) for v in value]
    return value.copy() if isinstance(value, np.ndarray) else value
