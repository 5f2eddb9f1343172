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
    _shared_neighbor_components,
    dpc_assign,
    relabel_contiguous,
)
from .dataset import CondensedDistances, Dataset, pairwise_distances
from .density import DensityProfile, cutoff_distance, density_profile
from .errors import ParameterError, StageError

__all__ = [
    "VdpcParams",
    "AblationOptions",
    "DensityLevels",
    "ADbscanDerivation",
    "VdpcResult",
    "select_representatives",
    "compute_levels",
    "partition_points",
    "inherit_levels",
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

K_RULES = ("sqrt", "ln")
EPS_RULES = ("sqrt", "ln")
COMBOS = ("snnc+dbscan", "snnc+snnc", "dbscan+dbscan", "dbscan+snnc")
LEVEL_ASSIGNMENTS = ("inherit", "midpoint")


@dataclass(frozen=True)
class VdpcParams:
    """User parameters: distance percentile, delta cut-off, segment count."""

    pct: float
    delta_t: float
    num: int = 10

    def __post_init__(self):
        if self.pct <= 0:
            raise ParameterError("pct must be > 0")
        if self.delta_t <= 0:
            raise ParameterError("delta_t must be > 0")
        if self.num < 1:
            raise ParameterError("num must be >= 1")


@dataclass(frozen=True)
class AblationOptions:
    """Variant switches; the defaults are the shipped algorithm."""

    k_rule: str = "sqrt"
    eps_rule: str = "sqrt"
    combo: str = "snnc+dbscan"
    level_assignment: str = "inherit"

    def __post_init__(self):
        for name, choices in (("k_rule", K_RULES), ("eps_rule", EPS_RULES),
                              ("combo", COMBOS),
                              ("level_assignment", LEVEL_ASSIGNMENTS)):
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

    def level_of(self, value: float) -> int:
        """1-based level of a density value: interval membership first,
        then nearer side of a gap by midpoint, extremes clamp."""
        for p, (lo, hi) in enumerate(self.intervals, start=1):
            if lo - _EDGE <= value <= hi + _EDGE:
                return p
        if value < self.intervals[0][0]:
            return 1
        if value > self.intervals[-1][1]:
            return self.numl
        for p in range(self.numl - 1):
            lo, hi = self.intervals[p][1], self.intervals[p + 1][0]
            if lo < value < hi:
                return p + 1 if value < (lo + hi) / 2.0 else p + 2
        return self.numl


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
    gaps: list[tuple[float, float]] = []
    if w > 0:
        seg = np.minimum(((r - lo) / w).astype(np.int64), num - 1)
        for i in range(len(r) - 1):
            if seg[i + 1] - seg[i] >= 3 and r[i + 1] >= 2.0 * r[i]:
                gaps.append((float(r[i]), float(r[i + 1])))
    intervals: list[tuple[float, float]] = []
    start = lo
    for glo, ghi in gaps:
        intervals.append((start, glo))
        start = ghi
    intervals.append((start, hi))
    return DensityLevels(
        w=w, gaps=tuple(gaps), intervals=tuple(intervals), numl=len(gaps) + 1
    )


def partition_points(rho: np.ndarray, levels: DensityLevels) -> np.ndarray:
    """Per-point level by density value (midpoint split inside gaps)."""
    return np.array([levels.level_of(v) for v in np.asarray(rho)], dtype=np.int64)


def inherit_levels(initial: np.ndarray, rep_level: np.ndarray) -> np.ndarray:
    """Per-point level inherited from the point's initial-cluster
    representative (the default assignment)."""
    return rep_level[initial]


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
    comp = _shared_neighbor_components(cd.square, low_points, k)
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
    sq = cd.square
    high_levels = rep_level[rep_level >= 2]
    for b in boundary:
        pick = int(np.argmin(sq[b, high]))  # argmin ties to the lower index
        r = high[pick]
        initial[b] = initial[r]
        point_level[b] = high_levels[pick]
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
    sq = cd.square
    reps_in_level = np.asarray(reps_in_level)
    x_low = int(reps_in_level[np.argmin(rho[reps_in_level])])
    x_high = int(reps_in_level[np.argmax(rho[reps_in_level])])
    members_low = pts[initial[pts] == initial[x_low]]
    members_high = pts[initial[pts] == initial[x_high]]
    x_far = int(members_low[np.argmax(sq[x_low, members_low])])
    lo, hi = interval
    in_interval = int(
        ((rho[members_low] >= lo - _EDGE) & (rho[members_low] <= hi + _EDGE)).sum()
    )
    others = pts[pts != x_far]
    idx = min(_rule_count(max(in_interval, 1), eps_rule), len(others))
    sim = np.sort(sq[x_far, others], kind="stable")
    eps = float(sim[idx - 1])
    if eps <= 0:
        raise StageError(stage, "derived radius is zero (coincident points)")
    minpts_low = int((sq[x_far, members_low] < eps).sum())
    minpts_high = int((sq[x_high, members_high] < eps).sum())
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
    labels = _dbscan_labels(cd.square, pts, derivation.eps, derivation.minpts)
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
    sq = cd.square
    keep = [c for c, m in zip(clusters, micro) if not m]
    keep_centers = np.array([c for c, m in zip(centers, micro) if not m])
    merged = [list(c) for c in keep]
    for c, m in zip(clusters, micro):
        if m:
            for p in c:
                merged[int(np.argmin(sq[p, keep_centers]))].append(int(p))
    return [np.array(sorted(c), dtype=np.int64) for c in merged]


def assign_noise(
    cd: CondensedDistances,
    noise: np.ndarray,
    labels: np.ndarray,
    profile: DensityProfile,
) -> np.ndarray:
    """Paint leftover noise onto already-labeled points, densest first.

    Each noise point takes the label of its nearest labeled point of
    strictly higher density under the total order; when none exists it
    takes its nearest labeled point.  Points labeled earlier in this
    pass are visible to later ones.
    """
    labels = labels.copy()
    if len(noise) == 0:
        return labels
    if not np.any(labels >= 0):
        raise StageError("noise-assignment", "no labeled cluster exists")
    rank = profile.rank
    sq = cd.square
    for i in sorted(noise.tolist(), key=lambda t: rank[t]):
        labeled = np.where(labels >= 0)[0]
        denser = labeled[rank[labeled] < rank[i]]
        candidates = denser if len(denser) else labeled
        labels[i] = labels[candidates[np.argmin(sq[i, candidates])]]
    return labels


def _paint_level_noise(
    cd: CondensedDistances,
    noise: np.ndarray,
    level_centers: list[tuple[int, int]],
    labels: np.ndarray,
    rank: np.ndarray,
) -> None:
    """Attach level noise to the level's nearest denser cluster center
    (fallback: nearest center), densest noise first; mutates labels."""
    sq = cd.square
    cpts = np.array([c for c, _ in level_centers])
    cids = np.array([l for _, l in level_centers])
    for i in sorted(noise.tolist(), key=lambda t: rank[t]):
        denser = rank[cpts] < rank[i]
        cand_pts = cpts[denser] if denser.any() else cpts
        cand_ids = cids[denser] if denser.any() else cids
        labels[i] = cand_ids[np.argmin(sq[i, cand_pts])]


def vdpc_run(
    data: Dataset | CondensedDistances,
    params: VdpcParams,
    options: AblationOptions = AblationOptions(),
    profile: DensityProfile | None = None,
) -> VdpcResult:
    """Run the full pipeline and return labels plus stage snapshots.

    ``profile`` may carry ``density_profile(cd, params.pct)`` computed
    earlier, so that runs differing only in ``delta_t``, ``num`` or the
    options share it; a profile of other distances or another cut-off
    distance is rejected.
    """
    cd = data if isinstance(data, CondensedDistances) else pairwise_distances(data)
    if profile is None:
        profile = density_profile(cd, params.pct)
    elif profile.n != cd.n or profile.d_c != cutoff_distance(cd, params.pct):
        raise ParameterError(
            "the density profile was not computed from these distances at "
            "pct=%g" % params.pct
        )
    reps = select_representatives(profile, params.delta_t)
    initial = dpc_assign(profile, reps)
    levels = compute_levels(profile.rho[reps], params.num)
    rep_level = np.array(
        [levels.level_of(profile.rho[r]) for r in reps], dtype=np.int64
    )

    if levels.numl == 1:
        return VdpcResult(
            labels=initial.copy(),
            profile=profile,
            representatives=reps,
            initial_labels=initial,
            levels=levels,
            rep_level=rep_level,
            point_level=np.ones(cd.n, dtype=np.int64),
            pre_noise_labels=initial.copy(),
        )

    if options.level_assignment == "inherit":
        point_level = inherit_levels(initial, rep_level)
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
    rank = profile.rank

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
        level_centers: list[tuple[int, int]] = []
        for c in clusters:
            labels[c] = next_id
            level_centers.append((int(c[np.argmax(profile.rho[c])]), next_id))
            next_id += 1
        if len(noise) and level_centers:
            _paint_level_noise(cd, noise, level_centers, labels, rank)

    # the low-level noise and the noise of levels without clusters
    pre_noise = labels.copy()
    labels = assign_noise(cd, np.flatnonzero(labels < 0), labels, profile)
    return VdpcResult(
        labels=relabel_contiguous(labels),
        profile=profile,
        representatives=reps,
        initial_labels=initial,
        levels=levels,
        rep_level=rep_level,
        point_level=point_level,
        low_clusters=low_clusters,
        low_noise=low_noise,
        boundary_points=boundary,
        derivations=derivations,
        pre_noise_labels=pre_noise,
    )
