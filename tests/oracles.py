"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in plain Python with explicit
loops over points and pairs — no shared code paths with the package —
so agreement between the two is meaningful evidence of correctness.
The ``loop_*`` functions at the end are the package's former per-point
loops for the level stages, kept as the references that its array forms
must match bitwise; they read a square distance matrix ``sq``.
"""

from __future__ import annotations

import math

import numpy as np


def euclidean(p, q) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def distance_matrix(points) -> list[list[float]]:
    n = len(points)
    return [[euclidean(points[i], points[j]) for j in range(n)] for i in range(n)]


def naive_cutoff(distances, pct: float) -> float:
    """The d_c percentile by a full sort of the pairwise distances: the
    k-th smallest, k = pct/100 * M rounded half away from zero and
    clamped into 1..M."""
    ordered = sorted(distances)
    m = len(ordered)
    k = min(max(math.floor(pct / 100 * m + 0.5), 1), m)
    return ordered[k - 1]


def naive_rho(points, d_c: float) -> list[float]:
    """Gaussian-kernel density, self excluded, via a double loop."""
    n = len(points)
    out = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            if j == i:
                continue
            d = euclidean(points[i], points[j])
            total += math.exp(-((d / d_c) ** 2))
        out.append(total)
    return out


def naive_delta(points, rho) -> list[float]:
    """Distance to the nearest point of strictly higher density under
    the total order (density descending, index ascending); the global
    maximum takes the largest pairwise distance."""
    n = len(points)
    delta = [0.0] * n
    max_d = max(
        (euclidean(points[i], points[j]) for i in range(n) for j in range(i + 1, n)),
        default=0.0,
    )
    for i in range(n):
        higher = [
            euclidean(points[i], points[j])
            for j in range(n)
            if j != i and (rho[j] > rho[i] or (rho[j] == rho[i] and j < i))
        ]
        delta[i] = min(higher) if higher else max_d
    return delta


def naive_dbscan(points, eps: float, minpts: int) -> list[int]:
    """Textbook DBSCAN with the package's stated conventions: strict
    neighborhoods including self, seeds in ascending index order,
    breadth-first growth, borders keep the first claiming cluster."""
    n = len(points)
    dm = distance_matrix(points)
    neigh = [[j for j in range(n) if dm[i][j] < eps] for i in range(n)]
    core = [len(neigh[i]) >= minpts for i in range(n)]
    labels = [-1] * n
    cid = 0
    for seed in range(n):
        if not core[seed] or labels[seed] != -1:
            continue
        labels[seed] = cid
        frontier = [seed]
        while frontier:
            q = frontier.pop(0)
            for j in neigh[q]:
                if labels[j] == -1:
                    labels[j] = cid
                    if core[j]:
                        frontier.append(j)
        cid += 1
    return labels


def check_dbscan_closure(points, eps: float, minpts: int, labels) -> None:
    """Structural reachability checks that hold regardless of tie order:
    cores connected within eps share a label, every border label comes
    from a core within eps, noise is exactly the unreachable set."""
    n = len(points)
    dm = distance_matrix(points)
    neigh = [[j for j in range(n) if dm[i][j] < eps] for i in range(n)]
    core = [len(neigh[i]) >= minpts for i in range(n)]
    for i in range(n):
        if core[i]:
            assert labels[i] != -1, f"core {i} left as noise"
            for j in neigh[i]:
                if core[j]:
                    assert labels[i] == labels[j], f"cores {i},{j} split"
        elif labels[i] != -1:
            owners = {labels[j] for j in neigh[i] if core[j]}
            assert labels[i] in owners, f"border {i} claimed from afar"
        else:
            assert not any(core[j] for j in neigh[i]), f"{i} should be border"


def naive_knn(points, i: int, k: int, domain=None) -> set[int]:
    """The k nearest points to i (self excluded, ties by index)."""
    cand = [j for j in (domain if domain is not None else range(len(points))) if j != i]
    cand.sort(key=lambda j: (euclidean(points[i], points[j]), j))
    return set(cand[:k])


def naive_snnc(points, k: int, subset=None) -> list[int]:
    """Shared-nearest-neighbor components: edge when two subset points
    share more than one nearest neighbor (drawn from all points)."""
    idxs = sorted(subset) if subset is not None else list(range(len(points)))
    sets = {i: naive_knn(points, i, k) for i in idxs}
    labels = {i: -1 for i in idxs}
    cid = 0
    for start in idxs:
        if labels[start] != -1:
            continue
        labels[start] = cid
        frontier = [start]
        while frontier:
            q = frontier.pop(0)
            for j in idxs:
                if labels[j] == -1 and len(sets[q] & sets[j]) > 1:
                    labels[j] = cid
                    frontier.append(j)
        cid += 1
    return [labels[i] for i in idxs]


def naive_ari(a, b) -> float:
    """Adjusted Rand index by brute-force enumeration of all pairs."""
    n = len(a)
    n11 = n00 = n10 = n01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa, sb = a[i] == a[j], b[i] == b[j]
            if sa and sb:
                n11 += 1
            elif sa and not sb:
                n10 += 1
            elif not sa and sb:
                n01 += 1
            else:
                n00 += 1
    num = 2.0 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 0.0
    return num / den


def naive_nmi(a, b) -> float:
    """NMI with the arithmetic-mean normalizer, from raw label lists."""
    n = len(a)

    def dist(lab):
        counts = {}
        for v in lab:
            counts[v] = counts.get(v, 0) + 1
        return counts

    ca, cb = dist(a), dist(b)
    joint = {}
    for x, y in zip(a, b):
        joint[(x, y)] = joint.get((x, y), 0) + 1
    ha = -sum((c / n) * math.log(c / n) for c in ca.values() if c)
    hb = -sum((c / n) * math.log(c / n) for c in cb.values() if c)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    mi = 0.0
    for (x, y), c in joint.items():
        pxy = c / n
        mi += pxy * math.log(pxy / ((ca[x] / n) * (cb[y] / n)))
    return mi / ((ha + hb) / 2.0)


def same_partition(a, b) -> bool:
    """True when two labelings induce the same partition of indices."""
    groups_a = {}
    groups_b = {}
    for i, (x, y) in enumerate(zip(a, b)):
        groups_a.setdefault(x, set()).add(i)
        groups_b.setdefault(y, set()).add(i)
    return {frozenset(s) for s in groups_a.values()} == {
        frozenset(s) for s in groups_b.values()
    }


# -- the per-point loops of the level stages ------------------------------

_EDGE = 1e-12  # the package's tolerance for densities on interval edges


def full_matrix(cd) -> np.ndarray:
    """The square matrix ``sq`` that the ``loop_*`` functions take,
    joined from the row blocks of the distances ``cd``."""
    return np.concatenate(cd.map_blocks(lambda r, view: view))


def loop_relabel_contiguous(labels) -> list[int]:
    """Ids 0..k-1 in order of first occurrence, noise (< 0) kept as -1."""
    out = [-1] * len(labels)
    seen: dict = {}
    for i, lab in enumerate(labels):
        if lab < 0:
            continue
        if lab not in seen:
            seen[lab] = len(seen)
        out[i] = seen[lab]
    return out


def loop_delta_and_neighbors(sq, rho, max_distance: float):
    """(delta, nneigh, order): the total order is descending rho, ties by
    ascending index; each point takes the nearest point ranked before it,
    ties to the earliest in the order, and the first point takes
    ``max_distance`` and no neighbour (-1)."""
    n = len(rho)
    order = sorted(range(n), key=lambda i: (-rho[i], i))
    delta, nneigh = [0.0] * n, [-1] * n
    delta[order[0]] = max_distance
    for pos in range(1, n):
        i = order[pos]
        for j in order[:pos]:
            if nneigh[i] < 0 or sq[i][j] < delta[i]:
                delta[i], nneigh[i] = sq[i][j], j
    return delta, nneigh, order


def loop_dpc_assign(order, nneigh, centers) -> list[int]:
    """Centers numbered in ascending index order; every other point, in
    the total order, copies its nearest denser neighbor's label."""
    labels = [-1] * len(order)
    for cid, c in enumerate(sorted(centers)):
        labels[c] = cid
    for i in order:
        if labels[i] < 0:
            j = nneigh[i]
            if j < 0:
                raise ValueError("the density argmax is not a center")
            labels[i] = labels[j]
    return labels


def loop_compute_levels(rep_rhos, num: int):
    """(gaps, intervals) of the segment-occupancy rule."""
    r = sorted(float(v) for v in rep_rhos)
    lo, hi = r[0], r[-1]
    w = (hi - lo) / num
    gaps = []
    if w > 0:
        seg = [min(int((v - lo) / w), num - 1) for v in r]
        for i in range(len(r) - 1):
            if seg[i + 1] - seg[i] >= 3 and r[i + 1] >= 2.0 * r[i]:
                gaps.append((r[i], r[i + 1]))
    intervals = []
    start = lo
    for glo, ghi in gaps:
        intervals.append((start, glo))
        start = ghi
    intervals.append((start, hi))
    return tuple(gaps), tuple(intervals)


def loop_level_of(intervals, value: float) -> int:
    """1-based level of a density value: interval membership first,
    then nearer side of a gap by midpoint, extremes clamp."""
    numl = len(intervals)
    for p, (lo, hi) in enumerate(intervals, start=1):
        if lo - _EDGE <= value <= hi + _EDGE:
            return p
    if value < intervals[0][0]:
        return 1
    if value > intervals[-1][1]:
        return numl
    for p in range(numl - 1):
        lo, hi = intervals[p][1], intervals[p + 1][0]
        if lo < value < hi:
            return p + 1 if value < (lo + hi) / 2.0 else p + 2
    return numl


def loop_knn_sets(sq, points, k: int) -> list[list[int]]:
    """The k nearest of each query point in order, self excluded,
    distance ties by ascending index."""
    out = []
    for i in points:
        near = np.argsort(sq[i], kind="stable")
        out.append([int(j) for j in near[near != i][:k]])
    return out


def loop_reassign_boundary(sq, boundary, reps, rep_level, initial, point_level):
    """Each boundary point joins the initial cluster and the level of its
    nearest representative of level >= 2, ties to the lower position."""
    initial, point_level = np.array(initial), np.array(point_level)
    high = reps[rep_level >= 2]
    if len(boundary) == 0 or len(high) == 0:
        return initial, point_level
    high_levels = rep_level[rep_level >= 2]
    for b in boundary:
        pick = int(np.argmin(sq[b, high]))
        initial[b] = initial[high[pick]]
        point_level[b] = high_levels[pick]
    return initial, point_level


def loop_microcluster_postprocess(sq, clusters, rho):
    """Micro-cluster points, one at a time, join the nearest kept center."""
    if not clusters:
        return clusters
    centers = [int(c[np.argmax(rho[c])]) for c in clusters]
    center_rho = rho[centers]
    micro = center_rho < center_rho.mean()
    n_micro = int(micro.sum())
    if n_micro == 0 or n_micro >= len(clusters) / 2.0:
        return clusters
    keep = [c for c, m in zip(clusters, micro) if not m]
    keep_centers = np.array([c for c, m in zip(centers, micro) if not m])
    merged = [list(c) for c in keep]
    for c, m in zip(clusters, micro):
        if m:
            for p in c:
                merged[int(np.argmin(sq[p, keep_centers]))].append(int(p))
    return [np.array(sorted(c), dtype=np.int64) for c in merged]


def loop_paint_level_noise(sq, noise, level_centers, labels, rank) -> None:
    """Level noise, densest first, takes the id of its nearest denser
    (center, id) pair, else of its nearest; mutates ``labels``."""
    cpts = np.array([c for c, _ in level_centers])
    cids = np.array([lab for _, lab in level_centers])
    for i in sorted(noise, key=lambda t: rank[t]):
        denser = rank[cpts] < rank[i]
        cand_pts = cpts[denser] if denser.any() else cpts
        cand_ids = cids[denser] if denser.any() else cids
        labels[i] = cand_ids[np.argmin(sq[i, cand_pts])]


def loop_assign_noise(sq, noise, labels, rank):
    """Noise, densest first, copies the label of its nearest denser
    labeled point, else of its nearest labeled point; points painted
    earlier are labeled for the later ones."""
    labels = np.array(labels)
    for i in sorted(noise, key=lambda t: rank[t]):
        labeled = np.where(labels >= 0)[0]
        denser = labeled[rank[labeled] < rank[i]]
        candidates = denser if len(denser) else labeled
        labels[i] = labels[candidates[np.argmin(sq[i, candidates])]]
    return labels
