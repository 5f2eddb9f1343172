"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in plain Python with explicit
loops over points and pairs — no shared code paths with the package —
so agreement between the two is meaningful evidence of correctness.
"""

from __future__ import annotations

import math


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
