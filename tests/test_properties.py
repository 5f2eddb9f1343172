"""The array forms of the level stages and of the density layer's δ and
d_c selection against their per-point loops and a full sort.

Inputs are tie-heavy on purpose: points on a small integer grid (so many
distances are equal and many points coincide) and densities drawn from a
few integers (so the total order breaks many ties by index).  Every
comparison is exact.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vdpc.dataset
from vdpc import (
    Dataset,
    DensityProfile,
    StageError,
    compute_levels,
    dpc_assign,
    pairwise_distances,
    relabel_contiguous,
)
from vdpc.density import delta_and_neighbors
from vdpc.vdpc import (
    assign_noise,
    microcluster_postprocess,
    partition_points,
    reassign_boundary,
)

from oracles import (
    full_matrix,
    loop_assign_noise,
    loop_compute_levels,
    loop_delta_and_neighbors,
    loop_dpc_assign,
    loop_knn_sets,
    loop_level_of,
    loop_microcluster_postprocess,
    loop_paint_level_noise,
    loop_reassign_boundary,
    loop_relabel_contiguous,
)


@st.composite
def grid(draw, max_points=18):
    """(distances, rho, rank) of 2..max_points points on a 4-wide integer
    grid, with densities from {0, 1, 2, 3}."""
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(2, max_points))
    cells = st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
    pts = draw(st.lists(cells, min_size=n, max_size=n))
    rho = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), float)
    order = np.lexsort((np.arange(n), -rho))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return pairwise_distances(Dataset(points=np.array(pts, float))), rho, rank


def subset(draw, n, min_size=0):
    """An ascending set of distinct point indices below n."""
    picked = draw(st.lists(st.integers(0, n - 1), min_size=min_size, unique=True))
    return np.array(sorted(picked), dtype=np.int64)


def profile_of(rho, nneigh=None):
    n = len(rho)
    order = np.lexsort((np.arange(n), -rho))
    nneigh = np.full(n, -1) if nneigh is None else nneigh
    return DensityProfile(rho=rho, delta=np.zeros(n), nneigh=nneigh, d_c=1.0,
                          order=order)


@given(st.lists(st.integers(-1, 4), max_size=12)
       | st.lists(st.sampled_from([-1.0, 0.5, 1.0, 2.5]), max_size=12))
def test_relabel_contiguous(labels):
    assert relabel_contiguous(labels).tolist() == loop_relabel_contiguous(labels)


# the default sample, and one of m/5 pairs, which brackets even small sets
@pytest.mark.parametrize("sample_size", [None, lambda m: max(1, m // 5)],
                         ids=["default", "fifth"])
@given(st.data())
def test_kth_smallest(sample_size, data):
    cd, _, _ = data.draw(grid(max_points=24))
    ordered = np.sort(full_matrix(cd)[np.triu_indices(cd.n, 1)]).tolist()
    with pytest.MonkeyPatch.context() as mp:
        if sample_size is not None:
            mp.setattr(vdpc.dataset, "_sample_size", sample_size)
        got = [cd.kth_smallest(k) for k in range(1, len(ordered) + 1)]
    assert got == ordered


@given(st.data())
def test_delta_and_neighbors(data):
    cd, rho, _ = data.draw(grid())
    delta, nneigh, order = delta_and_neighbors(cd, rho)
    want = loop_delta_and_neighbors(full_matrix(cd).tolist(), rho.tolist(),
                                    cd.max_distance)
    assert (delta.tolist(), nneigh.tolist(), order.tolist()) == want


@given(st.data())
def test_dpc_assign(data):
    cd, rho, _ = data.draw(grid())
    _, nneigh, order = delta_and_neighbors(cd, rho)
    centers = subset(data.draw, cd.n, min_size=1)
    if data.draw(st.booleans()):
        centers = np.union1d(centers, order[:1])  # the argmax must be a center
    data.draw(st.randoms()).shuffle(centers)  # ids follow the index order
    profile = profile_of(rho, nneigh)
    if order[0] not in centers:
        with pytest.raises(StageError):
            dpc_assign(profile, centers)
        with pytest.raises(ValueError):
            loop_dpc_assign(order.tolist(), nneigh.tolist(), centers.tolist())
        return
    got = dpc_assign(profile, centers)
    assert got.tolist() == loop_dpc_assign(order.tolist(), nneigh.tolist(),
                                           centers.tolist())


# a few far-apart values make gaps likely
values = (st.sampled_from([1.0, 2.0, 8.0, 9.0, 40.0]) | st.integers(0, 12).map(float)
          | st.floats(0, 64, allow_nan=False))


@given(st.lists(values, min_size=1, max_size=10), st.integers(1, 12),
       st.lists(st.floats(-4, 70, allow_nan=False), max_size=8),
       st.sampled_from([1.0, 1e-13]))
def test_compute_levels_and_partition_points(rep_rhos, num, extra, scale):
    # at scale 1e-13 many gaps are narrower than the edge tolerance
    rep_rhos, extra = [v * scale for v in rep_rhos], [v * scale for v in extra]
    levels = compute_levels(np.array(rep_rhos), num)
    gaps, intervals = loop_compute_levels(rep_rhos, num)
    assert (levels.gaps, levels.intervals) == (gaps, intervals)
    edges = [x for iv in intervals for x in iv]
    mids = [(a[1] + b[0]) / 2.0 for a, b in zip(intervals, intervals[1:])]
    rho = np.array([*rep_rhos, *extra, *mids,
                    *(e + d for e in edges for d in (-2e-12, -5e-13, 5e-13, 2e-12))])
    want = [loop_level_of(intervals, v) for v in rho]
    assert partition_points(rho, levels).tolist() == want


@given(st.data())
def test_knn_sets(data):
    cd, _, _ = data.draw(grid())
    k = data.draw(st.integers(1, cd.n - 1))
    points = subset(data.draw, cd.n, min_size=1)
    got = cd.knn(points, k)
    assert got.shape == (len(points), k)
    want = loop_knn_sets(full_matrix(cd), points, k)
    assert [sorted(row) for row in want] == got.tolist()  # ascending index


@given(st.data())
def test_reassign_boundary(data):
    cd, _, _ = data.draw(grid())
    n = cd.n
    reps = subset(data.draw, n, min_size=1)
    ints = lambda lo, hi, size: np.array(
        data.draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)))
    rep_level = ints(1, 3, len(reps))
    initial, point_level = ints(0, len(reps) - 1, n), ints(1, 3, n)
    boundary = subset(data.draw, n)
    got = reassign_boundary(cd, boundary, reps, rep_level, initial, point_level)
    want = loop_reassign_boundary(full_matrix(cd), boundary, reps, rep_level, initial,
                                  point_level)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


@given(st.data())
def test_microcluster_postprocess(data):
    cd, rho, _ = data.draw(grid())
    owner = np.array(data.draw(st.lists(st.integers(-1, 5), min_size=cd.n,
                                        max_size=cd.n)))
    clusters = [np.flatnonzero(owner == c) for c in range(6) if (owner == c).any()]
    got = microcluster_postprocess(cd, clusters, rho)
    want = loop_microcluster_postprocess(full_matrix(cd), clusters, rho)
    assert [c.tolist() for c in got] == [c.tolist() for c in want]


@given(st.data())
def test_level_noise_painting(data):
    # vdpc_run paints a level's noise with first_id + nearest(noise, centers, rank)
    cd, _, rank = data.draw(grid())
    centers = subset(data.draw, cd.n, min_size=1)
    data.draw(st.randoms()).shuffle(centers)  # clusters come in any order
    noise = subset(data.draw, cd.n)
    first = data.draw(st.integers(0, 3))
    want = np.full(cd.n, -1)
    loop_paint_level_noise(full_matrix(cd), noise.tolist(),
                           [(c, first + j) for j, c in enumerate(centers)], want, rank)
    got = np.full(cd.n, -1)
    got[noise] = first + cd.nearest(noise, centers, rank)
    assert got.tolist() == want.tolist()


@given(st.data())
def test_assign_noise(data):
    cd, rho, rank = data.draw(grid())
    n = cd.n
    some = st.sampled_from([-1, -1, -1, 0, 1, 2])
    labels = np.array(data.draw(st.lists(some, min_size=n, max_size=n)))
    if not (labels >= 0).any():
        labels[data.draw(st.integers(0, n - 1))] = 0
    # any part of the unlabeled points, not only all of them
    chosen = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    noise = np.flatnonzero((labels < 0) & chosen)
    got = assign_noise(cd, noise, labels, profile_of(rho))
    want = loop_assign_noise(full_matrix(cd), noise.tolist(), labels, rank)
    assert got.tolist() == want.tolist()
