"""The array forms of the level stages and of the density layer's δ and
d_c selection against their per-point loops and a full sort.

Inputs are tie-heavy on purpose: points on a small integer grid (so many
distances are equal and many points coincide) and densities drawn from a
few integers (so the total order breaks many ties by index).  Every
comparison is exact.
"""

import math
import os

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
    snnc,
)
from vdpc.baselines import (
    _component_ids,
    _dbscan_labels,
    _shared_neighbor_components,
    _union,
)
from vdpc.density import delta_and_neighbors
from vdpc.vdpc import (
    assign_noise,
    microcluster_postprocess,
    partition_points,
    reassign_boundary,
)

from conftest import eps_pairs, forcing, pair_keys, streamed
from oracles import (
    component_dbscan,
    csgraph_components,
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
    loop_sample_pairs,
    naive_dbscan,
    sparse_shared_neighbor_components,
    splitmix64,
)


@st.composite
def grid(draw, max_points=18, min_points=2):
    """(distances, rho, rank) of min_points..max_points points on a 4-wide
    integer grid, with densities from {0, 1, 2, 3}."""
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(min_points, max_points))
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


def test_splitmix64_oracle_starts_as_the_reference():
    # the first values from state 0 of the reference C code
    assert splitmix64(3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                             0x06C45D188009454F]


@pytest.mark.parametrize("n, s", [(2, 64), (240, 937), (10_000, 135_712)],
                         ids=["two points", "flame", "t710"])
def test_sample_pairs_equal_the_loop(n, s):
    i, j = vdpc.dataset._sample_pairs(n, s)
    assert list(zip(i.tolist(), j.tolist())) == loop_sample_pairs(n, s)


@given(st.integers(2, 2**32 - 1), st.integers(0, 300))
def test_sample_pairs_are_distinct_points_in_range_on_every_call(n, s):
    i, j = vdpc.dataset._sample_pairs(n, s)
    assert list(zip(i.tolist(), j.tolist())) == loop_sample_pairs(n, s)
    assert ((0 <= i) & (i < n) & (0 <= j) & (j < n) & (i != j)).all()
    again = vdpc.dataset._sample_pairs(n, s)
    assert np.array_equal(i, again[0]) and np.array_equal(j, again[1])


@st.composite
def window_points(draw):
    """2 to 40 points of 1 to 8 coordinates for the window: on a 4-wide
    integer grid (ties and coincident points) or any floats in [-4, 4],
    perhaps all at one x, and then offset by 2^40 or scaled by 2^600 or
    2^-600 (through the power-of-two rescale)."""
    n, dim = draw(st.integers(2, 40)), draw(st.integers(1, 8))
    cell = st.integers(0, 3).map(float) if draw(st.booleans()) else st.floats(-4, 4)
    pts = np.reshape(draw(st.lists(cell, min_size=n * dim, max_size=n * dim)), (n, dim))
    if draw(st.booleans()):
        pts[:, 0] = pts[0, 0]
    move = draw(st.sampled_from(["none", "offset", "2^600", "2^-600"]))
    return {"none": pts, "offset": pts + 2.0 ** 40, "2^600": pts * 2.0 ** 600,
            "2^-600": pts * 2.0 ** -600}[move]


def upper_at_most(cd, hi, window):
    """The distances up to ``hi`` in the strict upper triangle of each
    upper block of ``cd._scan``, in the order and up to the ends of a
    ``window`` if given, sorted."""
    def at_most(r, block):
        size = r.stop - r.start
        v = np.concatenate([block[:, size:].ravel(),
                            block[:, :size][~np.tri(size, dtype=bool)]])
        return v[v <= hi]

    _, order, ends = window or (None, None, None)
    return np.sort(np.concatenate(cd._scan(at_most, order, True, ends)))


# The streamed count sorts the points along their widest coordinate and
# skips the pairs beyond hi's reach along it; every pair up to hi must
# still be counted once, so each selection equals the full sort, whatever
# the bracket, also when it misses and widens to the whole triangle.  The
# ε-pairs of a subset read its own window: at Eps a distance, pairs tie at
# Eps, and they equal the whole triangle's as a set.
@pytest.mark.parametrize("workers", [1, 2, 8])
@given(st.data())
def test_windowed_count_equals_the_whole_triangle(workers, data):
    pts = data.draw(window_points())
    cd = streamed(pts)
    n, m = len(pts), len(pts) * (len(pts) - 1) // 2
    full = full_matrix(pairwise_distances(Dataset(points=pts)))
    ordered = np.sort(full[np.triu_indices(n, 1)])
    values = sorted(set(ordered.tolist()))
    tiny = np.finfo(np.float64).tiny
    bracket = vdpc.dataset._bracket
    lo, hi = sorted(data.draw(st.lists(st.sampled_from(values), min_size=2,
                                       max_size=2)))
    ks = sorted({1, m, data.draw(st.integers(1, m))})
    sub = subset(data.draw, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        mp.setattr(vdpc.dataset, "_BLOCK_CELLS",
                   data.draw(st.sampled_from([1, 7, 40, 1 << 18])))
        for end in (hi, math.inf):
            window = cd._window(end, np.arange(n))
            assert (window is None) == (not tiny <= end < math.inf)
            assert (upper_at_most(cd, end, window).tobytes()
                    == ordered[ordered <= end].tobytes())
        for eps in (lo, hi):
            i, j = np.nonzero(np.triu(full[np.ix_(sub, sub)] < eps, 1))
            nb, path = eps_pairs(cd, sub, eps)
            assert path == ("window" if len(sub) and eps >= tiny else "matrix")
            assert pair_keys(nb, len(sub)).tobytes() == (i * len(sub) + j).tobytes()
        assert [cd.kth_smallest(k) for k in ks] == [ordered[k - 1] for k in ks]
        # a first bracket [lo, hi] on the distances themselves, pairs at
        # either end; where it misses the k-th, the real one widens
        mp.setattr(vdpc.dataset, "_bracket", lambda sample, k, m, width: (
            (lo, hi) if width == 4.0 else bracket(sample, k, m, width)))
        assert [cd.kth_smallest(k) for k in ks] == [ordered[k - 1] for k in ks]


# Every pass over a range of the distances reads it through ``_scan``:
# for any begin of 0 or the position itself and any ascending end above
# it, the blocks tile the positions, each reads its rows' range, and each
# is one row or at most ``_BLOCK_CELLS`` cells.
@given(st.data())
def test_scan_blocks_tile_the_positions_within_the_cell_bound(data):
    n = data.draw(st.integers(2, 60))
    cd = pairwise_distances(Dataset(points=np.arange(float(n))[:, None]))
    m = data.draw(st.integers(0, n))
    order = np.array(data.draw(st.permutations(range(n))))[:m]
    upper = data.draw(st.booleans())
    end = np.sort(data.draw(st.lists(st.integers(1, max(m, 1)), min_size=m, max_size=m)))
    begin = np.arange(m) if upper else np.zeros(m, dtype=int)
    end = np.maximum(end, begin + 1)
    cells = data.draw(st.integers(0, 400))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vdpc.dataset, "_BLOCK_CELLS", cells)
        parts = cd._scan(lambda r, block: (r, block.shape), order, upper, end)
    assert [r.start for r, _ in parts] + [m] == [0] + [r.stop for r, _ in parts]
    for r, shape in parts:
        assert r.stop > r.start
        assert shape == (r.stop - r.start, end[r.stop - 1] - begin[r.start])
        assert shape[0] == 1 or shape[0] * shape[1] <= cells


# Up to 18 points the tree proposes every point as a candidate; 40 to 60
# points on the 4-wide grid are more than the candidates, and coincide
# by the dozen.
grids = grid() | grid(max_points=60, min_points=40)


# the tree's candidates patched to 1 and 2, and the default; the tree
# serves the streamed distances, and the held ones read the triangle of
# earlier points, with the candidates patched in blocks of 40 cells
@pytest.mark.parametrize("candidates", [1, 2, None], ids=["1", "2", "default"])
@given(st.data())
def test_delta_and_neighbors(candidates, data):
    cd, rho, _ = data.draw(grids)
    want = loop_delta_and_neighbors(full_matrix(cd).tolist(), rho.tolist(),
                                    cd.max_distance)
    for distances in (cd, streamed(cd.points)):
        with pytest.MonkeyPatch.context() as mp:
            if candidates is not None:
                mp.setattr(vdpc.dataset, "_CANDIDATES", candidates)
                mp.setattr(vdpc.dataset, "_BLOCK_CELLS", 40)
            delta, nneigh, order = delta_and_neighbors(distances, rho)
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


@pytest.mark.parametrize("candidates", [1, 2, None], ids=["1", "2", "default"])
@given(st.data())
def test_knn_sets(candidates, data):
    cd, _, _ = data.draw(grids)
    k = data.draw(st.integers(1, cd.n - 1))
    points = subset(data.draw, cd.n, min_size=1)
    want = loop_knn_sets(full_matrix(cd), points, k)
    for distances in (cd, streamed(cd.points)):  # rows held, the tree streamed
        with pytest.MonkeyPatch.context() as mp:
            if candidates is not None:
                mp.setattr(vdpc.dataset, "_KNN_EXTRA", candidates)
            got = distances.knn(points, k)
        assert got.shape == (len(points), k)
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


@given(st.data())
def test_streamed_equals_held(data):
    # the same grid streamed: every reader bitwise as from the matrix
    cd, rho, rank = data.draw(grids)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vdpc.dataset, "_HOLD_LIMIT", 0)
        streamed = pairwise_distances(Dataset(points=cd.points))
    assert streamed._square is None
    m = cd.n * (cd.n - 1) // 2
    assert [streamed.kth_smallest(k) for k in range(1, m + 1, 7)] == [
        cd.kth_smallest(k) for k in range(1, m + 1, 7)]
    assert streamed.max_distance == cd.max_distance
    got, want = delta_and_neighbors(streamed, rho), delta_and_neighbors(cd, rho)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    points = subset(data.draw, cd.n, min_size=1)
    k = data.draw(st.integers(1, cd.n - 1))
    assert streamed.knn(points, k).tobytes() == cd.knn(points, k).tobytes()
    cols = subset(data.draw, cd.n, min_size=1)
    assert (streamed.nearest(points, cols, rank).tobytes()
            == cd.nearest(points, cols, rank).tobytes())
    eps = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    (a, held_path), (b, streamed_path) = (eps_pairs(c, points, eps)
                                          for c in (cd, streamed))
    assert (held_path, streamed_path) == ("matrix", "window")
    assert pair_keys(a, len(points)).tobytes() == pair_keys(b, len(points)).tobytes()


@given(st.data(), st.sampled_from([np.int32, np.int64]))
def test_components_equal_csgraph(data, dtype):
    # random edges over up to 60 points leave many components and
    # isolated points; a path through the points in a random order needs
    # many hooking rounds; duplicate, reversed and self edges change nothing
    m = data.draw(st.integers(1, 60))
    point = st.integers(0, m - 1)
    pairs = data.draw(st.lists(st.tuples(point, point), max_size=80))
    path = data.draw(st.permutations(range(m)))[: data.draw(st.integers(0, m))]
    pairs += list(zip(path, path[1:]))
    pairs += [(b, a) for a, b in pairs[:5]] + pairs[:3]
    pairs += [(a, a) for a in data.draw(st.lists(point, max_size=4))]
    data.draw(st.randoms()).shuffle(pairs)
    i = np.array([a for a, _ in pairs], dtype=dtype)
    j = np.array([b for _, b in pairs], dtype=dtype)
    want = csgraph_components(m, i, j)
    parent = _union(np.arange(m, dtype=dtype), i, j)
    assert _component_ids(parent).tolist() == want.tolist()
    no_edges = _union(np.arange(m, dtype=dtype), i[:0], j[:0])
    assert _component_ids(no_edges).tolist() == list(range(m))
    # a mask numbers only the components whose smallest point it holds
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    smallest = np.unique(want, return_index=True)[1]  # of each component
    kept = relabel_contiguous(np.where(keep[smallest][want], want, -1))
    assert _component_ids(parent, keep).tolist() == kept.tolist()


@st.composite
def clusters(draw):
    """Distances of up to 60 points in up to 12 tight clusters 100 apart,
    some of one point, so that small k leave many components."""
    n = draw(st.integers(2, 60))
    home = draw(st.lists(st.integers(0, 11), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pts = 100.0 * np.array(home, float)[:, None] + rng.normal(size=(n, 2))
    return pairwise_distances(Dataset(points=pts))


def neighbour_count(data, n):
    """k from 1 to n - 1, the two ends drawn often."""
    return data.draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))


# tie-heavy grids (coincident points by the dozen) and many components;
# subsets down to one point, held and streamed
@given(st.data())
def test_shared_neighbours_equal_the_sparse_product(data):
    cd = data.draw(grids.map(lambda g: g[0]) | clusters())
    k = neighbour_count(data, cd.n)
    which = data.draw(st.sampled_from(["all", "one", "some"]))
    points = {"all": np.arange(cd.n), "one": np.array([cd.n - 1])}.get(which)
    if points is None:
        points = subset(data.draw, cd.n, min_size=1)
    want = sparse_shared_neighbor_components(cd, points, k).tolist()
    for distances in (cd, streamed(cd.points)):
        assert _shared_neighbor_components(distances, points, k).tolist() == want


@given(st.data())
def test_snnc_equals_the_sparse_product(data):
    # component ids numbered by smallest point are already contiguous
    cd = data.draw(grids.map(lambda g: g[0]) | clusters())
    k = neighbour_count(data, cd.n)
    want = sparse_shared_neighbor_components(cd, np.arange(cd.n), k)
    assert snnc(cd, k).tolist() == want.tolist()


@given(st.data())
def test_dbscan_equals_the_textbook_expansion(data):
    # eps is one of the grid's distances, so pairs tie at exactly eps.  The
    # union numbers only the core roots, bitwise as the pair-list form's
    # renumbering of every component did, at one, two and eight workers;
    # blocks of one row spread over the pool.
    cd, _, _ = data.draw(grid(max_points=30))
    d = full_matrix(cd)
    eps = data.draw(st.sampled_from(sorted(set(d[d > 0].tolist()) | {0.5})))
    minpts = data.draw(st.integers(1, 6))
    whole = data.draw(st.booleans())
    points = np.arange(cd.n) if whole else subset(data.draw, cd.n, min_size=1)
    want = component_dbscan(d[np.ix_(points, points)], eps, minpts)
    assert want.tolist() == naive_dbscan(cd.points[points].tolist(), eps, minpts)
    cells = data.draw(st.sampled_from([1, 1 << 18]))
    window = streamed(cd.points)
    for workers in (1, 2, 8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
            mp.setattr(vdpc.dataset, "_BLOCK_CELLS", cells)
            for source, distances in (("window", window), ("matrix", cd)):
                with forcing(source):
                    assert eps_pairs(distances, points, eps)[1] == source
                    got = _dbscan_labels(distances, points, eps, minpts)
                    assert got.tobytes() == want.tobytes()
