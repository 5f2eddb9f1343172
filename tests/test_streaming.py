"""Streamed distances against the held matrix.

``pairwise_distances`` holds the n-by-n matrix up to ``_HOLD_LIMIT``
points and streams the distances past it.  Every reader must give the
same answer bitwise either way, so these tests patch the limit to 0
(stream everything) and to a value no input reaches (hold everything)
and compare.
"""

import itertools
import json
import logging
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import vdpc.dataset
from vdpc import (
    DataError,
    Dataset,
    VdpcParams,
    cutoff_distance,
    load_points_csv,
    pairwise_distances,
    vdpc_run,
)
from vdpc.baselines import _dbscan_labels
from vdpc.cli import main
from vdpc.density import _zero_cutoff_message, delta_and_neighbors, local_density

from conftest import BEST_PARAMS, BUNDLED, density_mix, pair_keys
from oracles import full_matrix, pairwise_row_sum, row_block_rho

HOLD_ALL = 1 << 62
T710 = os.path.join(os.path.dirname(__file__), "data", "t710.csv")


def build(pts, limit, monkeypatch):
    monkeypatch.setattr(vdpc.dataset, "_HOLD_LIMIT", limit)
    return pairwise_distances(Dataset(points=pts))


def both(pts, monkeypatch):
    """The held and the streamed distances of ``pts``."""
    held, streamed = build(pts, HOLD_ALL, monkeypatch), build(pts, 0, monkeypatch)
    assert held._square is not None and streamed._square is None
    return held, streamed


def rounded_points(dim, n=120, copies=30):
    """Coordinates rounded to one decimal, the first ``copies`` points
    twice, so that many distances tie and some are 0."""
    base = np.round(np.random.default_rng(dim).normal(size=(n, dim)), 1)
    return np.vstack([base, base[:copies]])


class TestPairForm:
    # 2^±600 goes through the power-of-two rescale
    @pytest.mark.parametrize("factor", [1.0, 1e-3, 1e5, 2.0 ** 600, 2.0 ** -600],
                             ids=["1", "1e-3", "1e5", "2^600", "2^-600"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 9, 16, 17, 64])
    def test_pairs_and_streamed_blocks_equal_cdist(self, dim, factor, monkeypatch):
        pts = rounded_points(dim) * factor
        held, streamed = both(pts, monkeypatch)
        s = held.scale
        assert s == streamed.scale and (s != 1.0) == (factor in (2.0 ** 600,
                                                                 2.0 ** -600))
        want = cdist(pts * s, pts * s) * (1.0 / s)  # the fill's arithmetic
        n = len(pts)
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        assert held._block(slice(0, n)).tobytes() == want.tobytes()
        for cd in (held, streamed):
            assert cd._pairs(i, j).tobytes() == want.tobytes()
            assert cd._pairs(i[:, :1], j).tobytes() == want.tobytes()  # broadcast
        assert streamed._block(slice(0, n)).tobytes() == want.tobytes()
        rows, cols = np.array([5, 0, n - 1, 5]), np.arange(n)[::-3]
        for cd in (held, streamed):
            assert cd._block(rows, cols).tobytes() == want[np.ix_(rows, cols)].tobytes()
            got = np.concatenate(cd._scan(lambda r, block: block, cols))
            assert got.tobytes() == want[np.ix_(cols, cols)].tobytes()


class TestRowSumTree:
    # ``row_sums`` rests on NumPy summing each row of a C-contiguous block
    # by a fixed pairwise tree; a NumPy whose tree differs fails here first
    LENGTHS = [*range(1, 301), 1000, 4097, 8191, 8192, 8193, 10000]

    @pytest.mark.parametrize("values", ["normal", "kernel"])
    def test_the_oracle_rebuilds_sum_axis_1(self, values):
        rng = np.random.default_rng(len(values))
        for m in self.LENGTHS:
            a = rng.normal(size=(4, m))
            if values == "kernel":  # ρ's terms, in [0, 1]
                a = np.exp(-np.square(a * 3))
            assert pairwise_row_sum(a).tobytes() == a.sum(axis=1).tobytes(), m

    @pytest.mark.parametrize("cols", [1, 7, 128, 313])
    @pytest.mark.parametrize("values", ["normal", "kernel"])
    def test_column_sums_equal_the_oracle_of_the_transpose(self, values, cols):
        # ``row_sums`` sums a tile's transpose down its columns
        # (``_column_sums``); its leaves rest on NumPy adding the rows of
        # an axis-0 sum in order, as its 8 accumulators do
        rng = np.random.default_rng(cols)
        for m in [*range(1, 301), 313, 512]:
            a = rng.normal(size=(m, cols))
            if values == "kernel":
                a = np.exp(-np.square(a * 3))
            got = vdpc.dataset._column_sums(a)
            assert got.tobytes() == pairwise_row_sum(a.T).tobytes(), m


def assert_same_answers(held, streamed, pct, eps_quantiles=(0.01, 0.05)):
    """d_c, ρ, δ, ``nneigh``, ``knn``, ``eps_neighbors``, ``nearest``,
    ``row`` and the largest distance, bitwise."""
    n = held.n
    d_c = cutoff_distance(held, pct)
    assert cutoff_distance(streamed, pct) == d_c
    m = n * (n - 1) // 2
    for k in (1, m // 3, m):
        assert streamed.kth_smallest(k) == held.kth_smallest(k)
    rho = local_density(held, d_c)
    assert local_density(streamed, d_c).tobytes() == rho.tobytes()
    want = delta_and_neighbors(held, rho)
    got = delta_and_neighbors(streamed, rho)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    assert streamed.max_distance == held.max_distance
    every = np.arange(n)
    half = every[::2]
    for k in (1, 7, 40):
        for pts in (every, half):
            assert streamed.knn(pts, k).tobytes() == held.knn(pts, k).tobytes()
    upper = np.sort(held._pairs(*np.triu_indices(n, 1)))
    for q in eps_quantiles:
        eps = float(upper[int(q * len(upper))])  # a distance: pairs tie at eps
        for pts, cells in itertools.product((every, half), (None, 1000)):
            with pytest.MonkeyPatch.context() as mp:
                if cells is not None:  # many blocks
                    mp.setattr(vdpc.dataset, "_BLOCK_CELLS", cells)
                a, b = held.eps_neighbors(pts, eps), streamed.eps_neighbors(pts, eps)
            # held, the whole triangle; streamed, the window: the same set
            assert (a.source, b.source) == ("matrix", "window")
            assert pair_keys(a, n).tobytes() == pair_keys(b, n).tobytes()
    rank = np.empty(n, dtype=np.int64)
    rank[want[2]] = every
    cols = every[3::7]
    for r in (None, rank):
        assert (streamed.nearest(every, cols, r).tobytes()
                == held.nearest(every, cols, r).tobytes())
    for i in (0, n // 2, n - 1):
        assert streamed.row(i).tobytes() == held.row(i).tobytes()
        assert not streamed.row(i).flags.writeable


def assert_same_runs(held, streamed, pct, delta_t):
    want = vdpc_run(held, VdpcParams(pct, delta_t))
    got = vdpc_run(streamed, VdpcParams(pct, delta_t))
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.levels == want.levels
    assert [d for _, d in got.derivations] == [d for _, d in want.derivations]
    return want


@pytest.mark.parametrize("name", list(BEST_PARAMS))
def test_streamed_equals_held_on_bundled_sets(name, datasets, monkeypatch):
    held, streamed = both(datasets[name].points, monkeypatch)
    pct, delta_t = BEST_PARAMS[name]
    assert_same_answers(held, streamed, pct)
    assert_same_runs(held, streamed, pct, delta_t)


def test_many_coordinates_have_no_tree_either_way(monkeypatch):
    # 8 coordinates: δ walks the rows in order, ``knn`` and DBSCAN scan
    pts = rounded_points(8, n=300, copies=40)
    held, streamed = both(pts, monkeypatch)
    assert_same_answers(held, streamed, 2.0)
    assert held._tree is None and streamed._tree is None
    assert_same_runs(held, streamed, 2.0, 0.5)


def test_density_mix_streams_like_held(monkeypatch):
    # the generator's clusters differ tenfold in density, the case of
    # several density levels, aSNNC and aDBSCAN
    pts, _ = density_mix(1500)
    held, streamed = both(pts, monkeypatch)
    want = assert_same_runs(held, streamed, 2.0, 2.0)
    assert want.levels.numl >= 2 and want.derivations


def test_t710_cli_artifacts_are_byte_identical(monkeypatch, tmp_path):
    out = {}
    for limit in (HOLD_ALL, 0):
        monkeypatch.setattr(vdpc.dataset, "_HOLD_LIMIT", limit)
        out[limit] = tmp_path / str(limit)
        assert main(["run", "--dataset", T710, "--has-header", "--pct", "2",
                     "--delta-t", "25", "--trace", "--output-dir",
                     str(out[limit])]) == 0
    files = sorted(p.relative_to(out[0]) for p in out[0].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(out[HOLD_ALL])
                           for p in out[HOLD_ALL].rglob("*") if p.is_file())
    assert len(files) > 2
    for rel in files:
        a, b = (out[HOLD_ALL] / rel).read_bytes(), (out[0] / rel).read_bytes()
        if rel.name == "metrics.json":
            a, b = (json.loads(x) for x in (a, b))
            a.pop("runtime_ms"), b.pop("runtime_ms")
        assert a == b, rel


@pytest.fixture(scope="module")
def t710():
    """t710's streamed distances and its run at pct 2, delta_t 25."""
    cd = pairwise_distances(load_points_csv(T710, has_header=True))
    return cd, vdpc_run(cd, VdpcParams(2, 25))


def test_t710_cutoff_holds_a_narrow_bracket(t710, caplog):
    # pct 2 is the 999,900th of 49,995,000 distances.  A bracket of four
    # deviations of its sample rank (about 52 of 135,712 ranks) each side
    # holds about 148 k values, found in one pass.
    cd, _ = t710
    caplog.set_level(logging.DEBUG, logger="vdpc")
    assert cutoff_distance(cd, 2) == 38.5397894416148
    ((k, m, s, lo, hi, held, passes, _, _),) = [
        r.args for r in caplog.records if r.msg.startswith("d_c selection")]
    assert (k, m, s, passes) == (999_900, 49_995_000, 135_712, 1)
    assert (round(lo, 2), round(hi, 2)) == (37.37, 40.85)
    assert held < 300_000


def test_t710_cutoff_computes_under_a_quarter_of_the_pairs(t710, caplog):
    # t710's 10,000 points span about 700 along x and 450 along y; a pair
    # within the bracket's upper end (40.85 above) of each other lies
    # within it along x, so sorted along x, the counting pass computes
    # about 16% of the upper cells
    cd, _ = t710
    caplog.set_level(logging.DEBUG, logger="vdpc")
    cutoff_distance(cd, 2)
    ((_, m, *_, cells, source),) = [
        r.args for r in caplog.records if r.msg.startswith("d_c selection")]
    assert source == "window along coordinate 0"
    assert cells < m / 4


def test_the_window_reaches_a_gap_whose_square_underflows(monkeypatch):
    # 1e-160 squared is subnormal, so ``cdist`` gives the pair 6 ppm less
    # than its gap along x, below the gap less 2^-20; four ulps of the
    # largest coordinate still bring it into the window of the first pass
    # (of one row per block).  For the ε-pairs of the first two points
    # alone that is the largest coordinate of all points, 1: four ulps of
    # their own, 1e-160, would not reach the gap.
    pts = np.array([[0.0, 0.0], [1e-160, 0.0], [1.0, 0.0], [1.0, 0.5]])
    cd = build(pts, 0, monkeypatch)
    monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", 1)
    d = cd._pairs(np.array([0]), np.array([1]))[0]
    assert cd.scale == 1.0 and d < 1e-160 * (1 - 2.0 ** -20)
    widths = []
    monkeypatch.setattr(vdpc.dataset, "_bracket", lambda sample, k, m, width: (
        widths.append(width) or ((d, d) if width == 4.0 else (-np.inf, np.inf))))
    assert cd.kth_smallest(1) == d and widths == [4.0]
    eps = float(np.nextafter(d, np.inf))
    for sub in (np.arange(4), np.arange(2)):
        nb = cd.eps_neighbors(sub, eps)
        assert (nb.source, nb.i.tolist(), nb.j.tolist()) == ("window", [0], [1])


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_rho_pass_finds_the_largest_distance(workers, monkeypatch):
    # the windowed d_c count skips the farthest pairs, so ρ's full pass
    # keeps the largest distance, and no pass of its own runs for δ; tiles
    # of at most 128 columns cut 600 rows into 8 segments, one task each,
    # enough for the pool at 2 and 8 workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    monkeypatch.setattr(vdpc.dataset, "_TILE", 128)
    pts, _ = density_mix(600)
    held, streamed = both(pts, monkeypatch)
    d_c = cutoff_distance(streamed, 2)
    assert streamed._max is None
    tasks, run = [], vdpc.dataset._map
    with monkeypatch.context() as mp:
        mp.setattr(vdpc.dataset, "_map", lambda fn, t: tasks.append(len(t)) or run(fn, t))
        local_density(streamed, d_c)
    assert tasks == [8] and tasks[0] >= vdpc.dataset._POOL_MIN_BLOCKS
    full = max(streamed._scan(lambda r, block: block.max()))
    assert streamed._max == full == held.max_distance
    calls = []
    monkeypatch.setattr(streamed, "_scan", lambda *a, **k: calls.append(a))
    delta_and_neighbors(streamed, local_density(held, d_c))
    assert calls == []


def test_streamed_t710_transients_stay_near_one_block_per_worker(t710, monkeypatch):
    # ``tracemalloc`` peaks with two threads, each computing 2 MB blocks:
    # d_c's counting pass and the values in its bracket; ρ's kernel, which
    # works in the block ``cdist`` returns; δ's candidates from the k-d
    # tree, 17 a point; and DBSCAN on level 2 (9,993 points), whose
    # window's pairs are kept by blocks as int32 positions
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cd, run = t710
    ((level, derivation),) = run.derivations
    pts = np.flatnonzero(run.point_level == level)
    assert (level, len(pts)) == (2, 9993)
    stages = (
        ("kth_smallest", lambda: cutoff_distance(cd, 2), 10e6),
        ("local_density", lambda: local_density(cd, run.profile.d_c), 6e6),
        ("delta_and_neighbors", lambda: delta_and_neighbors(cd, run.profile.rho), 8e6),
        ("_dbscan_labels", lambda: _dbscan_labels(
            cd, pts, derivation.eps, derivation.minpts), 11e6),
    )
    peaks = {}
    for name, stage, bound in stages:
        tracemalloc.start()
        try:
            stage()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[name] < bound, peaks


def test_bundled_sets_hold_and_t710_streams(distances):
    for cd in distances.values():
        assert cd.n <= vdpc.dataset._HOLD_LIMIT and cd._square is not None
    t710 = pairwise_distances(load_points_csv(T710, has_header=True))
    assert t710._square is None
    assert not [v for v in vars(t710).values()
                if isinstance(v, np.ndarray) and v.size > t710.n * 2]


def test_non_finite_distances_are_the_same_error(monkeypatch, tmp_path, capsys):
    # finite coordinates whose distance, 2e308, overflows once the
    # rescale is undone; the bounding box cannot rule it out, so a
    # streamed pass checks every distance
    pts = np.vstack([np.random.default_rng(3).normal(size=(40, 2)),
                     [[-1e308, 0.0], [1e308, 0.0]]])
    path = tmp_path / "overflow.csv"
    np.savetxt(path, pts, delimiter=",", fmt="%.17g")
    messages = []
    for limit in (HOLD_ALL, 0):
        monkeypatch.setattr(vdpc.dataset, "_HOLD_LIMIT", limit)
        with pytest.raises(DataError, match="^distances contain non-finite values$"):
            pairwise_distances(Dataset(points=pts))
        assert main(["run", "--dataset", str(path), "--pct", "2", "--delta-t",
                     "1", "--output-dir", str(tmp_path / "out")]) == 2
        messages.append(capsys.readouterr().err)
    assert messages == ["vdpc: data error: distances contain non-finite values\n"] * 2


def test_large_finite_coordinates_stream_without_a_check_pass(monkeypatch):
    # 2^600 needs the rescale, but its bounding box bounds every distance
    # well below overflow, so no pass runs before the first reader
    calls = []
    block = vdpc.dataset.CondensedDistances._block
    monkeypatch.setattr(vdpc.dataset.CondensedDistances, "_block",
                        lambda self, *a, **k: calls.append(a) or block(self, *a, **k))
    pts = rounded_points(2) * 2.0 ** 600
    streamed = build(pts, 0, monkeypatch)
    assert streamed.scale != 1.0 and calls == []
    assert streamed.max_distance == build(pts, HOLD_ALL, monkeypatch).max_distance


def test_only_held_matrices_need_memory(monkeypatch, tmp_path):
    # a host that reports less memory than the 8·n² bytes of the matrix
    pts, _ = density_mix(600)
    sysconf = os.sysconf
    pages = {"SC_PHYS_PAGES": 8 * 600 * 600 // 4096 - 1, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name, sysconf(name)))
    with pytest.raises(DataError, match="needs 2880000 bytes.*use fewer points"):
        build(pts, HOLD_ALL, monkeypatch)
    streamed = build(pts, 0, monkeypatch)
    assert vdpc_run(streamed, VdpcParams(2.0, 2.0)).k >= 2
    path = tmp_path / "d.txt"
    path.write_text(" ".join(map(repr, streamed._pairs(*np.triu_indices(600, 1)).tolist())))
    with pytest.raises(DataError, match="needs 2880000 bytes"):
        vdpc.dataset.load_condensed_matrix(path, 600)


class TestTilePass:
    """ρ by ``row_sums``' tiles against the full row blocks it replaced."""

    @pytest.mark.parametrize("tile", [512, 128])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_rho_equals_the_row_blocks_on_bundled_sets(
            self, name, tile, distances, streamed_distances, monkeypatch):
        monkeypatch.setattr(vdpc.dataset, "_TILE", tile)
        for cd in (distances[name], streamed_distances[name]):
            for pct in (0.5, 2, 5):
                d_c = cutoff_distance(cd, pct)
                assert local_density(cd, d_c).tobytes() == row_block_rho(cd, d_c).tobytes()

    @pytest.mark.parametrize("n", [2, 7, 8, 128, 129, 130, 257])
    def test_rho_at_the_tree_edges(self, n, monkeypatch):
        # fewer than 8 columns, one leaf, and the first splits of a node
        monkeypatch.setattr(vdpc.dataset, "_TILE", 128)
        pts = np.random.default_rng(n).normal(size=(n, 3))
        for cd in both(pts, monkeypatch):
            d_c = cutoff_distance(cd, 2)
            assert local_density(cd, d_c).tobytes() == row_block_rho(cd, d_c).tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_rho_at_each_worker_count(self, workers, monkeypatch):
        # tiles of at most 128 columns: 1,000 points make 8 segments, one
        # task each; capped at 4 or 1, the sums are kept for coarser nodes
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        monkeypatch.setattr(vdpc.dataset, "_TILE", 128)
        pts = np.random.default_rng(5).normal(size=(1000, 3))
        for cd in both(pts, monkeypatch):
            d_c = cutoff_distance(cd, 2)
            want = row_block_rho(cd, d_c).tobytes()
            for segments in (64, 4, 1):
                monkeypatch.setattr(vdpc.dataset, "_SEGMENTS", segments)
                assert local_density(cd, d_c).tobytes() == want, segments

    def test_rho_at_a_subnormal_cutoff(self, datasets, monkeypatch):
        # 1/d_c overflows, so the kernel divides by d_c
        monkeypatch.setattr(vdpc.dataset, "_TILE", 128)
        for cd in both(datasets["flame"].points * 2.0 ** -1060, monkeypatch):
            d_c = cutoff_distance(cd, 5)
            assert not math.isfinite(1.0 / d_c)
            assert local_density(cd, d_c).tobytes() == row_block_rho(cd, d_c).tobytes()

    @pytest.mark.parametrize("pct", [0.5, 2])
    def test_rho_on_t710(self, t710, pct, monkeypatch):
        cd, _ = t710
        d_c = cutoff_distance(cd, pct)
        want = row_block_rho(cd, d_c).tobytes()
        for workers in (1, 2, 8):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(workers)))
            assert local_density(cd, d_c).tobytes() == want

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_the_pass_finds_the_largest_distance(self, workers, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        monkeypatch.setattr(vdpc.dataset, "_TILE", 128)
        pts, _ = density_mix(1000)
        streamed = build(pts, 0, monkeypatch)
        assert streamed._max is None
        local_density(streamed, cutoff_distance(streamed, 2))
        assert streamed._max == vdpc.dataset._checked_max(full_matrix(streamed))

    @pytest.mark.parametrize("limit", [HOLD_ALL, 0])
    def test_zero_count_of_duplicate_points(self, limit, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(vdpc.dataset, "_TILE", 128)
        pts = rounded_points(2, n=1000, copies=300)  # 1,300 points: 16 segments
        cd = build(pts, limit, monkeypatch)
        upper = full_matrix(cd)[np.triu_indices(cd.n, 1)]
        zeros, m = np.count_nonzero(upper == 0), len(upper)
        assert zeros >= 300
        assert ("%.4g%% of the %d pairwise distances are zero"
                % (100.0 * zeros / m, m)) in _zero_cutoff_message(cd, 0.01)
