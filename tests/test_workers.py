"""The row-block passes run on the calling thread and a thread pool: the
held fill, the d_c count, ρ, δ's triangle, ``nearest``, ``knn``'s row
scan and the ε-pairs, held or streamed.  No result may depend on the
number of worker threads, and no public function of the package may run
off the main thread."""

import contextlib
import importlib
import os
import sys
import threading
import time
import types

import numpy as np
import pytest

import vdpc.dataset
from vdpc import Dataset, pairwise_distances
from vdpc.cli import main
from vdpc.density import cutoff_distance, local_density
from vdpc.errors import DataError

from conftest import BEST_PARAMS, density_mix, streamed
from oracles import full_matrix

LAYERS = ("cli", "vdpc", "density", "baselines", "metrics", "dataset")


def cores(monkeypatch, count):
    """Let the package see ``count`` cores it may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def grid_points():
    # 4 x 4 unit grid, each point twice: most distances are tied
    g = np.arange(4.0)
    return np.repeat(np.stack(np.meshgrid(g, g), -1).reshape(-1, 2), 2, axis=0)


def results(pts, ks):
    cd = pairwise_distances(Dataset(points=pts))
    d_c = cutoff_distance(cd, 5)  # the grid's zeros are 3.2% of its pairs
    n, every = len(pts), np.arange(len(pts))
    order = np.random.default_rng(0).permutation(n)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = every
    nb = cd.eps_neighbors(every, d_c)  # pair keys: the window's come in its order
    return (full_matrix(cd).tobytes(), cd.max_distance,
            [cd.kth_smallest(k) for k in ks], local_density(cd, d_c).tobytes(),
            [v.tobytes() for v in cd.nearest_earlier(order)],
            cd.nearest(every, order[: n // 3], rank).tobytes(),
            cd.knn(every, 5).tobytes(), np.sort(nb.i * np.int64(n) + nb.j).tobytes())


@pytest.mark.parametrize("workers", [2, 8])
@pytest.mark.parametrize("name", ["flame", "grid"])
def test_worker_count_never_changes_a_result(monkeypatch, datasets, name, workers):
    pts = grid_points() if name == "grid" else datasets["flame"].points
    n = len(pts)
    m = n * (n - 1) // 2
    # every rank of the grid; on flame both ends and 98 ranks between
    ks = range(1, m + 1) if name == "grid" else sorted({1, m, *range(1, m, 293)})
    rows = 3 if name == "grid" else 7  # 11 and 35 blocks
    monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", rows * n)
    cores(monkeypatch, 1)
    inline = results(pts, ks)
    cores(monkeypatch, workers)  # 8: as a rule more threads than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        pooled = results(pts, ks)
    finally:
        sys.setswitchinterval(interval)
    assert inline[0] == pooled[0]
    assert inline[1] == pooled[1]
    assert inline[2] == pooled[2]
    assert inline[3] == pooled[3]
    assert inline[4:] == pooled[4:]
    if name == "grid":
        assert inline[2] == sorted(full_matrix(
            pairwise_distances(Dataset(points=pts)))[np.triu_indices(n, 1)].tolist())


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("name", ["flame", "grid"])
def test_streamed_passes_equal_held_at_any_worker_count(monkeypatch, datasets,
                                                        name, workers):
    pts = grid_points() if name == "grid" else datasets["flame"].points
    n = len(pts)
    m = n * (n - 1) // 2
    ks = range(1, m + 1) if name == "grid" else sorted({1, m, *range(1, m, 293)})
    monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", (3 if name == "grid" else 7) * n)
    cores(monkeypatch, 1)
    held = results(pts, ks)
    monkeypatch.setattr(vdpc.dataset, "_HOLD_LIMIT", 0)
    threads = fill_threads(monkeypatch)
    cores(monkeypatch, workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        streamed = results(pts, ks)
    finally:
        sys.setswitchinterval(interval)
    assert streamed == held
    assert bool(threads - {threading.main_thread()}) == (workers > 1)


class QuerySpy:
    """A k-d tree whose queries record the ``workers`` they are given."""

    def __init__(self, tree):
        self.tree, self.workers = tree, []

    def query(self, *args, workers=1, **kwargs):
        self.workers.append(workers)
        return self.tree.query(*args, workers=workers, **kwargs)


@pytest.mark.parametrize("workers", [2, 8])
def test_tree_workers_never_change_delta_or_knn(monkeypatch, workers):
    # δ and the k nearest take their candidates from k-d tree queries
    # (one for δ, one per block of 40 points for knn), which run on one
    # thread per core here however few points they hold
    from scipy.spatial import cKDTree

    pts, _ = density_mix(600)
    monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", 40 * 12)
    monkeypatch.setattr(vdpc.dataset, "_TREE_POOL_MIN", 1)
    got = {}
    for count in (1, workers):
        cores(monkeypatch, count)
        cd = streamed(pts)
        cd._tree = spy = QuerySpy(cKDTree(cd.points))
        order = np.random.default_rng(0).permutation(600)
        got[count] = [v.tobytes() for v in (*cd.nearest_earlier(order),
                                             cd.knn(np.arange(600), 7))]
        assert len(spy.workers) == 1 + 600 // 40 and set(spy.workers) == {count}
    assert got[1] == got[workers]


def test_small_tree_queries_stay_on_the_calling_thread(monkeypatch):
    # δ's one query of all 1,200 points runs on every core; a kNN query of
    # one point fewer than the cutoff runs on the calling thread
    from scipy.spatial import cKDTree

    limit = vdpc.dataset._TREE_POOL_MIN
    cores(monkeypatch, 2)
    cd = streamed(density_mix(1200)[0])
    cd._tree = spy = QuerySpy(cKDTree(cd.points))
    cd.nearest_earlier(np.arange(1200))
    cd.knn(np.arange(limit - 1), 3)
    cd.knn(np.arange(limit), 3)
    assert spy.workers == [2, 1, 2]


@contextlib.contextmanager
def switching_often():
    """Switch threads as often as the interpreter can, inside the block."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_map_shares_each_pass_with_the_calling_thread(monkeypatch, workers):
    # the caller and workers - 1 pool threads each run a task of every
    # pass; the tasks sleep, so every thread is free to claim one
    cores(monkeypatch, workers)
    tasks = list(range(3 * vdpc.dataset._POOL_MIN_BLOCKS))

    def fn(t):
        time.sleep(0.002)
        return t, threading.current_thread()

    with switching_often():
        passes = [vdpc.dataset._map(fn, tasks) for _ in range(3)]
    threads = {threading.main_thread()}
    if workers > 1:
        pool = vdpc.dataset._pool(os.getpid(), workers - 1)
        assert pool._max_workers == len(pool._threads) == workers - 1
        threads |= pool._threads
    for got in passes:
        assert [t for t, _ in got] == tasks
        assert {thread for _, thread in got} == threads
        assert got[0][1] is threading.main_thread()  # the caller starts on task 0


@pytest.mark.parametrize("workers", [2, 8])
def test_map_raises_the_lowest_error_once_every_thread_stops(monkeypatch, workers):
    # task 3 fails after task 5 has, and the last task ends last of all
    cores(monkeypatch, workers)
    tasks = list(range(3 * vdpc.dataset._POOL_MIN_BLOCKS))
    done = []

    def fn(t):
        time.sleep(0.02 if t in (3, tasks[-1]) else 0.002)
        if t in (3, 5):
            raise ValueError(t)
        done.append(t)

    with switching_often(), pytest.raises(ValueError) as raised:
        vdpc.dataset._map(fn, tasks)
    assert raised.value.args == (3,)
    assert sorted(done) == [t for t in tasks if t not in (3, 5)]


def fill_threads(monkeypatch):
    """The threads that run the block source: the pair form of the held
    fill, or the ``cdist`` blocks of the streamed passes."""
    threads = set()
    for name in ("_block", "_pairs"):
        source = getattr(vdpc.dataset.CondensedDistances, name)

        def recorded(*args, _source=source, **kwargs):
            threads.add(threading.current_thread())
            return _source(*args, **kwargs)

        monkeypatch.setattr(vdpc.dataset.CondensedDistances, name, recorded)
    return threads


def test_short_passes_stay_on_the_main_thread(monkeypatch):
    pts = np.random.default_rng(5).normal(size=(80, 2))
    threads = fill_threads(monkeypatch)
    cores(monkeypatch, 2)
    for blocks in (vdpc.dataset._POOL_MIN_BLOCKS - 1, vdpc.dataset._POOL_MIN_BLOCKS):
        rows = -(-80 // blocks)  # 12 and 10 rows a block
        monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", rows * 80)
        threads.clear()
        pairwise_distances(Dataset(points=pts))
        pooled = threads != {threading.main_thread()}
        assert pooled == (blocks == vdpc.dataset._POOL_MIN_BLOCKS)


def overflowing_last_block():
    # 40 ordinary points, then the two of TestPowerOfTwoScale whose
    # distance, 2e308, overflows: only the last row block holds it
    rng = np.random.default_rng(3)
    return np.vstack([rng.normal(size=(40, 2)), [[-1e308, 0.0], [1e308, 0.0]]])


@pytest.mark.parametrize("count", [1, 2])
def test_non_finite_distance_in_a_later_block_is_a_data_error(
        monkeypatch, tmp_path, count):
    pts = overflowing_last_block()
    monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", 4 * len(pts))
    cores(monkeypatch, count)
    with pytest.raises(DataError, match="^distances contain non-finite values$"):
        pairwise_distances(Dataset(points=pts))
    path = tmp_path / "overflow.csv"
    np.savetxt(path, pts, delimiter=",", fmt="%.17g")
    assert main(["run", "--dataset", str(path), "--pct", "2", "--delta-t", "1",
                 "--output-dir", str(tmp_path / "out")]) == 2


def test_public_functions_run_on_the_main_thread(monkeypatch, tmp_path):
    # A span tracer that wraps the package's public functions keeps one
    # span stack, so those functions must all run on the main thread;
    # worker threads may run only closures and private helpers.
    main_thread = threading.main_thread()
    called, off_main = set(), []

    def confined(fn):
        def wrapper(*args, **kwargs):
            called.add(fn.__name__)
            if threading.current_thread() is not main_thread:
                off_main.append(fn.__qualname__)
            return fn(*args, **kwargs)
        return wrapper

    for ns in LAYERS:
        mod = importlib.import_module("vdpc." + ns)
        for attr, value in list(vars(mod).items()):
            if (not attr.startswith("_") and isinstance(value, types.FunctionType)
                    and value.__module__.startswith("vdpc.")):
                monkeypatch.setattr(mod, attr, confined(value))
    threads = fill_threads(monkeypatch)
    monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", 399 * 8)  # 50 blocks
    cores(monkeypatch, 2)
    pct, delta_t = BEST_PARAMS["compound"]  # two density levels: aSNNC and aDBSCAN
    code = importlib.import_module("vdpc.cli").main(
        ["run", "--dataset", "compound", "--pct", str(pct), "--delta-t",
         str(delta_t), "--output-dir", str(tmp_path)])
    assert code == 0
    assert {"pairwise_distances", "local_density", "asnnc", "adbscan_level"} <= called
    assert off_main == []
    assert threads - {main_thread}  # the fill did use the pool
