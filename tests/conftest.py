import contextlib
import logging
import math

import numpy as np
import pytest
from hypothesis import settings

import vdpc.dataset
from vdpc import Dataset, pairwise_distances
from vdpc.cli import load_bundled

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and quick.
settings.register_profile(
    "vdpc", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("vdpc")

BUNDLED = ("flame", "aggregation", "r15", "compound", "jain", "pathbased")

# best-performing (pct, delta_t) per bundled dataset, as used by the
# reference expectations
BEST_PARAMS = {
    "flame": (5, 5.5),
    "aggregation": (4, 2.9),
    "r15": (5, 1.0),
    "compound": (1.9, 1.39),
    "jain": (50, 5.5),
    "pathbased": (0.4, 3.5),
}

_cache: dict = {}


@pytest.fixture(scope="session")
def datasets():
    if "ds" not in _cache:
        _cache["ds"] = {name: load_bundled(name) for name in BUNDLED}
    return _cache["ds"]


@pytest.fixture(scope="session")
def distances(datasets):
    if "cd" not in _cache:
        _cache["cd"] = {n: pairwise_distances(d) for n, d in datasets.items()}
    return _cache["cd"]


def streamed(points):
    """The distances of ``points`` streamed, however few they are:
    ``cdist`` computes them, a k-d tree may propose δ's and kNN's
    candidates, and d_c's count and the ε-pairs read a window along the
    widest coordinate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vdpc.dataset, "_HOLD_LIMIT", 0)
        return pairwise_distances(Dataset(points=points))


@pytest.fixture(scope="session")
def streamed_distances(datasets):
    if "streamed" not in _cache:
        _cache["streamed"] = {n: streamed(d.points) for n, d in datasets.items()}
    return _cache["streamed"]


@contextlib.contextmanager
def forcing(source):
    """``eps_neighbors`` as it is ("window": streamed distances and a
    normal Eps take the window) or with the whole triangle forced
    ("matrix"); ``eps_pairs`` tells which one a call took."""
    with pytest.MonkeyPatch.context() as mp:
        if source == "matrix":
            mp.setattr(vdpc.dataset.CondensedDistances, "_window",
                       lambda self, hi, pts: None)
        yield


def eps_pairs(cd, pts, eps):
    """``cd.eps_neighbors(pts, eps)``, the pairs (i, j), and the path its
    ``eps-pairs`` debug line names: "window" along a coordinate or
    "matrix", the whole triangle."""
    log, records = logging.getLogger("vdpc"), []
    handler, level = logging.Handler(), log.level
    handler.emit = records.append
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        pairs = cd.eps_neighbors(pts, eps)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    (path,) = [r.args[-1] for r in records if r.msg.startswith("eps-pairs")]
    return pairs, "matrix" if path == "whole triangle" else "window"


def pair_keys(pairs, m):
    """The ε-pairs (i, j) as ascending keys i*m + j, after checking that
    each has i < j."""
    i, j = pairs
    assert np.all(i < j)
    return np.sort(i.astype(np.int64) * m + j)


def random_points(rng: np.random.Generator, n: int, dim: int = 2) -> np.ndarray:
    """Clustered random point set with generic (tie-free) distances."""
    centers = rng.uniform(-10, 10, size=(rng.integers(1, 4), dim))
    pick = rng.integers(0, len(centers), size=n)
    return centers[pick] + rng.normal(0, rng.uniform(0.3, 2.0), size=(n, dim))


def density_mix(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """n points and their cluster labels: six round Gaussian clusters of
    about n/6 points on a 3-by-2 grid 30 apart, three of spread 1 and
    three of spread sqrt(10), so their densities differ tenfold."""
    rng = np.random.default_rng(seed)
    centers = np.array([(x, y) for y in (0.0, 30.0) for x in (0.0, 30.0, 60.0)])
    spread = np.array([1.0, 1.0, 1.0, math.sqrt(10), math.sqrt(10), math.sqrt(10)])
    labels = np.arange(n) % 6
    pts = centers[labels] + rng.normal(size=(n, 2)) * spread[labels, None]
    return pts, labels
