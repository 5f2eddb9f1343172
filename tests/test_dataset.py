import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist, squareform

import vdpc.dataset
from vdpc import (
    CondensedDistances,
    DataError,
    Dataset,
    DbscanParams,
    VdpcParams,
    cutoff_distance,
    dbscan,
    load_condensed_matrix,
    load_points_csv,
    pairwise_distances,
    vdpc_run,
)

from vdpc.baselines import _dbscan_labels

from conftest import BEST_PARAMS, random_points
from oracles import full_matrix


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadPointsCsv:
    def test_plain_coordinates(self, tmp_path):
        ds = load_points_csv(write(tmp_path, "0,0\n1,0\n0,1\n"))
        assert ds.n == 3 and ds.dim == 2
        assert ds.ground_truth is None
        np.testing.assert_allclose(ds.points, [[0, 0], [1, 0], [0, 1]])

    def test_header_and_label_column(self, tmp_path):
        ds = load_points_csv(
            write(tmp_path, "x,y,label\n0,0,1\n1,0,1\n5,5,2\n"),
            has_header=True,
            label_column=-1,
        )
        assert ds.dim == 2
        np.testing.assert_array_equal(ds.ground_truth, [1, 1, 2])

    def test_positive_label_column(self, tmp_path):
        ds = load_points_csv(write(tmp_path, "7,0,0\n8,1,0\n", name="d.csv"),
                             label_column=0)
        np.testing.assert_array_equal(ds.ground_truth, [7, 8])
        np.testing.assert_allclose(ds.points, [[0, 0], [1, 0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_points_csv(tmp_path / "absent.csv")

    def test_bad_float_reports_line(self, tmp_path):
        path = write(tmp_path, "0,0\n1,oops\n2,2\n")
        with pytest.raises(DataError, match="line 2"):
            load_points_csv(path)

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(DataError, match="line 3"):
            load_points_csv(write(tmp_path, "0,0\n1,1\n2\n"))

    def test_non_integral_label(self, tmp_path):
        with pytest.raises(DataError):
            load_points_csv(write(tmp_path, "0,0,1.5\n1,1,2\n"), label_column=-1)

    def test_single_point_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_points_csv(write(tmp_path, "0,0\n"))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_points_csv(write(tmp_path, "0,0\nnan,1\n"))

    @pytest.mark.parametrize("header", ["x,y\n", ""])
    def test_non_finite_reports_its_line(self, tmp_path, header):
        # blank lines before the bad row still count as lines
        path = write(tmp_path, header + "0,0\n\n\n1,1\n2,inf\n")
        line = 5 + bool(header)
        with pytest.raises(DataError, match="line %d: non-finite value" % line):
            load_points_csv(path, has_header=bool(header))

    def test_labels_beyond_float_integers_are_refused(self, tmp_path):
        # 1e20 and 2e20 would both cast to -2^63; 2^53 itself is exact
        path = write(tmp_path, "0,0,%d\n1,1,1\n" % 2**53)
        assert load_points_csv(path, label_column=2).ground_truth[0] == 2**53
        path = write(tmp_path, "0,0,1e20\n1,1,2e20\n5,5,1e20\n")
        with pytest.raises(DataError, match=r"data\.csv: label column -1 .*2\^53"):
            load_points_csv(path, label_column=-1)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf0,0\n1,1\n")
        np.testing.assert_array_equal(load_points_csv(path).points, [[0, 0], [1, 1]])

    def test_arrays_are_readonly(self, tmp_path):
        ds = load_points_csv(write(tmp_path, "0,0\n1,1\n"))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 9.0


class TestDataset:
    def test_ground_truth_length_checked(self):
        with pytest.raises(DataError):
            Dataset(points=np.zeros((3, 2)), ground_truth=np.array([1, 2]))

    def test_ground_truth_must_be_exact_integers(self):
        pts = np.array([[0.0, 0], [1, 0], [2, 0]])
        for gt, why in (([1e20, 2e20, 1.0], r"beyond ±2\^53"),
                        ([1.0, 2.0, 1.5], "non-integer"),
                        ([1.0, np.nan, 2.0], "non-integer"),
                        (np.array([2**63, 0, 1], dtype=np.uint64), "int64"),
                        (["a", "b", "c"], "int64")):
            with pytest.raises(DataError, match=why):
                Dataset(points=pts, ground_truth=np.array(gt))
        kept = (np.array([2.0**53, -(2.0**53), 7.0]),
                np.array([2**62, -1, 0]), np.array([True, False, True]))
        for gt in kept:
            got = Dataset(points=pts, ground_truth=gt).ground_truth
            assert got.dtype == np.int64
            assert got.tolist() == [int(v) for v in gt]

    def test_points_without_coordinates_are_refused(self):
        with pytest.raises(DataError, match="at least one coordinate"):
            Dataset(points=np.zeros((5, 0)))

    def test_bundled_fixture_shapes(self, datasets):
        sizes = {"flame": 240, "aggregation": 788, "r15": 600,
                 "compound": 399, "jain": 373, "pathbased": 300}
        for name, n in sizes.items():
            assert datasets[name].n == n
            assert datasets[name].dim == 2
            assert datasets[name].ground_truth is not None


class TestCondensedDistances:
    def test_matches_scipy(self, rng=np.random.default_rng(0)):
        pts = rng.normal(size=(12, 3))
        cd = pairwise_distances(Dataset(points=pts))
        ref = pdist(pts)
        np.testing.assert_allclose(cd._square, squareform(ref), atol=0)

    def test_condensed_input_layout(self):
        # condensed layout: (0,1) -> 0, (0,2) -> 1, (1,2) -> 2
        cd = CondensedDistances(n=3, d=np.array([3.0, 4.0, 5.0]))
        np.testing.assert_array_equal(cd._square, [[0, 3, 4], [3, 0, 5], [4, 5, 0]])

    def test_max_distance(self):
        pts = np.array([[0.0, 0], [1, 0], [10, 0]])
        cd = pairwise_distances(Dataset(points=pts))
        assert cd.max_distance == 10.0

    def test_validation(self):
        with pytest.raises(DataError):
            CondensedDistances(n=4, d=np.ones(3))  # needs C(4,2)=6 entries
        with pytest.raises(DataError):
            CondensedDistances(n=3, d=np.array([1.0, -2.0, 1.0]))
        with pytest.raises(DataError):
            CondensedDistances(n=3, d=np.array([1.0, np.nan, 1.0]))


class TestBlocks:
    """``CondensedDistances.blocks`` and ``row`` against direct indexing
    of the matrix."""

    @pytest.mark.parametrize("block_cells", [1, 3000])
    def test_blocks_join_into_direct_indexing(self, monkeypatch, block_cells):
        monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(5)
        cd = pairwise_distances(Dataset(points=rng.normal(size=(150, 2))))
        sq = cd._square
        rows, cols = rng.permutation(150)[:100], rng.permutation(150)[:40]
        for args, want in (((), sq), ((rows,), sq[rows]),
                           ((rows, cols), sq[np.ix_(rows, cols)])):
            parts = list(cd.blocks(*args))
            step = max(1, block_cells // want.shape[1])  # as many rows as fit
            assert [(r.start, r.stop) for r, _ in parts] == [
                (a, min(a + step, len(want))) for a in range(0, len(want), step)]
            for r, block in parts:
                assert len(block) == 1 or block.size <= block_cells
                assert block.shape == (r.stop - r.start, want.shape[1])
            assert np.concatenate([b for _, b in parts]).tobytes() == want.tobytes()
        assert list(cd.blocks(rows[:0])) == []
        assert list(cd.blocks(rows[:0], cols)) == []

    def test_only_row_selections_may_be_written(self):
        rng = np.random.default_rng(6)
        cd = pairwise_distances(Dataset(points=rng.normal(size=(20, 2))))
        before = cd._square.copy()
        for _, block in cd.blocks():
            assert np.shares_memory(block, cd._square)
            with pytest.raises(ValueError):
                block[0, 0] = -1.0
        rows = np.array([3, 0, 7])
        for args in ((rows,), (rows, rows)):
            for _, block in cd.blocks(*args):
                block[...] = -1.0
        assert cd._square.tobytes() == before.tobytes()

    def test_rows_equal_blocks_and_only_selections_may_be_written(self, distances):
        cd = distances["flame"]
        full = full_matrix(cd)
        cols = np.array([5, 0, cd.n - 1, 5])
        for i in range(cd.n):
            assert cd.row(i).tobytes() == full[i].tobytes()
            assert cd.row(i, cols).tobytes() == full[i, cols].tobytes()
        view = cd.row(3)
        assert np.shares_memory(view, cd._square)
        with pytest.raises(ValueError):
            view[0] = -1.0
        cd.row(3, cols)[...] = -1.0
        assert full_matrix(cd).tobytes() == full.tobytes()


def test_private_dataset_names_stay_in_dataset():
    # The matrix layout and its row-block rule are ``dataset``'s to know;
    # other modules read the distances through ``CondensedDistances``,
    # never its matrix (``np.square`` is NumPy's, not the matrix).
    leaks = []
    for path in sorted(Path(vdpc.dataset.__file__).parent.glob("*.py")):
        if path.name == "dataset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "dataset", "vdpc.dataset"
            ):
                leaks += [(path.name, a.name) for a in node.names
                          if a.name.startswith("_") and a.name != "_readonly"]
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("square", "_square")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("np", "numpy"))):
                leaks.append((path.name, node.attr, node.lineno))
    assert leaks == []


class TestDistanceMatrix:
    def point_sets(self, datasets):
        rng = np.random.default_rng(3)
        sets = [ds.points for ds in datasets.values()]
        for dim in (1, 2, 3, 7, 16, 64):
            n = int(rng.integers(2, 90))
            sets.append(rng.normal(size=(n, dim)) * 10.0 ** int(rng.integers(-3, 4)))
        return sets

    @pytest.mark.parametrize("block_cells", [None, 500])
    def test_bitwise_equal_to_squareform_pdist(self, datasets, monkeypatch,
                                               block_cells):
        if block_cells is not None:  # many row blocks, some of one row
            monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", block_cells)
        for pts in self.point_sets(datasets):
            cd = pairwise_distances(Dataset(points=pts))
            assert cd._square.tobytes() == squareform(pdist(pts)).tobytes()
            assert cd.max_distance == pdist(pts).max()

    def test_one_copy_of_the_distances(self, datasets):
        ds = datasets["aggregation"]
        cd = pairwise_distances(ds)
        cutoff_distance(cd, 2)
        # the coordinates are a reference to the dataset's, not a copy
        assert cd.scale == 1.0 and np.shares_memory(cd.points, ds.points)
        held = [v for v in vars(cd).values()
                if isinstance(v, np.ndarray) and v is not cd.points]
        assert sum(v.nbytes for v in held) == 8 * ds.n ** 2
        for gone in ("u", "d", "index", "dist"):
            assert not hasattr(cd, gone)

    def test_no_full_sort_of_the_distances(self, datasets, monkeypatch):
        ds = datasets["flame"]
        m = ds.n * (ds.n - 1) // 2
        for name in ("sort", "argsort"):
            original = getattr(np, name)

            def guarded(a, *args, _original=original, **kwargs):
                assert np.size(a) < m, "a sort over all pairwise distances"
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np, name, guarded)
        vdpc_run(ds, VdpcParams(*BEST_PARAMS["flame"]))

    def test_matrix_larger_than_memory_is_refused(self):
        ds = Dataset(points=np.arange(2_000_000.0).reshape(-1, 1))
        with pytest.raises(DataError, match="32000000000000 bytes.*use fewer points"):
            pairwise_distances(ds)


class TestLoadCondensedMatrix:
    def test_round_trip(self, tmp_path):
        d = np.array([1.0, 2.5, 3.25])
        path = tmp_path / "m.txt"
        path.write_text("1.0, 2.5\n3.25\n")
        cd = load_condensed_matrix(path, n=3)
        np.testing.assert_allclose(cd._square, squareform(d))

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2 3 4\n")
        with pytest.raises(DataError):
            load_condensed_matrix(path, n=3)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1.0, 2.5\n3.25\n", encoding="utf-8-sig")
        assert load_condensed_matrix(path, n=3).kth_smallest(3) == 3.25

    def test_round_trips_through_d(self, tmp_path):
        pts = np.random.default_rng(4).normal(size=(30, 3))
        ref = pdist(pts)
        path = tmp_path / "m.txt"
        path.write_text("\n".join(repr(v) for v in ref.tolist()))
        cd = load_condensed_matrix(path, n=30)
        assert cd._square.tobytes() == squareform(ref).tobytes()
        assert cd.max_distance == ref.max()


def both_sources(cd, pts, eps):
    """The ε-neighbourhoods of ``pts`` from the tree and from the matrix,
    each forced, checked equal bitwise; returns the tree's."""
    r = eps * cd.scale * vdpc.dataset._MARGIN
    tree = cd._tree_neighbors(cKDTree(cd.points[pts]), r, pts, eps)
    matrix = cd._matrix_neighbors(pts, eps)
    assert tree.counts.tobytes() == matrix.counts.tobytes()
    for i in range(len(pts)):
        assert tree.near(i).tobytes() == matrix.near(i).astype(np.intp).tobytes()
    return tree


def assert_same_labels(cd, eps, minpts_values, monkeypatch):
    """``_dbscan_labels`` over all points is bitwise the same with the
    tree forced and with the matrix forced."""
    pts = np.arange(cd.n)
    monkeypatch.setattr(vdpc.dataset, "_TREE_MAX_DIM", 1 << 30)
    labels = {}
    for source, share in (("tree", 1), ("matrix", math.inf)):
        monkeypatch.setattr(vdpc.dataset, "_SPARSE_SHARE", share)
        assert cd.eps_neighbors(pts, eps).source == source
        labels[source] = [_dbscan_labels(cd, pts, eps, minpts).tobytes()
                          for minpts in minpts_values]
    monkeypatch.undo()
    assert labels["tree"] == labels["matrix"]


class NoPairs(cKDTree):
    def query_pairs(self, *args, **kwargs):
        raise AssertionError("the tree was asked for pairs")


class TestEpsNeighbors:
    def test_sources_agree_on_bundled_sets(self, distances, monkeypatch):
        rng = np.random.default_rng(5)
        for cd in distances.values():
            upper = full_matrix(cd)[np.triu_indices(cd.n, 1)]
            half = np.sort(rng.choice(cd.n, cd.n // 2, replace=False))
            for q in (0.002, 0.01, 0.05, 0.2):
                # a quantile that is a distance: pairs at exactly eps tie
                eps = float(np.quantile(upper, q, method="lower"))
                for pts in (np.arange(cd.n), half):
                    both_sources(cd, pts, eps)
                assert_same_labels(cd, eps, (1, 3, 6, 12), monkeypatch)

    @pytest.mark.parametrize("eps", [1.0, math.sqrt(2.0)])
    def test_ties_at_eps_are_excluded_on_a_grid(self, eps, monkeypatch):
        pts = np.array([(x, y) for x in range(12) for y in range(12)], float)
        cd = pairwise_distances(Dataset(points=pts))
        nb = both_sources(cd, np.arange(144), eps)
        # at eps = 1 only the point itself; at sqrt(2) its axis neighbours
        # join, and the diagonal ones, at exactly sqrt(2), do not
        edge = (pts == 0) | (pts == 11)
        want = 1 if eps == 1.0 else 5 - edge.sum(axis=1)
        np.testing.assert_array_equal(nb.counts, want)
        assert_same_labels(cd, eps, (1, 3, 5), monkeypatch)

    @pytest.mark.parametrize("dim", [1, 2, 8, 64])
    def test_sources_agree_in_any_dimension(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        pts = random_points(rng, 160, dim)
        cd = pairwise_distances(Dataset(points=pts))
        upper = full_matrix(cd)[np.triu_indices(cd.n, 1)]
        # quantiles tie with a pair; one ulp above a distance keeps the
        # pair, whose tree distance may round either side of eps
        eps_values = [float(np.quantile(upper, q, method="lower"))
                      for q in (0.005, 0.03, 0.1)]
        eps_values += [float(np.nextafter(d, np.inf))
                       for d in rng.choice(np.sort(upper)[: len(upper) // 10], 20)]
        for eps in eps_values:
            both_sources(cd, np.arange(cd.n), eps)
        for eps in eps_values[:3]:
            assert_same_labels(cd, eps, (4,), monkeypatch)

    def test_precomputed_distances_never_use_the_tree(self, datasets, tmp_path,
                                                      monkeypatch):
        ds = datasets["flame"]
        path = tmp_path / "d.txt"
        path.write_text("\n".join(map(repr, pdist(ds.points).tolist())))
        want = dbscan(pairwise_distances(ds), DbscanParams(1.0, 4))
        monkeypatch.setattr(vdpc.dataset, "cKDTree", NoPairs)
        cd = load_condensed_matrix(path, ds.n)
        assert cd.points is None
        assert cd.eps_neighbors(np.arange(ds.n), 1.0).source == "matrix"
        np.testing.assert_array_equal(dbscan(cd, DbscanParams(1.0, 4)), want)

    def test_dense_eps_never_uses_the_tree(self, distances, monkeypatch):
        monkeypatch.setattr(vdpc.dataset, "cKDTree", NoPairs)
        for cd in distances.values():
            for eps in (cd.max_distance, 2 * cd.max_distance):
                labels = dbscan(cd, DbscanParams(eps, 2))
                assert labels.min() == 0  # no noise once eps spans the set

    def test_sparse_bundled_level_uses_the_tree(self, datasets, monkeypatch):
        cd = pairwise_distances(datasets["pathbased"])
        params = VdpcParams(0.4, 4.2)
        want = vdpc_run(cd, params)

        def no_scan(*args):
            raise AssertionError("the matrix rows were scanned")

        monkeypatch.setattr(CondensedDistances, "_matrix_neighbors", no_scan)
        got = vdpc_run(pairwise_distances(datasets["pathbased"]), params)
        assert got.derivations  # the level went through DBSCAN
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_many_coordinates_use_the_matrix(self):
        pts = random_points(np.random.default_rng(0), 200, 64)
        cd = pairwise_distances(Dataset(points=pts))
        eps = float(np.quantile(full_matrix(cd), 0.02))  # sparse, but 64-D
        assert cd.eps_neighbors(np.arange(cd.n), eps).source == "matrix"


    def test_radius_too_small_to_square_uses_the_matrix(self, distances):
        cd = distances["flame"]
        nb = cd.eps_neighbors(np.arange(cd.n), 1e-160)  # eps² underflows
        assert nb.source == "matrix"
        np.testing.assert_array_equal(nb.counts, 1)


class TestPowerOfTwoScale:
    @pytest.mark.parametrize("e", [600, -600])
    @pytest.mark.parametrize("name", ["flame", "pathbased"])
    def test_scaled_points_give_scaled_distances_and_equal_labels(
            self, datasets, name, e):
        ds, f = datasets[name], 2.0 ** e
        cd = pairwise_distances(ds)
        cd_f = pairwise_distances(Dataset(points=ds.points * f))
        assert cd_f.scale != 1.0
        assert cd_f._square.tobytes() == (cd._square * f).tobytes()
        assert cd_f.max_distance == cd.max_distance * f
        pct, delta_t = BEST_PARAMS[name]
        want = vdpc_run(cd, VdpcParams(pct, delta_t))
        got = vdpc_run(cd_f, VdpcParams(pct, delta_t * f))
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.profile.rho.tobytes() == want.profile.rho.tobytes()
        assert got.profile.d_c == want.profile.d_c * f
        assert [d.eps for _, d in got.derivations] == [
            d.eps * f for _, d in want.derivations]
        eps = float(np.quantile(full_matrix(cd), 0.02, method="lower"))
        assert cd_f.eps_neighbors(np.arange(ds.n), eps * f).source == "tree"
        np.testing.assert_array_equal(
            dbscan(cd_f, DbscanParams(eps * f, 4)), dbscan(cd, DbscanParams(eps, 4)))

    def test_tiny_coordinates_no_longer_underflow(self, datasets):
        ds = datasets["flame"]
        cd = pairwise_distances(Dataset(points=ds.points * 1e-200))
        assert np.count_nonzero(cd._square) == np.count_nonzero(
            pairwise_distances(ds)._square)

    def test_overflowing_distances_are_a_data_error(self):
        # The coordinates are finite, but the distance between the first
        # two is 2e308, which overflows once the rescale is undone.
        pts = np.array([[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]])
        with pytest.raises(DataError, match="^distances contain non-finite values$"):
            pairwise_distances(Dataset(points=pts))

    def test_ordinary_coordinates_are_not_scaled(self):
        for big in (2.0 ** -256, 1.0, 2.0 ** 256):
            pts = np.array([[0.0, 0.0], [big, big / 2]])
            assert pairwise_distances(Dataset(points=pts)).scale == 1.0
        for big in (2.0 ** -257, 2.0 ** 257):
            pts = np.array([[0.0, 0.0], [big, big / 2]])
            assert pairwise_distances(Dataset(points=pts)).scale != 1.0
