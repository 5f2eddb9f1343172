import ast
import errno
import logging
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial
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
from vdpc.density import delta_and_neighbors, local_density

from conftest import (BEST_PARAMS, density_mix, forcing, pair_keys, random_points,
                      streamed)
from oracles import full_matrix, loop_delta_and_neighbors, loop_knn_sets


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def unreadable(path, *args, **kwargs):
    """``Path.read_text`` of a file whose read fails, as that of
    /proc/self/mem does."""
    raise OSError(errno.EIO, os.strerror(errno.EIO))


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

    @pytest.mark.parametrize("bad", [
        ("2,inf", "non-finite value"), ("2", "expected 2 cells, got 1"),
        ("2,x", "non-numeric cell")], ids=["non-finite", "ragged", "non-numeric"])
    def test_the_first_bad_line_is_named_whatever_follows(self, tmp_path, bad):
        # every kind of fault follows on a later line
        path = write(tmp_path, "\n".join(["0,0", bad[0], "3,nan", "3", "3,?", "4,4"]))
        with pytest.raises(DataError, match="line 2: %s$" % bad[1]):
            load_points_csv(path)

    def test_cells_parse_as_float_does(self, tmp_path):
        # the spellings ``float`` accepts, and t710's values, bit for bit
        cells = ["1.5", " 1.5", "1_0", "-0.0", "+.5e1", "4.9e-324", "1e-400",
                 "0.1", "\u00a07", "12345678901234567890"]
        path = write(tmp_path, "\n".join(c + "," + c for c in cells) + "\n")
        want = np.array([[float(c)] * 2 for c in cells])
        assert load_points_csv(path).points.tobytes() == want.tobytes()
        t710 = Path(__file__).parent / "data" / "t710.csv"
        rows = t710.read_text().split()[1:]
        want = np.array([[float(c) for c in r.split(",")] for r in rows])
        assert load_points_csv(t710, has_header=True).points.tobytes() == want.tobytes()

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

    def test_bytes_that_are_not_utf8_are_a_data_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"0,0\n1,\xff\n")
        with pytest.raises(DataError, match="latin1.csv: not UTF-8 text$"):
            load_points_csv(path)

    def test_a_file_that_cannot_be_read_is_a_data_error(self, tmp_path, monkeypatch):
        path = write(tmp_path, "0,0\n1,1\n")
        monkeypatch.setattr(Path, "read_text", unreadable)
        with pytest.raises(DataError, match="data.csv: cannot read: Input/output error$"):
            load_points_csv(path)

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

    def test_points_must_be_real_numbers(self):
        for pts, why in ((np.array([[1 + 2j, 0], [0, 0]]), "real numbers"),
                         ([[1 + 2j, 0], [0, 0]], "real numbers"),
                         ([["a", "b"], ["c", "d"]], "real numbers"),
                         ([[0.0, 1.0], [2.0]], "rows of one length")):
            with pytest.raises(DataError, match=why):
                Dataset(points=pts)
        kept = Dataset(points=[[1, 2], [True, 0.5]]).points
        assert kept.dtype == np.float64 and kept.tolist() == [[1, 2], [1, 0.5]]

    @pytest.mark.parametrize("pts, why", [
        (np.arange(4.0), "2-D array"),
        (np.zeros((1, 2)), "at least 2 points"),
        (np.array([[0.0, 1.0], [np.inf, 0.0]]), "non-finite"),
    ])
    def test_point_shape_and_values_are_checked(self, pts, why):
        with pytest.raises(DataError, match=why):
            Dataset(points=pts)

    def test_callers_array_stays_writable(self):
        a = np.zeros((3, 2))
        ds = Dataset(points=a)
        assert np.shares_memory(ds.points, a)  # not a copy
        assert not ds.points.flags.writeable
        a[0, 0] = 1.0
        assert a.flags.writeable and ds.points[0, 0] == 1.0

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
    """``CondensedDistances._scan``, the one reader of ranges of the
    distances, and ``row`` against direct indexing of the matrix."""

    @pytest.mark.parametrize("block_cells", [1, 3000])
    def test_blocks_join_into_direct_indexing(self, monkeypatch, block_cells):
        # The six forms of the passes: whole rows (ρ, the zero count), the
        # upper triangle (the d_c count, the largest distance), the lower
        # triangle in an order (δ), the upper triangle of a subset (held
        # ε-pairs) and a window along a sorted coordinate, of every point or
        # of a subset (the streamed d_c count and ε-pairs).
        monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(150, 2))
        held = pairwise_distances(Dataset(points=pts))
        sq = held._square
        every, order = np.arange(150), rng.permutation(150)
        subset = np.sort(order[:100])
        hi = float(np.quantile(sq, 0.1))
        _, along, ends = streamed(pts)._window(hi, every)
        _, sub_along, sub_ends = streamed(pts)._window(hi, subset)
        forms = [  # ``_scan``'s arguments, and the order, begin and end they mean
            ((), every, 0, 150),
            ((None, every), every, every, 150),
            ((order, None, every + 1), order, 0, every + 1),
            ((subset, np.arange(100)), subset, np.arange(100), 100),
            ((along, every, ends), along, every, ends),
            ((subset[sub_along], np.arange(100), sub_ends), subset[sub_along],
             np.arange(100), sub_ends),
        ]
        for cd in (held, streamed(pts)):
            for args, p, begin, end in forms:
                begin, end = np.broadcast_to(begin, len(p)), np.broadcast_to(end, len(p))
                parts = cd._scan(lambda r, block: (r, block), *args)
                assert [r.start for r, _ in parts] == [0] + [r.stop for r, _ in parts[:-1]]
                assert parts[-1][0].stop == len(p)
                for r, block in parts:
                    want = sq[np.ix_(p[r], p[begin[r.start] : end[r.stop - 1]])]
                    assert block.shape == want.shape
                    assert block.tobytes() == want.tobytes()
                    assert len(block) == 1 or block.size <= block_cells
            assert cd._scan(lambda r, block: block, every[:0]) == []

    def test_only_row_selections_may_be_written(self):
        rng = np.random.default_rng(6)
        cd = pairwise_distances(Dataset(points=rng.normal(size=(20, 2))))
        before = cd._square.copy()
        every, rows = np.arange(20), np.array([3, 0, 7])
        for args in ((), (None, every)):  # held slices are read-only views
            for view in cd._scan(lambda r, view: view, *args):
                assert np.shares_memory(view, cd._square)
                with pytest.raises(ValueError):
                    view[0, 0] = -1.0

        def overwrite(r, block):
            block[...] = -1.0

        cd._scan(overwrite, rows)
        cd._scan(overwrite, every[::-1], None, every + 1)
        for block in (cd._block(rows), cd._block(rows, rows)):
            block[...] = -1.0
        assert cd._square.tobytes() == before.tobytes()

    def test_a_gather_of_few_columns_copies_about_one_block(self):
        # ``nearest`` sizes its blocks by its columns, so ten columns of
        # 2,000 held points are one block of every row; gathering those
        # whole rows at once would copy the 32 MB matrix
        cd = pairwise_distances(Dataset(points=np.random.default_rng(7).random((2000, 2))))
        every, few = np.arange(2000), np.arange(10)
        tracemalloc.start()
        try:
            block = cd._block(every, few)
            near = cd.nearest(every, few)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * vdpc.dataset._BLOCK_CELLS * 8, peak
        assert block.tobytes() == cd._square[:, :10].tobytes()
        assert np.array_equal(near, cd._square[:, :10].argmin(axis=1))

    def test_rows_equal_blocks_and_only_selections_may_be_written(self, distances):
        cd = distances["flame"]
        full = full_matrix(cd)
        cols = np.array([5, 0, cd.n - 1, 5])
        for i in range(cd.n):
            assert cd.row(i).tobytes() == full[i].tobytes()
            assert cd.row(i)[cols].tobytes() == full[i, cols].tobytes()
        view = cd.row(3)
        assert np.shares_memory(view, cd._square)
        with pytest.raises(ValueError):
            view[0] = -1.0
        view[cols][...] = -1.0  # a selection of the view is a copy
        assert full_matrix(cd).tobytes() == full.tobytes()


def names_scipy(node, part="") -> bool:
    """Whether an ``ast`` node imports or reads SciPy, or with ``part``
    (say "sparse"), the subpackage ``scipy.<part>``."""
    package = "scipy." + part if part else "scipy"
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module == package or module.startswith(package + ".")) or (
            module == "scipy" and any(a.name == part for a in node.names))
    if isinstance(node, ast.Import):
        return any(a.name == package or a.name.startswith(package + ".")
                   for a in node.names)
    if not part:
        return isinstance(node, ast.Name) and node.id == "scipy"
    return (isinstance(node, ast.Attribute) and node.attr == part
            and isinstance(node.value, ast.Name) and node.value.id == "scipy")


def test_scipy_is_imported_where_it_is_used():
    # Held distances need NumPy alone, so no module imports SciPy when it
    # is loaded: each import sits in the function that uses it, only
    # ``dataset`` names ``scipy.spatial`` (``cdist`` and the k-d tree of
    # streamed distances), and no module names ``scipy.sparse`` (DBSCAN's
    # and SNNC's graphs are NumPy arrays).
    leaks = []
    for path in sorted(Path(vdpc.dataset.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        inside = {id(node) for f in functions for node in ast.walk(f)}
        for node in ast.walk(tree):
            if names_scipy(node) and id(node) not in inside:
                leaks.append((path.name, "module level", node.lineno))
            if path.name != "dataset.py" and names_scipy(node, "spatial"):
                leaks.append((path.name, "scipy.spatial", node.lineno))
            if names_scipy(node, "sparse"):
                leaks.append((path.name, "scipy.sparse", node.lineno))
    assert leaks == []


def test_private_dataset_names_stay_in_dataset():
    # The matrix layout and its row-block readers are ``dataset``'s to
    # know; other modules read the distances through the public methods
    # of ``CondensedDistances``, never its matrix, its range scans
    # (``_scan``) or its block source (``_block``, ``_pairs``);
    # ``np.square`` is NumPy's, not the matrix.  Every neighbour
    # query is one of those methods: only ``dataset`` names the k-d tree,
    # and δ's matrix reads stay behind ``nearest_earlier``, so ``density``
    # reads no row.
    leaks = []
    for path in sorted(Path(vdpc.dataset.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "dataset.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "cKDTree"
                    or isinstance(node, ast.Attribute) and node.attr == "cKDTree"
                    or isinstance(node, ast.alias) and node.name == "cKDTree"):
                leaks.append((path.name, "cKDTree", getattr(node, "lineno", 0)))
            if (path.name == "density.py" and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "row"):
                leaks.append((path.name, "row", node.lineno))
            if isinstance(node, ast.ImportFrom):
                leaks += [(path.name, a.name) for a in node.names
                          if a.name == "_knn_sets" or (
                              node.module in ("dataset", "vdpc.dataset")
                              and a.name.startswith("_") and a.name != "_readonly")]
            if isinstance(node, ast.FunctionDef) and node.name == "_knn_sets":
                leaks.append((path.name, node.name, node.lineno))
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("square", "_square", "blocks", "_scan",
                                      "_block", "_pairs", "_knn_sets")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("np", "numpy"))):
                leaks.append((path.name, node.attr, node.lineno))
    assert leaks == []


def test_only_the_block_source_reads_or_computes_distances():
    # Held or streamed, every distance comes from ``_block`` (the matrix
    # or ``cdist``) or ``_pairs`` (the matrix or the NumPy pair form, which
    # also fills the held matrix): ``cdist`` is named only where
    # ``pairwise_distances`` imports it for streamed distances and called
    # only in ``_block``, ``np.sqrt`` is named nowhere else in the
    # package, and no other function of ``dataset`` reads the matrix.
    source = {"_block": {"_cdist", "_square"}, "_pairs": {"sqrt", "_square"},
              "pairwise_distances": {"cdist"}}
    leaks = []
    for path in sorted(Path(vdpc.dataset.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        owner = {id(node): f.name for f in functions for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in ("cdist", "pdist"):
                name = node.id
            elif (isinstance(node, ast.Attribute) and node.attr == "sqrt"
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy")):
                name = "sqrt"
            elif (isinstance(node, ast.Attribute) and node.attr == "_square"
                  and isinstance(node.ctx, ast.Load)):
                name = "_square"
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "_cdist"):
                name = "_cdist"
            else:
                continue
            where = owner.get(id(node))
            if path.name != "dataset.py" or name not in source.get(where, ()):
                leaks.append((path.name, where, name, node.lineno))
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

    def test_matrix_larger_than_memory_is_refused(self, monkeypatch):
        # 2M points stream as a rule; held, their matrix would not fit
        monkeypatch.setattr(vdpc.dataset, "_HOLD_LIMIT", 1 << 62)
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

    def test_bytes_that_are_not_utf8_are_a_data_error(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"1.0 2.5\n3.25\xff\n")
        with pytest.raises(DataError, match="m.txt: not UTF-8 text$"):
            load_condensed_matrix(path, n=3)

    def test_a_file_that_cannot_be_read_is_a_data_error(self, tmp_path, monkeypatch):
        path = write(tmp_path, "1 2 3\n", name="m.txt")
        monkeypatch.setattr(Path, "read_text", unreadable)
        with pytest.raises(DataError, match="m.txt: cannot read: Input/output error$"):
            load_condensed_matrix(path, n=3)

    def test_round_trips_through_d(self, tmp_path):
        pts = np.random.default_rng(4).normal(size=(30, 3))
        ref = pdist(pts)
        path = tmp_path / "m.txt"
        path.write_text("\n".join(repr(v) for v in ref.tolist()))
        cd = load_condensed_matrix(path, n=30)
        assert cd._square.tobytes() == squareform(ref).tobytes()
        assert cd.max_distance == ref.max()


    def test_values_equal_float_of_each_token(self, tmp_path):
        # every spelling ``float`` takes, between any mix of separators
        n = 60
        d = pdist(np.random.default_rng(5).normal(size=(n, 2)))
        forms = (repr, "%.17g".__mod__, "%.6f".__mod__, "%.3E".__mod__,
                 lambda v: "%d" % round(v), lambda v: "%.2f" % v + "_0")
        tokens = [forms[i % len(forms)](v) for i, v in enumerate(d.tolist())]
        seps = [", ", "\t", "\n", ",,", " \r\n ", ","]
        path = tmp_path / "m.txt"
        path.write_text("".join(t + seps[i % len(seps)] for i, t in enumerate(tokens)))
        cd = load_condensed_matrix(path, n)
        want = np.array([float(t) for t in tokens])
        assert cd._square[np.triu_indices(n, 1)].tobytes() == want.tobytes()

    def test_a_non_numeric_entry_is_a_data_error(self, tmp_path):
        path = write(tmp_path, "1.0, 2.5, x3\n", name="m.txt")
        with pytest.raises(DataError, match="m.txt: non-numeric entry$"):
            load_condensed_matrix(path, n=3)

    def test_the_load_holds_no_python_float_per_distance(self, tmp_path):
        # the text, the matrix and the vector twice over at most; a list of
        # tokens and floats held 10 times the vector on top (20.6 MB here)
        n = 600
        m = n * (n - 1) // 2
        text = "\n".join(repr(v) for v in pdist(
            np.random.default_rng(4).normal(size=(n, 3))).tolist())
        path = write(tmp_path, text, name="m.txt")
        tracemalloc.start()
        try:
            load_condensed_matrix(path, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text) + 8 * n * n + 2 * 8 * m


def forced(cd, pts, eps, source):
    with forcing(source):
        nb = cd.eps_neighbors(pts, eps)
    assert nb.source == source
    assert nb.i.dtype == nb.j.dtype == np.int32
    return nb


def sizes(nb, m):
    """The size of each position's ε-neighbourhood, itself included."""
    return np.bincount(nb.i, minlength=m) + np.bincount(nb.j, minlength=m) + 1


def both_sources(cd, pts, eps):
    """The ε-pairs of ``pts`` from the window and from the whole triangle,
    each as int32 positions and as a set equal to the matrix's strict
    upper triangle; returns the window's."""
    m = len(pts)
    i, j = np.nonzero(np.triu(full_matrix(cd)[np.ix_(pts, pts)] < eps, 1))
    want = (i * m + j).tobytes()
    window = forced(cd, pts, eps, "window")
    assert pair_keys(window, m).tobytes() == want
    assert pair_keys(forced(cd, pts, eps, "matrix"), m).tobytes() == want
    return window


def assert_same_labels(cd, eps, minpts_values):
    """``_dbscan_labels`` over all points is bitwise the same from the
    window and from the whole triangle."""
    pts = np.arange(cd.n)
    labels = {}
    for source in ("window", "matrix"):
        with forcing(source):
            assert cd.eps_neighbors(pts, eps).source == source
            labels[source] = [_dbscan_labels(cd, pts, eps, minpts).tobytes()
                              for minpts in minpts_values]
    assert labels["window"] == labels["matrix"]


class NoTree(cKDTree):
    def __init__(self, *args, **kwargs):
        raise AssertionError("a k-d tree was built")


def eps_passes(caplog):
    """(points, Eps, pairs kept, block cells, source) of each ε-pair pass
    logged."""
    return [r.args for r in caplog.records if r.msg.startswith("eps-pairs")]


class TestEpsNeighbors:
    def test_an_empty_subset_has_no_pairs(self, distances, streamed_distances):
        for cd in (distances["flame"], streamed_distances["flame"]):
            nb = cd.eps_neighbors(np.array([], dtype=np.int64), 1.0)
            assert (nb.i.dtype, nb.j.dtype, len(nb.i), len(nb.j)) == (
                np.int32, np.int32, 0, 0)

    def test_held_distances_never_use_the_tree(self, distances, monkeypatch):
        # nor the window: held distances read the whole triangle
        monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", 1000)  # many blocks
        monkeypatch.setattr(scipy.spatial, "cKDTree", NoTree)
        cd = distances["flame"]
        sparse = float(np.quantile(full_matrix(cd), 0.01, method="lower"))
        assert cd.eps_neighbors(np.arange(cd.n), sparse).source == "matrix"

    def test_sources_agree_on_bundled_sets(self, streamed_distances):
        rng = np.random.default_rng(5)
        for cd in streamed_distances.values():
            upper = full_matrix(cd)[np.triu_indices(cd.n, 1)]
            half = np.sort(rng.choice(cd.n, cd.n // 2, replace=False))
            for q in (0.002, 0.01, 0.05, 0.2):
                # a quantile that is a distance: pairs at exactly eps tie
                eps = float(np.quantile(upper, q, method="lower"))
                for pts in (np.arange(cd.n), half):
                    both_sources(cd, pts, eps)
                assert_same_labels(cd, eps, (1, 3, 6, 12))

    @pytest.mark.parametrize("eps", [1.0, math.sqrt(2.0)])
    def test_ties_at_eps_are_excluded_on_a_grid(self, eps):
        pts = np.array([(x, y) for x in range(12) for y in range(12)], float)
        cd = streamed(pts)
        nb = both_sources(cd, np.arange(144), eps)
        # at eps = 1 only the point itself; at sqrt(2) its axis neighbours
        # join, and the diagonal ones, at exactly sqrt(2), do not
        edge = (pts == 0) | (pts == 11)
        want = 1 if eps == 1.0 else 5 - edge.sum(axis=1)
        np.testing.assert_array_equal(sizes(nb, 144), want)
        assert_same_labels(cd, eps, (1, 3, 5))

    @pytest.mark.parametrize("dim", [1, 2, 8, 64])
    def test_sources_agree_in_any_dimension(self, dim):
        rng = np.random.default_rng(dim)
        pts = random_points(rng, 160, dim)
        cd = streamed(pts)
        upper = full_matrix(cd)[np.triu_indices(cd.n, 1)]
        # quantiles tie with a pair; one ulp above a distance keeps the
        # pair, which may lie at the very end of the window's reach
        eps_values = [float(np.quantile(upper, q, method="lower"))
                      for q in (0.005, 0.03, 0.1)]
        eps_values += [float(np.nextafter(d, np.inf))
                       for d in rng.choice(np.sort(upper)[: len(upper) // 10], 20)]
        for eps in eps_values:
            both_sources(cd, np.arange(cd.n), eps)
        for eps in eps_values[:3]:
            assert_same_labels(cd, eps, (4,))

    def test_precomputed_distances_never_use_the_tree(self, datasets, tmp_path,
                                                      monkeypatch):
        # nor the window: without coordinates the whole triangle is read
        ds = datasets["flame"]
        path = tmp_path / "d.txt"
        path.write_text("\n".join(map(repr, pdist(ds.points).tolist())))
        want = dbscan(pairwise_distances(ds), DbscanParams(1.0, 4))
        monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", 1000)  # many blocks
        monkeypatch.setattr(scipy.spatial, "cKDTree", NoTree)
        cd = load_condensed_matrix(path, ds.n)
        assert cd.points is None
        assert cd.eps_neighbors(np.arange(ds.n), 1.0).source == "matrix"
        np.testing.assert_array_equal(dbscan(cd, DbscanParams(1.0, 4)), want)

    def test_no_eps_builds_a_tree(self, streamed_distances, monkeypatch):
        # sparse, or spanning the whole set, streamed ε-pairs read the window
        monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", 1000)  # many blocks
        monkeypatch.setattr(scipy.spatial, "cKDTree", NoTree)
        for cd in streamed_distances.values():
            sparse = float(np.quantile(full_matrix(cd), 0.01, method="lower"))
            for eps in (sparse, cd.max_distance, 2 * cd.max_distance):
                assert cd.eps_neighbors(np.arange(cd.n), eps).source == "window"
            for eps in (cd.max_distance, 2 * cd.max_distance):
                labels = dbscan(cd, DbscanParams(eps, 2))
                assert labels.min() == 0  # no noise once eps spans the set

    @pytest.mark.parametrize("block_cells", [None, 1000])
    def test_a_subset_that_fits_one_block_is_read_once(self, streamed_distances,
                                                       monkeypatch, block_cells):
        # flame's 240 points fit one block of 2^18 cells: any eps reads it
        # once; past one block (1,000 cells) a sparse eps's window computes
        # fewer cells than a dense one's, in blocks within the bound
        cd = streamed_distances["flame"]
        full = full_matrix(cd)
        sparse = float(np.quantile(full, 0.01, method="lower"))
        if block_cells is not None:
            monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", block_cells)
        block, reads = CondensedDistances._block, []

        def counted(self, *args):
            out = block(self, *args)
            reads.append(out.shape)
            return out

        monkeypatch.setattr(CondensedDistances, "_block", counted)
        cells = []
        for eps in (cd.max_distance / 2, sparse):
            nb = cd.eps_neighbors(np.arange(cd.n), eps)
            assert nb.source == "window"
            assert len(nb.i) == np.count_nonzero(np.triu(full < eps, 1))
            if block_cells is None:
                assert reads == [(cd.n, cd.n)]
            else:
                assert len(reads) > 1
                assert all(r == 1 or r * c <= block_cells for r, c in reads)
            cells.append(sum(r * c for r, c in reads))
            reads.clear()
        if block_cells is not None:
            assert cells[1] < cells[0]

    def test_sparse_bundled_level_uses_the_window(self, datasets, monkeypatch,
                                                  caplog):
        # pathbased's streamed levels read a window along a coordinate, in
        # blocks of 1,000 cells, and give the held run's labels
        cd = pairwise_distances(datasets["pathbased"])
        params = VdpcParams(0.4, 4.2)
        want = vdpc_run(cd, params)
        monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", 1000)
        caplog.set_level(logging.DEBUG, logger="vdpc")
        got = vdpc_run(streamed(datasets["pathbased"].points), params)
        passes = eps_passes(caplog)
        assert got.derivations  # the level went through DBSCAN
        assert len(passes) == len(got.derivations)
        for (m, eps, _, cells, source), (_, d) in zip(passes, got.derivations):
            assert eps == d.eps and source == "window along coordinate 0"
            assert cells < m * (m - 1) // 2
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_a_level_too_dense_for_a_tree_takes_the_window(self, caplog):
        # the dense level of a 3,000-point density mix: 1,500 points, more
        # than 1/32 of whose ordered pairs lie within Eps; its window along
        # x computes fewer cells than the upper triangle holds and keeps
        # the same pairs
        pts, _ = density_mix(3000)
        cd = streamed(pts)
        caplog.set_level(logging.DEBUG, logger="vdpc")
        run = vdpc_run(cd, VdpcParams(2.0, 2.0))
        ((level, d),) = run.derivations
        sub = np.flatnonzero(run.point_level == level)
        ((m, eps, kept, cells, source),) = eps_passes(caplog)
        assert (level, m, eps) == (2, len(sub), d.eps) and m == 1500
        assert source == "window along coordinate 0"
        assert (2 * kept + m) * 32 > m * m and m * m > vdpc.dataset._BLOCK_CELLS
        assert cells < m * (m - 1) // 2
        assert len(both_sources(cd, sub, eps).i) == kept

    def test_radius_too_small_to_square_uses_the_matrix(self, streamed_distances):
        # a subnormal eps reads the whole triangle; 1e-160, whose square
        # underflows but which is a normal float, takes the window
        cd = streamed_distances["flame"]
        for eps, source in ((1e-310, "matrix"), (1e-160, "window")):
            nb = cd.eps_neighbors(np.arange(cd.n), eps)
            assert (nb.source, len(nb.i), len(nb.j)) == (source, 0, 0)


class TestPowerOfTwoScale:
    @pytest.mark.parametrize("e", [600, -600])
    @pytest.mark.parametrize("name", ["flame", "pathbased"])
    def test_scaled_points_give_scaled_distances_and_equal_labels(
            self, datasets, name, e, caplog, monkeypatch):
        # held, the rows serve δ and kNN and the matrix the ε-pairs;
        # streamed, the tree serves δ and kNN and the window the ε-pairs
        ds, f = datasets[name], 2.0 ** e
        for build, sources in ((pairwise_distances, ("rows", "matrix")),
                               (lambda ds: streamed(ds.points), ("tree", "window"))):
            caplog.clear()
            caplog.set_level(logging.DEBUG, logger="vdpc")
            with monkeypatch.context() as mp:
                self.assert_scaled(ds, f, build, sources, caplog, mp)

    def assert_scaled(self, ds, f, build, sources, caplog, monkeypatch):
        cd = build(ds)
        cd_f = build(Dataset(points=ds.points * f))
        assert cd_f.scale != 1.0
        assert full_matrix(cd_f).tobytes() == (full_matrix(cd) * f).tobytes()
        assert cd_f.max_distance == cd.max_distance * f
        pct, delta_t = BEST_PARAMS[ds.name]
        want = vdpc_run(cd, VdpcParams(pct, delta_t))
        got = vdpc_run(cd_f, VdpcParams(pct, delta_t * f))
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.profile.rho.tobytes() == want.profile.rho.tobytes()
        assert got.profile.d_c == want.profile.d_c * f
        assert got.profile.delta.tobytes() == (want.profile.delta * f).tobytes()
        assert got.profile.nneigh.tobytes() == want.profile.nneigh.tobytes()
        for k in (1, 7, 40):
            pts = np.arange(ds.n)
            assert cd_f.knn(pts, k).tobytes() == cd.knn(pts, k).tobytes()
        assert {source for source, _, _ in decisions(caplog)} == {sources[0]}
        assert [d.eps for _, d in got.derivations] == [
            d.eps * f for _, d in want.derivations]
        eps = float(np.quantile(full_matrix(cd), 0.02, method="lower"))
        monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", 1000)  # many blocks
        nb, nb_f = (c.eps_neighbors(np.arange(ds.n), x)
                    for c, x in ((cd, eps), (cd_f, eps * f)))
        assert nb_f.source == sources[1]
        assert pair_keys(nb_f, ds.n).tobytes() == pair_keys(nb, ds.n).tobytes()
        np.testing.assert_array_equal(
            dbscan(cd_f, DbscanParams(eps * f, 4)), dbscan(cd, DbscanParams(eps, 4)))

    def test_subnormal_distances_read_their_rows(self, datasets, caplog):
        # Coordinates below 2^-1050 are scaled by 2^1023 at most, so 1/s
        # rounds the streamed values into subnormals, which tie far more
        # often than the tree's distances; no bound is a normal float.
        caplog.set_level(logging.DEBUG, logger="vdpc")
        ds = datasets["flame"]
        cd = streamed(ds.points * 2.0 ** -1060)
        assert cd.scale == 2.0 ** 1023
        assert np.all(full_matrix(cd) < np.finfo(np.float64).tiny)
        rho = np.round(np.random.default_rng(0).random(ds.n) * 3)
        assert_loop_answers(cd, rho, (1, 5, 16))
        assert decisions(caplog) == [("tree", 17, ds.n - 1)] + [
            ("tree", k + 5, ds.n) for k in (1, 5, 16)]

    def test_subnormal_cutoff_gives_finite_densities(self, datasets):
        # d_c is subnormal here, so 1/d_c overflows to inf and the self
        # term 0 * inf would be NaN; the kernel divides by d_c instead.
        ds, f = datasets["flame"], 2.0 ** -1060
        pct, delta_t = BEST_PARAMS["flame"]
        want = vdpc_run(pairwise_distances(ds), VdpcParams(pct, delta_t))
        cd = pairwise_distances(Dataset(points=ds.points * f))
        got = vdpc_run(cd, VdpcParams(pct, delta_t * f))
        assert not math.isfinite(1.0 / got.profile.d_c)
        assert np.all(np.isfinite(got.profile.rho))
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.k == 2

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


def decisions(caplog):
    """(source, candidates, rows read) of each δ and kNN call logged."""
    return [r.args[-3:] for r in caplog.records if r.msg.endswith("rows read")]


def cutoff_rho(cd, pct=2.0):
    """ρ at the pct cut-off, rounded to one of four values, so that the
    total order breaks many ties by index."""
    rho = local_density(cd, cutoff_distance(cd, pct))
    return np.floor(rho / (rho.max() + 1.0) * 4.0)


def assert_loop_answers(cd, rho, ks):
    """δ, ``nneigh``, the order and the kNN rows of every point, for each
    k of ``ks``, equal the oracle loops over the full matrix bitwise."""
    full = full_matrix(cd)
    got = delta_and_neighbors(cd, rho)
    want = loop_delta_and_neighbors(full.tolist(), rho.tolist(), cd.max_distance)
    assert tuple(v.tolist() for v in got) == want
    pts = np.arange(cd.n)
    for k in ks:
        assert cd.knn(pts, k).tolist() == [sorted(r) for r in loop_knn_sets(full, pts, k)]


class LongTree(cKDTree):
    """A tree whose distances read 2^-40 long, as one that rounds
    differently from ``cdist`` might; the 2^-20 margin covers it."""

    def query(self, *args, **kwargs):
        d, i = super().query(*args, **kwargs)
        return d * (1 + 2.0 ** -40), i


class NoQuery(cKDTree):
    def query(self, *args, **kwargs):
        raise AssertionError("the tree was queried")


class TestTreeCandidates:
    """The k-d tree's δ and kNN candidates, which serve streamed
    coordinates only."""

    def grid(self, seed=0):
        """A 12-by-12 integer grid, whose points tie at every distance,
        and four ρ values, whose order breaks many ties by index."""
        pts = np.array([(x, y) for x in range(12) for y in range(12)], float)
        rho = np.random.default_rng(seed).integers(0, 4, len(pts)).astype(float)
        return pts, rho

    # A tree 2^-40 long lets in the ties at the last candidate's distance
    # without the margin; with no margin (the shrink patched to 1), the
    # strict test alone keeps them out, as on an integer grid the tree's
    # distances are the matrix's exactly.
    @pytest.mark.parametrize("tree, shrink", [(cKDTree, None), (LongTree, None),
                                              (cKDTree, 1.0)],
                             ids=["tree", "long-tree", "no-margin"])
    @pytest.mark.parametrize("candidates", [1, 2, 16])
    def test_ties_at_the_bound_stay_out(self, tree, shrink, candidates,
                                        monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="vdpc")
        monkeypatch.setattr(scipy.spatial, "cKDTree", tree)
        monkeypatch.setattr(vdpc.dataset, "_CANDIDATES", candidates)
        monkeypatch.setattr(vdpc.dataset, "_KNN_EXTRA", candidates)
        if shrink is not None:
            monkeypatch.setattr(vdpc.dataset, "_SHRINK", shrink)
        for seed in range(3):
            pts, rho = self.grid(seed)
            assert_loop_answers(streamed(pts), rho, (1, 3, 5, 9))
        assert min(read for _, _, read in decisions(caplog)) < len(pts) - 1

    def test_coincident_points_read_their_rows(self, caplog):
        # 20 copies of one point: its 16 nearest are all at distance 0,
        # so the bound is 0 and no copy's answer can pass it
        caplog.set_level(logging.DEBUG, logger="vdpc")
        rng = np.random.default_rng(1)
        pts = np.vstack([np.zeros((20, 2)), random_points(rng, 40)])
        cd = streamed(pts)
        assert_loop_answers(cd, np.round(rng.random(60) * 3), (2, 10))
        (_, _, delta_rows), *knn_rows = decisions(caplog)
        assert delta_rows >= 19 and all(read >= 20 for _, _, read in knn_rows)

    def test_query_is_clamped_at_n(self, caplog):
        # 10 points have fewer than 17 candidates, and 6 + 5 > 10: every
        # point is a candidate, so every answer stands without a bound
        caplog.set_level(logging.DEBUG, logger="vdpc")
        rng = np.random.default_rng(2)
        cd = streamed(random_points(rng, 10))
        assert_loop_answers(cd, np.round(rng.random(10) * 2), (6, 9))
        assert decisions(caplog) == [("tree", 10, 0)] * 3

    def test_all_rows_forced(self, streamed_distances, caplog):
        # one candidate, the point itself or a copy: no earlier point, and
        # no k-th answer below the bound, so every row is read
        cd = streamed_distances["flame"]
        rho = cutoff_rho(cd)
        want = delta_and_neighbors(cd, rho), cd.knn(np.arange(cd.n), 16)
        caplog.set_level(logging.DEBUG, logger="vdpc")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vdpc.dataset, "_CANDIDATES", 0)
            mp.setattr(vdpc.dataset, "_KNN_EXTRA", 0)
            got = delta_and_neighbors(cd, rho), cd.knn(np.arange(cd.n), 16)
        assert [v.tobytes() for v in got[0]] == [v.tobytes() for v in want[0]]
        assert got[1].tobytes() == want[1].tobytes()
        assert decisions(caplog) == [("tree", 1, cd.n - 1), ("tree", 17, cd.n)]

    def test_rows_without_coordinates_or_past_five(self, datasets, tmp_path,
                                                   monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="vdpc")
        monkeypatch.setattr(scipy.spatial, "cKDTree", NoQuery)
        ds = datasets["flame"]
        path = tmp_path / "d.txt"
        path.write_text("\n".join(map(repr, pdist(ds.points).tolist())))
        six = np.hstack([ds.points, np.round(ds.points[:, :1] * 0.3)] * 3)
        for cd in (load_condensed_matrix(path, ds.n), streamed(six)):
            assert_loop_answers(cd, cutoff_rho(cd), (1, 15))
        assert decisions(caplog) == [("rows", 0, ds.n), ("rows", 0, ds.n),
                                     ("rows", 0, ds.n)] * 2

    @pytest.mark.parametrize("block_cells", [None, 1000, 1])
    def test_held_distances_never_query_the_tree(self, distances, monkeypatch,
                                                 caplog, block_cells):
        # δ reads each point's distances to the points before it in the
        # order, by row blocks of positions: one, 60 of four rows, or one
        # row each
        caplog.set_level(logging.DEBUG, logger="vdpc")
        monkeypatch.setattr(scipy.spatial, "cKDTree", NoQuery)
        if block_cells is not None:
            monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", block_cells)
        cd = distances["flame"]
        assert_loop_answers(cd, cutoff_rho(cd), (1, 15))
        assert decisions(caplog) == [("rows", 0, cd.n)] * 3

    def test_each_call_logs_its_decision(self, streamed_distances, caplog):
        cd = streamed_distances["compound"]
        rho = cutoff_rho(cd)  # before capturing: d_c logs a line of its own
        caplog.set_level(logging.DEBUG, logger="vdpc")
        delta_and_neighbors(cd, rho)
        cd.knn(np.arange(50), 20)
        (delta_log, knn_log) = [r.getMessage() for r in caplog.records]
        assert delta_log.startswith(
            "nearest earlier point of 399 points: tree source, 17 candidates, ")
        assert knn_log.startswith(
            "20 nearest of 50 points: tree source, 25 candidates, ")
