import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import vdpc.dataset
from vdpc import (
    CondensedDistances,
    DataError,
    Dataset,
    VdpcParams,
    cutoff_distance,
    load_condensed_matrix,
    load_points_csv,
    pairwise_distances,
    vdpc_run,
)

from conftest import BEST_PARAMS


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

    def test_arrays_are_readonly(self, tmp_path):
        ds = load_points_csv(write(tmp_path, "0,0\n1,1\n"))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 9.0


class TestDataset:
    def test_ground_truth_length_checked(self):
        with pytest.raises(DataError):
            Dataset(points=np.zeros((3, 2)), ground_truth=np.array([1, 2]))

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
        np.testing.assert_allclose(cd.square, squareform(ref), atol=0)

    def test_condensed_input_layout(self):
        # condensed layout: (0,1) -> 0, (0,2) -> 1, (1,2) -> 2
        cd = CondensedDistances(n=3, d=np.array([3.0, 4.0, 5.0]))
        np.testing.assert_array_equal(cd.square, [[0, 3, 4], [3, 0, 5], [4, 5, 0]])

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
            assert cd.square.tobytes() == squareform(pdist(pts)).tobytes()
            assert cd.max_distance == pdist(pts).max()

    def test_one_copy_of_the_distances(self, datasets):
        ds = datasets["aggregation"]
        cd = pairwise_distances(ds)
        cutoff_distance(cd, 2)
        held = [v for v in vars(cd).values() if isinstance(v, np.ndarray)]
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
        np.testing.assert_allclose(cd.square, squareform(d))

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2 3 4\n")
        with pytest.raises(DataError):
            load_condensed_matrix(path, n=3)

    def test_round_trips_through_d(self, tmp_path):
        pts = np.random.default_rng(4).normal(size=(30, 3))
        ref = pdist(pts)
        path = tmp_path / "m.txt"
        path.write_text("\n".join(repr(v) for v in ref.tolist()))
        cd = load_condensed_matrix(path, n=30)
        assert cd.square.tobytes() == squareform(ref).tobytes()
        assert cd.max_distance == ref.max()
