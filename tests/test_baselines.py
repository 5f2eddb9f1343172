import logging

import numpy as np
import pytest

import vdpc.dataset
from vdpc import (
    Dataset,
    DbscanParams,
    ParameterError,
    StageError,
    dbscan,
    density_profile,
    dpc_assign,
    dpc_select_centers,
    pairwise_distances,
    relabel_contiguous,
    snnc,
)
from vdpc.baselines import _shared_neighbor_components

from conftest import random_points
from oracles import (
    check_dbscan_closure,
    naive_dbscan,
    naive_snnc,
    same_partition,
    sparse_shared_neighbor_components,
)


def cd_of(points):
    return pairwise_distances(Dataset(points=np.asarray(points, dtype=float)))


class TestRelabelContiguous:
    def test_canonical_by_smallest_member(self):
        labels = np.array([5, 5, 2, 2, 9])
        np.testing.assert_array_equal(relabel_contiguous(labels), [0, 0, 1, 1, 2])

    def test_noise_preserved(self):
        labels = np.array([-1, 3, 3, -1, 1])
        np.testing.assert_array_equal(relabel_contiguous(labels), [-1, 0, 0, -1, 1])

    def test_already_canonical_is_fixed_point(self):
        labels = np.array([0, 0, 1, 2, 1])
        np.testing.assert_array_equal(relabel_contiguous(labels), labels)

    def test_float_labels_compare_by_value(self):
        np.testing.assert_array_equal(relabel_contiguous([2.5, 2.5, 1.0]), [0, 0, 1])
        np.testing.assert_array_equal(
            relabel_contiguous(np.array([-1.0, 0.5, 3.0, 0.5])), [-1, 0, 1, 0]
        )


class TestDpc:
    def two_blobs(self):
        rng = np.random.default_rng(3)
        a = rng.normal((0, 0), 0.4, size=(20, 2))
        b = rng.normal((8, 8), 0.4, size=(20, 2))
        return np.vstack([a, b])

    def test_select_centers_rectangle(self):
        pts = self.two_blobs()
        profile = density_profile(cd_of(pts), 10)
        centers = dpc_select_centers(profile, rho_min=1.0, delta_min=3.0)
        assert len(centers) == 2
        sel = (profile.rho >= 1.0) & (profile.delta >= 3.0)
        np.testing.assert_array_equal(centers, np.where(sel)[0])

    def test_nan_threshold_rejected_infinite_kept(self):
        profile = density_profile(cd_of(self.two_blobs()), 10)
        with pytest.raises(ParameterError, match="rho_min must be a number, got nan"):
            dpc_select_centers(profile, float("nan"), 3.0)
        with pytest.raises(ParameterError, match="delta_min must be a number, got nan"):
            dpc_select_centers(profile, 1.0, float("nan"))
        everything = dpc_select_centers(profile, -np.inf, -np.inf)
        np.testing.assert_array_equal(everything, np.arange(profile.n))
        with pytest.raises(ParameterError, match="no centers selected"):
            dpc_select_centers(profile, np.inf, 3.0)

    def test_select_centers_empty_rectangle(self):
        pts = self.two_blobs()
        profile = density_profile(cd_of(pts), 10)
        with pytest.raises(ParameterError):
            dpc_select_centers(profile, rho_min=1e9, delta_min=1e9)

    def test_assign_two_blobs(self):
        pts = self.two_blobs()
        profile = density_profile(cd_of(pts), 10)
        centers = dpc_select_centers(profile, 1.0, 3.0)
        labels = dpc_assign(profile, centers)
        assert set(labels[:20]) != set(labels[20:])
        assert len(set(labels[:20].tolist())) == 1
        assert len(set(labels[20:].tolist())) == 1

    def test_assign_follows_denser_neighbor_chain(self):
        pts = self.two_blobs()
        profile = density_profile(cd_of(pts), 10)
        centers = dpc_select_centers(profile, 1.0, 3.0)
        labels = dpc_assign(profile, centers)
        center_set = set(centers.tolist())
        for i in range(len(pts)):
            if i not in center_set:
                assert labels[i] == labels[profile.nneigh[i]]

    def test_centers_get_ids_in_ascending_order(self):
        pts = self.two_blobs()
        profile = density_profile(cd_of(pts), 10)
        centers = np.sort(dpc_select_centers(profile, 1.0, 3.0))
        labels = dpc_assign(profile, centers)
        assert [labels[c] for c in centers] == [0, 1]

    def test_requires_density_argmax_center(self):
        # the density argmax must be a center, otherwise assignment
        # cannot follow a denser-neighbor chain from it
        pts = self.two_blobs()
        profile = density_profile(cd_of(pts), 10)
        not_top = np.array([int(profile.order[-1])])
        with pytest.raises(StageError):
            dpc_assign(profile, not_top)


class TestDbscan:
    def test_params_validation(self):
        with pytest.raises(ParameterError):
            DbscanParams(eps=0, minpts=3)
        with pytest.raises(ParameterError):
            DbscanParams(eps=1.0, minpts=0)

    def test_non_finite_eps_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParameterError, match="eps must be a finite"):
                DbscanParams(eps=bad, minpts=3)

    def test_minpts_must_be_a_whole_count(self):
        for bad in (float("nan"), float("inf"), float("-inf"), 2.5, 0):
            with pytest.raises(ParameterError, match="minpts must be an integer >= 1"):
                DbscanParams(eps=1.0, minpts=bad)
        assert DbscanParams(eps=1.0, minpts=np.int64(3)).minpts == 3

    def test_hand_example(self):
        # one dense line of 4 (spacing .5), a far dense pair, one outlier
        pts = [[0, 0], [0.5, 0], [1.0, 0], [1.5, 0], [10, 0], [10.5, 0], [30, 0]]
        labels = dbscan(cd_of(pts), DbscanParams(eps=0.75, minpts=3))
        np.testing.assert_array_equal(labels, [0, 0, 0, 0, -1, -1, -1])

    def test_strict_inequality_at_radius(self):
        pts = [[0, 0], [1, 0], [2, 0]]
        # neighbors require d < 1.0; the chain collapses, nobody is core
        labels = dbscan(cd_of(pts), DbscanParams(eps=1.0, minpts=2))
        np.testing.assert_array_equal(labels, [-1, -1, -1])
        # just above, spacing-1 links count and everything chains up
        labels = dbscan(cd_of(pts), DbscanParams(eps=1.0 + 1e-9, minpts=2))
        np.testing.assert_array_equal(labels, [0, 0, 0])

    def test_minpts_counts_self(self):
        pts = [[0, 0], [0.5, 0], [5, 0]]
        # pair within eps: neighborhood size 2 (self + other)
        labels = dbscan(cd_of(pts), DbscanParams(eps=1.0, minpts=2))
        np.testing.assert_array_equal(labels, [0, 0, -1])

    def test_each_call_logs_its_neighbourhoods(self, caplog):
        pts = [[0, 0], [0.5, 0], [1.0, 0], [1.5, 0], [10, 0], [10.5, 0], [30, 0]]
        with caplog.at_level(logging.DEBUG, logger="vdpc"):
            dbscan(cd_of(pts), DbscanParams(eps=0.75, minpts=3))
            # 200 points on a line, 3 in reach of each: one block
            dbscan(cd_of([[0.0, x] for x in range(200)]),
                   DbscanParams(eps=1.5, minpts=3))
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("vdpc", logging.DEBUG, "eps-pairs: 7 points, Eps=0.75, 4 pairs kept, "
             "49 block cells, whole triangle"),
            ("vdpc", logging.DEBUG, "dbscan on 7 points: Eps=0.75 MinPts=3, "
             "4 pairs within Eps"),
            ("vdpc", logging.DEBUG, "eps-pairs: 200 points, Eps=1.5, 199 pairs kept, "
             "40000 block cells, whole triangle"),
            ("vdpc", logging.DEBUG, "dbscan on 200 points: Eps=1.5 MinPts=3, "
             "199 pairs within Eps"),
        ]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            pts = random_points(rng, int(rng.integers(4, 28)))
            eps = float(rng.uniform(0.3, 3.0))
            minpts = int(rng.integers(2, 6))
            got = dbscan(cd_of(pts), DbscanParams(eps=eps, minpts=minpts))
            want = naive_dbscan(pts.tolist(), eps, minpts)
            assert got.tolist() == want  # the same numbering and border rule
            check_dbscan_closure(pts.tolist(), eps, minpts, got.tolist())


class TestSnnc:
    def test_two_blobs_split(self):
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.normal((0, 0), 0.5, size=(15, 2)),
                         rng.normal((9, 9), 0.5, size=(15, 2))])
        labels = snnc(cd_of(pts), k=4)
        assert set(labels[:15].tolist()).isdisjoint(labels[15:].tolist())

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            pts = random_points(rng, int(rng.integers(3, 28)))
            k = int(rng.integers(1, len(pts)))
            got = snnc(cd_of(pts), k)
            want = naive_snnc(pts.tolist(), k)
            assert same_partition(got.tolist(), want)

    def test_labels_canonical(self):
        rng = np.random.default_rng(14)
        pts = random_points(rng, 20)
        labels = snnc(cd_of(pts), 3)
        np.testing.assert_array_equal(labels, relabel_contiguous(labels))

    def test_k_range_checked(self):
        pts = np.zeros((5, 2)) + np.arange(5)[:, None]
        with pytest.raises(ParameterError):
            snnc(cd_of(pts), 0)
        with pytest.raises(ParameterError):
            snnc(cd_of(pts), 5)

    def test_k_must_be_a_whole_count(self):
        cd = cd_of(np.zeros((5, 2)) + np.arange(5)[:, None])
        for bad in (2.5, float("nan"), 0):
            with pytest.raises(ParameterError, match="k must be an integer >= 1"):
                snnc(cd, bad)
        assert len(snnc(cd, np.int64(2))) == 5

    def test_small_blocks_give_the_same_components(self, distances, monkeypatch,
                                                   caplog):
        # flame's shared-neighbour graph (65 components at k = 4 on every
        # other point) fits one block; blocks of one row, of a few rows and
        # of a few dozen rows put block edges between its pairs
        cd = distances["flame"]
        points = np.arange(0, cd.n, 2)
        want = sparse_shared_neighbor_components(cd, points, 4).tolist()
        assert max(want) == 64
        caplog.set_level(logging.DEBUG, logger="vdpc")
        blocks = []
        for cells in (1, 1000, 5000):
            monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", cells)
            caplog.clear()
            assert _shared_neighbor_components(cd, points, 4).tolist() == want
            (graph,) = [r for r in caplog.records if r.msg.startswith("shared")]
            blocks.append(graph.args[2])
        assert blocks[0] == len(points) > blocks[1] > blocks[2] > 1

    def test_each_graph_logs_its_size(self, monkeypatch, caplog):
        # two groups of four coincident points: each point's 3 nearest are
        # the other three, so all 6 pairs of a group share 2 of them
        cd = cd_of([[0, 0]] * 4 + [[9, 9]] * 4)
        with caplog.at_level(logging.DEBUG, logger="vdpc"):
            assert snnc(cd, 3).tolist() == [0] * 4 + [1] * 4
            monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", 1)  # a row a block
            snnc(cd, 3)
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records
                if r.msg.startswith("shared")] == [
            ("vdpc", logging.DEBUG, "shared-neighbour graph of 8 points: k=3, "
             "%d blocks, 12 pairs sharing more than one neighbour, 2 components"
             % blocks) for blocks in (1, 8)
        ]
