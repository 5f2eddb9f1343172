import logging
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import vdpc.dataset
from vdpc import (
    CondensedDistances,
    Dataset,
    ParameterError,
    cutoff_distance,
    decision_graph,
    delta_and_neighbors,
    density_profile,
    local_density,
    pairwise_distances,
)

from conftest import random_points
from oracles import full_matrix, naive_cutoff, naive_delta, naive_rho


def profile_of(points, pct):
    return density_profile(pairwise_distances(Dataset(points=np.asarray(points, float))), pct)


class TestCutoffDistance:
    def cd(self, dists):
        # build a condensed vector directly (n chosen to fit the count)
        d = np.asarray(dists, dtype=float)
        n = int(round((1 + np.sqrt(1 + 8 * d.size)) / 2))
        return CondensedDistances(n=n, d=d)

    def test_rounds_half_away_from_zero(self):
        cd = self.cd([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # M = 6
        # pct/100*M = 2.5 -> position 3 -> third smallest
        assert cutoff_distance(cd, 2.5 / 6 * 100) == 3.0

    def test_clamps_to_first_and_last(self):
        cd = self.cd([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert cutoff_distance(cd, 1e-9) == 1.0
        assert cutoff_distance(cd, 100) == 6.0
        assert cutoff_distance(cd, 500) == 6.0

    def test_position_is_one_indexed(self):
        cd = self.cd([10.0, 20.0, 30.0])  # M = 3, pct=40 -> 1.2 -> pos 1
        assert cutoff_distance(cd, 40) == 10.0

    def test_uses_sorted_distances(self):
        cd = self.cd([6.0, 1.0, 4.0, 2.0, 5.0, 3.0])
        assert cutoff_distance(cd, 50) == 3.0

    def test_rejects_nonpositive_pct(self):
        cd = self.cd([1.0, 2.0, 3.0])
        with pytest.raises(ParameterError):
            cutoff_distance(cd, 0)
        with pytest.raises(ParameterError):
            cutoff_distance(cd, -3)

    def test_rejects_non_finite_pct(self):
        cd = self.cd([1.0, 2.0, 3.0])
        for pct in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParameterError, match="finite"):
                cutoff_distance(cd, pct)


def cutoff_cases(datasets):
    """(name, points): the bundled sets, then sets full of equal distances."""
    rng = np.random.default_rng(31)
    cases = [(name, ds.points) for name, ds in datasets.items()]
    cases.append(("duplicates", rng.normal(size=(6, 2))[rng.integers(0, 6, 80)]))
    cases.append(("grid", np.array([(x, y) for x in range(12) for y in range(12)],
                                   dtype=float)))
    cases.append(("two points", np.array([[0.0, 0.0], [3.0, 4.0]])))
    cases.append(("one site", np.ones((5, 2))))
    return cases


class TestCutoffSelection:
    """cutoff_distance against the sort-based oracle, bit for bit, with the
    default blocks and sample (one block for these sizes) and with blocks
    of a few rows and a sample of m/5 pairs, which draws a sample and a
    bracket even for the sets of a few points."""

    @pytest.mark.parametrize("blocks", ["default", "small"])
    def test_equals_sorted_oracle(self, datasets, monkeypatch, blocks):
        if blocks == "small":
            monkeypatch.setattr(vdpc.dataset, "_BLOCK_CELLS", 3000)
            monkeypatch.setattr(vdpc.dataset, "_sample_size", lambda m: max(1, m // 5))
        for name, pts in cutoff_cases(datasets):
            cd = pairwise_distances(Dataset(points=pts))
            ordered = sorted(pdist(pts).tolist())
            m = len(ordered)
            for pct in (100 / m, 0.4, 2, 50, 100, 150):
                got = cutoff_distance(cd, pct)
                assert got == naive_cutoff(ordered, pct), (name, pct)
            assert cutoff_distance(cd, 100 / m) == ordered[0]

    @pytest.mark.parametrize("limit", [1 << 62, 0], ids=["held", "streamed"])
    def test_tie_heavy_grids_equal_sorted_oracle(self, monkeypatch, limit):
        # The real sample size on 40 to 400 points at the sites of 3- to
        # 5-wide integer grids: most distances tie, so bracket ends fall on
        # values shared by many pairs, at 41 ranks from the first to the last.
        monkeypatch.setattr(vdpc.dataset, "_HOLD_LIMIT", limit)
        rng = np.random.default_rng(5)
        for width, n in ((3, 40), (4, 150), (5, 400)):
            pts = rng.integers(0, width, (n, 2)).astype(float)
            ordered = np.sort(pdist(pts))
            cd = pairwise_distances(Dataset(points=pts))
            for k in np.unique(np.linspace(1, len(ordered), 41).astype(int)):
                assert cd.kth_smallest(int(k)) == ordered[k - 1], (n, k)

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_missed_bracket_is_widened(self, datasets, monkeypatch, side):
        # The first bracket holds only the smallest or only the largest
        # sampled distance, so the k-th is outside it and a second pass
        # with a fourfold wider bracket has to find it.
        bracket, widths = vdpc.dataset._bracket, []

        def narrow_first(sample, k, m, width):
            widths.append(width)
            if len(widths) == 1:
                x = sample[0] if side == "below" else sample[-1]
                return float(x), float(x)
            return bracket(sample, k, m, width)

        monkeypatch.setattr(vdpc.dataset, "_bracket", narrow_first)
        pts = datasets["flame"].points
        cd = pairwise_distances(Dataset(points=pts))
        ordered = sorted(pdist(pts).tolist())
        assert cutoff_distance(cd, 50) == naive_cutoff(ordered, 50)
        assert widths == [4.0, 16.0]

    @pytest.mark.parametrize("ends", ["both", "lower", "upper"])
    def test_bracket_ending_at_the_kth_holds_it(self, monkeypatch, ends):
        # On a grid the median distance is shared by many pairs; a bracket
        # with an end at that value holds all of them, so one pass does.
        pts = np.array([(x, y) for x in range(12) for y in range(12)], dtype=float)
        ordered = sorted(pdist(pts).tolist())
        k = len(ordered) // 2
        kth = ordered[k - 1]
        ends = {"both": (kth, kth), "lower": (kth, math.inf),
                "upper": (-math.inf, kth)}[ends]
        widths = []

        def fixed(sample, k, m, width):
            widths.append(width)
            return ends if len(widths) == 1 else (-math.inf, math.inf)

        monkeypatch.setattr(vdpc.dataset, "_bracket", fixed)
        assert pairwise_distances(Dataset(points=pts)).kth_smallest(k) == kth
        assert widths == [4.0]


    @pytest.mark.parametrize("sites", [1, 2], ids=["all-zero", "two-site"])
    def test_tied_bracket_ends_equal_sorted_oracle(self, monkeypatch, sites):
        # Every bracket whose ends are distance values or -/+inf, at every
        # rank: the k-th may equal lo, hi, or both when lo == hi.  A
        # bracket that holds the k-th finds it in one pass.
        pts = np.repeat([[0.0, 0.0], [3.0, 4.0]][:sites], 6, axis=0)
        cd = pairwise_distances(Dataset(points=pts))
        ordered = sorted(pdist(pts).tolist())
        ends = [-math.inf, *sorted(set(ordered)), math.inf]
        bracket = vdpc.dataset._bracket
        for lo, hi in ((a, b) for a in ends for b in ends if a <= b):
            for k in range(1, len(ordered) + 1):
                widths = []

                def fixed(sample, k, m, width):
                    widths.append(width)
                    first = len(widths) == 1
                    return (lo, hi) if first else bracket(sample, k, m, width)

                monkeypatch.setattr(vdpc.dataset, "_bracket", fixed)
                kth = ordered[k - 1]
                assert cd.kth_smallest(k) == kth, (lo, hi, k)
                assert (widths == [4.0]) == (lo <= kth <= hi), (lo, hi, k)

    def test_tied_bracket_ends_are_counted_not_held(self, monkeypatch):
        # 3,000 points at two sites: about half of the distances are 0 and
        # half are 5, so the sampled bracket ends on a value shared by
        # millions of pairs, which must be counted, not copied (the
        # matrix is 72 MB).  Streamed, each worker thread also holds the
        # block it computes.
        pts = np.repeat([[0.0, 0.0], [3.0, 4.0]], 1500, axis=0)
        m, zeros = 3000 * 2999 // 2, 1500 * 1499
        workers = len(os.sched_getaffinity(0))
        for limit, blocks in ((1 << 62, 0), (0, workers)):
            monkeypatch.setattr(vdpc.dataset, "_HOLD_LIMIT", limit)
            cd = pairwise_distances(Dataset(points=pts))
            tracemalloc.start()
            try:
                got = [cd.kth_smallest(k)
                       for k in (1, zeros, zeros + 1, round(0.6 * m), m)]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == [0.0, 0.0, 5.0, 5.0, 5.0]
            assert peak < 5e6 + blocks * 8 * vdpc.dataset._BLOCK_CELLS

    def test_sample_pairs_hold_about_two_index_arrays(self):
        # the stream works in place: its peak is i and j (8 bytes each per
        # pair) and a mask, where chained expressions held twice as much
        s = 1 << 20
        tracemalloc.start()
        try:
            vdpc.dataset._sample_pairs(100_000, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * s

    @pytest.mark.parametrize("k, width, want", [
        (1, 4.0, (-math.inf, 2.0)),
        (1, 16.0, (-math.inf, 2.0)),
        (50_000_000, 4.0, (4798.0, 5201.0)),
        (50_000_000, 16.0, (4198.0, 5801.0)),
        (100_000_000, 4.0, (9998.0, math.inf)),
        (100_000_000, 16.0, (9998.0, math.inf)),
    ], ids=["q~0", "q~0-widened", "q~1/2", "q~1/2-widened", "q~1", "q~1-widened"])
    def test_bracket_half_width_is_the_sample_rank_deviation(self, k, width, want):
        # A sample of S = 10^4 values equal to their ranks, out of m = 10^8.
        # With q = (k - 1/2)/m the k-th lies near sample rank q*S, and
        # width*sqrt(S*q*(1-q)) + 1 ranks on each side bound the bracket:
        # at q ~ 1/2 that is 4*50 + 1 (16*50 + 1 widened); near q = 0 or
        # 1 the deviation is about 0.007 and the half-width about 1 rank.
        sample = np.arange(10_000.0)
        assert vdpc.dataset._bracket(sample, k, 10**8, width) == want

    def test_each_selection_logs_its_bracket(self, datasets, monkeypatch, caplog):
        # one line per selection: k, m, the sample size, the final bracket,
        # the values held inside it, the counting passes, and the cells of
        # their blocks with their source (flame is held, so each pass reads
        # its one 240-by-240 block of the whole triangle); the second
        # selection's first bracket misses, as in the widening test
        cd = pairwise_distances(datasets["flame"])
        caplog.set_level(logging.DEBUG, logger="vdpc")
        cutoff_distance(cd, 2)
        bracket = vdpc.dataset._bracket

        def narrow_first(sample, k, m, width):
            x = float(sample[0])
            return (x, x) if width == 4.0 else bracket(sample, k, m, width)

        monkeypatch.setattr(vdpc.dataset, "_bracket", narrow_first)
        cutoff_distance(cd, 50)
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("vdpc", logging.DEBUG, "d_c selection: k=574 of m=28680 distances, "
             "sample of 937, bracket [0.46097722286464377, 1.1543396380615207], "
             "871 values held, 1 counting passes, 57600 block cells, "
             "whole triangle"),
            ("vdpc", logging.DEBUG, "d_c selection: k=14340 of m=28680 "
             "distances, sample of 937, bracket [3.4014702703389883, "
             "8.155519603311612], 15712 values held, 2 counting passes, "
             "115200 block cells, whole triangle"),
        ]


class TestLocalDensity:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = random_points(rng, int(rng.integers(2, 25)))
            cd = pairwise_distances(Dataset(points=pts))
            d_c = cutoff_distance(cd, float(rng.uniform(1, 60)))
            rho = local_density(cd, d_c)
            np.testing.assert_allclose(rho, naive_rho(pts.tolist(), d_c),
                                       rtol=0, atol=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        pts = random_points(rng, 40)
        cd = pairwise_distances(Dataset(points=pts))
        rho = local_density(cd, cutoff_distance(cd, 5))
        assert np.all(rho >= 0) and np.all(rho < len(pts) - 1 + 1e-12)

    def test_chunked_path_equals_direct_formula(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(1500, 2))  # crosses the internal chunk size
        cd = pairwise_distances(Dataset(points=pts))
        d_c = cutoff_distance(cd, 2)
        rho = local_density(cd, d_c)
        direct = np.exp(-((full_matrix(cd) / d_c) ** 2)).sum(axis=1) - 1.0
        np.testing.assert_allclose(rho, direct, atol=1e-9)


    def test_each_pass_logs_its_tiles(self, datasets, monkeypatch, caplog):
        # one line per pass: the points, held or streamed, the segments and
        # their width, the tiles, and whether it found the largest distance
        # (held distances know it; a streamed pass finds it once)
        flame = pairwise_distances(datasets["flame"])
        monkeypatch.setattr(vdpc.dataset, "_HOLD_LIMIT", 0)
        cd = pairwise_distances(Dataset(points=random_points(np.random.default_rng(6), 1000)))
        d_c = cutoff_distance(cd, 2)
        caplog.set_level(logging.DEBUG, logger="vdpc")
        local_density(flame, 0.5)
        monkeypatch.setattr(vdpc.dataset, "_TILE", 128)
        local_density(flame, 0.5)
        local_density(cd, d_c)
        local_density(cd, d_c)
        monkeypatch.setattr(vdpc.dataset, "_SEGMENTS", 4)
        local_density(cd, d_c)
        line = "row sums of %d points: %s, %d segments of at most %d columns, %d tiles, "
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("vdpc", logging.DEBUG, line % (240, "held", 1, 512, 1) + "largest distance known"),
            ("vdpc", logging.DEBUG, line % (240, "held", 2, 128, 3) + "largest distance known"),
            ("vdpc", logging.DEBUG, line % (1000, "streamed", 8, 128, 36)
             + "largest distance found"),
            ("vdpc", logging.DEBUG, line % (1000, "streamed", 8, 128, 36)
             + "largest distance known"),
            ("vdpc", logging.DEBUG, line % (1000, "streamed", 4, 256, 36)
             + "largest distance known"),
        ]


class TestDelta:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pts = random_points(rng, int(rng.integers(2, 25)))
            cd = pairwise_distances(Dataset(points=pts))
            rho = local_density(cd, cutoff_distance(cd, 10))
            delta, _, _ = delta_and_neighbors(cd, rho)
            np.testing.assert_allclose(delta, naive_delta(pts.tolist(), rho.tolist()),
                                       rtol=0, atol=1e-12)

    def test_argmax_gets_max_distance_and_no_neighbor(self):
        pts = np.array([[0.0, 0], [1, 0], [2, 0], [50, 0]])
        cd = pairwise_distances(Dataset(points=pts))
        rho = local_density(cd, cutoff_distance(cd, 50))
        delta, nneigh, order = delta_and_neighbors(cd, rho)
        top = order[0]
        assert delta[top] == cd.max_distance
        assert nneigh[top] == -1

    def test_equal_density_ties_break_by_index(self):
        # two identical twin pairs: within a pair, densities tie exactly
        pts = np.array([[0.0, 0], [0, 1], [10, 0], [10, 1]])
        cd = pairwise_distances(Dataset(points=pts))
        rho = local_density(cd, 1.0)
        delta, nneigh, order = delta_and_neighbors(cd, rho)
        np.testing.assert_allclose(delta, naive_delta(pts.tolist(), rho.tolist()),
                                   atol=1e-12)
        # the lower index of a tied pair outranks the higher one
        assert list(order) == sorted(range(4), key=lambda i: (-rho[i], i))

    def test_neighbor_is_denser_and_at_delta_distance(self):
        rng = np.random.default_rng(22)
        pts = random_points(rng, 30)
        cd = pairwise_distances(Dataset(points=pts))
        rho = local_density(cd, cutoff_distance(cd, 10))
        delta, nneigh, order = delta_and_neighbors(cd, rho)
        rank = np.empty(len(pts), dtype=int)
        rank[order] = np.arange(len(pts))
        for i in range(len(pts)):
            if nneigh[i] == -1:
                continue
            j = nneigh[i]
            assert rank[j] < rank[i]
            assert abs(cd.row(i)[j] - delta[i]) < 1e-12


class TestDensityProfile:
    def test_fields_consistent(self, distances):
        profile = density_profile(distances["flame"], 5)
        assert profile.n == 240
        assert profile.d_c > 0
        assert len(profile.rho) == len(profile.delta) == 240

    def test_decision_graph_rows(self, distances):
        profile = density_profile(distances["compound"], 1.9)
        rows = decision_graph(profile)
        assert len(rows) == 399
        assert rows[17] == (17, profile.rho[17], profile.delta[17])

    def test_compound_has_many_high_delta_points(self, distances):
        # representative count at the best-performing threshold
        profile = density_profile(distances["compound"], 1.9)
        assert int((profile.delta >= 1.39).sum()) == 68

    def test_zero_cutoff_names_the_smallest_working_pct(self):
        rng = np.random.default_rng(5)
        # 40 coincident points among 80: 780 of the 3160 pairs are zero
        sets = [np.vstack([rng.normal(size=(40, 2)), np.zeros((40, 2))])]
        sets += [rng.normal(size=(s, 2))[rng.integers(0, s, 60)] for s in (3, 5, 9)]
        cds = [pairwise_distances(Dataset(points=pts)) for pts in sets]
        # 31 zeros of 45 pairs: rank 32 starts at exactly 70%, which rounds
        # back to rank 31 in floating point
        cds.append(CondensedDistances(n=10, d=np.r_[np.zeros(31), np.ones(14)]))
        messages = []
        for cd in cds:
            with pytest.raises(ParameterError, match="pairwise distances are zero") as err:
                density_profile(cd, 2)
            messages.append(str(err.value))
            fix = float(re.search(r"use pct >= (\S+)$", messages[-1]).group(1))
            assert density_profile(cd, fix).d_c > 0
            with pytest.raises(ParameterError):  # one unit less in the fourth digit
                density_profile(cd, fix - 10.0 ** (np.floor(np.log10(fix)) - 3))
        assert "24.68% of the 3160 pairwise distances" in messages[0]
        assert messages[-1].endswith("use pct >= 70.01")

    def test_all_points_coincide(self):
        cd = pairwise_distances(Dataset(points=np.ones((5, 2))))
        with pytest.raises(ParameterError, match="every pairwise distance is zero"):
            density_profile(cd, 50)
