import logging
import math

import numpy as np
import pytest

import vdpc.density
import vdpc.vdpc as pipeline
from vdpc import (
    AblationOptions,
    Dataset,
    DensityProfile,
    ParameterError,
    StageError,
    VdpcParams,
    asnnc,
    compute_levels,
    density_profile,
    dpc_assign,
    pairwise_distances,
    vdpc_run,
)
from vdpc.cli import main
from vdpc.vdpc import (
    assign_noise,
    derive_adbscan_params,
    microcluster_postprocess,
    partition_points,
    reassign_boundary,
    select_representatives,
    split_boundary,
)

from conftest import BEST_PARAMS, random_points
from oracles import euclidean, loop_level_of, naive_snnc, same_partition


def cd_of(points):
    return pairwise_distances(Dataset(points=np.asarray(points, dtype=float)))


class TestParams:
    def test_vdpc_params_validation(self):
        with pytest.raises(ParameterError):
            VdpcParams(pct=0, delta_t=1.0)
        with pytest.raises(ParameterError):
            VdpcParams(pct=1, delta_t=0)
        with pytest.raises(ParameterError):
            VdpcParams(pct=1, delta_t=1, num=0)

    def test_num_must_be_a_whole_count(self):
        for bad in (math.nan, math.inf, -math.inf, 2.5, 0):
            with pytest.raises(ParameterError, match="num must be an integer >= 1"):
                VdpcParams(pct=1, delta_t=1, num=bad)
        assert VdpcParams(pct=1, delta_t=1, num=np.int64(3)).num == 3

    def test_non_finite_params_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match="pct must be a finite"):
                VdpcParams(pct=bad, delta_t=1.0)
            with pytest.raises(ParameterError, match="delta_t must be a finite"):
                VdpcParams(pct=1, delta_t=bad)

    def test_ablation_validation(self):
        with pytest.raises(ParameterError):
            AblationOptions(k_rule="cube")
        with pytest.raises(ParameterError):
            AblationOptions(combo="snnc")
        with pytest.raises(ParameterError):
            AblationOptions(level_assignment="nearest")
        assert AblationOptions(combo="dbscan+snnc").low_algorithm == "dbscan"
        assert AblationOptions(combo="dbscan+snnc").high_algorithm == "snnc"


class TestComputeLevels:
    def test_constant_densities_single_level(self):
        levels = compute_levels(np.array([5.0, 5.0, 5.0]), num=10)
        assert levels.numl == 1
        assert levels.w == 0.0
        assert levels.intervals == ((5.0, 5.0),)

    def test_wide_doubled_spacing_opens_gap(self):
        levels = compute_levels(np.array([0.0, 1.0, 10.0]), num=10)
        assert levels.numl == 2
        assert levels.gaps == ((1.0, 10.0),)
        assert levels.intervals == ((0.0, 1.0), (10.0, 10.0))

    def test_distant_segments_without_doubling_stay_joined(self):
        # nine segments apart, but the upper density is not twice the lower
        levels = compute_levels(np.array([6.0, 6.5, 11.0]), num=10)
        assert levels.numl == 1

    def test_wide_spacing_with_small_segment_jump_stays_joined(self):
        # spacing 5 = 2w, yet only two segments apart
        levels = compute_levels(np.array([0.0, 5.0, 10.0]), num=4)
        assert levels.numl == 1

    def test_numl_matches_gap_count(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            rhos = rng.uniform(0, 30, size=rng.integers(1, 25))
            levels = compute_levels(rhos, num=int(rng.integers(1, 15)))
            assert levels.numl == len(levels.gaps) + 1
            assert levels.numl == len(levels.intervals)
            # intervals tile [min, max]: they chain through the gaps
            assert levels.intervals[0][0] == rhos.min()
            assert levels.intervals[-1][1] == rhos.max()

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            compute_levels(np.array([]), num=10)


class TestLevelOf:
    """The level ``partition_points`` gives each density value."""

    def levels(self):
        return compute_levels(np.array([1.0, 2.0, 8.0, 9.0]), num=10)

    def level_of(self, *values):
        return partition_points(np.array(values), self.levels()).tolist()

    def test_structure(self):
        levels = self.levels()
        assert levels.numl == 2
        assert levels.intervals == ((1.0, 2.0), (8.0, 9.0))

    def test_interval_membership_and_edges(self):
        assert self.level_of(1.5, 2.0, 8.0) == [1, 1, 2]
        # within _EDGE of an edge counts as inside, before the midpoint
        # rule: here the gap (2e-13, 1e-12) is narrower than _EDGE
        tiny = compute_levels(np.array([1e-13, 2e-13, 1e-12]), num=10)
        assert tiny.intervals == ((1e-13, 2e-13), (1e-12, 1e-12))
        assert partition_points(np.array([9e-13]), tiny).tolist() == [1]

    def test_gap_splits_at_midpoint(self):
        # gap (2, 8), midpoint 5: the midpoint itself goes up
        assert self.level_of(4.9, 5.0, 5.1) == [1, 2, 2]

    def test_extremes_clamp(self):
        assert self.level_of(0.1, 99.0) == [1, 2]

    def test_partition_points_matches_level_of(self):
        levels = self.levels()
        rho = np.array([0.5, 1.7, 4.0, 5.0, 6.0, 8.5, 20.0, np.nan])
        np.testing.assert_array_equal(
            partition_points(rho, levels),
            [loop_level_of(levels.intervals, v) for v in rho],
        )


class TestRepresentatives:
    def test_selection_by_threshold(self):
        pts = random_points(np.random.default_rng(42), 40)
        profile = density_profile(cd_of(pts), 10)
        reps = select_representatives(profile, 1.0)
        np.testing.assert_array_equal(reps, np.where(profile.delta >= 1.0)[0])

    def test_unreachable_threshold(self):
        pts = random_points(np.random.default_rng(43), 40)
        profile = density_profile(cd_of(pts), 10)
        with pytest.raises(ParameterError):
            select_representatives(profile, 1e12)


class TestSplitBoundary:
    def test_mean_size_rule(self):
        clusters = [np.arange(0, 10), np.arange(10, 20), np.array([20])]
        kept, boundary = split_boundary(clusters)  # sizes 10, 10, 1 -> mean 7
        assert [len(c) for c in kept] == [10, 10]
        np.testing.assert_array_equal(boundary, [20])

    def test_equal_sizes_all_kept(self):
        clusters = [np.arange(0, 5), np.arange(5, 10)]
        kept, boundary = split_boundary(clusters)
        assert len(kept) == 2 and len(boundary) == 0

    def test_empty(self):
        kept, boundary = split_boundary([])
        assert kept == [] and len(boundary) == 0


class TestReassignBoundary:
    def test_no_higher_representative_keeps_the_points_and_warns(self, caplog):
        cd = cd_of([[0.0, 0], [1.0, 0], [3.0, 0]])
        initial, level = np.array([0, 0, 1]), np.ones(3, dtype=np.int64)
        with caplog.at_level(logging.WARNING, logger="vdpc"):
            got = reassign_boundary(cd, np.array([1]), np.array([0, 2]),
                                    np.array([1, 1]), initial, level)
        assert got[0].tolist() == [0, 0, 1] and got[1].tolist() == [1, 1, 1]
        assert caplog.messages == [
            "no representative above the lowest level; 1 boundary points "
            "stay in the lowest level"]


class TestMicroclusterPostprocess:
    def test_minority_micro_merges_pointwise(self):
        pts = np.array([[0.0, 0], [0.1, 0], [5.0, 0], [5.1, 0], [4.0, 0]])
        rho = np.array([10.0, 8.0, 9.0, 7.0, 1.0])
        clusters = [np.array([0, 1]), np.array([2, 3]), np.array([4])]
        merged = microcluster_postprocess(cd_of(pts), clusters, rho)
        merged_sets = {frozenset(c.tolist()) for c in merged}
        assert merged_sets == {frozenset({0, 1}), frozenset({2, 3, 4})}

    def test_majority_micro_left_alone(self):
        pts = np.array([[0.0, 0], [5.0, 0], [9.0, 0]])
        rho = np.array([10.0, 1.0, 1.0])
        clusters = [np.array([0]), np.array([1]), np.array([2])]
        merged = microcluster_postprocess(cd_of(pts), clusters, rho)
        assert [c.tolist() for c in merged] == [[0], [1], [2]]

    def test_no_micro_when_centers_balanced(self):
        pts = np.array([[0.0, 0], [0.1, 0], [5.0, 0], [5.1, 0]])
        rho = np.array([5.0, 4.0, 5.0, 4.0])
        clusters = [np.array([0, 1]), np.array([2, 3])]
        merged = microcluster_postprocess(cd_of(pts), clusters, rho)
        assert [c.tolist() for c in merged] == [[0, 1], [2, 3]]


def make_profile(points, rho):
    """DensityProfile with hand-set densities over real distances."""
    cd = cd_of(points)
    rho = np.asarray(rho, dtype=float)
    n = len(rho)
    order = np.lexsort((np.arange(n), -rho))
    # delta/nneigh are irrelevant for these tests; fill consistently
    delta = np.zeros(n)
    nneigh = np.full(n, -1)
    return cd, DensityProfile(rho=rho, delta=delta, nneigh=nneigh, d_c=1.0,
                              order=order)


class TestAssignNoise:
    def test_takes_nearest_denser_labeled(self):
        pts = np.array([[0.0], [1.0], [2.2], [10.0], [11.0]])
        cd, profile = make_profile(pts, [3, 2, 1, 5, 4])
        labels = np.array([0, 0, -1, 1, 1])
        out = assign_noise(cd, np.array([2]), labels, profile)
        assert out[2] == 0
        np.testing.assert_array_equal(out[[0, 1, 3, 4]], [0, 0, 1, 1])

    def test_density_argmax_noise_falls_back_to_nearest(self):
        pts = np.array([[0.0], [1.0], [2.2], [10.0], [11.0]])
        cd, profile = make_profile(pts, [3, 2, 1, 5, 4])
        labels = np.array([0, 0, 1, -1, 1])
        out = assign_noise(cd, np.array([3]), labels, profile)
        assert out[3] == 1  # nearest labeled, nothing denser exists

    def test_denser_noise_painted_first_then_visible(self):
        pts = np.array([[0.0], [1.0], [2.2], [10.0], [11.0]])
        cd, profile = make_profile(pts, [3, 2, 1, 5, 4])
        labels = np.array([0, -1, -1, 1, 1])
        out = assign_noise(cd, np.array([1, 2]), labels, profile)
        assert out[1] == 0  # painted first (denser), from point 0
        assert out[2] == 0  # then sees point 1's fresh label

    def test_empty_noise_is_identity(self):
        pts = np.array([[0.0], [1.0]])
        cd, profile = make_profile(pts, [2, 1])
        labels = np.array([0, 1])
        np.testing.assert_array_equal(
            assign_noise(cd, np.array([], dtype=int), labels, profile), labels
        )

    def test_requires_some_labeled_point(self):
        pts = np.array([[0.0], [1.0]])
        cd, profile = make_profile(pts, [2, 1])
        with pytest.raises(StageError):
            assign_noise(cd, np.array([0, 1]), np.array([-1, -1]), profile)


class TestAsnnc:
    def test_neighborhoods_use_all_points(self):
        # the subset's nearest neighbors live outside the subset
        rng = np.random.default_rng(44)
        pts = random_points(rng, 30)
        cd = cd_of(pts)
        subset = np.sort(rng.choice(30, size=12, replace=False))
        clusters = asnnc(cd, subset)
        got = np.full(30, -1)
        for c, members in enumerate(clusters):
            got[members] = c
        k = max(math.ceil(math.sqrt(len(subset))), 1)
        want = naive_snnc(pts.tolist(), k, subset=subset.tolist())
        assert same_partition(got[subset].tolist(), want)

    def test_singleton_subset(self):
        pts = random_points(np.random.default_rng(45), 10)
        clusters = asnnc(cd_of(pts), np.array([4]))
        assert [c.tolist() for c in clusters] == [[4]]

    def test_empty_subset(self):
        pts = random_points(np.random.default_rng(46), 10)
        assert asnnc(cd_of(pts), np.array([], dtype=int)) == []


class TestVdpcRun:
    def test_single_level_equals_initial_assignment(self, distances):
        cd = distances["flame"]
        result = vdpc_run(cd, VdpcParams(*BEST_PARAMS["flame"]))
        assert result.levels.numl == 1
        profile = density_profile(cd, BEST_PARAMS["flame"][0])
        reps = select_representatives(profile, BEST_PARAMS["flame"][1])
        np.testing.assert_array_equal(result.labels, dpc_assign(profile, reps))

    def test_labels_contiguous_and_complete(self, distances):
        for name, (pct, dt) in BEST_PARAMS.items():
            result = vdpc_run(distances[name], VdpcParams(pct, dt))
            labels = result.labels
            assert labels.min() == 0
            ids = np.unique(labels)
            np.testing.assert_array_equal(ids, np.arange(len(ids)))

    def test_deterministic(self, distances):
        a = vdpc_run(distances["compound"], VdpcParams(1.9, 1.39))
        b = vdpc_run(distances["compound"], VdpcParams(1.9, 1.39))
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.point_level, b.point_level)

    def test_boundary_points_moved_up(self, distances):
        result = vdpc_run(distances["compound"], VdpcParams(1.9, 1.39))
        assert result.levels.numl == 2
        assert len(result.boundary_points) > 0
        assert np.all(result.point_level[result.boundary_points] >= 2)

    def test_low_clusters_cover_initial_low_level(self, distances):
        result = vdpc_run(distances["compound"], VdpcParams(1.9, 1.39))
        covered = np.sort(np.concatenate([c for c in result.low_clusters]))
        # every pre-reassignment low point is in exactly one low cluster
        low_now = set(np.where(result.point_level == 1)[0].tolist())
        moved = set(result.boundary_points.tolist())
        assert set(covered.tolist()) == low_now | moved
        assert len(covered) == len(set(covered.tolist()))

    def test_derivation_matches_hand_stepped_oracle(self, datasets, distances):
        cd = distances["compound"]
        pts_xy = datasets["compound"].points
        result = vdpc_run(cd, VdpcParams(1.9, 1.39))
        assert len(result.derivations) == 1
        level, d = result.derivations[0]
        assert level == 2
        rho = result.profile.rho
        initial = result.initial_labels
        level_pts = sorted(np.where(result.point_level == 2)[0].tolist())
        reps = [int(r) for r, lv in zip(result.representatives, result.rep_level)
                if lv == 2]
        # anchor representatives: density extremes, ties to lower index
        x_low = min(reps, key=lambda r: (rho[r], r))
        x_high = min(reps, key=lambda r: (-rho[r], r))
        members_low = [p for p in level_pts if initial[p] == initial[x_low]]
        members_high = [p for p in level_pts if initial[p] == initial[x_high]]
        dist = lambda i, j: euclidean(pts_xy[i], pts_xy[j])
        x_far = min(members_low, key=lambda p: (-dist(x_low, p), p))
        lo, hi = result.levels.intervals[1]
        c_int = sum(1 for p in members_low if lo - 1e-12 <= rho[p] <= hi + 1e-12)
        idx = min(max(math.ceil(math.sqrt(c_int)), 1), len(level_pts) - 1)
        sim = sorted(dist(x_far, p) for p in level_pts if p != x_far)
        eps = sim[idx - 1]
        ml = sum(1 for p in members_low if dist(x_far, p) < eps)
        mh = sum(1 for p in members_high if dist(x_high, p) < eps)
        assert d.x_low == x_low
        assert d.x_high == x_high
        assert d.x_far == x_far
        assert d.eps == pytest.approx(eps, abs=1e-12)
        assert d.minpts_low == ml
        assert d.minpts_high == mh
        assert d.minpts == math.ceil((ml + mh) / 2)
        # derived-count invariants
        assert 1 <= d.minpts <= max(d.minpts_low, d.minpts_high)

    def test_point_level_inherits_representative_level(self, distances):
        result = vdpc_run(distances["pathbased"], VdpcParams(0.4, 3.5))
        assert result.levels.numl == 2
        moved = set(result.boundary_points.tolist())
        rep_of = result.initial_labels  # cluster ids index sorted reps
        reps = result.representatives
        for i in np.where(result.point_level >= 1)[0]:
            if i in moved:
                continue
            # a non-boundary point sits at its representative's level
            rep = reps[rep_of[i]]
            if rep not in moved:
                assert result.point_level[i] == result.rep_level[rep_of[i]]

    def test_midpoint_assignment_is_available(self, distances):
        result = vdpc_run(
            distances["compound"],
            VdpcParams(1.9, 1.39),
            AblationOptions(level_assignment="midpoint"),
        )
        levels = result.levels
        rho = result.profile.rho
        moved = set(result.boundary_points.tolist())
        for i in range(distances["compound"].n):
            if i not in moved:
                assert result.point_level[i] == loop_level_of(levels.intervals, rho[i])

    def test_runs_share_one_profile_per_rank(self, datasets):
        cd = pairwise_distances(datasets["flame"])
        first = vdpc_run(cd, VdpcParams(5, 5.5)).profile
        assert vdpc_run(cd, VdpcParams(5, 3.0, 5)).profile is first
        # 5 and 5.001 percent of 28,680 pairs both round to rank 1,434
        assert vdpc_run(cd, VdpcParams(5.001, 5.5)).profile is first

    def test_other_rank_gets_its_own_profile(self, datasets):
        cd = pairwise_distances(datasets["flame"])
        at5 = vdpc_run(cd, VdpcParams(5, 5.5)).profile
        at4 = vdpc_run(cd, VdpcParams(4, 5.5)).profile
        fresh = density_profile(pairwise_distances(datasets["flame"]), 4)
        assert at4 is not at5 and at4.d_c != at5.d_c
        for name in ("rho", "delta", "nneigh", "order"):
            assert getattr(at4, name).tobytes() == getattr(fresh, name).tobytes()
        assert at4.d_c == fresh.d_c

    def test_repeat_run_computes_no_profile(self, datasets, monkeypatch):
        cd = pairwise_distances(datasets["compound"])
        first = vdpc_run(cd, VdpcParams(1.9, 1.39))

        def computed(*args):
            raise AssertionError("density_profile ran again")

        monkeypatch.setattr(vdpc.density, "density_profile", computed)
        again = vdpc_run(cd, VdpcParams(1.9, 1.0, 5))
        assert again.profile is first.profile

    def test_low_noise_is_what_the_low_level_left_unlabeled(self, distances):
        result = vdpc_run(distances["pathbased"], VdpcParams(0.4, 3.5),
                          AblationOptions(combo="dbscan+dbscan"))
        low = np.concatenate([*result.low_clusters, result.low_noise])
        expected = np.union1d(np.flatnonzero(result.point_level == 1),
                              result.boundary_points)
        np.testing.assert_array_equal(np.sort(low), expected)
        assert np.all(result.pre_noise_labels[result.low_noise] == -1)

    def test_duplicate_heavy_data_degenerates_cleanly(self):
        # with this many coincident pairs the distance percentile is zero
        pts = np.array([[0.0, 0]] * 12 + [[5.0, 5]] * 12 + [[2.5, 2.5]])
        with pytest.raises(ParameterError):
            vdpc_run(cd_of(pts), VdpcParams(20, 0.5))

    def test_zero_radius_derivation_raises_stage_error(self):
        # the anchor's far point sits on a stack of duplicates, so the
        # derived radius collapses to zero
        pts = np.array([[0.0, 0], [5.0, 0], [5.0, 0], [5.0, 0]])
        cd = cd_of(pts)
        rho = np.array([10.0, 1.0, 1.0, 1.0])
        with pytest.raises(StageError):
            derive_adbscan_params(
                cd,
                rho,
                initial=np.zeros(4, dtype=int),
                level_points=np.arange(4),
                reps_in_level=np.array([0]),
                interval=(1.0, 10.0),
            )

    @pytest.mark.parametrize("level_points, reps, why", [
        ([1], [1], "level needs at least 2 points"),
        ([0, 1, 2], [], "level has no representative"),
    ])
    def test_derivation_refuses_a_degenerate_level(self, level_points, reps, why):
        with pytest.raises(StageError, match="^adbscan-derivation: " + why):
            derive_adbscan_params(
                cd_of([[0.0, 0], [1.0, 0], [3.0, 0]]),
                np.ones(3),
                initial=np.zeros(3, dtype=int),
                level_points=np.array(level_points),
                reps_in_level=np.array(reps, dtype=int),
                interval=(0.0, 2.0),
            )


def count_level_passes(monkeypatch, names=("asnnc", "adbscan_level")) -> list:
    """Patch the level clusterers, or the pipeline functions ``names``, to
    record each call; returns the record."""
    calls = []
    for name in names:
        fn = getattr(pipeline, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


def same_result(got, want):
    """Every field of two results, arrays bitwise."""
    for name in ("labels", "representatives", "initial_labels", "rep_level",
                 "point_level", "low_noise", "boundary_points", "pre_noise_labels"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert [c.tobytes() for c in got.low_clusters] == [
        c.tobytes() for c in want.low_clusters]
    assert got.derivations == want.derivations
    assert got.levels == want.levels


# Cells of one level state, from the sweep grid: compound's differ only in
# num, jain's only in delta_t.
SHARED_STATE = {
    "num": ("compound", VdpcParams(1.14, 0.834, 10), VdpcParams(1.14, 0.834, 15)),
    "delta_t": ("jain", VdpcParams(30, 3.3, 5), VdpcParams(30, 4.4, 5)),
}


class TestLevelMemo:
    @pytest.mark.parametrize("differ", list(SHARED_STATE))
    def test_cells_of_one_state_share_a_level_pass(self, datasets, differ,
                                                   monkeypatch):
        name, first, second = SHARED_STATE[differ]
        want = [vdpc_run(datasets[name], p) for p in (first, second)]
        calls = count_level_passes(monkeypatch)
        cd = pairwise_distances(datasets[name])
        got = vdpc_run(cd, first)
        passes = len(calls)
        assert got.levels.numl > 1 and passes > 0
        same_result(got, want[0])
        same_result(vdpc_run(cd, second), want[1])
        assert len(calls) == passes

    @pytest.mark.parametrize("option", [
        dict(k_rule="ln"), dict(eps_rule="ln"), dict(combo="snnc+snnc"),
        dict(level_assignment="midpoint"),
    ], ids=lambda option: next(iter(option)))
    def test_other_options_get_their_own_pass(self, datasets, option, monkeypatch):
        params = VdpcParams(1.9, 1.39)
        want = vdpc_run(datasets["compound"], params, AblationOptions(**option))
        calls = count_level_passes(monkeypatch)
        cd = pairwise_distances(datasets["compound"])
        vdpc_run(cd, params)
        passes = len(calls)
        got = vdpc_run(cd, params, AblationOptions(**option))
        assert len(calls) > passes
        same_result(got, want)

    def test_other_intervals_get_their_own_pass(self, monkeypatch):
        # three blobs of rising density: num 5 opens one gap, num 15 two
        rng = np.random.default_rng(1)
        pts = np.round(np.concatenate([
            rng.normal(c, s, size=(m, 2)) for c, s, m in
            (([0, 0], 1.5, 20), ([12, 0], 0.9, 40), ([0, 12], 0.6, 80))]), 3)
        wide, narrow = VdpcParams(8, 5.0, 5), VdpcParams(8, 5.0, 15)
        want = [vdpc_run(cd_of(pts), p) for p in (wide, narrow)]
        calls = count_level_passes(monkeypatch)
        cd = cd_of(pts)
        same_result(vdpc_run(cd, wide), want[0])
        passes = len(calls)
        same_result(vdpc_run(cd, narrow), want[1])
        assert len(calls) > passes
        assert [r.levels.numl for r in want] == [2, 3]
        assert want[0].representatives.tobytes() == want[1].representatives.tobytes()

    @pytest.mark.parametrize("name", ["flame", "compound"])  # one level, two
    def test_cells_of_one_pair_share_initial_labels_and_levels(
            self, datasets, name, monkeypatch):
        # two delta_t of the same representatives, each at two num, all of
        # one level state: one DPC assignment, levels computed per cell,
        # and results whose arrays are their own
        pct, delta_t = BEST_PARAMS[name]
        cells = [VdpcParams(pct, d, num) for d in (delta_t, delta_t * 1.001)
                 for num in (10, 15)]
        want = [vdpc_run(datasets[name], p) for p in cells]
        assert len({(w.representatives.tobytes(), w.levels.intervals)
                    for w in want}) == 1
        calls = count_level_passes(monkeypatch, ("dpc_assign", "compute_levels"))
        cd = pairwise_distances(datasets[name])
        for p, w in zip(cells, want):
            got = vdpc_run(cd, p)
            same_result(got, w)
            for a in (got.labels, got.initial_labels, got.rep_level,
                      got.point_level, got.pre_noise_labels):
                a[:] = 7
        assert sorted(calls) == ["compute_levels"] * len(cells) + ["dpc_assign"]

    def test_one_level_cells_share_their_state(self, datasets, caplog,
                                               monkeypatch):
        pct, delta_t = BEST_PARAMS["flame"]
        first, second = VdpcParams(pct, delta_t, 10), VdpcParams(pct, delta_t, 15)
        want = vdpc_run(datasets["flame"], second)
        calls = count_level_passes(monkeypatch, ("dpc_assign",))
        cd = pairwise_distances(datasets["flame"])
        caplog.set_level(logging.DEBUG, logger="vdpc")
        got = vdpc_run(cd, first)
        assert got.levels.numl == 1
        dpc = (got.labels, got.initial_labels, got.pre_noise_labels)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(dpc)
                       for b in dpc[i + 1:])
        for a in (*dpc, got.rep_level, got.point_level):
            a[:] = 7
        same_result(vdpc_run(cd, second), want)
        assert calls == ["dpc_assign"]
        hits = [r for r in caplog.records if "level state" in r.message]
        assert [h.args for h in hits] == [(vdpc.density._rank(cd.n, pct), 1)]

    def test_changing_a_result_leaves_later_hits_intact(self, datasets):
        name, first, second = SHARED_STATE["num"]
        want = vdpc_run(datasets[name], second)
        cd = pairwise_distances(datasets[name])
        for _ in range(2):
            got = vdpc_run(cd, first)
            for a in (got.labels, got.initial_labels, got.point_level,
                      got.low_noise, got.boundary_points, got.pre_noise_labels,
                      *got.low_clusters):
                a[:] = 7
            got.low_clusters.clear()
            got.derivations.clear()
        same_result(vdpc_run(cd, second), want)

    def test_a_hit_carries_its_own_levels(self, datasets):
        name, first, second = SHARED_STATE["num"]
        cd = pairwise_distances(datasets[name])
        a, b = vdpc_run(cd, first), vdpc_run(cd, second)
        assert a.levels.intervals == b.levels.intervals
        assert b.levels == compute_levels(b.profile.rho[b.representatives],
                                          second.num)
        assert b.levels.w != a.levels.w

    def test_a_failed_level_pass_is_not_kept(self, datasets, monkeypatch):
        name, first, _ = SHARED_STATE["num"]
        want = vdpc_run(datasets[name], first)
        cd = pairwise_distances(datasets[name])

        def failing(*args):
            raise StageError("asnnc", "injected")

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "asnnc", failing)
            with pytest.raises(StageError):
                vdpc_run(cd, first)
        assert list(cd._memo) == [("profile", vdpc.density._rank(cd.n, first.pct))]
        same_result(vdpc_run(cd, first), want)

    def test_a_profile_whose_cutoff_is_zero_is_not_kept(self):
        pts = np.array([[0.0, 0]] * 12 + [[5.0, 5]] * 12 + [[2.5, 2.5]])
        cd = cd_of(pts)
        with pytest.raises(ParameterError, match="d_c is 0"):
            vdpc_run(cd, VdpcParams(20, 0.5))
        assert cd._memo == {}

    def test_the_sweep_grid_shares_profiles_and_level_states(
            self, tmp_path, monkeypatch, capsys):
        # the 450 cells of the benchmark's sweep grid: 30 profiles, 111
        # level states (39 of them multi-level), one DPC assignment each
        calls = count_level_passes(monkeypatch, ("dpc_assign", "asnnc"))
        profile = vdpc.density.density_profile

        def counted(*args):
            calls.append("density_profile")
            return profile(*args)

        monkeypatch.setattr(vdpc.density, "density_profile", counted)
        steps = (0.6, 0.8, 1.0, 1.2, 1.4)
        for name, (pct, delta_t) in BEST_PARAMS.items():
            assert main(["sweep", "--dataset", name,
                         "--pct", ",".join("%.12g" % (pct * s) for s in steps),
                         "--delta-t", ",".join("%.12g" % (delta_t * s) for s in steps),
                         "--num", "5,10,15", "--output-dir", str(tmp_path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6 * 76
        assert (calls.count("density_profile"), calls.count("dpc_assign"),
                calls.count("asnnc")) == (30, 111, 39)

    def test_a_hit_is_logged_with_its_state(self, datasets, caplog):
        name, first, second = SHARED_STATE["num"]
        cd = pairwise_distances(datasets[name])
        caplog.set_level(logging.DEBUG, logger="vdpc")
        vdpc_run(cd, first)
        assert not [r for r in caplog.records if "level state" in r.message]
        vdpc_run(cd, second)
        hits = [r for r in caplog.records if "level state" in r.message]
        assert len(hits) == 1 and hits[0].name == "vdpc"
        assert hits[0].levelno == logging.DEBUG
        k = vdpc.density._rank(cd.n, second.pct)
        assert hits[0].args == (k, 2)
