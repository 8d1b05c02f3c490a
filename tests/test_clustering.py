"""Tests for capability-matrix scaling and fuzzy c-means clustering.

A fleet is one (n, 3) float64 matrix of (cpu GHz, memory GB, bandwidth Mbps)
rows, scaled per axis with minmax_scale before the fit.

The FCM checks validate the converged partition against the alternating
optimality conditions recomputed in-test, rather than trusting the library's
own update code.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cfhfc import (
    FuzzyPartition,
    ResourceWeights,
    fcm_fit,
)
from cfhfc import clustering
from cfhfc.clustering import (
    _memberships_from_distances,
    _weighted_norm,
    fcm_fit_stack,
    minmax_scale,
)

SQRT_03 = 0.5477225575051661  # sqrt(0.3), the cpu-axis unit distance


def random_profiles(rng, n):
    """An (n, 3) raw capability matrix, drawn device by device (cpu, memory, bandwidth)."""
    return np.array(
        [
            (rng.uniform(0.5, 3.0), rng.uniform(0.5, 16.0), rng.uniform(5.0, 200.0))
            for _ in range(n)
        ]
    )


def membership_oracle(points, centroids, m, w):
    """Straightforward reimplementation of the FCM membership ratio."""
    axis = np.sqrt(w.as_array())
    out = np.zeros((len(points), len(centroids)))
    for i, p in enumerate(points):
        dists = np.array([np.linalg.norm(axis * (p - c)) for c in centroids])
        zero = dists == 0.0
        if zero.any():
            out[i, zero] = 1.0 / zero.sum()
            continue
        for k, dk in enumerate(dists):
            out[i, k] = 1.0 / np.sum((dk / dists) ** (2.0 / (m - 1.0)))
    return out


class TestNormalization:
    def test_linear_scaling_per_axis(self):
        profiles = np.array([[1.2, 1.0, 20.0], [1.5, 4.0, 50.0], [1.8, 8.0, 100.0]])
        normed = minmax_scale(profiles)
        assert normed.shape == (3, 3)
        np.testing.assert_allclose(normed[:, 0], [0.0, 0.5, 1.0], atol=1e-12)
        np.testing.assert_allclose(normed[:, 1], [0.0, 3.0 / 7.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(normed[:, 2], [0.0, 0.375, 1.0], atol=1e-12)

    def test_constant_axis_maps_to_half(self):
        normed = minmax_scale(np.array([[2.0, 4.0, 50.0], [2.0, 8.0, 50.0]]))
        assert normed[0, 0] == 0.5
        assert normed[1, 0] == 0.5
        assert normed[0, 2] == 0.5

    def test_minmax_constant_column(self):
        column = np.array([[3.0], [3.0], [3.0]])
        np.testing.assert_array_equal(minmax_scale(column), np.full((3, 1), 0.5))

    def test_minmax_mixed_columns(self):
        data = np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
        scaled = minmax_scale(data)
        np.testing.assert_allclose(scaled[:, 0], [0.0, 0.5, 1.0], atol=1e-15)
        np.testing.assert_array_equal(scaled[:, 1], 0.5)
        np.testing.assert_array_equal(data, [[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows", [1023, 1024, 1100, 4133])
    def test_long_matrix_matches_plain_broadcast_bytes(self, rows, order):
        """From 1,024 rows a C-ordered matrix is scaled 64 rows at a time, as one wide row;
        every double is (values - lo) / span's, in either memory order."""
        rng = np.random.default_rng(rows)
        values = np.asarray(rng.normal(size=(rows, 5)), order=order)
        values[::3, 1] = values[:, 1].min()  # a zero after the subtract, on many rows
        values[:, 4] = 2.0  # a constant column
        lo, hi = values.min(axis=0), values.max(axis=0)
        want = (values - lo) / np.where(hi == lo, 1.0, hi - lo)
        want[:, 4] = 0.5
        assert clustering.minmax_scale_in_place(values).tobytes() == want.tobytes()


def norm(a, b, w):
    """The fit's weighted distance between capability triples, for one weighting."""
    return _weighted_norm(a, b, w.as_array())


class TestWeightedDistance:
    """The weighted distance the fit computes with _weighted_norm."""

    def test_identity_is_zero(self):
        w = ResourceWeights()
        p = np.array([0.3, 0.7, 0.1])
        assert norm(p, p, w) == 0.0

    def test_single_axis_unit_step(self):
        w = ResourceWeights()
        a = np.array([1.0, 0.5, 0.5])
        b = np.array([0.0, 0.5, 0.5])
        assert float(norm(a, b, w)) == pytest.approx(SQRT_03, abs=1e-12)

    def test_full_diagonal_has_unit_length(self):
        # weights sum to one, so the all-ones corner is at distance 1
        for w in (ResourceWeights(), ResourceWeights(0.5, 0.25, 0.25)):
            d = float(norm(np.ones(3), np.zeros(3), w))
            assert d == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        w = ResourceWeights()
        a, b = rng.random(3), rng.random(3)
        assert norm(a, b, w) == norm(b, a, w)

    def test_block_matches_row_by_row(self):
        rng = np.random.default_rng(8)
        w = ResourceWeights(0.2, 0.3, 0.5)
        block, other = rng.random((50, 3)), rng.random(3)
        block[7] = other  # a coincident row
        rows = [norm(row, other, w) for row in block]
        np.testing.assert_array_equal(norm(block, other, w), rows)
        pairs = [norm(a, b, w) for a, b in zip(block, block[::-1])]
        np.testing.assert_array_equal(norm(block, block[::-1], w), pairs)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ResourceWeights(0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="non-negative"):
            ResourceWeights(-0.2, 0.6, 0.6)


class TestComputeMemberships:
    """The membership rule fcm_fit applies, on one-row distance matrices."""

    def test_equidistant_splits_evenly(self):
        mu = _memberships_from_distances(np.array([[0.3, 0.3]]), m=3.0)
        np.testing.assert_allclose(mu, [[0.5, 0.5]], atol=1e-12)

    def test_two_to_one_distance_ratio(self):
        # with m = 3 the membership exponent is 1, so mu = (2/3, 1/3)
        mu = _memberships_from_distances(np.array([[SQRT_03 * 0.1, SQRT_03 * 0.2]]), m=3.0)
        np.testing.assert_allclose(mu, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_coincident_centroid_takes_all_mass(self):
        mu = _memberships_from_distances(np.array([[0.0, 0.6]]), m=3.0)
        np.testing.assert_array_equal(mu, [[1.0, 0.0]])

    def test_two_coincident_centroids_share_mass(self):
        mu = _memberships_from_distances(np.array([[0.0, 0.0, 0.6]]), m=3.0)
        np.testing.assert_array_equal(mu, [[0.5, 0.5, 0.0]])


class TestFcmFit:
    def test_single_cluster_gets_full_membership(self):
        rng = np.random.default_rng(1)
        profiles = minmax_scale(random_profiles(rng, 8))
        part = fcm_fit(profiles, num_clusters=1)
        np.testing.assert_allclose(part.memberships, 1.0, atol=1e-12)

    def test_two_tight_groups_separate(self):
        slow = [(1.0 + 0.01 * i, 1.0 + 0.02 * i, 10.0 + 0.1 * i) for i in range(4)]
        fast = [(3.0 + 0.01 * i, 15.0 + 0.02 * i, 190.0 + 0.1 * i) for i in range(4)]
        profiles = minmax_scale(slow + fast)
        part = fcm_fit(profiles, num_clusters=2)
        groups = part.memberships.argmax(axis=1)
        assert len(set(groups[:4])) == 1
        assert len(set(groups[4:])) == 1
        assert groups[0] != groups[4]
        assert part.memberships.max(axis=1).min() >= 0.9

    def test_converged_partition_is_a_fixed_point(self):
        """At the fixed point, memberships match the ratio formula for the
        final centroids and each centroid is the mu^m-weighted mean."""
        rng = np.random.default_rng(2)
        points = minmax_scale(random_profiles(rng, 20))
        w = ResourceWeights()
        part = fcm_fit(points, num_clusters=3, weights=w, max_iter=500)

        expected_mu = membership_oracle(points, part.centroids, part.fuzzifier, w)
        np.testing.assert_allclose(part.memberships, expected_mu, atol=1e-9)

        mass = part.memberships**part.fuzzifier
        for k in range(3):
            total = mass[:, k].sum()
            if total > 0:
                expected_centroid = mass[:, k] @ points / total
                np.testing.assert_allclose(
                    part.centroids[k], expected_centroid, atol=1e-4
                )

    def test_identical_profiles_split_evenly(self):
        profiles = minmax_scale(np.tile([2.0, 4.0, 50.0], (6, 1)))
        part = fcm_fit(profiles, num_clusters=2)
        np.testing.assert_allclose(part.memberships, 0.5, atol=1e-6)

    def test_membership_rows_and_objective_on_many_instances(self):
        """100 seeded random instances: rows sum to one and the recorded
        objective never increases."""
        rng = np.random.default_rng(3)
        for trial in range(100):
            n = int(rng.integers(6, 51))
            k = int(rng.integers(1, 7))
            profiles = minmax_scale(random_profiles(rng, n))
            part = fcm_fit(profiles, num_clusters=k, seed=trial)
            np.testing.assert_allclose(
                part.memberships.sum(axis=1), 1.0, rtol=0, atol=1e-9
            )
            assert (part.memberships >= 0).all()
            trace = part.objective_trace
            assert len(trace) == part.iterations_used
            for prev, cur in zip(trace, trace[1:]):
                assert cur <= prev + 1e-9

    def test_large_fuzzifier_flattens_memberships(self):
        rng = np.random.default_rng(4)
        profiles = minmax_scale(random_profiles(rng, 24))
        part = fcm_fit(profiles, num_clusters=4, fuzzifier=10.0)
        assert np.abs(part.memberships - 0.25).max() < 0.1

    def test_permutation_equivariance(self):
        """Relabeling the input order permutes membership rows once the seed
        is mapped so both runs start from the same physical point."""
        rng = np.random.default_rng(5)
        profiles = random_profiles(rng, 12)
        perm = list(rng.permutation(12))
        shuffled = profiles[perm]

        seed = 3
        first_index = seed % 12
        mapped_seed = perm.index(first_index)

        base = fcm_fit(minmax_scale(profiles), 3, seed=seed)
        moved = fcm_fit(minmax_scale(shuffled), 3, seed=mapped_seed)
        np.testing.assert_allclose(
            moved.memberships, base.memberships[perm], atol=1e-6
        )

    def test_validation_errors(self):
        rng = np.random.default_rng(6)
        raw = random_profiles(rng, 4)
        with pytest.raises(ValueError, match="not normalized"):
            fcm_fit(raw, num_clusters=2)
        profiles = minmax_scale(raw)
        with pytest.raises(ValueError, match="cannot fill"):
            fcm_fit(profiles, num_clusters=5)
        for fuzzifier in (1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^fuzzifier must be finite and > 1"):
                fcm_fit(profiles, num_clusters=2, fuzzifier=fuzzifier)
        for max_iter in (0, -5):
            with pytest.raises(ValueError, match="^max_iter must be >= 1"):
                fcm_fit(profiles, num_clusters=2, max_iter=max_iter)
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="^tol must be > 0"):
                fcm_fit(profiles, num_clusters=2, tol=tol)

    def test_rejects_matrix_without_three_columns(self):
        points = minmax_scale(random_profiles(np.random.default_rng(6), 4))
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            fcm_fit(points[:, :2], num_clusters=2)

    def test_partition_reports_metadata(self):
        rng = np.random.default_rng(7)
        profiles = minmax_scale(random_profiles(rng, 10))
        part = fcm_fit(profiles, num_clusters=2, fuzzifier=2.5)
        assert isinstance(part, FuzzyPartition)
        assert part.fuzzifier == 2.5
        assert part.memberships.shape == (10, 2)
        assert part.centroids.shape == (2, 3)
        assert 1 <= part.iterations_used <= 100

    def test_seeding_allocates_no_pairwise_matrix(self):
        """One iteration over 2,000 profiles peaks far below the 32 MB of an
        (n, n) distance matrix: seeding writes only the (n, K) one."""
        points = np.random.default_rng(9).random((2000, 3))
        tracemalloc.start()
        try:
            fcm_fit(points, 2, max_iter=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


# Verbatim copies of fcm_fit (less its input checks) and its helpers as they
# stood before the fit was rebuilt on one distance buffer and one centroid
# matmul. The replay tests below hold the rebuilt fit to these bytes.


def reference_weighted_distance(a, b, w):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1:] != (3,) or b.shape[-1:] != (3,):
        raise ValueError(
            f"capability triples must have a last axis of 3, got {a.shape} and {b.shape}"
        )
    d = a - b
    return np.sqrt(np.sum(w.as_array() * d * d, axis=-1))


def reference_distance_matrix(points, centroids, w):
    return reference_weighted_distance(points[:, None, :], centroids[None, :, :], w)


def reference_memberships_from_distances(dist, m):
    zeros = dist == 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios = (dist[:, :, None] / dist[:, None, :]) ** (2.0 / (m - 1.0))
        out = 1.0 / ratios.sum(axis=2)
    hit = zeros.any(axis=1)
    out[hit] = zeros[hit] / zeros[hit].sum(axis=1, keepdims=True)
    return out


def reference_farthest_point_init(points, k, w, seed):
    n = points.shape[0]
    chosen = [seed % n]
    min_dist = reference_weighted_distance(points, points[chosen[-1]], w)
    while len(chosen) < k:
        nxt = int(min_dist.argmax())
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, reference_weighted_distance(points, points[nxt], w))
    return points[chosen].copy()


def reference_objective(dist, memberships, m):
    return float(np.sum(memberships**m * dist**2))


def reference_fcm_fit(points, num_clusters, fuzzifier=3.0, weights=None,
                      max_iter=100, tol=1e-7, seed=0):
    if weights is None:
        weights = ResourceWeights()
    points = np.asarray(points, dtype=np.float64)
    centroids = reference_farthest_point_init(points, num_clusters, weights, seed)
    dist = reference_distance_matrix(points, centroids, weights)
    trace = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        memberships = reference_memberships_from_distances(dist, fuzzifier)
        mass = memberships**fuzzifier
        new_centroids = centroids.copy()
        for cluster in range(num_clusters):
            total = mass[:, cluster].sum()
            if total > 0.0:
                new_centroids[cluster] = mass[:, cluster] @ points / total
        moved = reference_weighted_distance(new_centroids, centroids, weights).max()
        centroids = new_centroids
        dist = reference_distance_matrix(points, centroids, weights)
        trace.append(reference_objective(dist, memberships, fuzzifier))
        if moved < tol:
            break
    return FuzzyPartition(
        memberships=reference_memberships_from_distances(dist, fuzzifier),
        centroids=centroids,
        fuzzifier=fuzzifier,
        iterations_used=iterations,
        objective_trace=tuple(trace),
    )


FUZZIFIERS = (1.5, 2.0, 2.5, 3.0, 10.0)  # at 2 the exponent hits numpy's square path


def replay_points(rng, n, kind):
    """n normalized profiles: uniform, on a coarse grid (ties and coincident
    rows), with a duplicated block, or all equal."""
    if kind == "uniform":
        return rng.random((n, 3))
    if kind == "grid":
        return rng.integers(0, 4, size=(n, 3)) / 3.0
    if kind == "duplicates":
        points = rng.random((n, 3))
        points[n // 2 :] = points[: n - n // 2]
        return points
    return np.full((n, 3), 0.5)


def replay_cases(count, seed):
    """count seeded (points, K, fuzzifier, weights, max_iter, seed) cases
    over n in [2, 120] and K in [1, min(n, 16)]."""
    rng = np.random.default_rng(seed)
    kinds = ("uniform", "grid", "duplicates", "equal")
    for case in range(count):
        n = int(rng.integers(2, 121)) if case % 5 else int(rng.integers(2, 17))
        k = int(rng.integers(1, min(n, 16) + 1))
        kind = kinds[case % 7 % 4]  # equal profiles in 1 case of 7
        cut = np.sort(rng.random(2))
        weights = ResourceWeights() if case % 3 else ResourceWeights(
            cut[0], cut[1] - cut[0], 1.0 - cut[1]
        )
        max_iter = 1 if case % 11 == 0 else 40
        yield (replay_points(rng, n, kind), k, FUZZIFIERS[case % len(FUZZIFIERS)],
               weights, max_iter, int(rng.integers(0, 1000)))


def partition_bytes(part):
    return (
        part.memberships.tobytes(),
        part.centroids.tobytes(),
        part.iterations_used,
        np.array(part.objective_trace).tobytes(),
    )


class TestParentReplay:
    """The rebuilt fit gives the parent's bytes: memberships, centroids,
    iterations and objective trace."""

    def test_fcm_fit_matches_reference_bytes(self):
        max_iter_one = 0
        for points, k, m, weights, max_iter, seed in replay_cases(330, seed=11):
            max_iter_one += max_iter == 1
            got = fcm_fit(points, k, fuzzifier=m, weights=weights,
                          max_iter=max_iter, seed=seed)
            want = reference_fcm_fit(points, k, fuzzifier=m, weights=weights,
                                     max_iter=max_iter, seed=seed)
            assert partition_bytes(got) == partition_bytes(want), (len(points), k, m)
        assert max_iter_one >= 30

    def test_default_max_iter_matches_reference_bytes(self):
        for points, k, m, weights, _, seed in replay_cases(20, seed=12):
            got = fcm_fit(points, k, fuzzifier=m, weights=weights, seed=seed)
            want = reference_fcm_fit(points, k, fuzzifier=m, weights=weights, seed=seed)
            assert partition_bytes(got) == partition_bytes(want), (len(points), k, m)

    def test_distance_matrix_matches_reference_bytes(self):
        rng = np.random.default_rng(13)
        for case in range(300):
            n, k = int(rng.integers(1, 121)), int(rng.integers(1, 17))
            points = replay_points(rng, n, ("uniform", "grid", "duplicates")[case % 3])
            centroids = points[rng.integers(0, n, size=k)] if case % 2 else rng.random((k, 3))
            w = ResourceWeights(*rng.dirichlet(np.ones(3)))
            got = _weighted_norm(points[:, None, :], centroids, w.as_array(), np.empty((n, k)))
            assert got.tobytes() == reference_distance_matrix(points, centroids, w).tobytes()

    def test_weighted_distance_matches_reference_bytes(self):
        """Two triples, a block against a triple, and row pairs."""
        rng = np.random.default_rng(15)
        for case in range(300):
            n = int(rng.integers(1, 121))
            block = replay_points(rng, n, ("uniform", "grid", "duplicates")[case % 3])
            w = ResourceWeights(*rng.dirichlet(np.ones(3)))
            for a, b in ((block[0], block[-1]), (block, block[n // 2]), (block, block[::-1])):
                got = _weighted_norm(a, b, w.as_array())
                want = reference_weighted_distance(a, b, w)
                assert got.shape == np.shape(want)
                assert got.tobytes() == np.asarray(want).tobytes()

    def test_memberships_match_reference_bytes(self):
        rng = np.random.default_rng(14)
        for case in range(300):
            n, k = int(rng.integers(1, 121)), int(rng.integers(1, 17))
            dist = rng.random((n, k))
            dist[rng.random((n, k)) < 0.05] = 0.0  # coincident centroids
            m = FUZZIFIERS[case % len(FUZZIFIERS)]
            got = _memberships_from_distances(dist, m)
            assert got.tobytes() == reference_memberships_from_distances(dist, m).tobytes()


def stack_cases(count, seed):
    """count stacks of 1-5 slices of one shape: each replay case's points, K,
    fuzzifier, weights and max_iter, then slices of mixed kinds, each with its
    own seed."""
    rng = np.random.default_rng(seed)
    kinds = ("uniform", "grid", "duplicates", "equal")
    for case, (points, k, m, weights, max_iter, first) in enumerate(replay_cases(count, seed)):
        size = 1 + case % 5
        more = [replay_points(rng, len(points), kinds[int(rng.integers(4))]) for _ in range(size - 1)]
        seeds = [first, *rng.integers(0, 1000, size=size - 1).tolist()]
        yield np.stack([points, *more]), k, m, weights, max_iter, seeds


class TestFitStack:
    """fcm_fit_stack fits each slice as reference_fcm_fit fits it alone."""

    def test_each_slice_matches_reference_bytes(self):
        seen = Counter()
        for points, k, m, weights, max_iter, seeds in stack_cases(200, seed=21):
            got = fcm_fit_stack(points, k, fuzzifier=m, weights=weights,
                                max_iter=max_iter, seeds=seeds)
            assert len(got) == len(points)
            for part, block, seed in zip(got, points, seeds):
                want = reference_fcm_fit(block, k, fuzzifier=m, weights=weights,
                                         max_iter=max_iter, seed=seed)
                assert partition_bytes(part) == partition_bytes(want), (len(points), k, m)
                seen["equal"] += bool((block == block[0]).all())
            seen[f"slices={len(points)}"] += 1
            seen["mixed iterations"] += len({part.iterations_used for part in got}) > 1
            seen["max_iter=1"] += max_iter == 1
            seen["K=1"] += k == 1
            seen[f"m={m}"] += 1
        for key in (*(f"slices={size}" for size in range(1, 6)), "equal", "max_iter=1", "K=1",
                    "m=2.0", "m=3.0"):
            assert seen[key] >= 3, key
        assert seen["mixed iterations"] >= 20

    def test_fcm_fit_is_the_one_slice_stack(self):
        points = replay_points(np.random.default_rng(22), 30, "uniform")
        alone = fcm_fit(points, 4, fuzzifier=2.0, seed=7)
        (stacked,) = fcm_fit_stack(points[None], 4, fuzzifier=2.0, seeds=(7,))
        assert partition_bytes(alone) == partition_bytes(stacked)

    @pytest.mark.parametrize("change, message", [
        ({"seeds": (0, 1)}, "2 seeds for 3 slices"),
        ({"seeds": (0, 1, 2, 3)}, "4 seeds for 3 slices"),
        ({"points": np.empty((0, 6, 3)), "seeds": ()}, "0 seeds for 0 slices"),
        ({"points": np.full((3, 6, 3), 1.5)}, "not normalized"),
        ({"points": np.full((3, 6, 3), -0.5)}, "not normalized"),
        ({"num_clusters": 7}, "6 profiles cannot fill 7 clusters"),
        ({"points": np.full((3, 6, 2), 0.5)}, r"shape \(n, 3\) per slice"),
    ], ids=["fewer-seeds", "more-seeds", "empty", "above-one", "below-zero", "n-below-k",
            "two-columns"])
    def test_bad_stack_is_rejected_before_any_work(self, change, message, monkeypatch):
        seeded = []
        monkeypatch.setattr(clustering, "_farthest_point_init",
                            lambda *args: seeded.append(args))
        args = {"points": np.random.default_rng(23).random((3, 6, 3)), "num_clusters": 2,
                "seeds": (0, 1, 2), **change}
        with pytest.raises(ValueError, match=message):
            fcm_fit_stack(**args)
        assert seeded == []


def stacked_seeding(points, k, w, seeds):
    """_farthest_point_init on a (F, n, 3) stack: each slice's seed points and its
    (n, K) first distance matrix."""
    planes = np.ascontiguousarray(points.transpose(2, 0, 1))
    dist = np.empty((len(points), points.shape[1], k))
    chosen = clustering._farthest_point_init(planes, k, w.as_array(), tuple(seeds), dist)
    return [block[at] for block, at in zip(points, chosen)], dist


class TestStackedSeeding:
    """One seeding pass over a stack picks each slice's seeds and writes its
    first distance matrix as reference_farthest_point_init does on that slice."""

    def assert_slices_match(self, points, k, w, seeds):
        got, dist = stacked_seeding(points, k, w, seeds)
        for block, seed, centroids, first in zip(points, seeds, got, dist):
            want = reference_farthest_point_init(block, k, w, seed)
            assert centroids.tobytes() == want.tobytes(), (len(block), k, seed)
            assert first.tobytes() == reference_distance_matrix(block, want, w).tobytes()

    @pytest.mark.parametrize("kind", ["uniform", "grid", "duplicates", "equal"])
    def test_one_slice(self, kind):
        rng = np.random.default_rng(31)
        for n in (1, 2, 7, 40):
            points = replay_points(rng, n, kind)[None]
            for k in sorted({1, min(n, 4), n}):
                self.assert_slices_match(points, k, ResourceWeights(), [int(rng.integers(1000))])

    def test_seed_at_or_past_n_wraps(self):
        points = replay_points(np.random.default_rng(32), 12, "uniform")[None]
        for seed in (12, 13, 25, 12 * 40 + 5):
            self.assert_slices_match(points, 5, ResourceWeights(), [seed])

    def test_grid_argmax_ties_take_the_first_index(self):
        rng = np.random.default_rng(33)
        w, ties = ResourceWeights(), 0
        for _ in range(20):
            points = np.stack([replay_points(rng, 30, "grid") for _ in range(3)])
            seeds = rng.integers(0, 1000, size=3).tolist()
            for block, seed in zip(points, seeds):
                first = reference_weighted_distance(block, block[seed % 30], w)
                ties += (first == first.max()).sum() > 1
            self.assert_slices_match(points, 6, w, seeds)
        assert ties >= 20

    def test_k_equal_to_n(self):
        rng = np.random.default_rng(34)
        for n in (1, 3, 9, 16):
            points = np.stack([replay_points(rng, n, kind) for kind in ("uniform", "grid")])
            self.assert_slices_match(points, n, ResourceWeights(), [0, n + 1])

    def test_four_slices_with_differing_hit_patterns(self):
        """Slices of distinct points, ties, duplicates and one coincident point,
        each with its own seed and weights drawn per stack."""
        rng = np.random.default_rng(35)
        for k in (1, 3, 8, 15):
            points = np.stack([replay_points(rng, 24, kind)
                               for kind in ("uniform", "grid", "duplicates", "equal")])
            w = ResourceWeights(*rng.dirichlet(np.ones(3)))
            self.assert_slices_match(points, k, w, rng.integers(0, 1000, size=4).tolist())


def reference_stack_memberships(dist, m):
    return np.stack([reference_memberships_from_distances(block, m) for block in dist])


def hit_rows(rng, shape):
    """Distances in (0, 1] whose rows cycle through no zero, one zero, several
    zeros and all zeros."""
    dist = 1.0 - rng.random(shape)
    k = shape[-1]
    for i in range(shape[-2]):
        zeros = (0, 1, int(rng.integers(2, k)) if k > 2 else k, k)[i % 4]
        for f in range(shape[0]):
            dist[f, i, rng.permutation(k)[:zeros]] = 0.0
    return dist


class TestStackedMemberships:
    """_memberships_from_distances on (F, n, K) stacks gives each slice the bytes
    of reference_memberships_from_distances on that slice alone."""

    @pytest.mark.parametrize("m", FUZZIFIERS)
    def test_mixed_rows_match_reference_bytes(self, m):
        rng = np.random.default_rng(41)
        for k in (1, 2, 3, 4, 9, 12, 16):
            for shape in ((1, 13, k), (4, 30, k)):
                dist = hit_rows(rng, shape)
                got = _memberships_from_distances(dist, m)
                assert got.tobytes() == reference_stack_memberships(dist, m).tobytes(), (shape, m)

    @pytest.mark.parametrize("m", FUZZIFIERS)
    def test_no_hit_and_all_hit_stacks_match_reference_bytes(self, m):
        rng = np.random.default_rng(42)
        for k in (1, 4, 9, 15):
            off = 1.0 - rng.random((4, 25, k))
            on = np.where(rng.random((4, 25, k)) < 0.3, 0.0, off)
            on[..., 0] = 0.0
            for dist in (off, on):
                got = _memberships_from_distances(dist, m)
                assert got.tobytes() == reference_stack_memberships(dist, m).tobytes(), (k, m)

    @pytest.mark.parametrize("m", FUZZIFIERS)
    def test_gathered_f_ordered_input_sums_as_its_c_copy(self, m):
        """pair[:, chosen] comes back F-ordered, and summing ratios built from it
        moves bits at K >= 9; the memberships must not depend on the layout."""
        rng = np.random.default_rng(43)
        pair = 1.0 - rng.random((40, 60))
        for k in (9, 12, 16):
            for hit in (False, True):
                dist = pair[:, rng.integers(0, 60, size=k)]
                if hit:
                    dist[::3, 0] = 0.0
                assert dist.flags.f_contiguous and not dist.flags.c_contiguous
                want = reference_memberships_from_distances(np.ascontiguousarray(dist), m)
                assert _memberships_from_distances(dist, m).tobytes() == want.tobytes(), (k, hit)


def test_range_error_names_minmax_scale():
    message = r"points are not normalized to \[0, 1\]; scale them with minmax_scale"
    with pytest.raises(ValueError, match=message):
        fcm_fit_stack(np.full((2, 6, 3), 1.5), 2, seeds=(0, 1))
    with pytest.raises(ValueError, match=message):
        fcm_fit(np.full((6, 3), -0.5), 2)


def test_cluster_with_no_mass_keeps_its_centroid(monkeypatch):
    """No fleet found in 20,000 small random ones empties a cluster, so slice 0's
    cluster 1 is emptied by hand; slice 1 keeps the bytes of its own fit."""
    rng = np.random.default_rng(24)
    points = np.stack([replay_points(rng, 10, "uniform") for _ in range(2)])
    (other,) = fcm_fit_stack(points[1:], 3, max_iter=1, seeds=(7,))
    real = clustering._memberships_from_distances

    def emptied(dist, m):
        mu = real(dist, m)
        mu[0, :, 1] = 0.0
        return mu

    monkeypatch.setattr(clustering, "_memberships_from_distances", emptied)
    got = fcm_fit_stack(points, 3, max_iter=1, seeds=(3, 7))
    seeded = reference_farthest_point_init(points[0], 3, ResourceWeights(), 3)
    assert got[0].centroids[1].tobytes() == seeded[1].tobytes()
    assert np.isfinite(got[0].centroids).all()
    assert partition_bytes(got[1]) == partition_bytes(other)
