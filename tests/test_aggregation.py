"""Tests for the fog and cloud aggregation tiers.

Expected values are recomputed in-test with plain Python loops so the
tensordot reduction in the library is checked against independent arithmetic.
"""

import numpy as np
import pytest

from cfhfc import (
    ClusterModel,
    ModelParams,
    cluster_aggregate,
    cluster_weights,
    global_aggregate,
    weighted_average,
)


def random_model(rng, num_classes=3, num_features=4):
    return ModelParams(
        rng.normal(size=(num_classes, num_features)), rng.normal(size=num_classes)
    )


def manual_average(models, weights):
    weights = np.asarray(weights, dtype=np.float64)
    norm = weights / weights.sum()
    w = np.zeros_like(models[0].weights)
    b = np.zeros_like(models[0].biases)
    for coef, m in zip(norm, models):
        w = w + coef * m.weights
        b = b + coef * m.biases
    return ModelParams(w, b)


def as_cluster(params, total_data, mean_membership, cluster_id=0):
    return ClusterModel(
        params=params,
        cluster_id=cluster_id,
        total_data=total_data,
        mean_membership=mean_membership,
    )


class TestWeightedAverage:
    def test_equal_weights_give_midpoint(self):
        a = ModelParams(np.zeros((2, 2)), np.zeros(2))
        b = ModelParams(np.ones((2, 2)), np.ones(2))
        mid = weighted_average([a, b], np.array([1.0, 1.0]))
        np.testing.assert_array_equal(mid.weights, np.full((2, 2), 0.5))
        np.testing.assert_array_equal(mid.biases, np.full(2, 0.5))

    def test_singleton_passthrough(self):
        rng = np.random.default_rng(0)
        m = random_model(rng)
        out = weighted_average([m], np.array([7.0]))
        np.testing.assert_array_equal(out.weights, m.weights)
        np.testing.assert_array_equal(out.biases, m.biases)

    def test_matches_loop_recomputation(self):
        rng = np.random.default_rng(1)
        models = [random_model(rng) for _ in range(3)]
        weights = np.array([0.2, 1.3, 0.7])
        got = weighted_average(models, weights)
        want = manual_average(models, weights)
        np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.biases, want.biases, rtol=0, atol=1e-12)

    def test_result_stays_in_convex_envelope(self):
        rng = np.random.default_rng(2)
        models = [random_model(rng) for _ in range(5)]
        weights = rng.random(5) + 0.01
        out = weighted_average(models, weights)
        stack = np.stack([m.weights for m in models])
        assert (out.weights >= stack.min(axis=0) - 1e-12).all()
        assert (out.weights <= stack.max(axis=0) + 1e-12).all()

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(3)
        models = [random_model(rng) for _ in range(4)]
        weights = rng.random(4) + 0.1
        a = weighted_average(models, weights)
        b = weighted_average(models, weights * 3.7)
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12)
        np.testing.assert_allclose(a.biases, b.biases, rtol=1e-12)

    def test_equal_and_proportional_weights_bit_identical(self):
        """Normalization maps (1,1,1), (0.5,0.5,0.5) and (2,2,2) to the same
        floats, so the reductions must agree exactly."""
        rng = np.random.default_rng(4)
        models = [random_model(rng) for _ in range(3)]
        base = weighted_average(models, np.array([1.0, 1.0, 1.0]))
        for scale in (0.5, 2.0):
            other = weighted_average(models, np.full(3, scale))
            np.testing.assert_array_equal(base.weights, other.weights)
            np.testing.assert_array_equal(base.biases, other.biases)

    def test_validation_errors(self):
        rng = np.random.default_rng(5)
        m = random_model(rng)
        with pytest.raises(ValueError, match="at least one model"):
            weighted_average([], np.array([]))
        with pytest.raises(ValueError, match="weight shape"):
            weighted_average([m, m], np.array([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            weighted_average([m, m], np.array([0.5, -0.5]))
        with pytest.raises(ValueError, match="all be zero"):
            weighted_average([m, m], np.array([0.0, 0.0]))
        other = ModelParams(np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(ValueError, match="does not match"):
            weighted_average([m, other], np.array([1.0, 1.0]))


class TestClusterAggregate:
    def test_membership_weighted_mean(self):
        rng = np.random.default_rng(6)
        p1, p2 = random_model(rng), random_model(rng)
        out = cluster_aggregate([(p1, 0.8, 100), (p2, 0.4, 50)])
        want = manual_average([p1, p2], [0.8, 0.4])
        np.testing.assert_allclose(out.params.weights, want.weights, atol=1e-12)
        np.testing.assert_allclose(out.params.biases, want.biases, atol=1e-12)
        assert out.total_data == 150
        assert out.mean_membership == pytest.approx(0.6, abs=1e-15)

    def test_equal_memberships_reduce_to_plain_mean(self):
        """With uniform memberships the fog tier ignores data sizes, which is
        exactly the FedAvg reduction over the cluster."""
        rng = np.random.default_rng(7)
        models = [random_model(rng) for _ in range(3)]
        updates = [(models[0], 0.5, 10), (models[1], 0.5, 9000), (models[2], 0.5, 1)]
        out = cluster_aggregate(updates)
        want = weighted_average(models, np.array([1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(out.params.weights, want.weights)
        np.testing.assert_array_equal(out.params.biases, want.biases)

    def test_validation_errors(self):
        rng = np.random.default_rng(8)
        good = (random_model(rng), 0.5, 10)
        with pytest.raises(ValueError, match="no participating updates"):
            cluster_aggregate([])
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            cluster_aggregate([(good[0], 0.0, 10)])
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            cluster_aggregate([(good[0], 1.2, 10)])
        with pytest.raises(ValueError, match="sizes must be positive"):
            cluster_aggregate([(good[0], 0.5, 0)])


class TestClusterWeights:
    def test_proportional_to_volume_times_membership(self):
        rng = np.random.default_rng(9)
        clusters = [
            as_cluster(random_model(rng), 100, 0.5),
            as_cluster(random_model(rng), 300, 0.5),
        ]
        np.testing.assert_allclose(cluster_weights(clusters), [0.25, 0.75], atol=1e-15)

    def test_membership_scales_volume(self):
        rng = np.random.default_rng(10)
        clusters = [
            as_cluster(random_model(rng), 100, 0.9),
            as_cluster(random_model(rng), 100, 0.3),
        ]
        np.testing.assert_allclose(cluster_weights(clusters), [0.75, 0.25], atol=1e-15)

    def test_single_cluster(self):
        rng = np.random.default_rng(11)
        np.testing.assert_array_equal(
            cluster_weights([as_cluster(random_model(rng), 42, 0.7)]), [1.0]
        )

    def test_rejects_empty_and_nonpositive(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="at least one cluster"):
            cluster_weights([])
        dead = as_cluster(random_model(rng), 0, 0.5)
        with pytest.raises(ValueError, match="positive data volume"):
            cluster_weights([dead])


class TestGlobalAggregate:
    def test_opposite_clusters_cancel(self):
        rng = np.random.default_rng(13)
        p = random_model(rng)
        neg = ModelParams(-p.weights, -p.biases)
        clusters = [as_cluster(p, 100, 0.5, 0), as_cluster(neg, 100, 0.5, 1)]
        out = global_aggregate(clusters)
        np.testing.assert_allclose(out.weights, 0.0, atol=1e-15)
        np.testing.assert_allclose(out.biases, 0.0, atol=1e-15)

    def test_matches_manual_weighting(self):
        rng = np.random.default_rng(14)
        clusters = [
            as_cluster(random_model(rng), 120, 0.8, 0),
            as_cluster(random_model(rng), 60, 0.4, 1),
            as_cluster(random_model(rng), 200, 0.6, 2),
        ]
        out = global_aggregate(clusters)
        raw = [120 * 0.8, 60 * 0.4, 200 * 0.6]
        want = manual_average([c.params for c in clusters], raw)
        np.testing.assert_allclose(out.weights, want.weights, atol=1e-12)
        np.testing.assert_allclose(out.biases, want.biases, atol=1e-12)

    def test_uniform_statistics_reduce_to_plain_mean(self):
        rng = np.random.default_rng(15)
        clusters = [as_cluster(random_model(rng), 500, 0.25, i) for i in range(4)]
        out = global_aggregate(clusters)
        want = weighted_average(
            [c.params for c in clusters], np.ones(4)
        )
        np.testing.assert_array_equal(out.weights, want.weights)
        np.testing.assert_array_equal(out.biases, want.biases)
