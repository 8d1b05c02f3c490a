"""Tests for the linear softmax model and its local training loops.

The gradient checks use central finite differences as an independent oracle;
the SGD test replays the update rule by hand with the same generator draws.
"""

import math

import numpy as np
import pytest

from cfhfc import (
    LabeledBatch,
    ModelParams,
    TrainConfig,
    gradient,
    local_train,
    loss,
    predict_proba,
    prox_local_train,
)
from cfhfc.model import _gradient_arrays, _row_any, _row_argmax, _row_max


def random_batch(rng, n, num_features, num_classes):
    return LabeledBatch(
        rng.normal(size=(n, num_features)),
        rng.integers(0, num_classes, size=n),
    )


def random_model(rng, num_classes, num_features):
    return ModelParams(
        rng.normal(size=(num_classes, num_features)),
        rng.normal(size=num_classes),
    )


def reference_sgd(model, anchor, data, cfg, seed):
    """The per-minibatch SGD loop as first written: a fresh gather, dropout
    draw and fancy-indexed softmax gradient per minibatch, and an explicit
    proximal step. local_train and prox_local_train must match it bit for bit."""
    rng = np.random.default_rng(seed)
    w = model.weights.copy()
    b = model.biases.copy()
    lr = cfg.learning_rate
    rho = cfg.proximal_coeff if anchor is not None else 0.0
    shrink = 1.0 / (1.0 + lr * rho)
    n = len(data)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = data.features[idx]
            y = data.labels[idx]
            if cfg.dropout_rate > 0.0:
                keep = rng.random(x.shape) >= cfg.dropout_rate
                x = x * keep / (1.0 - cfg.dropout_rate)
            z = x @ w.T + b
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            probs = e / e.sum(axis=1, keepdims=True)
            probs[np.arange(len(y)), y] -= 1.0
            probs /= len(y)
            gw, gb = probs.T @ x, probs.sum(axis=0)
            w = w - lr * gw
            b = b - lr * gb
            if rho != 0.0:
                w = (w + (lr * rho) * anchor.weights) * shrink
                b = (b + (lr * rho) * anchor.biases) * shrink
    return w, b


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    """Equal dtype, shape and bytes: unlike assert_array_equal, -0.0 is not 0.0."""
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def assert_matches_reference(model, anchor, batch, cfg, seed=5):
    """local_train and prox_local_train reproduce reference_sgd byte for byte."""
    for pulled_to, out in (
        (None, local_train(model, batch, cfg, seed=seed)),
        (anchor, prox_local_train(model, anchor, batch, cfg, seed=seed)),
    ):
        w, b = reference_sgd(model, pulled_to, batch, cfg, seed=seed)
        assert_same_bytes(out.weights, w)
        assert_same_bytes(out.biases, b)


def params_distance(a: ModelParams, b: ModelParams) -> float:
    return math.sqrt(
        float(((a.weights - b.weights) ** 2).sum() + ((a.biases - b.biases) ** 2).sum())
    )


def separable_batch(seed=0, n=200, num_features=5, gap=4.0):
    """Two well-separated Gaussian blobs, one per class."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.normal(size=(half, num_features)) - gap / 2
    x1 = rng.normal(size=(n - half, num_features)) + gap / 2
    features = np.vstack([x0, x1])
    labels = np.array([0] * half + [1] * (n - half))
    return LabeledBatch(features, labels)


class TestPredictProba:
    def test_zero_model_is_uniform(self):
        model = ModelParams.zeros(4, 3)
        probs = predict_proba(model, np.ones((5, 3)))
        assert probs.shape == (5, 4)
        np.testing.assert_allclose(probs, 0.25, rtol=0, atol=1e-12)

    def test_bias_only_two_class(self):
        # softmax(10, 0) computed from the closed form 1 / (1 + e^-10)
        model = ModelParams(np.zeros((2, 1)), np.array([10.0, 0.0]))
        probs = predict_proba(model, np.zeros((1, 1)))
        assert probs[0, 0] == pytest.approx(0.9999546021312976, abs=1e-7)
        assert probs[0, 1] == pytest.approx(4.5397868702434395e-05, abs=1e-7)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            model = random_model(rng, 5, 8)
            probs = predict_proba(model, rng.normal(size=(13, 8)) * 10)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-9)
            assert (probs >= 0).all()

    def test_large_logits_stay_finite(self):
        model = ModelParams(np.full((3, 2), 500.0), np.zeros(3))
        probs = predict_proba(model, np.full((4, 2), 10.0))
        assert np.isfinite(probs).all()

    def test_width_mismatch_names_both_sizes(self):
        model = ModelParams.zeros(3, 4)
        with pytest.raises(ValueError, match=r"expected 4 features, got 6"):
            predict_proba(model, np.zeros((2, 6)))


def tied_blocks(seed):
    """(n, C) blocks for C from 2 to 13 and n of 1, 2, 7 and 300, drawn from
    a few values so rows tie, with +0.0 and -0.0 among them."""
    rng = np.random.default_rng(seed)
    values = np.array([-2.5, -1.0, -0.0, 0.0, 0.75, 3.0])
    for num_classes in range(2, 14):
        for n in (1, 2, 7, 300):
            yield rng.choice(values, size=(n, num_classes))
            yield rng.normal(size=(n, num_classes))


class TestRowReductions:
    """The column-wise reductions against numpy's axis-1 reductions."""

    def test_row_max_matches_numpy(self):
        for z in tied_blocks(0):
            top = _row_max(z)
            want = z.max(axis=1)
            assert top.shape == (len(z), 1)
            # equal as numbers; a zero maximum may carry either sign
            assert (top[:, 0] == want).all()
            nonzero = want != 0.0
            assert top[nonzero, 0].tobytes() == want[nonzero].tobytes()

    def test_row_argmax_matches_numpy(self):
        for z in tied_blocks(1):
            idx = _row_argmax(z)
            assert idx.dtype == np.intp
            assert idx.tobytes() == z.argmax(axis=1).tobytes()

    def test_row_argmax_reports_first_nan(self):
        rng = np.random.default_rng(2)
        for z in tied_blocks(2):
            z = z.copy()
            z[rng.random(z.shape) < 0.1] = np.nan
            assert _row_argmax(z).tobytes() == z.argmax(axis=1).tobytes()

    def test_row_any_matches_numpy(self):
        rng = np.random.default_rng(3)
        for z in tied_blocks(3):
            for mask in (z > 0.0, z >= 0.0, rng.random(z.shape) < 0.05):
                assert _row_any(mask).tobytes() == mask.any(axis=1).tobytes()

    def test_one_column(self):
        z = np.array([[-0.0], [2.0], [np.nan]])
        assert _row_max(z).tobytes() == z.tobytes()
        assert _row_argmax(z).tolist() == [0, 0, 0]
        assert _row_any(z > 0.0).tolist() == [False, True, False]


class TestLoss:
    def test_matches_axis_max_formula(self):
        """The same double as the loss built on z.max(axis=1)."""
        rng = np.random.default_rng(9)
        for num_classes in range(2, 14):
            for scale in (1.0, 40.0):
                model = random_model(rng, num_classes, 5)
                model = ModelParams(model.weights * scale, model.biases)
                batch = random_batch(rng, 64, 5, num_classes)
                z = batch.features @ model.weights.T
                z += model.biases
                zmax = z.max(axis=1, keepdims=True)
                log_norm = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
                picked = z[np.arange(len(batch)), batch.labels]
                assert loss(model, batch) == float(np.mean(log_norm - picked))

    def test_zero_model_gives_log_num_classes(self):
        rng = np.random.default_rng(0)
        batch = random_batch(rng, 50, 6, 4)
        assert loss(ModelParams.zeros(4, 6), batch) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_zero_model_two_class(self):
        rng = np.random.default_rng(1)
        batch = random_batch(rng, 30, 3, 2)
        assert loss(ModelParams.zeros(2, 3), batch) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_model_near_zero(self):
        batch = separable_batch(seed=2)
        direction = np.ones((1, batch.features.shape[1]))
        model = ModelParams(np.vstack([-direction, direction]) * 50.0, np.zeros(2))
        assert loss(model, batch) < 1e-6
        assert (predict_proba(model, batch.features).argmax(axis=1) == batch.labels).all()


class TestGradient:
    def test_matches_central_finite_differences(self):
        """Analytic gradient against (f(x+h) - f(x-h)) / 2h on 50 random cases."""
        rng = np.random.default_rng(42)
        step = 1e-5
        for _ in range(50):
            num_classes = int(rng.integers(2, 4))
            num_features = int(rng.integers(1, 5))
            if num_classes * (num_features + 1) > 20:
                num_features = 20 // num_classes - 1
            model = random_model(rng, num_classes, num_features)
            batch = random_batch(rng, int(rng.integers(2, 12)), num_features, num_classes)
            grad = gradient(model, batch)

            flat = np.concatenate([model.weights.ravel(), model.biases])
            analytic = np.concatenate([grad.weights.ravel(), grad.biases])
            numeric = np.empty_like(flat)
            for j in range(flat.size):
                for sign, out in ((1.0, "plus"), (-1.0, "minus")):
                    bumped = flat.copy()
                    bumped[j] += sign * step
                    w = bumped[: model.weights.size].reshape(model.weights.shape)
                    b = bumped[model.weights.size :]
                    value = loss(ModelParams(w, b), batch)
                    if out == "plus":
                        up = value
                    else:
                        down = value
                numeric[j] = (up - down) / (2.0 * step)
            denom = max(np.linalg.norm(numeric), 1e-8)
            rel_err = np.linalg.norm(analytic - numeric) / denom
            assert rel_err < 1e-5

    def test_exactly_stationary_at_symmetric_optimum(self):
        """Both feature values carry both labels equally, so the zero model
        (uniform predictions) is the analytic minimizer: residuals p - onehot
        are +-0.5 and cancel pairwise, giving a gradient of exactly zero."""
        batch = LabeledBatch(
            np.array([[1.0], [1.0], [-1.0], [-1.0]]), np.array([0, 1, 0, 1])
        )
        g = gradient(ModelParams.zeros(2, 1), batch)
        assert abs(g.weights).max() == 0.0
        assert abs(g.biases).max() == 0.0

    def test_descent_approaches_interior_optimum(self):
        """Conflicting labels keep the optimum finite, so plain gradient
        descent drives the gradient norm down (separable data would not)."""
        batch = LabeledBatch(
            np.array([[1.0], [1.0], [1.0], [-1.0]]), np.array([0, 1, 0, 1])
        )
        rng = np.random.default_rng(0)
        model = random_model(rng, 2, 1)
        for _ in range(20000):
            g = gradient(model, batch)
            model = ModelParams(
                model.weights - 0.5 * g.weights, model.biases - 0.5 * g.biases
            )
        g = gradient(model, batch)
        norm = math.sqrt(float((g.weights**2).sum() + (g.biases**2).sum()))
        assert norm < 1e-4

    def test_mean_reduction_duplicate_invariance(self):
        """Doubling every row must leave the mean gradient unchanged."""
        rng = np.random.default_rng(3)
        model = random_model(rng, 3, 4)
        batch = random_batch(rng, 10, 4, 3)
        doubled = LabeledBatch(
            np.vstack([batch.features, batch.features]),
            np.concatenate([batch.labels, batch.labels]),
        )
        g1 = gradient(model, batch)
        g2 = gradient(model, doubled)
        np.testing.assert_allclose(g1.weights, g2.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g1.biases, g2.biases, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("num_classes", [2, 4, 9])
    def test_block_output_matches_fresh_arrays(self, num_classes):
        """Written into a (C, d+1) block, the kernel gives the same bytes."""
        rng = np.random.default_rng(num_classes)
        model = random_model(rng, num_classes, 5)
        batch = random_batch(rng, 13, 5, num_classes)
        onehot = np.eye(num_classes)[batch.labels]
        args = (model.weights, model.biases, batch.features, onehot)
        grad = np.full((num_classes, 6), np.nan)
        gw, gb = _gradient_arrays(*args, grad)
        want_w, want_b = _gradient_arrays(*args)
        assert np.shares_memory(gw, grad) and np.shares_memory(gb, grad)
        assert_same_bytes(grad[:, :-1], want_w)
        assert_same_bytes(grad[:, -1], want_b)


class TestLocalTrain:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 5)
        batch = random_batch(rng, 40, 5, 3)
        cfg = TrainConfig(learning_rate=0.0, local_epochs=3)
        out = local_train(model, batch, cfg, seed=0)
        np.testing.assert_array_equal(out.weights, model.weights)
        np.testing.assert_array_equal(out.biases, model.biases)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 3, 5)
        batch = random_batch(rng, 64, 5, 3)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, local_epochs=2)
        a = local_train(model, batch, cfg, seed=11)
        b = local_train(model, batch, cfg, seed=11)
        c = local_train(model, batch, cfg, seed=12)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)
        assert not np.array_equal(a.weights, c.weights)

    def test_input_model_not_mutated(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 2, 3)
        snapshot = model.copy()
        batch = random_batch(rng, 20, 3, 2)
        local_train(model, batch, TrainConfig(learning_rate=0.1, local_epochs=1), seed=0)
        np.testing.assert_array_equal(model.weights, snapshot.weights)
        np.testing.assert_array_equal(model.biases, snapshot.biases)

    def test_fits_separable_data(self):
        batch = separable_batch(seed=8)
        cfg = TrainConfig(
            learning_rate=0.1, batch_size=32, local_epochs=20, dropout_rate=0.0
        )
        trained = local_train(ModelParams.zeros(2, 5), batch, cfg, seed=0)
        assert np.mean(predict_proba(trained, batch.features).argmax(axis=1) == batch.labels) >= 0.95

    def test_matches_manual_sgd_replay(self):
        """Bit-for-bit replay of the loop: seeded shuffle, mean gradient,
        last partial minibatch kept, no dropout."""
        rng = np.random.default_rng(9)
        model = random_model(rng, 3, 4)
        batch = random_batch(rng, 11, 4, 3)  # 11 rows -> partial final batch of 3
        cfg = TrainConfig(
            learning_rate=0.07, batch_size=4, local_epochs=2, dropout_rate=0.0
        )
        seed = 21

        replay = np.random.default_rng(seed)
        w = model.weights.copy()
        b = model.biases.copy()
        for _ in range(cfg.local_epochs):
            order = replay.permutation(len(batch))
            for start in range(0, len(batch), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                onehot = np.eye(3)[batch.labels[idx]]
                gw, gb = _gradient_arrays(w, b, batch.features[idx], onehot)
                w = w - cfg.learning_rate * gw
                b = b - cfg.learning_rate * gb

        out = local_train(model, batch, cfg, seed=seed)
        np.testing.assert_array_equal(out.weights, w)
        np.testing.assert_array_equal(out.biases, b)

    @pytest.mark.parametrize("num_classes", [2, 4, 9])
    @pytest.mark.parametrize("n", [24, 19, 5])  # 3 full batches, a partial one, under one
    @pytest.mark.parametrize("proximal_coeff", [0.0, 0.6])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
    def test_matches_reference_loop(self, dropout_rate, proximal_coeff, n, num_classes):
        rng = np.random.default_rng(n * num_classes)
        model = random_model(rng, num_classes, 6)
        anchor = random_model(rng, num_classes, 6)
        batch = random_batch(rng, n, 6, num_classes)
        inputs = (model.copy(), batch.features.copy(), batch.labels.copy())
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=3,
                          dropout_rate=dropout_rate, proximal_coeff=proximal_coeff)
        assert_matches_reference(model, anchor, batch, cfg)
        assert_same_bytes(model.weights, inputs[0].weights)
        assert_same_bytes(model.biases, inputs[0].biases)
        assert_same_bytes(batch.features, inputs[1])
        assert_same_bytes(batch.labels, inputs[2])

    @pytest.mark.parametrize("proximal_coeff", [0.0, 0.6])
    def test_signed_zero_features_match_reference_bytes(self, proximal_coeff):
        # dropout scales before it masks, and a masked negative feature is -0.0.
        # A feature that is 0.0 or -0.0 on every row leaves its -0.0 weights at
        # -0.0, which assert_array_equal could not tell from 0.0.
        rng = np.random.default_rng(17)
        model = random_model(rng, 3, 6)
        anchor = random_model(rng, 3, 6)
        model.weights[:, 0] = anchor.weights[:, 0] = -0.0
        features = -np.abs(rng.normal(size=(21, 6)))
        features[::3, ::2] = 0.0
        features[1::3, 1::2] = -0.0
        features[2::3, 1:4] *= -1.0
        features[:, 0] = np.where(np.arange(21) % 2, 0.0, -0.0)
        batch = LabeledBatch(features, rng.integers(0, 3, size=21))
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=3,
                          dropout_rate=0.1, proximal_coeff=proximal_coeff)
        assert_matches_reference(model, anchor, batch, cfg)
        assert np.signbit(local_train(model, batch, cfg, seed=5).weights[:, 0]).all()

    def test_label_out_of_range_rejected(self):
        model = ModelParams.zeros(2, 3)
        batch = LabeledBatch(np.zeros((4, 3)), np.array([0, 1, 2, 0]))
        with pytest.raises(ValueError, match="label 2 out of range"):
            local_train(model, batch, TrainConfig(), seed=0)


class TestProxLocalTrain:
    def test_zero_coeff_matches_plain_sgd(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 3, 5)
        batch = random_batch(rng, 50, 5, 3)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, local_epochs=3,
                          proximal_coeff=0.0)
        plain = local_train(model, batch, cfg, seed=7)
        prox = prox_local_train(model, model.copy(), batch, cfg, seed=7)
        np.testing.assert_array_equal(plain.weights, prox.weights)
        np.testing.assert_array_equal(plain.biases, prox.biases)

    def test_huge_coeff_pins_to_anchor(self):
        rng = np.random.default_rng(11)
        start = random_model(rng, 3, 5)
        batch = random_batch(rng, 50, 5, 3)
        free_cfg = TrainConfig(learning_rate=0.05, batch_size=16, local_epochs=3,
                               dropout_rate=0.0, proximal_coeff=0.0)
        pin_cfg = TrainConfig(learning_rate=0.05, batch_size=16, local_epochs=3,
                              dropout_rate=0.0, proximal_coeff=1e6)
        free = local_train(start, batch, free_cfg, seed=7)
        pinned = prox_local_train(start, start.copy(), batch, pin_cfg, seed=7)
        free_drift = params_distance(free, start)
        assert free_drift > 0
        assert params_distance(pinned, start) < 1e-3 * free_drift

    def test_drift_shrinks_monotonically_with_coeff(self):
        """One full-batch epoch gives drift lr * |g| / (1 + lr * rho), which
        is strictly decreasing in rho."""
        rng = np.random.default_rng(12)
        start = random_model(rng, 3, 5)
        batch = random_batch(rng, 30, 5, 3)
        drifts = []
        for rho in (0.0, 0.3, 0.6, 2.0, 10.0):
            cfg = TrainConfig(learning_rate=0.1, batch_size=len(batch),
                              local_epochs=1, dropout_rate=0.0, proximal_coeff=rho)
            out = prox_local_train(start, start.copy(), batch, cfg, seed=0)
            drifts.append(params_distance(out, start))
        assert all(a > b for a, b in zip(drifts, drifts[1:]))

    def test_anchor_shape_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, 3, 5)
        anchor = ModelParams.zeros(3, 4)
        batch = random_batch(rng, 10, 5, 3)
        with pytest.raises(ValueError, match="anchor shape"):
            prox_local_train(model, anchor, batch, TrainConfig(), seed=0)


class TestValidation:
    def test_zeros_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            ModelParams.zeros(1, 3)
        with pytest.raises(ValueError, match="at least 1 feature"):
            ModelParams.zeros(2, 0)

    def test_bias_row_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            ModelParams(np.zeros((3, 2)), np.zeros(2))

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(np.array([[np.nan, 0.0], [0.0, 0.0]]), np.zeros(2))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            LabeledBatch(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LabeledBatch(np.zeros((2, 3)), np.array([0, -1]))

    def test_train_config_bounds(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError, match="dropout_rate"):
            TrainConfig(dropout_rate=1.0)
        with pytest.raises(ValueError, match="proximal_coeff"):
            TrainConfig(proximal_coeff=-1.0)
