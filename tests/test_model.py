"""Tests for the linear softmax model and its local training loops.

The gradient checks use central finite differences as an independent oracle;
the SGD test replays the update rule by hand with the same generator draws.
"""

import itertools
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
from cfhfc import model as model_module
from cfhfc.model import (
    _Workspace, _gradient_arrays, _row_any, _row_argmax, _row_max, _row_sum, _shifted_exp,
    stack_train,
)


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

    def test_row_sum_matches_numpy(self):
        for z in tied_blocks(4):
            total = _row_sum(z)
            want = z.sum(axis=1, keepdims=True)
            # the same bytes, but that a row of -0.0 alone sums to -0.0 over columns
            alone = (z.shape[1] < 8) & (z == 0.0).all(axis=1) & np.signbit(z).all(axis=1)
            assert (total == want).all()
            assert total[~alone].tobytes() == want[~alone].tobytes()
            assert np.signbit(total[alone]).all()

    @pytest.mark.parametrize("rows", [128, 32000])
    @pytest.mark.parametrize("num_classes", range(1, 10))
    def test_shifted_exp_row_sum_matches_numpy(self, num_classes, rows):
        # columns below 8 classes, numpy's sum from 8 on: the same bytes either way
        rng = np.random.default_rng(10 * num_classes + rows)
        z = rng.normal(size=(rows, num_classes)) * rng.choice([1.0, 30.0], size=(rows, 1))
        norm = _shifted_exp(z)[1]
        assert norm.shape == (rows, 1)
        assert norm.tobytes() == z.sum(axis=1, keepdims=True).tobytes()

    def test_one_column(self):
        z = np.array([[-0.0], [2.0], [np.nan]])
        assert _row_max(z).tobytes() == z.tobytes()
        assert _row_sum(z).tobytes() == z.sum(axis=1, keepdims=True).tobytes()
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

    @pytest.mark.parametrize("num_classes", [2, 4, 9, 12, 300])
    def test_out_receives_predict_proba_bytes(self, num_classes):
        """The loss is the same double with out given, and out holds
        predict_proba's bytes, at short and long rows and large logits."""
        rng = np.random.default_rng(num_classes)
        for scale in (1.0, 40.0):
            model = random_model(rng, num_classes, 5)
            model = ModelParams(model.weights * scale, model.biases)
            batch = random_batch(rng, 257, 5, num_classes)
            out = np.full((len(batch), num_classes), np.nan)
            assert loss(model, batch, out=out) == loss(model, batch)
            assert out.tobytes() == predict_proba(model, batch.features).tobytes()


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
        """Through a reused workspace into a (C, d+1) block, or through a
        workspace of its own, the kernel gives the bytes of fresh arrays; at
        16 rows too, since only training folds the mean into the step."""
        rng = np.random.default_rng(num_classes)
        model = random_model(rng, num_classes, 5)
        for n in (13, 16):
            batch = random_batch(rng, n, 5, num_classes)
            onehot = np.eye(num_classes)[batch.labels]
            residual = (predict_proba(model, batch.features) - onehot) / len(batch)
            want_w, want_b = residual.T @ batch.features, residual.sum(axis=0)
            args = (model.weights, model.biases, batch.features, onehot)
            grad = np.full((num_classes, 6), np.nan)
            ws = _Workspace(len(batch), grad)
            for buffer in (ws.z, ws.top, ws.norm):
                buffer.fill(np.nan)
            for _ in range(2):  # the second call starts from the first one's buffers
                gw, gb = _gradient_arrays(*args, ws)
                assert np.shares_memory(gw, grad) and np.shares_memory(gb, grad)
                assert_same_bytes(grad[:, :-1], want_w)
                assert_same_bytes(grad[:, -1], want_b)
            own_w, own_b = _gradient_arrays(*args)
            assert_same_bytes(own_w, want_w)
            assert_same_bytes(own_b, want_b)


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

    # 7 and 8 classes: the last row sum over columns and the first of numpy's
    @pytest.mark.parametrize("num_classes", [2, 4, 9, 7, 8])
    @pytest.mark.parametrize("n", [24, 19, 5])  # 3 full batches, a partial one, under one
    @pytest.mark.parametrize("proximal_coeff", [0.0, 0.6])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
    def test_matches_reference_loop(self, dropout_rate, proximal_coeff, n, num_classes):
        rng = np.random.default_rng(n * num_classes)
        model = random_model(rng, num_classes, 6)
        anchor = random_model(rng, num_classes, 6)
        batch = random_batch(rng, n, 6, num_classes)
        inputs = (model.copy(), batch.features.copy(), batch.labels.copy())
        # 8 rows fold the mean into the step size, 6 divide by them
        for batch_size, local_epochs in itertools.product((8, 6), (1, 3)):
            # one epoch fills the buffers once and uses each view once
            cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size,
                              local_epochs=local_epochs, dropout_rate=dropout_rate,
                              proximal_coeff=proximal_coeff)
            assert_matches_reference(model, anchor, batch, cfg)
        assert_same_bytes(model.weights, inputs[0].weights)
        assert_same_bytes(model.biases, inputs[0].biases)
        assert_same_bytes(batch.features, inputs[1])
        assert_same_bytes(batch.labels, inputs[2])

    @pytest.mark.parametrize("batch_size", [8, 6])
    @pytest.mark.parametrize("num_classes", [4, 9])
    def test_large_logits_match_reference_loop(self, num_classes, batch_size):
        # weights and biases x500: most probabilities underflow to 0, a few are
        # subnormal, and many round to 1, so most residuals are exactly 0 or -1
        rng = np.random.default_rng(41 * num_classes + batch_size)
        model, anchor = (
            ModelParams(500.0 * m.weights, 500.0 * m.biases)
            for m in (random_model(rng, num_classes, 6), random_model(rng, num_classes, 6))
        )
        batch = random_batch(rng, 37, 6, num_classes)
        for dropout_rate in (0.0, 0.1):
            cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size, local_epochs=3,
                              dropout_rate=dropout_rate, proximal_coeff=0.6)
            assert_matches_reference(model, anchor, batch, cfg)

    @pytest.mark.parametrize("num_classes", [2, 4])
    @pytest.mark.parametrize("proximal_coeff", [0.0, 0.6])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
    def test_one_row_minibatches_match_reference_loop(self, dropout_rate, proximal_coeff,
                                                      num_classes):
        # every step's logit block, row max and row sum is a single row
        rng = np.random.default_rng(31 * num_classes)
        model = random_model(rng, num_classes, 6)
        anchor = random_model(rng, num_classes, 6)
        batch = random_batch(rng, 7, 6, num_classes)
        cfg = TrainConfig(learning_rate=0.05, batch_size=1, local_epochs=3,
                          dropout_rate=dropout_rate, proximal_coeff=proximal_coeff)
        assert_matches_reference(model, anchor, batch, cfg)

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

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
    def test_column_major_features_match_reference_loop(self, dropout_rate):
        # the dropout draw fills a row-major buffer, so the stream meets the
        # features in row order whatever their memory layout
        rng = np.random.default_rng(23)
        model = random_model(rng, 3, 6)
        anchor = random_model(rng, 3, 6)
        batch = random_batch(rng, 21, 6, 3)
        batch.features = np.asfortranarray(batch.features)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=3,
                          dropout_rate=dropout_rate, proximal_coeff=0.6)
        assert_matches_reference(model, anchor, batch, cfg)

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


def assert_clients_match_single_calls(models, anchors, batches, cfg, seeds):
    """stack_train gives every (client, model) pair the bytes of its own
    local_train (anchor None) or prox_local_train call with the client's seed."""
    stacked = stack_train(models, anchors, batches, cfg, seeds)
    assert len(stacked) == len(batches)
    for batch, seed, trained in zip(batches, seeds, stacked):
        assert len(trained) == len(models)
        for model, anchor, got in zip(models, anchors, trained):
            if anchor is None:
                want = local_train(model, batch, cfg, seed=seed)
            else:
                want = prox_local_train(model, anchor, batch, cfg, seed=seed)
            assert_same_bytes(got.weights, want.weights)
            assert_same_bytes(got.biases, want.biases)
    return stacked


def assert_stack_matches_single_calls(models, anchors, batch, cfg, seed=5):
    """The one-client case of assert_clients_match_single_calls."""
    assert_clients_match_single_calls(models, anchors, [batch], cfg, [seed])


def recorded_slots(monkeypatch) -> list[int]:
    """The model slots (params.shape[1]) of each model._sgd call from here on, in call order."""
    calls = []
    real = model_module._sgd

    def recording(params, anchors, batches, cfg, seeds):
        calls.append(params.shape[1])
        return real(params, anchors, batches, cfg, seeds)

    monkeypatch.setattr(model_module, "_sgd", recording)
    return calls


# which stack entries are plain (None) and which have an anchor (its index)
STACKS = [(None, 0), (0, None), (None, 0, None, 1), (0, None, 1, None, None),
          (None, None), (0, 1), (None,), (0,)]


class TestStackTrain:
    @pytest.mark.parametrize("num_classes", [2, 4, 7, 8, 9])
    @pytest.mark.parametrize("proximal_coeff", [0.0, 0.6])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
    def test_matches_single_calls(self, dropout_rate, proximal_coeff, num_classes):
        rng = np.random.default_rng(7 * num_classes)
        models = [random_model(rng, num_classes, 6) for _ in range(5)]
        anchors = [random_model(rng, num_classes, 6) for _ in range(2)]
        batch = random_batch(rng, 29, 6, num_classes)
        inputs = [(m.weights.copy(), m.biases.copy()) for m in models + anchors]
        # 8 rows fold the mean into the step size, 6 divide by them; 29 rows
        # leave a tail of 5 either way
        for batch_size in (8, 6):
            cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size, local_epochs=3,
                              dropout_rate=dropout_rate, proximal_coeff=proximal_coeff)
            for kinds in STACKS:
                stack_anchors = [None if k is None else anchors[k] for k in kinds]
                assert_stack_matches_single_calls(models[: len(kinds)], stack_anchors,
                                                  batch, cfg)
        for m, (w, b) in zip(models + anchors, inputs):
            assert_same_bytes(m.weights, w)
            assert_same_bytes(m.biases, b)

    @pytest.mark.parametrize("batch_size", [8, 6])
    @pytest.mark.parametrize("num_classes", [4, 9])
    def test_large_logits_match_single_calls(self, num_classes, batch_size):
        rng = np.random.default_rng(43 * num_classes + batch_size)
        models = [ModelParams(500.0 * m.weights, 500.0 * m.biases)
                  for m in (random_model(rng, num_classes, 6) for _ in range(4))]
        batch = random_batch(rng, 37, 6, num_classes)
        for dropout_rate in (0.0, 0.1):
            cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size, local_epochs=3,
                              dropout_rate=dropout_rate, proximal_coeff=0.6)
            assert_stack_matches_single_calls(
                models, [models[1], None, models[0], None], batch, cfg)

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
    def test_column_major_features_match_single_calls(self, dropout_rate):
        rng = np.random.default_rng(29)
        models = [random_model(rng, 3, 6) for _ in range(3)]
        batch = random_batch(rng, 21, 6, 3)
        batch.features = np.asfortranarray(batch.features)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=3,
                          dropout_rate=dropout_rate, proximal_coeff=0.6)
        assert_stack_matches_single_calls(models, [models[2], None, models[0]], batch, cfg)

    def test_plain_models_keep_negative_zeros_beside_pulled_ones(self):
        # a feature that is 0.0 or -0.0 on every row never moves its weights,
        # so a plain model keeps -0.0 there; a 0.0 pull added to it would not
        rng = np.random.default_rng(19)
        plain, pulled = random_model(rng, 3, 6), random_model(rng, 3, 6)
        plain.weights[:, 0] = -0.0
        features = rng.normal(size=(21, 6))
        features[:, 0] = np.where(np.arange(21) % 2, 0.0, -0.0)
        batch = LabeledBatch(features, rng.integers(0, 3, size=21))
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=3,
                          dropout_rate=0.1, proximal_coeff=0.6)
        for order in ((0, 1), (1, 0)):
            models = [(plain, pulled)[i] for i in order]
            anchors = [(None, ModelParams.zeros(3, 6))[i] for i in order]
            assert_stack_matches_single_calls(models, anchors, batch, cfg)
            trained = stack_train(models, anchors, [batch], cfg, [5])[0][order.index(0)]
            assert np.signbit(trained.weights[:, 0]).all()

    def test_rejects_mismatched_inputs(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, 3, 5)
        batch = random_batch(rng, 10, 5, 3)
        with pytest.raises(ValueError, match="anchor shape"):
            stack_train([model, model], [None, ModelParams.zeros(3, 4)], [batch],
                        TrainConfig(), [0])
        with pytest.raises(ValueError, match="expected 4 features, got 5"):
            stack_train([model, ModelParams.zeros(3, 4)], [None, None], [batch],
                        TrainConfig(), [0])
        with pytest.raises(ValueError):  # models of different class counts
            stack_train([model, ModelParams.zeros(4, 5)], [None, None], [batch],
                        TrainConfig(), [0])
        with pytest.raises(ValueError):  # an anchor entry short
            stack_train([model, model], [None], [batch], TrainConfig(), [0])


    # clients at batch size 8, in no particular order: below one minibatch (5, 3),
    # exactly k minibatches (24 twice, 8), a tail (29, 13, 500), and 1,030 rows,
    # more than a 1,024-row budget alone
    CLIENT_SIZES = (24, 5, 1030, 13, 500, 8, 29, 3, 24)

    def clients(self, rng, num_classes):
        batches = [random_batch(rng, n, 6, num_classes) for n in self.CLIENT_SIZES]
        return batches, [int(s) for s in rng.integers(0, 2**31, size=len(batches))]

    @pytest.mark.parametrize("num_classes", [3, 9])
    @pytest.mark.parametrize("proximal_coeff", [0.0, 0.6])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
    def test_clients_of_unequal_sizes_match_single_calls(self, dropout_rate, proximal_coeff,
                                                         num_classes, monkeypatch):
        monkeypatch.setattr(model_module, "_GROUP_ROWS", 1024)
        rng = np.random.default_rng(11 * num_classes)
        models = [random_model(rng, num_classes, 6) for _ in range(3)]
        anchor = random_model(rng, num_classes, 6)
        batches, seeds = self.clients(rng, num_classes)
        for local_epochs in (2, 0):
            cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=local_epochs,
                              dropout_rate=dropout_rate, proximal_coeff=proximal_coeff)
            for kinds in ((None, anchor, None), (anchor,), (None,)):
                assert_clients_match_single_calls(models[: len(kinds)], list(kinds), batches,
                                                  cfg, seeds)

    @pytest.mark.parametrize("num_classes", [2, 3, 4, 7, 8, 9])
    @pytest.mark.parametrize("proximal_coeff", [0.0, 0.6])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
    def test_models_side_by_side_match_single_calls(self, dropout_rate, proximal_coeff,
                                                    num_classes, monkeypatch):
        """V models on one class axis share each step's two gemms, V*C columns wide: 2 to 8
        models, plain and anchored mixed, at class counts on both sides of the row sum's
        8-class switch and of 4-row gemm tiles, 7 features, and clients of whole minibatches
        (48, 32 at 16 rows; 48 at 12) or with a tail (37 and 17, one row at 16; 3) in two
        groups. 16 rows fold the mean into the step size, 12 divide by them. Every pair also
        matches the reference loop, so a change to the kernel that the lone path shares shows
        too, and minibatches over 8 rows tell a sequential bias sum from numpy's pairwise one."""
        monkeypatch.setattr(model_module, "_GROUP_ROWS", 100)
        rng = np.random.default_rng(31 * num_classes)
        pool = [random_model(rng, num_classes, 7) for _ in range(8)]
        anchors = [random_model(rng, num_classes, 7) for _ in range(2)]
        batches = [random_batch(rng, n, 7, num_classes) for n in (37, 48, 3, 32, 17)]
        seeds = [int(s) for s in rng.integers(0, 2**31, size=len(batches))]
        for batch_size in (16, 12):
            cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size, local_epochs=2,
                              dropout_rate=dropout_rate, proximal_coeff=proximal_coeff)
            for num_models in (2, 3, 5, 8):
                kinds = [None if i % 3 == 0 else anchors[i % 2] for i in range(num_models)]
                stacked = assert_clients_match_single_calls(pool[:num_models], kinds, batches,
                                                            cfg, seeds)
                for batch, seed, trained in zip(batches, seeds, stacked):
                    for model, anchor, got in zip(pool, kinds, trained):
                        w, b = reference_sgd(model, anchor, batch, cfg, seed)
                        assert_same_bytes(got.weights, w)
                        assert_same_bytes(got.biases, b)

    def test_budget_groups_clients_largest_first(self, monkeypatch):
        """Each group is one _sgd call over the clients sorted by size, largest first
        (ties in client order), at most _GROUP_ROWS padded rows, or one client alone."""
        calls = []
        real = model_module._sgd

        def recording(params, anchors, batches, cfg, seeds):
            calls.append([len(b) for b in batches])
            return real(params, anchors, batches, cfg, seeds)

        monkeypatch.setattr(model_module, "_sgd", recording)
        monkeypatch.setattr(model_module, "_GROUP_ROWS", 1024)
        rng = np.random.default_rng(3)
        batches, seeds = self.clients(rng, 3)
        cfg = TrainConfig(batch_size=8, local_epochs=1)
        stack_train([random_model(rng, 3, 6)], [None], batches, cfg, seeds)
        assert calls == [[1030], [500, 29], [24, 24, 13, 8, 5, 3]]
        calls.clear()
        monkeypatch.setattr(model_module, "_GROUP_ROWS", 1 << 14)
        stack_train([random_model(rng, 3, 6)], [None], batches, cfg, seeds)
        assert calls == [sorted(self.CLIENT_SIZES, reverse=True)]

    def test_rejects_bad_clients_before_any_group_trains(self, monkeypatch):
        def untouchable(*args):
            raise AssertionError("a group trained")

        monkeypatch.setattr(model_module, "_sgd", untouchable)
        rng = np.random.default_rng(17)
        model, cfg = random_model(rng, 3, 5), TrainConfig()
        good = random_batch(rng, 300, 5, 3)
        with pytest.raises(ValueError, match="at least one model"):
            stack_train([], [], [good], cfg, [0])
        with pytest.raises(ValueError, match="2 client batches but 1 seeds"):
            stack_train([model], [None], [good, good], cfg, [0])
        # the bad client is the smallest, so a group without it would train first
        narrow = random_batch(rng, 10, 4, 3)
        with pytest.raises(ValueError, match="expected 5 features, got 4"):
            stack_train([model, model], [None, model], [good, narrow], cfg, [0, 1])
        outside = LabeledBatch(rng.normal(size=(10, 5)), np.array([0, 1, 2, 3] + [0] * 6))
        with pytest.raises(ValueError, match="label 3 out of range for 3 classes"):
            stack_train([model, model], [None, model], [good, outside], cfg, [0, 1])

    def test_names_models_and_anchors_that_do_not_stack(self, monkeypatch):
        def untouchable(*args):
            raise AssertionError("a group trained")

        monkeypatch.setattr(model_module, "_sgd", untouchable)
        rng = np.random.default_rng(23)
        model, cfg = random_model(rng, 3, 5), TrainConfig()
        batches = [random_batch(rng, n, 5, 3) for n in (300, 10)]
        shapes = r"models of shapes \(3, 5\) and \(4, 5\) do not stack"
        with pytest.raises(ValueError, match=shapes):
            stack_train([model, random_model(rng, 4, 5)], [None, None], batches, cfg, [0, 1])
        with pytest.raises(ValueError, match="2 models but 1 anchors"):
            stack_train([model, model], [model], batches, cfg, [0, 1])
        with pytest.raises(ValueError, match="1 models but 2 anchors"):
            stack_train([model], [None, model], batches, cfg, [0, 1])

    @pytest.mark.parametrize("proximal_coeff", [0.0, 0.6])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
    def test_repeated_pairs_train_once(self, dropout_rate, proximal_coeff, monkeypatch):
        """An entry whose (model, anchor) pair equals an earlier entry's bit for bit shares
        that entry's result: each _sgd call gets one model slot per distinct pair, and every
        entry still has the bytes of its own local_train or prox_local_train call."""
        slots = recorded_slots(monkeypatch)
        monkeypatch.setattr(model_module, "_GROUP_ROWS", 1024)  # three groups
        rng = np.random.default_rng(37)
        m, m2, a = (random_model(rng, 3, 6) for _ in range(3))
        batches, seeds = self.clients(rng, 3)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=2,
                          dropout_rate=dropout_rate, proximal_coeff=proximal_coeff)
        for models, anchors, shared in (
            ([m, m, m], [None, a, a], [(1, 2)]),
            ([m, m2, m], [a, a, a], [(0, 2)]),
            ([m, m.copy(), m2], [a, a.copy(), None], [(0, 1)]),  # equal copies are one pair
            ([m, m, m2], [None, a, a], []),  # all distinct: every model in its own slot
        ):
            slots.clear()
            stacked = stack_train(models, anchors, batches, cfg, seeds)
            assert slots == [len(models) - len(shared)] * 3
            assert_clients_match_single_calls(models, anchors, batches, cfg, seeds)
            for trained in stacked:
                assert all(trained[i] is trained[j] for i, j in shared)
                assert len({id(t) for t in trained}) == len(models) - len(shared)

    def test_pairs_apart_by_a_signed_zero_train_apart(self, monkeypatch):
        """0.0 and -0.0 compare equal but are other bytes, so pairs that differ only there,
        in the model or in the anchor, are not merged."""
        slots = recorded_slots(monkeypatch)
        rng = np.random.default_rng(41)
        model = random_model(rng, 3, 6)
        model.weights[0, 0] = 0.0
        negative = model.copy()
        negative.weights[0, 0] = -0.0
        zero = ModelParams.zeros(3, 6)
        batch = random_batch(rng, 21, 6, 3)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=2, proximal_coeff=0.6)
        for models, anchors in (([model, negative], [None, None]),
                                ([model, model], [zero, ModelParams(-zero.weights, -zero.biases)])):
            slots.clear()
            trained = stack_train(models, anchors, [batch], cfg, [5])[0]
            assert slots == [2]
            assert trained[0] is not trained[1]
            assert_clients_match_single_calls(models, anchors, [batch], cfg, [5])


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


class TestRowGathers:
    """Gathers through take copy the same bytes as fancy indexing."""

    @pytest.mark.parametrize("num_classes", [2, 4, 300])
    def test_take_one_hot_matches_fancy_index(self, num_classes):
        labels = np.random.default_rng(num_classes).integers(0, num_classes, size=2243)
        eye = np.eye(num_classes)
        assert eye.take(labels, axis=0).tobytes() == eye[labels].tobytes()

    def test_subset_matches_fancy_index(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng, 50, 4, 3)
        indices = rng.integers(0, 50, size=80)  # repeats and any order
        sub = batch.subset(indices)
        assert sub.features.tobytes() == batch.features[indices].tobytes()
        assert sub.labels.tobytes() == batch.labels[indices].tobytes()
        with pytest.raises(ValueError, match="at least one sample"):
            batch.subset(np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="features must be 2-D"):
            batch.subset(indices.reshape(8, 10))

    def test_concatenate_matches_a_checked_batch(self):
        rng = np.random.default_rng(7)
        parts = [random_batch(rng, n, 4, 3) for n in (5, 1, 12)]
        pooled = LabeledBatch.concatenate(parts)
        checked = LabeledBatch(np.concatenate([p.features for p in parts]),
                               np.concatenate([p.labels for p in parts]))
        assert pooled.features.tobytes() == checked.features.tobytes()
        assert pooled.labels.tobytes() == checked.labels.tobytes()
        assert pooled.labels.dtype == checked.labels.dtype
        with pytest.raises(ValueError):
            LabeledBatch.concatenate([])
        with pytest.raises(ValueError):
            LabeledBatch.concatenate([parts[0], random_batch(rng, 3, 5, 3)])
