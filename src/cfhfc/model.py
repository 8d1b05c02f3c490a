"""Multiclass softmax classifier with plain and proximal SGD training.

The edge-side detector is a linear softmax model over flow features. It is
deliberately small: every client trains it locally in milliseconds, and all
parameters live in two numpy arrays with value semantics. Training functions
return fresh instances and never mutate their inputs, so model objects can be
shared across clients and rounds without defensive copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "LabeledBatch",
    "TrainConfig",
    "predict_proba",
    "loss",
    "gradient",
    "local_train",
    "prox_local_train",
]


@dataclass
class ModelParams:
    """Parameters of the linear softmax detector: one weight row per class."""

    weights: np.ndarray  # (num_classes, num_features)
    biases: np.ndarray  # (num_classes,)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.biases.shape != (self.weights.shape[0],):
            raise ValueError(
                f"biases shape {self.biases.shape} does not match "
                f"{self.weights.shape[0]} weight rows"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("model parameters must be finite")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def num_features(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def zeros(cls, num_classes: int, num_features: int) -> "ModelParams":
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        if num_features < 1:
            raise ValueError(f"need at least 1 feature, got {num_features}")
        return cls(np.zeros((num_classes, num_features)), np.zeros(num_classes))

    def copy(self) -> "ModelParams":
        return ModelParams(self.weights.copy(), self.biases.copy())

    def same_shape_as(self, other: "ModelParams") -> bool:
        return self.weights.shape == other.weights.shape


@dataclass
class LabeledBatch:
    """A block of feature rows with integer class labels."""

    features: np.ndarray  # (n, num_features)
    labels: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(
                f"{self.features.shape[0]} feature rows but "
                f"{self.labels.shape} labels"
            )
        if len(self.labels) < 1:
            raise ValueError("batch must contain at least one sample")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
        if (self.labels < 0).any():
            raise ValueError("labels must be non-negative")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices: np.ndarray) -> "LabeledBatch":
        return LabeledBatch(self.features[indices], self.labels[indices])


@dataclass
class TrainConfig:
    """Local training hyperparameters shared by all methods."""

    learning_rate: float = 0.001
    batch_size: int = 128
    local_epochs: int = 20
    dropout_rate: float = 0.1
    proximal_coeff: float = 0.6

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.local_epochs < 0:
            raise ValueError(f"local_epochs must be >= 0, got {self.local_epochs}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.proximal_coeff < 0:
            raise ValueError(
                f"proximal_coeff must be >= 0, got {self.proximal_coeff}"
            )


def _check_width(model: ModelParams, features: np.ndarray) -> None:
    if features.shape[1] != model.num_features:
        raise ValueError(
            f"expected {model.num_features} features, got {features.shape[1]}"
        )


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    if (labels >= num_classes).any():
        raise ValueError(f"label {int(labels.max())} out of range for {num_classes} classes")


def _logits(weights: np.ndarray, biases: np.ndarray, features: np.ndarray) -> np.ndarray:
    z = features @ weights.T
    z += biases
    return z


def _row_max(z: np.ndarray) -> np.ndarray:
    """The (n, 1) column of each row's largest entry, built over columns.

    Numpy's reduction along a short last axis is slow: on a 32,000x4 block
    (2-core Xeon VM) z.max(axis=1) took 1.4 ms, and the C-1 np.maximum calls
    over columns 55-75 us. A max is exact in any order; only the sign of a
    zero maximum can differ from z.max(axis=1) on rows of +0.0 and -0.0 ties,
    and no caller can tell: the softmax and loss subtract the max, and
    _row_argmax only compares with it.
    """
    top = np.maximum(z[:, :1], z[:, -1:])
    for c in range(1, z.shape[1] - 1):
        np.maximum(top, z[:, c : c + 1], out=top)
    return top


def _row_argmax(z: np.ndarray) -> np.ndarray:
    """Each row's z.argmax(axis=1), as intp, built over columns.

    The first maximum wins: a row's index is the number of leading columns
    that lie below its maximum. A row holding a NaN reports its first NaN,
    as argmax does.
    """
    top = _row_max(z)[:, 0]
    below = z[:, 0] < top
    idx = below.astype(np.intp)
    for c in range(1, z.shape[1] - 1):
        below &= z[:, c] < top
        idx += below
    nan = np.isnan(top)
    if nan.any():
        idx[nan] = np.isnan(z[nan]).argmax(axis=1)
    return idx


def _row_any(mask: np.ndarray) -> np.ndarray:
    """Each row's mask.any(axis=1), ORed over columns for the same reason."""
    hit = mask[:, 0] | mask[:, -1]
    for c in range(1, mask.shape[1] - 1):
        hit |= mask[:, c]
    return hit


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Turn each row of logits into probabilities, in place, and return z.

    The row max comes from _row_max. The row sum stays numpy's axis-1 sum.
    That sum adds 8 or more terms in unrolled partial sums, so adding the
    columns one by one would round differently: on 3,000 random blocks each
    it differed in about 2,950 with 8, 9 or 12 classes, and in none with 2,
    4 or 7.
    """
    z -= _row_max(z)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def predict_proba(model: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities for each feature row, rows summing to one."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    _check_width(model, features)
    return _softmax_rows(_logits(model.weights, model.biases, features))


def loss(model: ModelParams, data: LabeledBatch) -> float:
    """Mean cross-entropy of the batch under the model."""
    _check_width(model, data.features)
    _check_labels(data.labels, model.num_classes)
    z = _logits(model.weights, model.biases, data.features)
    zmax = _row_max(z)
    picked = z[np.arange(len(data)), data.labels]
    # log-sum-exp in place on the logits: no (n, C) temporaries
    z -= zmax
    np.exp(z, out=z)
    log_norm = np.log(z.sum(axis=1))
    log_norm += zmax[:, 0]
    log_norm -= picked
    return float(np.mean(log_norm))


def _gradient_arrays(
    weights: np.ndarray,
    biases: np.ndarray,
    features: np.ndarray,
    onehot: np.ndarray,
    grad: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy gradient of a block of rows with one-hot targets.

    The one softmax-gradient kernel: gradient() and every SGD step call it.
    Subtracting the one-hot rows gives the same doubles as subtracting 1 at
    each label, because p - 0.0 is exactly p. Given a (C, d+1) grad block, it
    writes the weight gradient into its first d columns and the bias gradient
    into its last, and returns those two views; the matmul and the sum are the
    same calls with an out= target, so they round the same.
    """
    residual = _softmax_rows(_logits(weights, biases, features))
    residual -= onehot
    residual /= len(residual)
    if grad is None:
        return residual.T @ features, residual.sum(axis=0)
    gw, gb = grad[:, :-1], grad[:, -1]
    np.matmul(residual.T, features, out=gw)
    residual.sum(axis=0, out=gb)
    return gw, gb


def gradient(model: ModelParams, data: LabeledBatch) -> ModelParams:
    """Gradient of the mean cross-entropy, packed in model shape."""
    _check_width(model, data.features)
    _check_labels(data.labels, model.num_classes)
    onehot = np.eye(model.num_classes)[data.labels]
    gw, gb = _gradient_arrays(model.weights, model.biases, data.features, onehot)
    return ModelParams(gw, gb)


def _sgd(
    model: ModelParams,
    anchor: ModelParams | None,
    data: LabeledBatch,
    cfg: TrainConfig,
    seed: int,
) -> ModelParams:
    """Shared SGD loop; the proximal pull is applied as an implicit step.

    Each minibatch first takes the usual gradient step and then shrinks toward
    the anchor by 1/(1 + lr*rho). The implicit form stays stable for any
    rho >= 0 (an explicit + rho*(w - anchor) term oscillates once lr*rho > 2)
    and is skipped entirely when rho == 0, so the rho = 0 path is bit-identical
    to plain SGD.

    Every output is bit-identical to a loop that gathers, masks and scales
    each minibatch afresh (tests/test_model.py keeps that loop):
    - Each epoch gathers the shuffled features and one-hot labels once with
      take(order, axis=0), a plain row copy like features[order] but with
      less overhead, and its minibatches are row slices of these copies.
    - One rng.random(out=draw) call masks the whole epoch. The generator
      yields one double per element in row order, so it hands out the same
      doubles, in the same order, as one draw per minibatch would, and
      filling a reused buffer consumes the stream as a fresh array does.
    - The features are divided by 1 - dropout_rate once per call, and each
      epoch only multiplies by its 0/1 mask. (x / s) * m equals (x * m) / s
      bit for bit: at m = 1 both are x / s, and at m = 0 both are a zero with
      the sign of x, since s > 0. This holds for every x whose x / s is
      finite, i.e. every feature of magnitude below s times the largest
      double.
    - The weights and bias live in one (C, d+1) block, and so does each
      step's gradient, so an update is four elementwise ops on the block
      instead of eight on two arrays; elementwise ops round the same
      whatever the layout.
    Dropout and every update act in place on arrays this function owns, never
    on the model or the batch it was given. Each step's gradient comes from
    _gradient_arrays, the kernel gradient() also calls; _softmax_rows says
    why its row max runs over columns and its row sum does not.
    """
    _check_labels(data.labels, model.num_classes)
    rng = np.random.default_rng(seed)
    lr = cfg.learning_rate
    rho = cfg.proximal_coeff if anchor is not None else 0.0
    params = np.column_stack([model.weights, model.biases])
    w, b = params[:, :-1], params[:, -1]
    grad = np.empty_like(params)
    if rho != 0.0:
        shrink = 1.0 / (1.0 + lr * rho)
        pull = (lr * rho) * np.column_stack([anchor.weights, anchor.biases])
    onehot = np.eye(model.num_classes)[data.labels]
    features = data.features
    if cfg.dropout_rate > 0.0:
        features = features / (1.0 - cfg.dropout_rate)
        draw = np.empty_like(features)
    n = len(data)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        xs = features.take(order, axis=0)
        ys = onehot.take(order, axis=0)
        if cfg.dropout_rate > 0.0:
            rng.random(out=draw)
            xs *= draw >= cfg.dropout_rate
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            _gradient_arrays(w, b, xs[start:stop], ys[start:stop], grad)
            grad *= lr
            params -= grad
            if rho != 0.0:
                params += pull
                params *= shrink
    return ModelParams(np.ascontiguousarray(w), b.copy())


def local_train(
    model: ModelParams, data: LabeledBatch, cfg: TrainConfig, seed: int
) -> ModelParams:
    """Plain local SGD over the batch; returns an updated copy of the model.

    Batch order is reshuffled per epoch from the seed, the last partial
    minibatch is kept, and input dropout (inverted scaling) is applied during
    training only.
    """
    _check_width(model, data.features)
    return _sgd(model, None, data, cfg, seed)


def prox_local_train(
    model: ModelParams,
    anchor: ModelParams,
    data: LabeledBatch,
    cfg: TrainConfig,
    seed: int,
) -> ModelParams:
    """Local SGD with a proximal pull toward the anchor model.

    The anchor is the broadcast global model; cfg.proximal_coeff controls the
    pull strength. With proximal_coeff = 0 the result is bit-identical to
    local_train for the same seed.
    """
    _check_width(model, data.features)
    if not model.same_shape_as(anchor):
        raise ValueError(
            f"anchor shape {anchor.weights.shape} does not match "
            f"model shape {model.weights.shape}"
        )
    return _sgd(model, anchor, data, cfg, seed)
