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
    "accuracy",
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
    return features @ weights.T + biases


def predict_proba(model: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities for each feature row, rows summing to one."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    _check_width(model, features)
    z = _logits(model.weights, model.biases, features)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss(model: ModelParams, data: LabeledBatch) -> float:
    """Mean cross-entropy of the batch under the model."""
    _check_width(model, data.features)
    _check_labels(data.labels, model.num_classes)
    z = _logits(model.weights, model.biases, data.features)
    zmax = z.max(axis=1, keepdims=True)
    log_norm = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    picked = z[np.arange(len(data)), data.labels]
    return float(np.mean(log_norm - picked))


def _gradient_arrays(
    weights: np.ndarray, biases: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    z = _logits(weights, biases, features)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    probs[np.arange(len(labels)), labels] -= 1.0
    probs /= len(labels)
    return probs.T @ features, probs.sum(axis=0)


def gradient(model: ModelParams, data: LabeledBatch) -> ModelParams:
    """Gradient of the mean cross-entropy, packed in model shape."""
    _check_width(model, data.features)
    _check_labels(data.labels, model.num_classes)
    gw, gb = _gradient_arrays(model.weights, model.biases, data.features, data.labels)
    return ModelParams(gw, gb)


def accuracy(model: ModelParams, data: LabeledBatch) -> float:
    """Fraction of the batch classified correctly by argmax."""
    probs = predict_proba(model, data.features)
    return float(np.mean(probs.argmax(axis=1) == data.labels))


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
    """
    _check_labels(data.labels, model.num_classes)
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
            gw, gb = _gradient_arrays(w, b, x, y)
            w = w - lr * gw
            b = b - lr * gb
            if rho != 0.0:
                w = (w + (lr * rho) * anchor.weights) * shrink
                b = (b + (lr * rho) * anchor.biases) * shrink
    return ModelParams(w, b)


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
