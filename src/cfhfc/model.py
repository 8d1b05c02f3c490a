"""Multiclass softmax classifier with plain and proximal SGD training.

The edge-side detector is a linear softmax model over flow features. It is
deliberately small: every client trains it locally in milliseconds, and all
parameters live in two numpy arrays with value semantics. Training functions
return fresh instances and never mutate their inputs, so model objects can be
shared across clients and rounds without defensive copies.
"""

from __future__ import annotations

import itertools
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
    "stack_train",
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
        self._check_shape()
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
        if (self.labels < 0).any():
            raise ValueError("labels must be non-negative")

    def _check_shape(self) -> None:
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(
                f"{self.features.shape[0]} feature rows but "
                f"{self.labels.shape} labels"
            )
        if len(self.labels) < 1:
            raise ValueError("batch must contain at least one sample")

    @classmethod
    def _gathered(cls, features: np.ndarray, labels: np.ndarray) -> "LabeledBatch":
        """Rows taken from batches that passed __post_init__ are finite, with
        non-negative labels; only the shape checks, which a gather can fail, run."""
        batch = cls.__new__(cls)
        batch.features, batch.labels = features, labels
        batch._check_shape()
        return batch

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices: np.ndarray) -> "LabeledBatch":
        """The rows at the integer positions in indices, in that order.

        take(indices, axis=0) copies the same rows as features[indices], with
        less overhead; an empty index array still makes an empty, rejected
        batch, and a 2-D one a rejected 3-D batch.
        """
        return self._gathered(self.features.take(indices, axis=0), self.labels.take(indices))

    @classmethod
    def concatenate(cls, batches: list["LabeledBatch"]) -> "LabeledBatch":
        """The batches' rows stacked in order; numpy rejects an empty list or
        parts of different widths."""
        return cls._gathered(
            np.concatenate([b.features for b in batches]),
            np.concatenate([b.labels for b in batches]),
        )


@dataclass
class TrainConfig:
    """Local training hyperparameters shared by all methods."""

    learning_rate: float = 0.001
    batch_size: int = 128
    local_epochs: int = 20
    dropout_rate: float = 0.1
    proximal_coeff: float = 0.6

    def __post_init__(self) -> None:
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.local_epochs < 0:
            raise ValueError(f"local_epochs must be >= 0, got {self.local_epochs}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not 0 <= self.proximal_coeff < np.inf:
            raise ValueError(f"proximal_coeff must be finite and >= 0, got {self.proximal_coeff}")


def _check_width(model: ModelParams, features: np.ndarray) -> None:
    if features.shape[1] != model.num_features:
        raise ValueError(
            f"expected {model.num_features} features, got {features.shape[1]}"
        )


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    if (labels >= num_classes).any():
        raise ValueError(f"label {int(labels.max())} out of range for {num_classes} classes")


def _logits(
    weights: np.ndarray, biases: np.ndarray, features: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    z = np.matmul(features, weights.T, out=out)
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


def _row_sum(z: np.ndarray) -> np.ndarray:
    """Each row's z.sum(axis=1, keepdims=True). Numpy adds under 8 terms to 0.0
    left to right, so z0 + z1, += each further column, has its bytes (but -0.0
    for a row of -0.0; exp gives none); from 8 on it does not, and numpy sums."""
    if not 2 <= z.shape[1] < 8:
        return z.sum(axis=1, keepdims=True)
    total = z[:, :1] + z[:, 1:2]
    for c in range(2, z.shape[1]):
        total += z[:, c : c + 1]
    return total


def _shifted_exp(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift each row of logits by its max and exponentiate, in place; return
    the (n, 1) row max and row sum, which predict_proba divides by and loss logs.
    They come from _row_max and _row_sum: over columns, the sum below 8 classes."""
    top = _row_max(z)
    z -= top
    np.exp(z, out=z)
    return top, _row_sum(z)


def predict_proba(
    model: ModelParams, features: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Class probabilities for each feature row, rows summing to one.

    Given an (n, num_classes) float64 array as out, the probabilities are
    written into it and it is returned.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    _check_width(model, features)
    z = _logits(model.weights, model.biases, features, out)
    z /= _shifted_exp(z)[1]
    return z


def _given_proba(
    model: ModelParams, features: np.ndarray, probs: np.ndarray | None
) -> np.ndarray:
    """probs, checked against the features' row count and the model's classes;
    predict_proba(model, features) when probs is None."""
    if probs is None:
        return predict_proba(model, features)
    if probs.shape != (len(features), model.num_classes):
        raise ValueError(
            f"probs shape {probs.shape} does not match {len(features)} rows "
            f"of {model.num_classes} classes"
        )
    return probs


def loss(model: ModelParams, data: LabeledBatch, *, out: np.ndarray | None = None) -> float:
    """Mean cross-entropy of the batch under the model.

    Given an (n, num_classes) float64 array as out, it also receives
    predict_proba(model, data.features): both finish _shifted_exp's output.
    """
    _check_width(model, data.features)
    _check_labels(data.labels, model.num_classes)
    z = _logits(model.weights, model.biases, data.features, out)
    picked = z[np.arange(len(data)), data.labels]
    # log-sum-exp in place on the logits: no (n, C) temporaries
    zmax, norm = _shifted_exp(z)
    if out is not None:
        z /= norm
    log_norm = np.log(norm[:, 0])
    log_norm += zmax[:, 0]
    log_norm -= picked
    return float(np.mean(log_norm))


class _Workspace:
    """Buffers for the softmax gradient of one minibatch size, reused by every step of that
    size on the same clients in one _sgd call; a grad's leading client axis leads each.

    z holds the (rows, models * C) logits, then probabilities, then residual; zt is its
    transpose, soft views it as a (C,) row per (row, model) and hot as (rows, models, C).
    first, second (first again at one class) and rest are soft's columns in the order the row
    max and, by_column (2 to 7 classes), the row sum take them. top and norm take the row max
    and row sum; grad, viewed by gw and gb, is the call's shared (models * C, d+1) gradient
    block. Given lr, step and mean are the 0-d step size and row divisor (None if folded).
    """

    __slots__ = ("z", "zt", "soft", "hot", "first", "second", "rest", "by_column", "top",
                 "norm", "grad", "gw", "gb", "step", "mean")

    def __init__(self, rows: int, grad: np.ndarray, lr: float | None = None,
                 models: int = 1) -> None:
        *lead, width, _ = grad.shape
        num_classes = width // models
        self.z = np.empty((*lead, rows, width))
        self.zt = self.z.swapaxes(-1, -2)
        self.soft = self.z.reshape(*lead, rows * models, num_classes)
        self.hot = self.z.reshape(*lead, rows, models, num_classes)
        cols = [self.soft[..., c : c + 1] for c in range(num_classes)]
        self.first, self.second, self.rest = cols[0], cols[min(1, num_classes - 1)], cols[2:]
        self.by_column = 2 <= num_classes < 8
        self.top, self.norm = np.empty((2, *lead, rows * models, 1))
        self.grad, self.gw, self.gb = grad, grad[..., :-1], grad[..., -1]
        fold = lr is not None and rows & (rows - 1) == 0
        self.step = None if lr is None else np.array(lr / rows if fold else lr)
        self.mean = None if fold else np.array(float(rows))


def _steps(
    w: np.ndarray, b: np.ndarray, groups: list, params: np.ndarray | None = None,
    pulled: np.ndarray | None = None, pull: np.ndarray | None = None,
    shrink: np.ndarray | None = None,
) -> None:
    """The one softmax-gradient kernel: a mean cross-entropy gradient step on
    each (features, one-hot) block of each (workspace, blocks) group, in order.

    A step writes into the group's workspace with the calls of predict_proba,
    residual.T @ features and residual.sum(axis=0) on fresh arrays, in order,
    so it rounds as they do (p - 0.0 is p, so subtracting one-hot rows is
    subtracting 1 at each label). Given params, the block w and b view, it then
    descends by the workspace's step and, given pull, shrinks pulled, the
    anchored models' slice of params, toward the anchors.
    A step makes numpy calls only, with 0-d array scalars, which numpy applies
    sooner than floats. A training workspace of 2^k rows steps by lr / 2^k and
    does not divide by 2^k: that moves only exponents, so the gemm, bias sum
    and step round as before unless a scaled value is subnormal (below
    2^-1022), where the fold rounds once and the division twice.
    With V models side by side on the class axis of w, b and the workspaces, both gemms,
    the softmax on the soft view, the (rows, 1, C) one-hot on the hot view and the bias
    sum over rows give each model the bytes of its own 2-D step, one gemm each for all V.
    """
    wt, matmul, maximum, exp, add = w.swapaxes(-1, -2), np.matmul, np.maximum, np.exp, np.add
    for ws, blocks in groups:
        z, zt, soft, hot, top, norm, first, second, rest, by_column = (
            ws.z, ws.zt, ws.soft, ws.hot, ws.top, ws.norm, ws.first, ws.second, ws.rest,
            ws.by_column)
        grad, gw, gb, step, mean = ws.grad, ws.gw, ws.gb, ws.step, ws.mean
        for x, y in blocks:
            matmul(x, wt, out=z)
            z += b
            maximum(first, second, out=top)
            for col in rest:
                maximum(top, col, out=top)
            soft -= top
            exp(z, out=z)
            if by_column:
                add(first, second, out=norm)
                for col in rest:
                    norm += col
            else:
                add.reduce(soft, axis=-1, keepdims=True, out=norm)
            soft /= norm
            hot -= y
            if mean is not None:
                z /= mean
            matmul(zt, x, out=gw)
            add.reduce(z, axis=-2, out=gb)
            if params is None:
                continue
            grad *= step
            params -= grad
            if pull is not None:
                pulled += pull
                pulled *= shrink


def _gradient_arrays(
    weights: np.ndarray, biases: np.ndarray, features: np.ndarray, onehot: np.ndarray,
    ws: _Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy gradient of a block of rows with one-hot targets:
    one step of _steps, written into ws, a workspace for len(features) rows
    (its own when ws is None). Returns ws's weight and bias gradient views."""
    if ws is None:
        ws = _Workspace(len(features), np.empty((len(biases), features.shape[1] + 1)))
    _steps(weights, biases, [(ws, [(features, onehot[:, None])])])
    return ws.gw, ws.gb


def gradient(model: ModelParams, data: LabeledBatch) -> ModelParams:
    """Gradient of the mean cross-entropy, packed in model shape."""
    _check_width(model, data.features)
    _check_labels(data.labels, model.num_classes)
    onehot = np.eye(model.num_classes).take(data.labels, axis=0)
    gw, gb = _gradient_arrays(model.weights, model.biases, data.features, onehot)
    return ModelParams(gw, gb)


def _check_stack(models: list[ModelParams], anchors: list[ModelParams | None],
                 batches: list[LabeledBatch]) -> None:
    if len(anchors) != len(models):
        raise ValueError(f"{len(models)} models but {len(anchors)} anchors")
    for model, anchor in zip(models, anchors):
        if anchor is not None and not model.same_shape_as(anchor):
            raise ValueError(f"anchor shape {anchor.weights.shape} does not match "
                             f"model shape {model.weights.shape}")
        for data in batches:
            _check_width(model, data.features)
        if not model.same_shape_as(models[0]):
            raise ValueError(f"models of shapes {models[0].weights.shape} and "
                             f"{model.weights.shape} do not stack")
    for data in batches:
        _check_labels(data.labels, models[0].num_classes)


def _block(model: ModelParams) -> np.ndarray:
    return np.column_stack([model.weights, model.biases])


def _trained(block: np.ndarray) -> ModelParams:
    return ModelParams(np.ascontiguousarray(block[:, :-1]), block[:, -1].copy())


# stack_train's padded rows per group (2.6 MB of features at d = 20); a larger client trains alone
_GROUP_ROWS = 1 << 14


def _sgd(params: np.ndarray, anchors: np.ndarray | None, batches: list[LabeledBatch],
         cfg: TrainConfig, seeds: list[int]) -> np.ndarray:
    """Shared SGD loop on params, in place and returned: a (G, V, C, d+1) stack of G clients'
    copies of V models. Client c trains on batches[c] (the largest first) with its own generator
    seeded by seeds[c]; each client's last models pull toward anchors, a (Va, C, d+1) stack
    (None: no pull), by an implicit step.

    Each minibatch first takes the usual gradient step and then shrinks toward
    the anchor by 1/(1 + lr*rho). The implicit form stays stable for any
    rho >= 0 (an explicit + rho*(w - anchor) term oscillates once lr*rho > 2)
    and is skipped entirely when rho == 0, so the rho = 0 path is bit-identical
    to plain SGD.

    Every (client, model) output is bit-identical to a loop that gathers, masks
    and scales each minibatch afresh (tests/test_model.py keeps that loop):
    - Each call allocates a client-major (G, rows, d) feature and (G, rows, C) one-hot
      buffer, padded to the largest client, and each epoch refills each client's rows in its
      shuffled order with take(order, axis=0, out=..., mode="clip"), a row copy like
      features[order]: clip never fires on a permutation, and unlike "raise" it does not buffer.
    - A client's V models lie side by side on the class axis: params viewed as (G, V*C, d+1).
      Full minibatch j of the clients that have one, a prefix, is one step on their
      (a, V*C, d+1) slice, one (a, rows, d) @ (a, d, V*C) gemm; each tail then steps on its
      client's (V*C, d+1) slice, as do a lone client's steps, on 2-D blocks. An epoch makes
      one _steps call per run of steps on the same clients, on views built once per call.
    - One rng.random(out=draw) call masks a client's epoch. The generator
      yields one double per element in row order, so it hands out the same
      doubles, in the same order, as one draw per minibatch would, and
      filling a reused C-ordered buffer consumes the stream as a fresh array does.
    - Each client's features are divided by s = 1 - dropout_rate once per call, before the
      gathers; the 0/1 mask multiplies them. (x / s) * m equals (x * m) / s bit for bit: at
      m = 1 both are x / s, and at m = 0 both are a zero with the sign of x, since s > 0.
      This holds for every x whose x / s is finite, i.e. every feature of magnitude below
      s times the largest double.
    - The weights and bias live in one (C, d+1) block, and so does each
      step's gradient, so an update is four elementwise ops on the block
      instead of eight on two arrays; elementwise ops round the same
      whatever the layout; _steps says when the minibatch mean folds into lr.
    - Pull and shrink touch only the anchored models' rows (+0.0 pull on -0.0 is +0.0).
    Dropout acts on the call's own buffers and updates on params, never on the batch.
    """
    (num_clients, num_models, num_classes, cols), size = params.shape, cfg.batch_size
    lr, rho, rate = cfg.learning_rate, cfg.proximal_coeff, cfg.dropout_rate
    ns = [len(data) for data in batches]
    states = [(np.random.default_rng(seed), np.eye(num_classes).take(data.labels, axis=0),
               data.features / (1.0 - rate) if rate > 0.0 else data.features)
              for data, seed in zip(batches, seeds)]  # before the buffers: measured faster
    folded = params.reshape(num_clients, num_models * num_classes, cols)
    grad, draw = np.empty_like(folded), np.empty((ns[0], cols - 1))
    xs, ys = np.empty((num_clients, ns[0], cols - 1)), np.empty((num_clients, ns[0], num_classes))
    shrink = np.array(1.0 / (1.0 + lr * rho))
    pull = (lr * rho) * anchors.reshape(-1, cols) if rho != 0.0 and anchors is not None else None
    full = [n // size for n in ns] + [0]  # steps full[a] to full[a - 1] train the first a
    runs = [(0 if a == 1 else slice(a), full[a] * size, full[a - 1] * size, size)
            for a in range(len(ns), 0, -1) if full[a] < full[a - 1]]
    runs += [(c, n - n % size, n, n % size) for c, n in enumerate(ns) if n % size]
    calls = []
    for who, same in itertools.groupby(runs, key=lambda run: run[0]):
        p, x, y = folded[who], xs[who], ys[who]
        groups = [(_Workspace(rows, grad[who], lr, num_models),
                   [(x[..., j:j + rows, :], y[..., j:j + rows, None, :])
                    for j in range(lo, hi, rows)])
                  for _, lo, hi, rows in same]
        pulled = None if pull is None else p[..., -len(pull) :, :]
        calls.append((p[..., :-1], p[..., None, :, -1], groups, p, pulled))
    clients = [(*state, xs[c, :n], ys[c, :n], draw[:n])
               for c, (state, n) in enumerate(zip(states, ns))]
    for _ in range(cfg.local_epochs):
        for rng, onehot, features, x, y, mask in clients:
            perm = rng.permutation(len(x))
            features.take(perm, axis=0, out=x, mode="clip")
            onehot.take(perm, axis=0, out=y, mode="clip")
            if rate > 0.0:
                rng.random(out=mask)
                x *= mask >= rate
        for call in calls:
            _steps(*call, pull, shrink)
    return params


def local_train(
    model: ModelParams, data: LabeledBatch, cfg: TrainConfig, seed: int
) -> ModelParams:
    """Plain local SGD over the batch; returns an updated copy of the model.

    Batch order is reshuffled per epoch from the seed, the last partial
    minibatch is kept, and input dropout (inverted scaling) is applied during
    training only.
    """
    _check_stack([model], [None], [data])
    return _trained(_sgd(_block(model)[None, None], None, [data], cfg, [seed])[0, 0])


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
    _check_stack([model], [anchor], [data])
    trained = _sgd(_block(model)[None, None], _block(anchor)[None], [data], cfg, [seed])
    return _trained(trained[0, 0])


def stack_train(models: list[ModelParams], anchors: list[ModelParams | None],
                batches: list[LabeledBatch], cfg: TrainConfig,
                seeds: list[int]) -> list[list[ModelParams]]:
    """Every model trained on every client: out[c][i] has the bytes of local_train (anchors[i]
    None) or prox_local_train of models[i] on batches[c] with seeds[c]. A client's models share
    each epoch's shuffle, gathers and dropout draw; clients train largest first, one _sgd call
    per group of at most _GROUP_ROWS padded rows. Bad input fails before any group trains.
    Each distinct (model, anchor) pair, equal bit for bit (so 0.0 and -0.0 differ), trains
    once, and every entry with its key shares the one read-only result."""
    if not models:
        raise ValueError("stack_train needs at least one model")
    if len(batches) != len(seeds):
        raise ValueError(f"{len(batches)} client batches but {len(seeds)} seeds")
    _check_stack(models, anchors, batches)
    keys = [(m.weights.tobytes(), m.biases.tobytes(),
             None if a is None else (a.weights.tobytes(), a.biases.tobytes()))
            for m, a in zip(models, anchors)]
    first = {key: keys.index(key) for key in keys}  # each distinct pair's first entry
    order = sorted(first.values(), key=lambda i: anchors[i] is not None)
    stack = np.stack([_block(models[i]) for i in order])
    anchored = [_block(anchors[i]) for i in order if anchors[i] is not None]
    anchored = np.stack(anchored) if anchored else None
    by_size = sorted(range(len(batches)), key=lambda c: -len(batches[c]))
    trained: list[list[ModelParams]] = [[] for _ in batches]
    while by_size:
        group = by_size[: _GROUP_ROWS // len(batches[by_size[0]]) or 1]
        by_size = by_size[len(group) :]
        stacks = _sgd(np.repeat(stack[None], len(group), axis=0), anchored,
                      [batches[c] for c in group], cfg, [seeds[c] for c in group])
        for c, client in zip(group, stacks):
            slots = {i: _trained(block) for i, block in zip(order, client)}
            trained[c] = [slots[first[key]] for key in keys]
    return trained
