"""Dataset generation, CSV ingestion, and non-IID client partitioning.

Synthetic traffic is drawn as Gaussian class blobs and min-max scaled into
the unit cube, which keeps the linear detector honest (no single feature
dominates by scale). Partitioning follows the usual label-skew recipe: for
every class, client shares are drawn from a symmetric Dirichlet, so small
concentration values produce clients that only ever see a couple of traffic
classes. Every client additionally reserves a slice of its data for conformal
calibration.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clustering import minmax_scale_in_place
from .model import LabeledBatch

__all__ = [
    "SyntheticSource",
    "CsvSource",
    "DatasetSpec",
    "ClientDataset",
    "generate_synthetic",
    "load_csv",
    "materialize_clients",
    "client_sizes",
]


@dataclass
class SyntheticSource:
    """Gaussian class blobs in feature space, scaled to the unit cube."""

    num_classes: int = 4
    num_features: int = 20
    samples_per_class: int = 2500
    class_separation: float = 3.0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.num_features < 1:
            raise ValueError(f"num_features must be >= 1, got {self.num_features}")
        if self.samples_per_class < 1:
            raise ValueError(
                f"samples_per_class must be >= 1, got {self.samples_per_class}"
            )
        if self.class_separation < 0:
            raise ValueError(
                f"class_separation must be >= 0, got {self.class_separation}"
            )


@dataclass
class CsvSource:
    """A labeled CSV file on disk."""

    path: str
    label_column: str = "label"
    num_classes: int = 2

    @property
    def num_features(self) -> int:
        """Feature columns in the file's header: every column but the label."""
        with Path(self.path).open(newline="") as fh:
            return len(next(csv.reader(fh), [])) - 1


@dataclass
class DatasetSpec:
    """Where the data comes from and how it is split across clients."""

    source: SyntheticSource | CsvSource = field(default_factory=SyntheticSource)
    partition: str = "dirichlet"  # "dirichlet" or "by_class_shards"
    concentration: float = 0.3
    shards_per_client: int = 2
    calibration_fraction: float = 0.1
    holdout_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.partition not in ("dirichlet", "by_class_shards"):
            raise ValueError(
                f"partition must be 'dirichlet' or 'by_class_shards', got "
                f"{self.partition!r}"
            )
        if self.concentration <= 0:
            raise ValueError(
                f"concentration must be positive, got {self.concentration}"
            )
        if self.shards_per_client < 1:
            raise ValueError(
                f"shards_per_client must be >= 1, got {self.shards_per_client}"
            )
        if not 0.0 <= self.calibration_fraction < 1.0:
            raise ValueError(
                f"calibration_fraction must lie in [0, 1), got "
                f"{self.calibration_fraction}"
            )
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError(
                f"holdout_fraction must lie in [0, 1), got {self.holdout_fraction}"
            )

    @property
    def num_classes(self) -> int:
        return self.source.num_classes

    def check_shards(self, num_clients: int) -> None:
        """Reject, before any data exists, more shards than a synthetic pool has rows."""
        if self.partition == "by_class_shards" and isinstance(self.source, SyntheticSource):
            rows = self.source.num_classes * self.source.samples_per_class
            if self.holdout_fraction != 0.0:
                rows -= _held_count(rows, self.holdout_fraction)
            _check_shards(num_clients, self.shards_per_client, rows)


@dataclass
class ClientDataset:
    """One client's local data, split into training and calibration parts."""

    client_id: int
    train: LabeledBatch
    calibration: LabeledBatch | None

    @property
    def size(self) -> int:
        n = len(self.train)
        if self.calibration is not None:
            n += len(self.calibration)
        return n


def generate_synthetic(source: SyntheticSource, seed: int) -> LabeledBatch:
    """Sample the class blobs and scale features into [0, 1].

    Class centers sit on a sphere of radius class_separation around the
    origin (directions drawn from the seed). One preallocated matrix is
    filled class by class with unit-variance Gaussian noise plus that class's
    center, then min-max scaled in place, column by column. Output order is
    by class, which downstream partitioners reshuffle.
    """
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(source.num_classes, source.num_features))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    centers = source.class_separation * directions / norms
    features = np.empty((source.num_classes, source.samples_per_class, source.num_features))
    for block, center in zip(features, centers):
        rng.standard_normal(out=block)
        block += center
    return LabeledBatch(minmax_scale_in_place(features.reshape(-1, source.num_features)),
                        _synthetic_labels(source))


def _synthetic_labels(source: SyntheticSource) -> np.ndarray:
    """generate_synthetic's labels, in its by-class order, with no draw."""
    return np.repeat(np.arange(source.num_classes), source.samples_per_class)


def load_csv(path: str | Path, label_column: str, num_classes: int) -> LabeledBatch:
    """Read a labeled CSV into a scaled batch.

    The header row names the columns; every non-label column must parse as a
    finite float. Rows with malformed or non-finite features are skipped and
    reported through a RuntimeWarning that lists their line numbers. Labels
    that all parse as integers are used directly; otherwise labels are mapped
    to ids in order of first appearance. Features are min-max scaled per
    column.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        if label_column not in header:
            raise ValueError(
                f"label column {label_column!r} not in header {header}"
            )
        label_idx = header.index(label_column)
        feature_idx = [i for i in range(len(header)) if i != label_idx]
        if not feature_idx:
            raise ValueError(f"{path} has no feature columns")
        rows: list[list[float]] = []
        raw_labels: list[str] = []
        bad_rows: list[int] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                bad_rows.append(line_no)
                continue
            try:
                values = [float(row[i]) for i in feature_idx]
            except ValueError:
                values = None
            if values is None or not all(map(math.isfinite, values)):
                bad_rows.append(line_no)
                continue
            rows.append(values)
            raw_labels.append(row[label_idx])
    if bad_rows:
        warnings.warn(
            f"{path}: skipped {len(bad_rows)} malformed row(s) at line(s) "
            f"{bad_rows}",
            RuntimeWarning,
            stacklevel=2,
        )
    if not rows:
        raise ValueError(f"{path} contains no valid data rows")

    try:
        labels = np.array([int(v) for v in raw_labels], dtype=np.int64)
    except ValueError:
        mapping: dict[str, int] = {}
        for v in raw_labels:
            if v not in mapping:
                mapping[v] = len(mapping)
        labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(
            f"labels span [{labels.min()}, {labels.max()}] but num_classes is "
            f"{num_classes}"
        )
    return LabeledBatch(minmax_scale_in_place(np.array(rows)), labels)


def _held_count(n: int, fraction: float) -> int:
    """Rows a split of n sets aside: fraction of them, clamped to [1, n-1]."""
    return min(max(int(round(fraction * n)), 1), n - 1)


def _split_rows(n: int, fraction: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (kept, held) positions of n rows, with _held_count(n, fraction) held."""
    n_held = _held_count(n, fraction)
    perm = rng.permutation(n)
    return perm[n_held:], perm[:n_held]


def _gather_clients(
    data: LabeledBatch, owned: list[np.ndarray], fraction: float, rng: np.random.Generator
) -> list[ClientDataset]:
    """Gather each client's batches from data once. owned[c] holds client c's rows, ascending;
    a client with two or more rows sets a seeded fraction of them aside for calibration."""
    clients = []
    for client, rows in enumerate(owned):
        calibration = None
        if fraction != 0.0 and len(rows) >= 2:
            kept, held = _split_rows(len(rows), fraction, rng)
            rows, calibration = rows[kept], data.subset(rows[held])
        clients.append(ClientDataset(client, data.subset(rows), calibration))
    return clients


def _dirichlet_rows(
    labels: np.ndarray, num_clients: int, concentration: float, rng: np.random.Generator,
    min_samples: int,
) -> list[np.ndarray]:
    # narrow owners (uint8 up to 256 clients, then uint16) make numpy's stable
    # sort a radix sort; a stable sort has one result, so the rows are the same
    owner = np.empty(len(labels), dtype=np.min_scalar_type(num_clients - 1))
    for cls in np.flatnonzero(np.bincount(labels)):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        shares = rng.dirichlet(np.full(num_clients, concentration))
        # cumulative rounding keeps the class exactly partitioned
        bounds = np.floor(np.cumsum(shares) * len(idx) + 0.5).astype(int)
        owner[idx] = np.repeat(np.arange(num_clients), np.diff(bounds, prepend=0))
    # a stable sort by owner lists each client's rows in ascending order
    by_owner = np.argsort(owner, kind="stable")
    owned = np.split(by_owner, np.cumsum(np.bincount(owner, minlength=num_clients))[:-1])
    shortfall_clients = [c for c, rows in enumerate(owned) if len(rows) < min_samples]
    for client in shortfall_clients:
        extra = rng.choice(len(labels), size=min_samples - len(owned[client]), replace=True)
        owned[client] = np.sort(np.concatenate([owned[client], extra]))
    if shortfall_clients:
        warnings.warn(
            f"topped up {len(shortfall_clients)} client(s) {shortfall_clients} "
            f"to {min_samples} samples with duplicates from the global pool",
            RuntimeWarning,
            stacklevel=4,  # the caller of materialize_clients or client_sizes
        )
    return owned


def _check_shards(num_clients: int, shards_per_client: int, rows: int) -> None:
    if num_clients * shards_per_client > rows:
        raise ValueError(f"num_clients x shards_per_client = {num_clients} x {shards_per_client} "
                         f"= {num_clients * shards_per_client} shards, but the pool has only "
                         f"{rows} rows")


def _shard_rows(
    labels: np.ndarray, num_clients: int, shards_per_client: int, rng: np.random.Generator
) -> list[np.ndarray]:
    _check_shards(num_clients, shards_per_client, len(labels))
    num_shards = num_clients * shards_per_client
    narrow = labels.astype(np.min_scalar_type(labels.max()))  # radix-sorted, as above
    shards = np.array_split(np.argsort(narrow, kind="stable"), num_shards)
    shard_ids = rng.permutation(num_shards).reshape(num_clients, shards_per_client)
    return [np.sort(np.concatenate([shards[s] for s in mine])) for mine in shard_ids]


def _check_request(num_clients: int, min_samples: int) -> None:
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")


def _load(spec: DatasetSpec) -> LabeledBatch:
    if isinstance(spec.source, SyntheticSource):
        return generate_synthetic(spec.source, spec.seed)
    return load_csv(spec.source.path, spec.source.label_column, spec.source.num_classes)


def _holdout_rows(spec: DatasetSpec, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The (pool, held) rows of n loaded rows; held is None without a holdout."""
    if spec.holdout_fraction == 0.0:
        return np.arange(n), None
    return _split_rows(n, spec.holdout_fraction, np.random.default_rng(spec.seed))


def _client_rows(
    spec: DatasetSpec, labels: np.ndarray, num_clients: int, min_samples: int
) -> tuple[np.ndarray | None, list[np.ndarray], np.random.Generator]:
    """The row bookkeeping behind every client: (held rows, each client's rows of the
    loaded data, the partition RNG). It reads the labels and nothing else."""
    pool, held = _holdout_rows(spec, len(labels))
    rng = np.random.default_rng(spec.seed)
    if spec.partition == "dirichlet":
        owned = _dirichlet_rows(labels[pool], num_clients, spec.concentration, rng, min_samples)
    else:
        owned = _shard_rows(labels[pool], num_clients, spec.shards_per_client, rng)
    return held, [pool[rows] for rows in owned], rng


def materialize_clients(
    spec: DatasetSpec, num_clients: int, min_samples: int = 64
) -> tuple[list[ClientDataset], LabeledBatch | None]:
    """Load or generate the dataset, hold out a test split, partition the rest.

    Returns (client datasets, holdout batch). The holdout is an IID sample
    never shown to any client; it is None when holdout_fraction is zero.
    The dirichlet partition draws each class's client shares from a
    symmetric Dirichlet and tops clients below min_samples up with seeded
    duplicates from the pool (reported via RuntimeWarning); the shard
    partition sorts the pool by label and deals shards_per_client shards to
    each client. Each client then sets calibration_fraction of its rows
    aside, and its batches are gathered straight from the loaded matrix.
    """
    _check_request(num_clients, min_samples)
    full = _load(spec)
    held, owned, rng = _client_rows(spec, full.labels, num_clients, min_samples)
    clients = _gather_clients(full, owned, spec.calibration_fraction, rng)
    return clients, None if held is None else full.subset(held)


def client_sizes(spec: DatasetSpec, num_clients: int, min_samples: int = 64) -> list[int]:
    """Each client's row count under materialize_clients, without its batches.

    The partition runs on the labels alone, so a synthetic source generates
    no features; a CSV source is still read. The calibration split only
    divides a client's rows, so it cannot change a size.
    """
    _check_request(num_clients, min_samples)
    if isinstance(spec.source, SyntheticSource):
        labels = _synthetic_labels(spec.source)
    else:
        labels = _load(spec).labels
    return [len(rows) for rows in _client_rows(spec, labels, num_clients, min_samples)[1]]
