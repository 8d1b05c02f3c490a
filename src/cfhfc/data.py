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
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clustering import minmax_scale
from .model import LabeledBatch

__all__ = [
    "SyntheticSource",
    "CsvSource",
    "DatasetSpec",
    "ClientDataset",
    "generate_synthetic",
    "load_csv",
    "dirichlet_partition",
    "shard_partition",
    "split_holdout",
    "materialize_clients",
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
    origin (directions drawn from the seed), samples add unit-variance
    Gaussian noise, and the whole feature matrix is min-max scaled column by
    column. Output order is by class, which downstream partitioners reshuffle.
    """
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(source.num_classes, source.num_features))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    centers = source.class_separation * directions / norms
    features = np.concatenate(
        [
            centers[c] + rng.normal(size=(source.samples_per_class, source.num_features))
            for c in range(source.num_classes)
        ]
    )
    labels = np.repeat(np.arange(source.num_classes), source.samples_per_class)
    return LabeledBatch(minmax_scale(features), labels)


def load_csv(path: str | Path, label_column: str, num_classes: int) -> LabeledBatch:
    """Read a labeled CSV into a scaled batch.

    The header row names the columns; every non-label column must parse as a
    float. Rows with malformed features are skipped and reported through a
    RuntimeWarning that lists their line numbers. Labels that all parse as
    integers are used directly; otherwise labels are mapped to ids in order
    of first appearance. Features are min-max scaled per column.
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
                rows.append([float(row[i]) for i in feature_idx])
            except ValueError:
                bad_rows.append(line_no)
                continue
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
    return LabeledBatch(minmax_scale(np.array(rows)), labels)


def split_holdout(
    data: LabeledBatch, fraction: float, seed: int
) -> tuple[LabeledBatch, LabeledBatch | None]:
    """Split off a seeded IID holdout; returns (remainder, holdout)."""
    if fraction == 0.0:
        return data, None
    n = len(data)
    n_holdout = int(round(fraction * n))
    n_holdout = min(max(n_holdout, 1), n - 1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return data.subset(perm[n_holdout:]), data.subset(perm[:n_holdout])


def _split_calibration(
    batch: LabeledBatch, fraction: float, rng: np.random.Generator
) -> tuple[LabeledBatch, LabeledBatch | None]:
    if fraction == 0.0 or len(batch) < 2:
        return batch, None
    n = len(batch)
    n_cal = min(max(int(round(fraction * n)), 1), n - 1)
    perm = rng.permutation(n)
    return batch.subset(perm[n_cal:]), batch.subset(perm[:n_cal])


def dirichlet_partition(
    data: LabeledBatch,
    num_clients: int,
    concentration: float,
    seed: int,
    calibration_fraction: float = 0.1,
    min_samples: int = 64,
) -> list[ClientDataset]:
    """Label-skewed partition: per-class client shares ~ Dirichlet.

    Small concentration values concentrate each class on few clients. Clients
    that land below min_samples are topped up with seeded draws from the
    global pool (duplicates, reported via RuntimeWarning) so that everyone
    can run at least one minibatch epoch. Each client then reserves
    calibration_fraction of its samples for conformal calibration.
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if concentration <= 0:
        raise ValueError(f"concentration must be positive, got {concentration}")
    rng = np.random.default_rng(seed)
    assignments: list[list[int]] = [[] for _ in range(num_clients)]
    for cls in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == cls)
        rng.shuffle(idx)
        shares = rng.dirichlet(np.full(num_clients, concentration))
        # cumulative rounding keeps the class exactly partitioned
        bounds = np.floor(np.cumsum(shares) * len(idx) + 0.5).astype(int)
        start = 0
        for client, stop in enumerate(bounds):
            assignments[client].extend(idx[start:stop])
            start = stop
    shortfall_clients = []
    for client, owned in enumerate(assignments):
        if len(owned) < min_samples:
            shortfall_clients.append(client)
            extra = rng.choice(len(data), size=min_samples - len(owned), replace=True)
            owned.extend(int(i) for i in extra)
    if shortfall_clients:
        warnings.warn(
            f"topped up {len(shortfall_clients)} client(s) {shortfall_clients} "
            f"to {min_samples} samples with duplicates from the global pool",
            RuntimeWarning,
            stacklevel=2,
        )
    clients = []
    for client, owned in enumerate(assignments):
        batch = data.subset(np.array(sorted(owned), dtype=np.int64))
        train, cal = _split_calibration(batch, calibration_fraction, rng)
        clients.append(ClientDataset(client, train, cal))
    return clients


def shard_partition(
    data: LabeledBatch,
    num_clients: int,
    shards_per_client: int,
    seed: int,
    calibration_fraction: float = 0.1,
) -> list[ClientDataset]:
    """Classic shard partition: sort by label, deal shards to clients.

    With shards_per_client small each client sees few classes; sizes are
    equal whenever the data divides evenly into shards.
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if shards_per_client < 1:
        raise ValueError(
            f"shards_per_client must be >= 1, got {shards_per_client}"
        )
    rng = np.random.default_rng(seed)
    order = np.argsort(data.labels, kind="stable")
    shards = np.array_split(order, num_clients * shards_per_client)
    shard_ids = rng.permutation(num_clients * shards_per_client)
    clients = []
    for client in range(num_clients):
        mine = shard_ids[client * shards_per_client : (client + 1) * shards_per_client]
        idx = np.concatenate([shards[s] for s in mine])
        batch = data.subset(np.sort(idx))
        train, cal = _split_calibration(batch, calibration_fraction, rng)
        clients.append(ClientDataset(client, train, cal))
    return clients


def materialize_clients(
    spec: DatasetSpec, num_clients: int, min_samples: int = 64
) -> tuple[list[ClientDataset], LabeledBatch | None]:
    """Load or generate the dataset, hold out a test split, partition the rest.

    Returns (client datasets, holdout batch). The holdout is an IID sample
    never shown to any client; it is None when holdout_fraction is zero.
    """
    if isinstance(spec.source, SyntheticSource):
        full = generate_synthetic(spec.source, spec.seed)
    else:
        full = load_csv(
            spec.source.path, spec.source.label_column, spec.source.num_classes
        )
    pool, holdout = split_holdout(full, spec.holdout_fraction, spec.seed)
    if spec.partition == "dirichlet":
        clients = dirichlet_partition(
            pool,
            num_clients,
            spec.concentration,
            spec.seed,
            spec.calibration_fraction,
            min_samples,
        )
    else:
        clients = shard_partition(
            pool,
            num_clients,
            spec.shards_per_client,
            spec.seed,
            spec.calibration_fraction,
        )
    return clients, holdout
