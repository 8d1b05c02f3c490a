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
import mmap
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .clustering import by_row, fold_rows, minmax_scale_in_place
from .model import LabeledBatch

__all__ = [
    "SyntheticSource",
    "CsvSource",
    "DatasetSpec",
    "ClientDataset",
    "generate_synthetic",
    "load_csv",
    "materialize_clients",
]

CHUNK_ROWS = 8192  # synthetic rows drawn, bounded and scattered at a time


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
        if not 0 <= self.class_separation < np.inf:
            raise ValueError(
                f"class_separation must be finite and >= 0, got {self.class_separation}"
            )


@dataclass
class CsvSource:
    """A labeled CSV file on disk."""

    path: str
    label_column: str = "label"
    num_classes: int = 2

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")

    @cached_property
    def num_features(self) -> int:
        """Feature columns in the file's header: every column but the label; read once and
        checked as load_csv checks it."""
        path = Path(self.path)
        with path.open(newline="", encoding="utf-8-sig") as fh:
            return len(_header(csv.reader(fh), path, self.label_column)) - 1

    def load(self) -> LabeledBatch:
        return load_csv(self.path, self.label_column, self.num_classes)


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
        if not 0 < self.concentration < np.inf:
            raise ValueError(
                f"concentration must be finite and positive, got {self.concentration}"
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def num_classes(self) -> int:
        return self.source.num_classes

    def pool_rows(self, loaded: LabeledBatch | None = None) -> int:
        """The rows the clients share once the holdout is set aside. A synthetic
        source has num_classes x samples_per_class rows, counted with no draw; a
        CSV source has the rows that load_csv keeps (loaded, if the caller read it)."""
        if isinstance(self.source, SyntheticSource):
            rows = self.source.num_classes * self.source.samples_per_class
        else:
            rows = len(_stream(self.source, self.seed, loaded)[0])
        if self.holdout_fraction == 0.0:
            return rows
        return rows - _held_count(rows, self.holdout_fraction)

    def check_shards(self, num_clients: int) -> None:
        """Reject, before any data exists, more shards than a synthetic pool has rows."""
        if self.partition == "by_class_shards" and isinstance(self.source, SyntheticSource):
            _check_shards(num_clients, self.shards_per_client, self.pool_rows())


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
    """Sample the class blobs and scale features into [0, 1]: _synthetic_chunks' rows, min-max
    scaled column by column, in class order, which downstream partitioners reshuffle."""
    labels, chunks = _stream(source, seed)
    return _fill(chunks, labels, [np.arange(len(labels))])[0]


def _synthetic_chunks(source: SyntheticSource, seed: int) -> Iterator[np.ndarray]:
    """The unscaled class blobs, CHUNK_ROWS rows at a time in one buffer: one standard_normal
    stream, so chunk ends change no double, plus each row's class center (centers sit on a
    sphere of radius class_separation, directions drawn from the seed)."""
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(source.num_classes, source.num_features))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    centers = source.class_separation * directions / norms
    per_class, rows = source.samples_per_class, source.num_classes * source.samples_per_class
    buffer = np.empty((min(CHUNK_ROWS, rows), source.num_features))
    for start in range(0, rows, CHUNK_ROWS):
        chunk = buffer[:rows - start]
        rng.standard_normal(out=chunk)
        for cls in range(start // per_class, (start + len(chunk) - 1) // per_class + 1):
            by_row(np.add, chunk[max(cls * per_class - start, 0):(cls + 1) * per_class - start],
                   centers[cls])
        yield chunk


def _header(reader: Iterator[list[str]], path: Path, label_column: str) -> list[str]:
    """The reader's header row, once it names label_column exactly once and one feature column
    or more; a ValueError otherwise, and on an empty file."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path} is empty")
    if label_column not in header:
        raise ValueError(f"label column {label_column!r} not in header {header}")
    if header.count(label_column) > 1:  # a second one would be read as a feature
        named = [i for i, name in enumerate(header) if name == label_column]
        raise ValueError(f"label column {label_column!r} is at positions {named} of {header}")
    if len(header) < 2:
        raise ValueError(f"{path} has no feature columns")
    return header


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
    with path.open(newline="", encoding="utf-8-sig") as fh:  # -sig drops a byte-order mark
        reader = csv.reader(fh)
        header = _header(reader, path, label_column)
        label_idx = header.index(label_column)
        feature_idx = [i for i in range(len(header)) if i != label_idx]
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


def _dirichlet_rows(
    labels: np.ndarray, num_clients: int, concentration: float, rng: np.random.Generator,
    min_samples: int,
) -> list[np.ndarray]:
    """Shuffle each class's rows, deal them to the clients by one Dirichlet share draw
    per class, and top the clients below min_samples up with duplicates."""
    rows = [np.flatnonzero(labels == cls) for cls in np.flatnonzero(np.bincount(labels))]
    counts = np.empty((len(rows), num_clients), dtype=np.int64)
    alpha = np.full(num_clients, concentration)
    # narrow owners (uint8 up to 256 clients, then uint16) make numpy's stable
    # sort a radix sort; a stable sort has one result, so the rows are the same
    owner = np.empty(len(labels), dtype=np.min_scalar_type(num_clients - 1))
    for idx, per_client in zip(rows, counts):
        rng.shuffle(idx)
        shares = rng.dirichlet(alpha)
        # cumulative rounding keeps the class exactly partitioned
        bounds = np.floor(np.cumsum(shares) * len(idx) + 0.5).astype(int)
        per_client[:] = np.diff(bounds, prepend=0)
        owner[idx] = np.repeat(np.arange(num_clients), per_client)
    # a stable sort by owner lists each client's rows in ascending order
    by_owner = np.argsort(owner, kind="stable")
    sizes = counts.sum(axis=0)
    owned = np.split(by_owner, np.cumsum(sizes)[:-1])
    short = np.flatnonzero(sizes < min_samples).tolist()
    if short:
        warnings.warn(
            f"topped up {len(short)} client(s) {short} "
            f"to {min_samples} samples with duplicates from the global pool",
            RuntimeWarning,
            stacklevel=3,  # the caller of materialize_clients
        )
    for client in short:
        extra = rng.choice(len(labels), size=min_samples - len(owned[client]), replace=True)
        owned[client] = np.sort(np.concatenate([owned[client], extra]))
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


def _stream(source: SyntheticSource | CsvSource, seed: int,
            loaded: LabeledBatch | None = None) -> tuple[np.ndarray, Iterable[np.ndarray]]:
    """Every source row's label, and its features as chunks drawn as they are read. A CSV is
    one chunk of load_csv's rows (loaded, if given), whose columns span exactly 0 to 1 (or are
    all 0.5), so the fill's min-max pass keeps every double."""
    if isinstance(source, SyntheticSource):
        labels = np.repeat(np.arange(source.num_classes), source.samples_per_class)
        return labels, _synthetic_chunks(source, seed)
    loaded = source.load() if loaded is None else loaded
    return loaded.labels, [loaded.features]


def _fill(chunks: Iterable[np.ndarray], labels: np.ndarray,
          parts: list[np.ndarray | None]) -> list[LabeledBatch | None]:
    """Stream the source rows once into one matrix of the parts' rows (source row positions; a
    row may sit in several parts), min-max scale it by the bounds of every source row, and
    cut it into the parts' batches, None for a None part."""
    src = np.concatenate([part for part in parts if part is not None])
    at = np.arange(len(src))
    dest = np.full(len(labels), len(src))  # a row that no part takes lands in a spare last row
    dest[src] = at  # one place per row; its other copies are filled after
    lo, hi, start = np.inf, -np.inf, 0
    for chunk in map(np.ascontiguousarray, chunks):  # C order, so a row views as one element
        features = _mapped(len(src) + 1, chunk.shape[1]) if start == 0 else features
        row = np.dtype((np.void, 8 * chunk.shape[1]))
        chunk_lo, chunk_hi = _bounds(chunk)
        lo, hi = np.minimum(lo, chunk_lo), np.maximum(hi, chunk_hi)
        np.put(features.view(row), dest[start:start + len(chunk)], chunk.view(row))
        start += len(chunk)
    copies = np.flatnonzero(dest[src] != at)
    features[copies] = features[dest[src[copies]]]
    if not np.isfinite(hi - lo).all():  # exactly when some scaled value would not be finite
        raise ValueError("features must be finite")
    cuts = np.cumsum([len(part) for part in parts if part is not None])[:-1]
    pieces = iter(zip(np.split(minmax_scale_in_place(features[:-1], lo, hi), cuts),
                      np.split(labels.take(src), cuts)))
    return [None if part is None else LabeledBatch._gathered(*next(pieces)) for part in parts]


def _bounds(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chunk.min(axis=0) and chunk.max(axis=0), bit for bit. numpy reduces one d-wide row at a
    time, so fold each 64 rows into one row first, then reduce the 64 partials and the rest.
    Only a +0.0/-0.0 tie goes by position, so a chunk with a zero bound is reduced plainly."""
    folded, rest = fold_rows(chunk)
    lo, hi = (op.reduce(np.vstack([op.reduce(folded, initial=edge).reshape(64, -1), rest]))
              for op, edge in ((np.minimum, np.inf), (np.maximum, -np.inf)))
    if (lo == 0.0).any() or (hi == 0.0).any():
        return chunk.min(axis=0), chunk.max(axis=0)
    return lo, hi


def _mapped(rows: int, width: int) -> np.ndarray:
    """An uninitialized float64 matrix in an anonymous mapping of its own, whose pages go back
    as soon as its last view dies. malloc keeps a freed block this size in its heap, where the
    next set-up, run while the last state still holds its matrix, cannot reuse it."""
    buffer = mmap.mmap(-1, 8 * rows * width, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):  # as numpy advises its own large blocks
        buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buffer).reshape(rows, width)


def _holdout_rows(spec: DatasetSpec, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The (pool, held) rows of n source rows; held is None without a holdout."""
    if spec.holdout_fraction == 0.0:
        return np.arange(n), None
    return _split_rows(n, spec.holdout_fraction, np.random.default_rng(spec.seed))


def _client_parts(owned: list[np.ndarray], fraction: float,
                  rng: np.random.Generator) -> list[np.ndarray | None]:
    """Each client's train and calibration rows, flat, from owned[c], client c's rows ascending;
    a client with under two rows, or no calibration fraction, has None for calibration."""
    parts = []
    for rows in owned:
        if fraction != 0.0 and len(rows) >= 2:
            kept, held = _split_rows(len(rows), fraction, rng)
            parts += [rows[kept], rows[held]]
        else:
            parts += [rows, None]
    return parts


def materialize_clients(
    spec: DatasetSpec, num_clients: int, min_samples: int = 64, loaded: LabeledBatch | None = None
) -> tuple[list[ClientDataset], LabeledBatch | None]:
    """Plan every client's rows and the holdout's from the labels, then fill them in one stream.

    Returns (client datasets, holdout batch). The holdout is an IID sample
    never shown to any client; it is None when holdout_fraction is zero.
    The dirichlet partition draws each class's client shares from a
    symmetric Dirichlet and tops clients below min_samples up with seeded
    duplicates from the pool (reported via RuntimeWarning); the shard
    partition sorts the pool by label and deals shards_per_client shards to
    each client. Each client then sets calibration_fraction of its rows
    aside. None of it reads a feature: then one fill draws the source (or
    loaded, a CSV source's load()) into a matrix of the holdout's rows and each
    client's, sliced into the batches.
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    labels, chunks = _stream(spec.source, spec.seed, loaded)
    pool, held = _holdout_rows(spec, len(labels))
    rng = np.random.default_rng(spec.seed)
    if spec.partition == "dirichlet":
        owned = _dirichlet_rows(labels[pool], num_clients, spec.concentration, rng, min_samples)
    else:
        owned = _shard_rows(labels[pool], num_clients, spec.shards_per_client, rng)
    parts = _client_parts([pool[rows] for rows in owned], spec.calibration_fraction, rng)
    holdout, *batches = _fill(chunks, labels, [held, *parts])
    pairs = zip(batches[::2], batches[1::2])
    return [ClientDataset(client, *pair) for client, pair in enumerate(pairs)], holdout
