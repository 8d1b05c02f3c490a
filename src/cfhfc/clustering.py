"""Hardware-aware fuzzy c-means over device capability profiles.

Devices are described by (cpu GHz, memory GB, bandwidth Mbps). Profiles are
min-max normalized across the population, distances weight the three axes
(bandwidth slightly heavier by default), and fuzzy memberships let a device
participate in more than one cluster. The fog tier uses the memberships both
to weight aggregation and to bound per-cluster synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HardwareProfile",
    "ResourceWeights",
    "FuzzyPartition",
    "minmax_scale",
    "normalize_profiles",
    "weighted_distance",
    "fcm_fit",
]


@dataclass
class HardwareProfile:
    """Raw device capabilities of one device."""

    cpu_ghz: float
    memory_gb: float
    bandwidth_mbps: float

    def __post_init__(self) -> None:
        for name in ("cpu_ghz", "memory_gb", "bandwidth_mbps"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    def raw(self) -> np.ndarray:
        return np.array([self.cpu_ghz, self.memory_gb, self.bandwidth_mbps])


@dataclass
class ResourceWeights:
    """Axis weights for the capability distance; must sum to one."""

    cpu: float = 0.3
    memory: float = 0.3
    bandwidth: float = 0.4

    def __post_init__(self) -> None:
        values = (self.cpu, self.memory, self.bandwidth)
        if any(v < 0 for v in values):
            raise ValueError(
                f"cpu, memory and bandwidth must be non-negative, got {values}"
            )
        if abs(sum(values) - 1.0) > 1e-9:
            raise ValueError(
                f"cpu + memory + bandwidth must sum to 1, got {sum(values)}"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.cpu, self.memory, self.bandwidth])


@dataclass
class FuzzyPartition:
    """Result of a fuzzy c-means run on normalized profiles."""

    memberships: np.ndarray  # (num_profiles, num_clusters), rows sum to 1
    centroids: np.ndarray  # (num_clusters, 3) in normalized space
    fuzzifier: float
    iterations_used: int
    objective_trace: tuple[float, ...] = field(default=(), repr=False)


def minmax_scale(values: np.ndarray) -> np.ndarray:
    """Column-wise min-max scaling to [0,1] into a new array; constant columns map to 0.5."""
    return minmax_scale_in_place(np.array(values, dtype=np.float64))


def minmax_scale_in_place(values: np.ndarray) -> np.ndarray:
    """minmax_scale that overwrites and returns the float64 matrix values."""
    lo = values.min(axis=0)
    span = values.max(axis=0) - lo
    constant = span == 0.0
    values -= lo
    values /= np.where(constant, 1.0, span)
    values[:, constant] = 0.5
    return values


def normalize_profiles(profiles: list[HardwareProfile]) -> np.ndarray:
    """Min-max normalize each capability axis across the population.

    Returns the (n, 3) matrix of normalized capabilities, one row per
    profile. A degenerate axis (all devices equal) maps to 0.5 for every
    device.
    """
    if len(profiles) < 2:
        raise ValueError(f"need at least two profiles to normalize, got {len(profiles)}")
    return minmax_scale(np.stack([p.raw() for p in profiles]))


def weighted_distance(a: np.ndarray, b: np.ndarray, w: ResourceWeights) -> np.ndarray | float:
    """Weighted Euclidean distance between normalized capability triples.

    The triple is the last axis; leading axes broadcast, so a (n, 3) block
    against one triple gives n distances and two triples give one float.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1:] != (3,) or b.shape[-1:] != (3,):
        raise ValueError(
            f"capability triples must have a last axis of 3, got {a.shape} and {b.shape}"
        )
    d = a - b
    return np.sqrt(np.sum(w.as_array() * d * d, axis=-1))


def _distance_matrix(points: np.ndarray, centroids: np.ndarray, w: ResourceWeights) -> np.ndarray:
    return weighted_distance(points[:, None, :], centroids[None, :, :], w)


def _memberships_from_distances(dist: np.ndarray, m: float) -> np.ndarray:
    """Standard fuzzy memberships from a (n, K) distance matrix.

    Zero distances short-circuit: the mass is split uniformly over all
    centroids the point coincides with, which keeps duplicate centroids
    populated and is symmetric when every distance is zero.
    """
    zeros = dist == 0.0
    # mu_ik = 1 / sum_r (d_ik / d_ir)^(2/(m-1)), numerically safe for tiny d;
    # rows with a zero distance divide by zero here and are overwritten below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios = (dist[:, :, None] / dist[:, None, :]) ** (2.0 / (m - 1.0))
        out = 1.0 / ratios.sum(axis=2)
    hit = zeros.any(axis=1)
    out[hit] = zeros[hit] / zeros[hit].sum(axis=1, keepdims=True)
    return out


def _farthest_point_init(points: np.ndarray, k: int, w: ResourceWeights, seed: int) -> np.ndarray:
    """Seeded farthest-point seeding: deterministic given seed and order."""
    n = points.shape[0]
    chosen = [seed % n]
    min_dist = weighted_distance(points, points[chosen[-1]], w)
    while len(chosen) < k:
        nxt = int(min_dist.argmax())
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, weighted_distance(points, points[nxt], w))
    return points[chosen].copy()


def _objective(dist: np.ndarray, memberships: np.ndarray, m: float) -> float:
    return float(np.sum(memberships**m * dist**2))


def fcm_fit(
    points: np.ndarray,
    num_clusters: int,
    fuzzifier: float = 3.0,
    weights: ResourceWeights | None = None,
    max_iter: int = 100,
    tol: float = 1e-7,
    seed: int = 0,
) -> FuzzyPartition:
    """Fuzzy c-means over a (n, 3) matrix of normalized capabilities.

    Alternates membership and centroid updates until the largest centroid
    movement (in the weighted distance) drops below tol. Centroids that end up
    with no soft mass keep their previous position. The recorded objective
    trace (sum of mu^m * d^2 after each full iteration) is non-increasing.
    """
    if weights is None:
        weights = ResourceWeights()
    if fuzzifier <= 1.0:
        raise ValueError(f"fuzzifier must be > 1, got {fuzzifier}")
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {points.shape}")
    if not ((points >= 0.0) & (points <= 1.0)).all():
        raise ValueError("points are not normalized to [0, 1]; call normalize_profiles")
    n = points.shape[0]
    if n < num_clusters:
        raise ValueError(f"{n} profiles cannot fill {num_clusters} clusters")

    centroids = _farthest_point_init(points, num_clusters, weights, seed)
    dist = _distance_matrix(points, centroids, weights)
    trace: list[float] = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        memberships = _memberships_from_distances(dist, fuzzifier)
        mass = memberships**fuzzifier
        new_centroids = centroids.copy()
        for cluster in range(num_clusters):
            total = mass[:, cluster].sum()
            if total > 0.0:
                new_centroids[cluster] = mass[:, cluster] @ points / total
        moved = weighted_distance(new_centroids, centroids, weights).max()
        centroids = new_centroids
        dist = _distance_matrix(points, centroids, weights)
        trace.append(_objective(dist, memberships, fuzzifier))
        if moved < tol:
            break
    return FuzzyPartition(
        memberships=_memberships_from_distances(dist, fuzzifier),
        centroids=centroids,
        fuzzifier=fuzzifier,
        iterations_used=iterations,
        objective_trace=tuple(trace),
    )
