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
    "compute_memberships",
    "fcm_fit",
]


@dataclass
class HardwareProfile:
    """Raw device capabilities plus, once normalized, their [0,1] image."""

    cpu_ghz: float
    memory_gb: float
    bandwidth_mbps: float
    normalized: tuple[float, float, float] | None = None

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

    def dominant_cluster(self, i: int) -> int:
        return int(self.memberships[i].argmax())


def minmax_scale(values: np.ndarray) -> np.ndarray:
    """Column-wise min-max scaling to [0,1]; constant columns map to 0.5."""
    values = np.asarray(values, dtype=np.float64)
    lo = values.min(axis=0)
    span = values.max(axis=0) - lo
    constant = span == 0.0
    out = values - lo
    out /= np.where(constant, 1.0, span)
    out[:, constant] = 0.5
    return out


def normalize_profiles(profiles: list[HardwareProfile]) -> list[HardwareProfile]:
    """Min-max normalize each capability axis across the population.

    Returns new profile objects with the normalized triple filled in; the
    inputs are left untouched. A degenerate axis (all devices equal) maps to
    0.5 for every device.
    """
    if len(profiles) < 2:
        raise ValueError(f"need at least two profiles to normalize, got {len(profiles)}")
    raw = np.stack([p.raw() for p in profiles])
    scaled = minmax_scale(raw)
    return [
        HardwareProfile(p.cpu_ghz, p.memory_gb, p.bandwidth_mbps, tuple(row))
        for p, row in zip(profiles, scaled)
    ]


def _normalized_matrix(profiles: list[HardwareProfile]) -> np.ndarray:
    rows = []
    for i, p in enumerate(profiles):
        if p.normalized is None:
            raise ValueError(f"profile {i} is not normalized; call normalize_profiles")
        rows.append(p.normalized)
    return np.asarray(rows, dtype=np.float64)


def weighted_distance(a: np.ndarray, b: np.ndarray, w: ResourceWeights) -> float:
    """Weighted Euclidean distance between two normalized capability triples."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (3,) or b.shape != (3,):
        raise ValueError(f"capability triples must have shape (3,), got {a.shape} and {b.shape}")
    d = a - b
    return float(np.sqrt(np.sum(w.as_array() * d * d)))


def _distance_matrix(points: np.ndarray, centroids: np.ndarray, w: ResourceWeights) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.sqrt(np.einsum("nkd,d,nkd->nk", diff, w.as_array(), diff))


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


def compute_memberships(
    profile: HardwareProfile,
    centroids: np.ndarray,
    m: float,
    w: ResourceWeights,
) -> np.ndarray:
    """Membership of one normalized profile in each centroid's cluster."""
    if m <= 1.0:
        raise ValueError(f"fuzzifier must be > 1, got {m}")
    point = _normalized_matrix([profile])
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 2 or centroids.shape[1] != 3:
        raise ValueError(f"centroids must have shape (K, 3), got {centroids.shape}")
    dist = _distance_matrix(point, centroids, w)
    return _memberships_from_distances(dist, m)[0]


def _farthest_point_init(points: np.ndarray, k: int, w: ResourceWeights, seed: int) -> np.ndarray:
    """Seeded farthest-point seeding: deterministic given seed and order."""
    n = points.shape[0]
    chosen = [seed % n]
    min_dist = _distance_matrix(points, points[chosen[-1]][None, :], w)[:, 0]
    while len(chosen) < k:
        nxt = int(min_dist.argmax())
        chosen.append(nxt)
        d = _distance_matrix(points, points[nxt][None, :], w)[:, 0]
        min_dist = np.minimum(min_dist, d)
    return points[chosen].copy()


def _objective(dist: np.ndarray, memberships: np.ndarray, m: float) -> float:
    return float(np.sum(memberships**m * dist**2))


def fcm_fit(
    profiles: list[HardwareProfile],
    num_clusters: int,
    fuzzifier: float = 3.0,
    weights: ResourceWeights | None = None,
    max_iter: int = 100,
    tol: float = 1e-7,
    seed: int = 0,
) -> FuzzyPartition:
    """Fuzzy c-means over normalized hardware profiles.

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
    points = _normalized_matrix(profiles)
    n = points.shape[0]
    if n < num_clusters:
        raise ValueError(f"{n} profiles cannot fill {num_clusters} clusters")

    centroids = _farthest_point_init(points, num_clusters, weights, seed)
    memberships = np.full((n, num_clusters), 1.0 / num_clusters)
    trace: list[float] = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        dist = _distance_matrix(points, centroids, weights)
        memberships = _memberships_from_distances(dist, fuzzifier)
        mass = memberships**fuzzifier
        new_centroids = centroids.copy()
        for cluster in range(num_clusters):
            total = mass[:, cluster].sum()
            if total > 0.0:
                new_centroids[cluster] = mass[:, cluster] @ points / total
        moved = max(
            weighted_distance(new_centroids[c], centroids[c], weights)
            for c in range(num_clusters)
        )
        centroids = new_centroids
        trace.append(_objective(_distance_matrix(points, centroids, weights), memberships, fuzzifier))
        if moved < tol:
            break
    dist = _distance_matrix(points, centroids, weights)
    memberships = _memberships_from_distances(dist, fuzzifier)
    return FuzzyPartition(
        memberships=memberships,
        centroids=centroids,
        fuzzifier=fuzzifier,
        iterations_used=iterations,
        objective_trace=tuple(trace),
    )
