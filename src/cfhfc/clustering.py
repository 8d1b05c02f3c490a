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
    "fcm_fit",
    "fcm_fit_stack",
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
        for name, value in zip(("cpu", "memory", "bandwidth"), values):
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
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


def minmax_scale_in_place(values: np.ndarray, lo=None, hi=None) -> np.ndarray:
    """minmax_scale that overwrites and returns the float64 matrix values; lo and hi,
    when given, are the column bounds to scale by in place of the values' own."""
    lo = values.min(axis=0) if lo is None else lo
    span = (values.max(axis=0) if hi is None else hi) - lo
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


def _weighted_norm(
    a: np.ndarray, b: np.ndarray, w: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """sqrt(sum_j w[j] * (a[..., j] - b[..., j])**2), into out if given.

    One pass over (..., 3) blocks: t = (w * d) * d, then out = t[..., 0] +
    t[..., 1], plus t[..., 2], then the square root. Those are the products
    and left-to-right adds of np.sqrt(np.sum(w * d * d, axis=-1)), since
    numpy adds a 3-wide last axis left to right, so the doubles match. Its
    two (..., 3) temporaries, d and t, are dropped on return, before the
    next membership cube is built.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    d = a - b
    t = w * d
    t *= d
    np.add(t[..., 0], t[..., 1], out=out)
    out += t[..., 2]
    return np.sqrt(out, out=out)


def _memberships_from_distances(dist: np.ndarray, m: float) -> np.ndarray:
    """Standard fuzzy memberships from a (..., n, K) stack of distance matrices.

    Zero distances short-circuit: the mass is split uniformly over all
    centroids the point coincides with, which keeps duplicate centroids
    populated and is symmetric when every distance is zero.
    """
    zeros = dist == 0.0
    # mu_ik = 1 / sum_r (d_ik / d_ir)^(2/(m-1)), numerically safe for tiny d;
    # rows with a zero distance divide by zero here and are overwritten below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios = dist[..., :, None] / dist[..., None, :]
        if m != 3.0:  # the default m = 3 makes the exponent 1.0, and x ** 1.0 is x
            ratios **= 2.0 / (m - 1.0)
        out = 1.0 / ratios.sum(axis=-1)
    if zeros.any():  # past the first iteration, centroids rarely sit on a point
        hit = zeros.any(axis=-1)
        out[hit] = zeros[hit] / zeros[hit].sum(axis=-1, keepdims=True)
    return out


def _farthest_point_init(
    points: np.ndarray, k: int, w: np.ndarray, seed: int, dist: np.ndarray
) -> np.ndarray:
    """Seeded farthest-point seeding: deterministic given seed and order.

    Returns the k seeds and writes every point's distance to each seed into
    the (n, k) dist, the fit's first distance matrix. dist must be C-contiguous:
    the membership ratios inherit its layout, and an F-ordered cube sums its
    last axis in another order than numpy's pairwise one.
    """
    n = points.shape[0]
    chosen = [seed % n]
    min_dist = _weighted_norm(points, points[chosen[0]], w, out=dist[:, 0])
    for j in range(1, k):
        chosen.append(int(min_dist.argmax()))
        column = _weighted_norm(points, points[chosen[-1]], w, out=dist[:, j])
        min_dist = np.minimum(min_dist, column)
    return points[chosen]


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
    This is fcm_fit_stack's one-slice case.
    """
    return fcm_fit_stack([points], num_clusters, fuzzifier, weights, max_iter, tol, (seed,))[0]


def fcm_fit_stack(points: np.ndarray, num_clusters: int, fuzzifier: float = 3.0,
                  weights: ResourceWeights | None = None, max_iter: int = 100,
                  tol: float = 1e-7, seeds: tuple[int, ...] = (0,)) -> list[FuzzyPartition]:
    """fcm_fit on each (n, 3) slice of a (F, n, 3) stack, slice f from seeds[f], in one loop:
    each partition has the bytes of its own fcm_fit call, and a converged slice leaves it."""
    if weights is None:
        weights = ResourceWeights()
    if not 1.0 < fuzzifier < np.inf:
        raise ValueError(f"fuzzifier must be finite and > 1, got {fuzzifier}")
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3 or points.shape[2] != 3:
        raise ValueError(f"points must have shape (n, 3) per slice, got {points.shape[1:]}")
    if not 0 < len(seeds) == len(points):
        raise ValueError(f"got {len(seeds)} seeds for {len(points)} slices of points")
    if not ((points >= 0.0) & (points <= 1.0)).all():
        raise ValueError("points are not normalized to [0, 1]; call normalize_profiles")
    count, n = points.shape[:2]
    if n < num_clusters:
        raise ValueError(f"{n} profiles cannot fill {num_clusters} clusters")

    w = weights.as_array()
    # every (point, centroid) distance, rewritten in place each iteration
    dist = np.empty((count, n, num_clusters))
    centroids = np.array([_farthest_point_init(block, num_clusters, w, seed, out)
                          for block, seed, out in zip(points, seeds, dist)])
    traces: list[list[float]] = [[] for _ in range(count)]  # one entry per iteration run
    ids, pts, d, c = np.arange(count), points, dist, centroids  # the slices still moving
    for iteration in range(1, max_iter + 1):
        mass = _memberships_from_distances(d, fuzzifier) ** fuzzifier
        # one gemm per slice: each row of its mass.T @ points rounds like
        # mass[:, k] @ points, and the contiguous rows sum like mass[:, k].sum()
        sums = mass.swapaxes(-1, -2) @ pts
        totals = np.ascontiguousarray(mass.swapaxes(-1, -2)).sum(axis=-1)
        live = totals > 0.0
        new_centroids = c.copy()
        new_centroids[live] = sums[live] / totals[live][:, None]
        moved = _weighted_norm(new_centroids, c, w).max(axis=-1)
        c = new_centroids
        _weighted_norm(pts[:, :, None, :], c[:, None], w, out=d)
        # each slice sums its own contiguous n*K row, as np.sum of it alone would
        objective = (mass * d**2).reshape(len(d), -1).sum(axis=-1)
        for f, value in zip(ids.tolist(), objective.tolist()):
            traces[f].append(value)
        done = (moved < tol) | (iteration == max_iter)
        if done.any():
            dist[ids], centroids[ids] = d, c
            if done.all():
                break
            ids, pts, d, c = ids[~done], pts[~done], d[~done], c[~done]
    memberships = _memberships_from_distances(dist, fuzzifier)
    return [FuzzyPartition(mu, at, fuzzifier, len(trace), tuple(trace))
            for mu, at, trace in zip(memberships, centroids, traces)]
