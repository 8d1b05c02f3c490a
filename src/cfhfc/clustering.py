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
    "ResourceWeights",
    "FuzzyPartition",
    "minmax_scale",
    "fcm_fit",
    "fcm_fit_stack",
]


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
    by_row(np.subtract, values, lo)
    by_row(np.divide, values, np.where(constant, 1.0, span))
    values[:, constant] = 0.5
    return values


def fold_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """values' whole 64-row blocks as one (rows // 64, 64·d) matrix, and the rows left over,
    views of a C-ordered values: numpy's inner loop then runs 64·d wide instead of d wide."""
    head = len(values) // 64 * 64
    return values[:head].reshape(-1, 64 * values.shape[1]), values[head:]


def by_row(op: np.ufunc, values: np.ndarray, row: np.ndarray) -> None:
    """op(values, row, out=values), the same doubles, folded from 1,024 C-ordered rows on;
    below that the fold's fixed cost (about 3 us on a 2-core Xeon VM) outweighs its saving."""
    if len(values) >= 1024 and values.flags.c_contiguous:
        folded, values = fold_rows(values)
        op(folded, row[None].repeat(64, axis=0).ravel(), out=folded)
    op(values, row, out=values)


def _weighted_norm(
    a: np.ndarray, b: np.ndarray, w: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """sqrt(sum_j w[j] * (a[..., j] - b[..., j])**2), into out if given: _plane_norm
    over the three (strided) axis planes of a - b."""
    d = a - b
    return _plane_norm(np.moveaxis(d, -1, 0), w, np.empty(d.shape[:-1]) if out is None else out)


def _plane_norm(d: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sqrt(sum_j w[j] * d[j]**2) over the (3, ...) per-axis planes d, into out.

    t = (w * d) * d, then out = t[0] + t[1], plus t[2], then the square root.
    Those are the products and left-to-right adds of
    np.sqrt(np.sum(w * d * d, axis=-1)) on (..., 3) blocks, since numpy adds a
    3-wide last axis left to right, so the doubles match. On contiguous planes
    each step runs over one block instead of every third double.
    """
    t = w.reshape(3, *(1,) * (d.ndim - 1)) * d
    t *= d
    np.add(t[0], t[1], out=out)
    out += t[2]
    return np.sqrt(out, out=out)


def _ratio_memberships(rows: np.ndarray, m: float) -> np.ndarray:
    """mu_ik = 1 / sum_r (d_ik / d_ir)^(2/(m-1)) for C-contiguous (..., K) rows with no
    zero distance, numerically safe for tiny d. Each row sums as numpy's pairwise sum of
    that row alone; an F-ordered cube would sum its last axis in another order."""
    with np.errstate(over="ignore"):
        ratios = rows[..., :, None] / rows[..., None, :]
        if m != 3.0:  # the default m = 3 makes the exponent 1.0, and x ** 1.0 is x
            ratios **= 2.0 / (m - 1.0)
        return 1.0 / ratios.sum(axis=-1)


def _memberships_from_distances(dist: np.ndarray, m: float) -> np.ndarray:
    """Standard fuzzy memberships from a (..., n, K) stack of distance matrices.

    Zero distances short-circuit: the mass is split uniformly over all
    centroids the point coincides with, which keeps duplicate centroids
    populated and is symmetric when every distance is zero. Only the rows off
    every centroid build ratios, gathered into one C-contiguous block.
    """
    zeros = dist == 0.0
    if not zeros.any():  # past the first iteration, centroids rarely sit on a point
        return _ratio_memberships(np.ascontiguousarray(dist), m)
    count = zeros.sum(axis=-1, keepdims=True)
    out = zeros / np.maximum(count, 1)  # rows off every centroid read 0 here
    miss = count[..., 0] == 0
    if miss.any():
        out[miss] = _ratio_memberships(dist[miss], m)
    return out


def _farthest_point_init(
    planes: np.ndarray, k: int, w: np.ndarray, seeds: tuple[int, ...], dist: np.ndarray
) -> np.ndarray:
    """Seeded farthest-point seeding of each slice of the (3, F, n) per-axis point planes,
    all in one pass of k - 1 argmax and minimum steps. Returns the (F, k) seed indices
    and writes each point's distance to its slice's seeds into the (F, n, k) dist."""
    _, count, n = planes.shape
    at = np.arange(count)
    chosen = np.empty((k, count), dtype=np.intp)
    chosen[0] = [seed % n for seed in seeds]
    columns = np.empty((k, count, n))  # seed j's (F, n) distances, contiguous
    nearest = _plane_norm(planes - planes[:, at, chosen[0], None], w, columns[0]).copy()
    for j in range(1, k):
        chosen[j] = nearest.argmax(axis=-1)
        column = _plane_norm(planes - planes[:, at, chosen[j], None], w, columns[j])
        np.minimum(nearest, column, out=nearest)
    dist[...] = columns.transpose(1, 2, 0)
    return chosen.T


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
        raise ValueError("points are not normalized to [0, 1]; scale them with minmax_scale")
    count, n = points.shape[:2]
    if n < num_clusters:
        raise ValueError(f"{n} profiles cannot fill {num_clusters} clusters")

    w = weights.as_array()
    # every (point, centroid) distance, rewritten in place each iteration
    dist = np.empty((count, n, num_clusters))
    planes = np.ascontiguousarray(points.transpose(2, 0, 1))  # (3, F, n): one plane per axis
    centroids = points[np.arange(count)[:, None],
                       _farthest_point_init(planes, num_clusters, w, seeds, dist)]
    planes = planes[..., None]
    traces: list[list[float]] = [[] for _ in range(count)]  # one entry per iteration run
    ids, pts, d, c = np.arange(count), points, dist, centroids  # the slices still moving
    for iteration in range(1, max_iter + 1):
        mass = _memberships_from_distances(d, fuzzifier) ** fuzzifier
        # one gemm per slice: each row of its mass.T @ points rounds like
        # mass[:, k] @ points, and the contiguous rows sum like mass[:, k].sum()
        sums = mass.swapaxes(-1, -2) @ pts
        totals = np.ascontiguousarray(mass.swapaxes(-1, -2)).sum(axis=-1)[..., None]
        # a cluster with no soft mass keeps its centroid
        new_centroids = np.divide(sums, totals, out=c.copy(), where=totals > 0.0)
        moved = _weighted_norm(new_centroids, c, w).max(axis=-1)
        c = new_centroids
        _plane_norm(planes - c.transpose(2, 0, 1)[:, :, None], w, d)  # (3, F, n, K) planes
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
            planes = planes[:, ~done]
    memberships = _memberships_from_distances(dist, fuzzifier)
    return [FuzzyPartition(mu, at, fuzzifier, len(trace), tuple(trace))
            for mu, at, trace in zip(memberships, centroids, traces)]
