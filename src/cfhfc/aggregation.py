"""Membership-weighted model aggregation for the fog and cloud tiers.

The fog tier averages client updates inside each hardware cluster, weighting
every update by the client's membership in that cluster. The cloud tier then
combines the cluster models, weighting each cluster by its data volume times
its mean membership. Both tiers reduce through the same weighted-average
primitive so that degenerate configurations (one cluster, equal weights)
collapse bit-exactly onto plain federated averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = [
    "ClusterModel",
    "weighted_average",
    "cluster_aggregate",
    "cluster_weights",
    "global_aggregate",
]


@dataclass
class ClusterModel:
    """Aggregated model of one cluster with its weighting statistics."""

    params: ModelParams
    total_data: int  # sum of participant data sizes
    mean_membership: float  # mean participant membership in this cluster


def weighted_average(models: list[ModelParams], weights: np.ndarray) -> ModelParams:
    """Convex combination of models; weights are normalized internally.

    All aggregation paths funnel through this function with the same stacking
    and reduction order, so runs that should coincide (e.g. equal weights vs.
    proportional weights) produce bit-identical results.
    """
    if not models:
        raise ValueError("need at least one model to average")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(models),):
        raise ValueError(
            f"got {len(models)} models but weight shape {weights.shape}"
        )
    if (weights < 0).any() or not np.isfinite(weights).all():
        raise ValueError("weights must be finite and non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    norm = weights / total
    first = models[0]
    for i, m in enumerate(models[1:], start=1):
        if not m.same_shape_as(first):
            raise ValueError(
                f"model {i} shape {m.weights.shape} does not match "
                f"{first.weights.shape}"
            )
    w = np.tensordot(norm, np.stack([m.weights for m in models]), axes=1)
    b = np.tensordot(norm, np.stack([m.biases for m in models]), axes=1)
    return ModelParams(w, b)


def cluster_aggregate(updates: list[tuple[ModelParams, float, int]]) -> ClusterModel:
    """Fog-level reduction of one cluster's participant updates.

    Each update is (trained params, membership in this cluster, data size).
    Parameters are averaged with membership weights.

    Returns a ClusterModel carrying the statistics the cloud tier needs:
    summed data volume and mean membership.
    """
    if not updates:
        raise ValueError("cluster has no participating updates")
    models = [u[0] for u in updates]
    memberships = np.array([u[1] for u in updates], dtype=np.float64)
    sizes = np.array([u[2] for u in updates], dtype=np.int64)
    if (memberships <= 0).any() or (memberships > 1).any():
        raise ValueError("memberships must lie in (0, 1]")
    if (sizes <= 0).any():
        raise ValueError("data sizes must be positive")
    params = weighted_average(models, memberships)
    return ClusterModel(
        params=params,
        total_data=int(sizes.sum()),
        mean_membership=float(memberships.mean()),
    )


def cluster_weights(clusters: list[ClusterModel]) -> np.ndarray:
    """Cloud-tier weights: data volume times mean membership, normalized."""
    if not clusters:
        raise ValueError("need at least one cluster")
    raw = np.array(
        [c.total_data * c.mean_membership for c in clusters], dtype=np.float64
    )
    if (raw <= 0).any():
        raise ValueError("every cluster needs positive data volume and membership")
    return raw / raw.sum()


def global_aggregate(clusters: list[ClusterModel]) -> ModelParams:
    """Cloud-level reduction of cluster models into the next global model."""
    pi = cluster_weights(clusters)
    return weighted_average([c.params for c in clusters], pi)
