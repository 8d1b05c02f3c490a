"""Adaptive conformal calibration of cluster models.

Each fog cluster keeps a confidence level that drifts with the error rates
observed on its calibration split: missed attacks push confidence up, false
alarms push it down, and well-resourced clusters are allowed to run slightly
more conservative thresholds. The threshold itself is a finite-sample
quantile of nonconformity scores, so prediction sets inherit the usual split
conformal coverage. Calibration only ever tunes the decision rule; model
weights pass through untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import ClusterModel
from .model import LabeledBatch, ModelParams, _check_labels, predict_proba

__all__ = [
    "CalibrationState",
    "CalibratedModel",
    "Decision",
    "Decisions",
    "CONFIDENCE_BOUNDS",
    "SUSPICIOUS",
    "build_score_set",
    "quantile",
    "update_confidence",
    "predict_with_calibration",
    "calibrate",
]

CONFIDENCE_BOUNDS = (0.5, 0.999)
SUSPICIOUS = -1  # label of a row whose prediction set is empty


@dataclass
class CalibrationState:
    """Per-cluster calibration bookkeeping carried across rounds."""

    confidence: float = 0.9
    threshold: float = 1.0
    recent_fnr: float = 0.0
    recent_fpr: float = 0.0
    resource_index: float = 0.0
    fnr_sensitivity: float = 0.5
    fpr_sensitivity: float = 0.2
    resource_sensitivity: float = 0.05

    def __post_init__(self) -> None:
        lo, hi = CONFIDENCE_BOUNDS
        if not lo <= self.confidence <= hi:
            raise ValueError(
                f"confidence must lie in [{lo}, {hi}], got {self.confidence}"
            )
        for name in ("recent_fnr", "recent_fpr", "resource_index"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass
class CalibratedModel:
    """A cluster model paired with its decision threshold."""

    params: ModelParams
    threshold: float
    confidence: float


@dataclass(frozen=True)
class Decision:
    """Outcome of set-valued prediction for one sample.

    kind is "single_label" when exactly one class conforms, "resolved_tie"
    when several conform and the most probable one is reported, and
    "suspicious" when none conform (treated downstream as an attack flag).
    """

    kind: str
    label: int | None
    prediction_set: tuple[int, ...]


@dataclass(frozen=True)
class Decisions:
    """Set-valued decisions for a block of rows, held as arrays.

    labels holds each row's reported class, or SUSPICIOUS when its
    prediction set is empty; members is the (n, num_classes) set mask.
    Iterating yields one Decision per row.
    """

    labels: np.ndarray
    members: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        for label, row in zip(self.labels, self.members):
            prediction_set = tuple(int(c) for c in np.flatnonzero(row))
            if not prediction_set:
                yield Decision("suspicious", None, ())
            else:
                kind = "single_label" if len(prediction_set) == 1 else "resolved_tie"
                yield Decision(kind, int(label), prediction_set)


def build_score_set(params: ModelParams, data: LabeledBatch) -> np.ndarray:
    """Sorted nonconformity scores of a calibration batch under the model."""
    probs = predict_proba(params, data.features)
    _check_labels(data.labels, params.num_classes)
    scores = 1.0 - probs[np.arange(len(data)), data.labels]
    return np.sort(scores)


def quantile(scores: np.ndarray, q: float) -> float:
    """The ceil(q*n)-th order statistic (1-indexed) of the scores.

    The tiny epsilon guards against float spillover: 0.9 * 10 evaluates to
    9.000000000000002, whose plain ceiling would skip to the 10th statistic.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("cannot take a quantile of an empty score set")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    n = scores.size
    k = math.ceil(q * n - 1e-9)
    k = min(max(k, 1), n)
    return float(np.sort(scores)[k - 1])


def update_confidence(state: CalibrationState) -> float:
    """Next confidence level from recent error rates and cluster resources.

    Missed attacks (FNR) lower the confidence so prediction sets tighten
    around fewer, more certain labels; false alarms (FPR) raise it; richer
    clusters (resource index) can afford slightly larger sets. The result is
    clamped to the documented bounds.
    """
    q = (
        state.confidence
        - state.fnr_sensitivity * state.recent_fnr
        + state.fpr_sensitivity * state.recent_fpr
        + state.resource_sensitivity * state.resource_index
    )
    lo, hi = CONFIDENCE_BOUNDS
    return float(min(max(q, lo), hi))


def predict_with_calibration(
    model: CalibratedModel, features: np.ndarray
) -> Decisions:
    """Set-valued decisions for each feature row.

    A class joins the prediction set when its nonconformity score is at or
    below the threshold. Singleton sets yield that label, larger sets resolve
    to the most probable member (the lowest class id on equal probability),
    and empty sets are flagged suspicious.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    probs = predict_proba(model.params, features)
    members = 1.0 - probs <= model.threshold
    best = np.where(members, probs, -np.inf).argmax(axis=1)
    return Decisions(np.where(members.any(axis=1), best, SUSPICIOUS), members)


def calibrate(
    model: ClusterModel,
    calibration_data: LabeledBatch,
    state: CalibrationState,
) -> tuple[CalibratedModel, CalibrationState]:
    """Refresh a cluster's confidence and threshold on new calibration data.

    Consumes the recent error rates stored in the state, updates the
    confidence, and recomputes the threshold as the matching quantile of the
    fresh score set. The model parameters are carried through unchanged; only
    the decision rule moves.
    """
    if len(calibration_data) == 0:
        raise ValueError("calibration data must be non-empty")
    scores = build_score_set(model.params, calibration_data)
    q = update_confidence(state)
    tau = quantile(scores, q)
    new_state = replace(state, confidence=q, threshold=tau)
    return CalibratedModel(params=model.params, threshold=tau, confidence=q), new_state
