"""Adaptive conformal calibration of cluster models.

Each fog cluster keeps a confidence level that drifts with the error rates
observed on its calibration split: missed attacks push confidence down, so
the threshold falls and more rows get an empty prediction set, which is
booked as an attack; false alarms push it up, and well-resourced clusters
are allowed to run slightly more conservative thresholds. The threshold
itself is a finite-sample quantile of nonconformity scores, so prediction
sets inherit the usual split conformal coverage. Calibration only ever tunes
the decision rule; model weights pass through untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import ClusterModel
from .model import (
    LabeledBatch,
    ModelParams,
    _check_labels,
    _given_proba,
    _row_any,
    _row_argmax,
    predict_proba,
)

__all__ = [
    "CalibrationConfig",
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
class CalibrationConfig:
    """Adaptive conformal calibration knobs; disable for ablations."""

    enabled: bool = True
    initial_confidence: float = 0.9
    fnr_sensitivity: float = 0.5
    fpr_sensitivity: float = 0.2
    resource_sensitivity: float = 0.05

    def __post_init__(self) -> None:
        lo, hi = CONFIDENCE_BOUNDS
        if not lo <= self.initial_confidence <= hi:
            raise ValueError(
                f"initial_confidence must lie in [{lo}, {hi}], "
                f"got {self.initial_confidence}"
            )
        for name in ("fnr_sensitivity", "fpr_sensitivity", "resource_sensitivity"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass
class CalibrationState:
    """What a cluster carries from one calibration update into the next."""

    confidence: float = CalibrationConfig.initial_confidence
    recent_fnr: float = 0.0
    recent_fpr: float = 0.0
    resource_index: float = 0.0

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


def build_score_set(
    params: ModelParams, data: LabeledBatch, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Sorted nonconformity scores of a calibration batch under the model.

    Given an (n, num_classes) float64 array as out, it also receives the
    batch's predict_proba, for a later predict_with_calibration(probs=out).
    """
    probs = predict_proba(params, data.features, out=out)
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


def update_confidence(state: CalibrationState, cfg: CalibrationConfig) -> float:
    """Next confidence level from recent error rates and cluster resources.

    Missed attacks (FNR) lower the confidence so prediction sets tighten
    around fewer, more certain labels; false alarms (FPR) raise it; richer
    clusters (resource index) can afford slightly larger sets. The result is
    clamped to the documented bounds. The sensitivities come from cfg.
    """
    q = (
        state.confidence
        - cfg.fnr_sensitivity * state.recent_fnr
        + cfg.fpr_sensitivity * state.recent_fpr
        + cfg.resource_sensitivity * state.resource_index
    )
    lo, hi = CONFIDENCE_BOUNDS
    return float(min(max(q, lo), hi))


def predict_with_calibration(
    model: CalibratedModel, features: np.ndarray, *, probs: np.ndarray | None = None
) -> Decisions:
    """Set-valued decisions for each feature row.

    A class joins the prediction set when its nonconformity score is at or
    below the threshold. Singleton sets yield that label, larger sets resolve
    to the most probable member (the lowest class id on equal probability),
    and empty sets are flagged suspicious. probs, when given, must be
    predict_proba(model.params, features); the rows are then not scored again.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    probs = _given_proba(model.params, features, probs)
    members = 1.0 - probs <= model.threshold
    # 1 - p is monotone, so the most probable class is in every non-empty set
    return Decisions(np.where(_row_any(members), _row_argmax(probs), SUSPICIOUS), members)


def calibrate(
    model: ClusterModel,
    calibration_data: LabeledBatch,
    state: CalibrationState,
    cfg: CalibrationConfig | None = None,
    *,
    out: np.ndarray | None = None,
) -> tuple[CalibratedModel, CalibrationState]:
    """Refresh a cluster's confidence and threshold on new calibration data.

    Consumes the recent error rates stored in the state, updates the
    confidence with cfg's sensitivities (the defaults when cfg is None), and
    recomputes the threshold as the matching quantile of the fresh score set.
    The model parameters are carried through unchanged; only the decision
    rule moves. out is passed to build_score_set, to keep the probabilities.
    """
    if len(calibration_data) == 0:
        raise ValueError("calibration data must be non-empty")
    scores = build_score_set(model.params, calibration_data, out=out)
    q = update_confidence(state, cfg or CalibrationConfig())
    tau = quantile(scores, q)
    return CalibratedModel(model.params, tau, q), replace(state, confidence=q)
