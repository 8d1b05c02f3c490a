"""Detection metrics over set-valued decisions.

Evaluation is binary at heart (attack vs normal traffic, selected by the
attack_classes set) with a full per-class confusion matrix on the side.
Suspicious decisions carry no resolved label; following the deployment rule
they are booked as attack flags, and in the per-class matrix they land on the
lowest attack class id so row sums still match per-class support. Every rate
with a zero denominator is reported as 0.0 and flagged as degenerate rather
than raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import SUSPICIOUS
from .model import LabeledBatch, ModelParams, predict_proba

__all__ = [
    "ConfusionCounts",
    "MetricReport",
    "confusion",
    "classification_metrics",
    "argmax_decisions",
    "roc_sweep",
    "trapezoid_auc",
]


@dataclass
class ConfusionCounts:
    """Binary attack/normal counts plus the per-class matrix."""

    tp: int
    tn: int
    fp: int
    fn: int
    per_class: np.ndarray  # (num_classes, num_classes), rows = truth

    def __post_init__(self) -> None:
        self.per_class = np.asarray(self.per_class, dtype=np.int64)
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def merged(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp,
            self.tn + other.tn,
            self.fp + other.fp,
            self.fn + other.fn,
            self.per_class + other.per_class,
        )


@dataclass
class MetricReport:
    """Scalar rates derived from a ConfusionCounts."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    tpr: float
    fpr: float
    fnr: float
    degenerate: tuple[str, ...] = field(default=())

    def as_dict(self) -> dict[str, float]:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tpr": self.tpr,
            "fpr": self.fpr,
            "fnr": self.fnr,
        }


def confusion(
    predictions: np.ndarray,
    truths: np.ndarray,
    attack_classes: frozenset[int] | set[int],
    num_classes: int,
    suspicious_as_attack: bool = True,
) -> ConfusionCounts:
    """Tabulate predicted labels against ground truth.

    predictions holds one class id per row, or SUSPICIOUS where the
    prediction set was empty. Binary counts treat membership in
    attack_classes as the positive class. Suspicious decisions are booked as
    attack flags when suspicious_as_attack is set (the deployment default);
    in the per-class matrix they are assigned the lowest attack class id so
    the matrix keeps full support.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if len(predictions) != len(truths):
        raise ValueError(
            f"{len(predictions)} decisions but {len(truths)} truth labels"
        )
    if not attack_classes:
        raise ValueError("attack_classes must not be empty")
    attack = frozenset(int(c) for c in attack_classes)
    if any(c < 0 or c >= num_classes for c in attack):
        raise ValueError(f"attack classes {sorted(attack)} out of range")
    for name, labels, low in (("truth", truths, 0), ("predicted", predictions, SUSPICIOUS)):
        bad = labels[(labels < low) | (labels >= num_classes)]
        if bad.size:
            raise ValueError(f"{name} label {int(bad[0])} out of range")
    is_attack = np.isin(np.arange(num_classes), list(attack))
    if suspicious_as_attack or is_attack.all():
        suspicious_slot = min(attack)
    else:
        suspicious_slot = int(np.argmin(is_attack))
    suspicious = predictions == SUSPICIOUS
    predicted = np.where(suspicious, suspicious_slot, predictions)
    per_class = np.bincount(
        truths * num_classes + predicted, minlength=num_classes * num_classes
    ).reshape(num_classes, num_classes)
    truly_attack = is_attack[truths]
    flagged_attack = np.where(suspicious, suspicious_as_attack, is_attack[predicted])
    tp = int((truly_attack & flagged_attack).sum())
    fn = int((truly_attack & ~flagged_attack).sum())
    fp = int((~truly_attack & flagged_attack).sum())
    return ConfusionCounts(tp, len(truths) - tp - fn - fp, fp, fn, per_class)


def _rate(num: int, den: int, name: str, degenerate: list[str]) -> float:
    if den == 0:
        degenerate.append(name)
        return 0.0
    return num / den


def classification_metrics(counts: ConfusionCounts) -> MetricReport:
    """Standard rates from binary counts; zero denominators flagged, not raised."""
    degenerate: list[str] = []
    accuracy = _rate(counts.tp + counts.tn, counts.total, "accuracy", degenerate)
    precision = _rate(counts.tp, counts.tp + counts.fp, "precision", degenerate)
    recall = _rate(counts.tp, counts.tp + counts.fn, "recall", degenerate)
    if precision + recall == 0.0:
        degenerate.append("f1")
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    tpr = recall
    fpr = _rate(counts.fp, counts.fp + counts.tn, "fpr", degenerate)
    fnr = _rate(counts.fn, counts.tp + counts.fn, "fnr", degenerate)
    return MetricReport(
        accuracy, precision, recall, f1, tpr, fpr, fnr, tuple(degenerate)
    )


def argmax_decisions(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Plain argmax classification: one predicted label per row."""
    return predict_proba(params, features).argmax(axis=1)


def roc_sweep(
    params: ModelParams,
    data: LabeledBatch,
    attack_classes: frozenset[int] | set[int],
    thresholds: np.ndarray,
) -> list[tuple[float, float, float]]:
    """(threshold, fpr, tpr) points for set-inclusion detection.

    For each threshold tau, an attack sample counts as detected when its true
    class conforms (score <= tau), and a normal sample counts as a false
    alarm when any attack class conforms. Both rates are monotone in tau and
    hit (0, 0) and (1, 1) at the endpoints, so the curve integrates cleanly.
    """
    attack = sorted(int(c) for c in attack_classes)
    if not attack:
        raise ValueError("attack_classes must not be empty")
    probs = predict_proba(params, data.features)
    scores = 1.0 - probs
    truth_attack = np.isin(data.labels, attack)
    n_attack = int(truth_attack.sum())
    n_normal = len(data) - n_attack
    true_scores = scores[np.arange(len(data)), data.labels]
    min_attack_scores = scores[:, attack].min(axis=1)
    points = []
    for tau in np.asarray(thresholds, dtype=np.float64):
        tpr = (
            float((true_scores[truth_attack] <= tau).mean()) if n_attack else 0.0
        )
        fpr = (
            float((min_attack_scores[~truth_attack] <= tau).mean())
            if n_normal
            else 0.0
        )
        points.append((float(tau), fpr, tpr))
    return points


def trapezoid_auc(points: list[tuple[float, float, float]]) -> float:
    """Area under the (fpr, tpr) curve by the trapezoid rule."""
    if len(points) < 2:
        return 0.0
    fprs = np.array([p[1] for p in points])
    tprs = np.array([p[2] for p in points])
    order = np.argsort(fprs, kind="stable")
    return float(np.trapezoid(tprs[order], fprs[order]))
