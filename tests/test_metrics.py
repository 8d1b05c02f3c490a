"""Tests for confusion accounting, derived rates and ROC sweeps.

The rate check recomputes every formula with plain integer arithmetic in the
test body, so the library is never compared against itself.
"""

import numpy as np
import pytest

from cfhfc import (
    SUSPICIOUS,
    ConfusionCounts,
    LabeledBatch,
    ModelParams,
    classification_metrics,
    confusion,
    roc_sweep,
    trapezoid_auc,
)
from cfhfc.metrics import argmax_decisions


def manual_metrics(tp, tn, fp, fn):
    """Reference rates with explicit zero-denominator flags."""
    flags = []

    def rate(num, den, name):
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    total = tp + tn + fp + fn
    accuracy = rate(tp + tn, total, "accuracy")
    precision = rate(tp, tp + fp, "precision")
    recall = rate(tp, tp + fn, "recall")
    if precision + recall == 0.0:
        flags.append("f1")
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    fpr = rate(fp, fp + tn, "fpr")
    fnr = rate(fn, tp + fn, "fnr")
    return accuracy, precision, recall, f1, fpr, fnr, flags


class TestClassificationMetrics:
    def test_textbook_example(self):
        counts = ConfusionCounts(90, 895, 5, 10, np.zeros((2, 2)))
        report = classification_metrics(counts)
        assert report.accuracy == pytest.approx(0.985, abs=1e-12)
        assert report.precision == pytest.approx(90 / 95, abs=1e-12)
        assert report.recall == pytest.approx(0.9, abs=1e-12)
        assert report.f1 == pytest.approx(12 / 13, abs=1e-12)
        assert report.fpr == pytest.approx(5 / 900, abs=1e-12)
        assert report.fnr == pytest.approx(0.1, abs=1e-12)
        assert report.tpr == report.recall
        assert report.degenerate == ()

    def test_thousand_random_tables_match_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, size=4))
            report = classification_metrics(
                ConfusionCounts(tp, tn, fp, fn, np.zeros((2, 2)))
            )
            acc, prec, rec, f1, fpr, fnr, flags = manual_metrics(tp, tn, fp, fn)
            assert abs(report.accuracy - acc) <= 1e-12
            assert abs(report.precision - prec) <= 1e-12
            assert abs(report.recall - rec) <= 1e-12
            assert abs(report.f1 - f1) <= 1e-12
            assert abs(report.fpr - fpr) <= 1e-12
            assert abs(report.fnr - fnr) <= 1e-12
            assert set(report.degenerate) == set(flags)

    def test_perfect_detector(self):
        report = classification_metrics(ConfusionCounts(50, 50, 0, 0, np.zeros((2, 2))))
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0
        assert report.fpr == 0.0
        assert report.fnr == 0.0

    def test_no_attacks_flags_recall_not_fpr(self):
        report = classification_metrics(ConfusionCounts(0, 90, 10, 0, np.zeros((2, 2))))
        assert "recall" in report.degenerate
        assert "fnr" in report.degenerate
        assert "fpr" not in report.degenerate
        assert report.recall == 0.0
        assert report.fpr == 0.1

    def test_rates_are_complementary(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tp, tn, fp, fn = (int(v) for v in rng.integers(1, 40, size=4))
            report = classification_metrics(
                ConfusionCounts(tp, tn, fp, fn, np.zeros((2, 2)))
            )
            assert report.tpr + report.fnr == pytest.approx(1.0, abs=1e-12)

    def test_as_dict_round_trip(self):
        report = classification_metrics(ConfusionCounts(1, 2, 3, 4, np.zeros((2, 2))))
        d = report.as_dict()
        assert set(d) == {"accuracy", "precision", "recall", "f1", "tpr", "fpr", "fnr"}
        assert d["accuracy"] == report.accuracy

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="tp"):
            ConfusionCounts(-1, 0, 0, 0, np.zeros((2, 2)))


class TestConfusion:
    ATTACK = frozenset({1, 2})

    def test_hand_worked_six_decisions(self):
        decisions = np.array([
            0,           # truth 0 -> tn
            1,           # truth 1 -> tp
            1,           # truth 2, attack label -> tp
            SUSPICIOUS,  # truth 0 -> fp (flagged attack)
            0,           # truth 1 -> fn
            2,           # tie {0, 2} resolved to 2, truth 0 -> fp
        ])
        truths = np.array([0, 1, 2, 0, 1, 0])
        counts = confusion(decisions, truths, self.ATTACK, num_classes=3)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (2, 1, 2, 1)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 0] = 1   # correct normal
        expected[1, 1] = 1   # correct attack
        expected[2, 1] = 1   # attack confused with attack
        expected[0, 1] = 1   # suspicious booked to lowest attack class
        expected[1, 0] = 1   # missed attack
        expected[0, 2] = 1   # tie resolved to an attack label
        np.testing.assert_array_equal(counts.per_class, expected)

    def test_suspicious_as_normal_option(self):
        decisions = np.array([0, 1, 1, SUSPICIOUS, 0, 2])
        truths = np.array([0, 1, 2, 0, 1, 0])
        counts = confusion(decisions, truths, self.ATTACK, num_classes=3,
                           suspicious_as_attack=False)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (2, 2, 1, 1)
        assert counts.per_class[0, 0] == 2  # suspicious booked to first normal

    def test_all_correct_has_zero_off_diagonal(self):
        truths = np.array([0, 1, 2, 0, 1, 2])
        decisions = truths.copy()
        counts = confusion(decisions, truths, self.ATTACK, num_classes=3)
        assert counts.fp == 0 and counts.fn == 0
        off_diag = counts.per_class - np.diag(np.diag(counts.per_class))
        assert off_diag.sum() == 0

    def test_all_suspicious_against_all_attacks(self):
        truths = np.array([1, 2, 1, 2])
        decisions = np.full(4, SUSPICIOUS)
        counts = confusion(decisions, truths, self.ATTACK, num_classes=3)
        assert counts.tp == 4
        assert counts.fn == 0
        assert counts.per_class[:, 1].sum() == 4

    def test_total_matches_sample_count(self):
        rng = np.random.default_rng(2)
        truths = rng.integers(0, 3, size=40)
        decisions = rng.integers(0, 3, size=40)
        counts = confusion(decisions, truths, self.ATTACK, num_classes=3)
        assert counts.total == 40
        assert counts.per_class.sum() == 40

    def test_merged_adds_componentwise(self):
        a = ConfusionCounts(1, 2, 3, 4, np.eye(2, dtype=np.int64))
        b = ConfusionCounts(10, 20, 30, 40, 2 * np.eye(2, dtype=np.int64))
        m = a.merged(b)
        assert (m.tp, m.tn, m.fp, m.fn) == (11, 22, 33, 44)
        np.testing.assert_array_equal(m.per_class, 3 * np.eye(2, dtype=np.int64))

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="decisions but"):
            confusion(np.array([0]), np.array([0, 1]), self.ATTACK, 3)
        with pytest.raises(ValueError, match="must not be empty"):
            confusion(np.array([0]), np.array([0]), frozenset(), 3)
        with pytest.raises(ValueError, match="out of range"):
            confusion(np.array([0]), np.array([0]), frozenset({5}), 3)
        with pytest.raises(ValueError, match="truth label"):
            confusion(np.array([0]), np.array([7]), self.ATTACK, 3)
        with pytest.raises(ValueError, match="predicted label 3"):
            confusion(np.array([3]), np.array([0]), self.ATTACK, 3)

    @pytest.mark.parametrize("suspicious_as_attack", [True, False])
    def test_random_labels_with_suspicious_rows(self, suspicious_as_attack):
        rng = np.random.default_rng(5)
        attack = frozenset({1, 3})
        truths = rng.integers(0, 4, size=300)
        decisions = rng.integers(SUSPICIOUS, 4, size=300)
        assert (decisions == SUSPICIOUS).any()
        slot = 1 if suspicious_as_attack else 0
        tp = tn = fp = fn = 0
        per_class = np.zeros((4, 4), dtype=np.int64)
        for truth, label in zip(truths.tolist(), decisions.tolist()):
            if label == SUSPICIOUS:
                flagged, label = suspicious_as_attack, slot
            else:
                flagged = label in attack
            per_class[truth, label] += 1
            if truth in attack and flagged:
                tp += 1
            elif truth in attack:
                fn += 1
            elif flagged:
                fp += 1
            else:
                tn += 1
        counts = confusion(decisions, truths, attack, 4,
                           suspicious_as_attack=suspicious_as_attack)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (tp, tn, fp, fn)
        np.testing.assert_array_equal(counts.per_class, per_class)


class TestRocSweep:
    @staticmethod
    def separable_fixture():
        rng = np.random.default_rng(3)
        n = 100
        x0 = rng.normal(size=(n, 2)) - 3.0
        x1 = rng.normal(size=(n, 2)) + 3.0
        data = LabeledBatch(np.vstack([x0, x1]), np.array([0] * n + [1] * n))
        model = ModelParams(np.array([[-2.0, -2.0], [2.0, 2.0]]), np.zeros(2))
        return model, data

    def test_endpoints(self):
        model, data = self.separable_fixture()
        points = roc_sweep(model, data, {1}, np.array([0.0, 1.0]))
        tau, fpr, tpr = points[-1]
        assert (tau, fpr, tpr) == (1.0, 1.0, 1.0)
        assert points[0][1] <= 0.05 and points[0][2] <= 0.6

    def test_monotone_in_threshold(self):
        model, data = self.separable_fixture()
        points = roc_sweep(model, data, {1}, np.linspace(0, 1, 21))
        fprs = [p[1] for p in points]
        tprs = [p[2] for p in points]
        assert all(a <= b for a, b in zip(fprs, fprs[1:]))
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))

    def test_near_perfect_model_has_high_auc(self):
        model, data = self.separable_fixture()
        points = roc_sweep(model, data, {1}, np.linspace(0, 1, 101))
        assert trapezoid_auc(points) >= 0.99

    def test_empty_attack_set_rejected(self):
        model, data = self.separable_fixture()
        with pytest.raises(ValueError, match="must not be empty"):
            roc_sweep(model, data, set(), np.array([0.5]))


class TestTrapezoidAuc:
    def test_diagonal_is_half(self):
        assert trapezoid_auc([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_step_curve(self):
        points = [(0.0, 0.0, 0.0), (0.5, 0.0, 1.0), (1.0, 1.0, 1.0)]
        assert trapezoid_auc(points) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_input(self):
        assert trapezoid_auc([]) == 0.0
        assert trapezoid_auc([(0.5, 0.2, 0.8)]) == 0.0


class TestArgmaxDecisions:
    def test_matches_probability_argmax(self):
        rng = np.random.default_rng(4)
        model = ModelParams(rng.normal(size=(3, 4)), rng.normal(size=3))
        features = rng.normal(size=(30, 4))
        predictions = argmax_decisions(model, features)
        from cfhfc import predict_proba

        expected = predict_proba(model, features).argmax(axis=1)
        np.testing.assert_array_equal(predictions, expected)
