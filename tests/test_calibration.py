"""Tests for conformal scoring, quantile thresholds and adaptive confidence.

The coverage experiment at the bottom checks the split-conformal guarantee
empirically: hold the trained model fixed, redraw exchangeable calibration
and test splits, and compare attained coverage to the requested level.
"""

import math

import numpy as np
import pytest

from cfhfc import (
    CalibratedModel,
    SUSPICIOUS,
    CalibrationConfig,
    CalibrationState,
    ClusterModel,
    Decision,
    LabeledBatch,
    ModelParams,
    TrainConfig,
    build_score_set,
    calibrate,
    local_train,
    predict_proba,
    predict_with_calibration,
    quantile,
    update_confidence,
)
from cfhfc.data import SyntheticSource, generate_synthetic


def bias_model(probs):
    """Zero-weight model whose softmax on zero features equals probs."""
    probs = np.asarray(probs, dtype=np.float64)
    return ModelParams(np.zeros((len(probs), 1)), np.log(probs))


def zero_features(n=1):
    return np.zeros((n, 1))


class TestBuildScoreSet:
    def test_single_sample_closed_form(self):
        # softmax(ln 9, 0) = (0.9, 0.1); the true-label score is 0.1
        model = bias_model([0.9, 0.1])
        batch = LabeledBatch(zero_features(1), np.array([0]))
        scores = build_score_set(model, batch)
        np.testing.assert_allclose(scores, [0.1], atol=1e-12)

    def test_scores_sorted_with_duplicates_kept(self):
        model = bias_model([0.8, 0.2])
        batch = LabeledBatch(zero_features(4), np.array([1, 0, 1, 0]))
        scores = build_score_set(model, batch)
        assert scores.shape == (4,)
        assert (np.diff(scores) >= 0).all()
        np.testing.assert_allclose(scores, [0.2, 0.2, 0.8, 0.8], atol=1e-12)

    def test_rejects_out_of_range_labels(self):
        model = bias_model([0.5, 0.5])
        batch = LabeledBatch(zero_features(1), np.array([3]))
        with pytest.raises(ValueError, match="label 3 out of range"):
            build_score_set(model, batch)


class TestQuantile:
    def test_order_statistic_selection(self):
        scores = np.array([0.1, 0.2, 0.3, 0.4])
        assert quantile(scores, 0.5) == 0.2
        assert quantile(scores, 0.75) == 0.3
        assert quantile(scores, 1.0) == 0.4

    def test_float_spillover_guard(self):
        """ceil(0.9 * 10) spills to 10 in floats; the 9th statistic is the
        correct one."""
        scores = np.arange(0.1, 1.05, 0.1)
        assert scores.size == 10
        assert quantile(scores, 0.9) == pytest.approx(0.9, abs=1e-12)

    def test_single_element_any_level(self):
        for q in (0.01, 0.5, 0.999, 1.0):
            assert quantile(np.array([0.42]), q) == 0.42

    def test_unsorted_input_handled(self):
        assert quantile(np.array([0.4, 0.1, 0.3, 0.2]), 0.5) == 0.2

    def test_rejects_empty_and_bad_levels(self):
        with pytest.raises(ValueError, match="empty"):
            quantile(np.array([]), 0.9)
        with pytest.raises(ValueError, match="q must lie"):
            quantile(np.array([0.1]), 0.0)
        with pytest.raises(ValueError, match="q must lie"):
            quantile(np.array([0.1]), 1.5)


class TestUpdateConfidence:
    def test_no_signal_keeps_confidence(self):
        state = CalibrationState(confidence=0.9)
        assert update_confidence(state, CalibrationConfig()) == 0.9

    def test_weighted_feedback_combination(self):
        # 0.90 - 0.5*0.02 + 0.2*0.01 + 0.05*0.5 = 0.917
        state = CalibrationState(
            confidence=0.90, recent_fnr=0.02, recent_fpr=0.01, resource_index=0.5
        )
        assert update_confidence(state, CalibrationConfig()) == pytest.approx(0.917, abs=1e-12)

    def test_lower_clamp(self):
        state = CalibrationState(confidence=0.5, recent_fnr=1.0)
        assert update_confidence(state, CalibrationConfig()) == 0.5

    def test_upper_clamp(self):
        state = CalibrationState(confidence=0.999, resource_index=1.0)
        assert update_confidence(state, CalibrationConfig()) == 0.999

    def test_sensitivities_come_from_the_config(self):
        # 0.90 - 1.0*0.02 + 0.0*0.01 + 0.1*0.5 = 0.93
        state = CalibrationState(
            confidence=0.90, recent_fnr=0.02, recent_fpr=0.01, resource_index=0.5
        )
        cfg = CalibrationConfig(fnr_sensitivity=1.0, fpr_sensitivity=0.0,
                                resource_sensitivity=0.1)
        assert update_confidence(state, cfg) == pytest.approx(0.93, abs=1e-12)

    def test_default_confidence_is_the_config_default(self):
        assert CalibrationState().confidence == CalibrationConfig().initial_confidence

    def test_state_validation(self):
        with pytest.raises(ValueError, match="confidence"):
            CalibrationState(confidence=0.4)
        with pytest.raises(ValueError, match="recent_fnr"):
            CalibrationState(recent_fnr=1.5)
        with pytest.raises(ValueError, match="resource_index"):
            CalibrationState(resource_index=-0.1)


class TestPredictWithCalibration:
    def test_single_conforming_label(self):
        model = CalibratedModel(bias_model([0.8, 0.15, 0.05]), threshold=0.5,
                                confidence=0.9)
        (decision,) = predict_with_calibration(model, zero_features(1))
        assert decision.kind == "single_label"
        assert decision.label == 0
        assert decision.prediction_set == (0,)
        assert len(decision.prediction_set) == 1

    def test_tie_resolved_to_most_probable(self):
        model = CalibratedModel(bias_model([0.8, 0.15, 0.05]), threshold=0.9,
                                confidence=0.9)
        (decision,) = predict_with_calibration(model, zero_features(1))
        assert decision.kind == "resolved_tie"
        assert decision.label == 0
        assert decision.prediction_set == (0, 1)

    def test_empty_set_is_suspicious(self):
        model = CalibratedModel(bias_model([0.5, 0.5]), threshold=0.1,
                                confidence=0.9)
        (decision,) = predict_with_calibration(model, zero_features(1))
        assert decision.kind == "suspicious"
        assert decision.label is None
        assert len(decision.prediction_set) == 0

    def test_matches_axis_reduction_formula(self):
        """Labels and sets as the axis-1 any and argmax give them, on 2 to 13
        classes, with tied probabilities and empty sets."""
        rng = np.random.default_rng(5)
        for num_classes in range(2, 14):
            weights = rng.normal(size=(num_classes, 3))
            weights[1] = weights[0]  # classes 0 and 1 always tie
            params = ModelParams(weights, np.zeros(num_classes))
            features = rng.normal(size=(200, 3))
            features[:3] = 0.0  # rows where every class ties
            for tau in (0.0, 0.5, 1.0 - 1.0 / num_classes, 0.95):
                model = CalibratedModel(params, threshold=tau, confidence=0.9)
                decisions = predict_with_calibration(model, features)
                probs = predict_proba(params, features)
                members = 1.0 - probs <= tau
                want = np.where(members.any(axis=1), probs.argmax(axis=1), SUSPICIOUS)
                assert decisions.labels.tobytes() == want.tobytes()
                assert decisions.members.tobytes() == members.tobytes()

    def test_sets_grow_with_threshold(self):
        rng = np.random.default_rng(0)
        params = ModelParams(rng.normal(size=(4, 6)), rng.normal(size=4))
        features = rng.normal(size=(50, 6))
        thresholds = np.linspace(0.05, 0.99, 12)
        previous = None
        for tau in thresholds:
            model = CalibratedModel(params, threshold=float(tau), confidence=0.9)
            decisions = predict_with_calibration(model, features)
            sets = [set(d.prediction_set) for d in decisions]
            if previous is not None:
                for small, big in zip(previous, sets):
                    assert small <= big
            previous = sets

    def test_suspicious_count_never_rises_with_threshold(self):
        rng = np.random.default_rng(1)
        params = ModelParams(rng.normal(size=(4, 6)), rng.normal(size=4))
        features = rng.normal(size=(200, 6))
        counts = []
        for tau in np.linspace(0.01, 0.999, 20):
            model = CalibratedModel(params, threshold=float(tau), confidence=0.9)
            decisions = predict_with_calibration(model, features)
            counts.append(sum(d.kind == "suspicious" for d in decisions))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_matches_per_row_rule(self):
        """Thresholds drawn from the scores themselves put classes exactly on
        the boundary, and classes 1 and 3 share weights, so their
        probabilities tie exactly; the lower id must win such a tie."""
        rng = np.random.default_rng(11)
        weights, biases = rng.normal(size=(5, 3)), rng.normal(size=5)
        weights[3], biases[3] = weights[1], biases[1]
        params = ModelParams(weights, biases)
        features = rng.normal(size=(200, 3))
        probs = predict_proba(params, features)
        kinds = set()
        for tau in rng.choice((1.0 - probs).ravel(), size=10):
            model = CalibratedModel(params, threshold=float(tau), confidence=0.9)
            decisions = predict_with_calibration(model, features)
            assert len(decisions) == len(features)
            expected = []
            for row in probs:
                members = [c for c in range(5) if 1.0 - row[c] <= tau]
                best = None
                for c in members:
                    if best is None or row[c] > row[best]:
                        best = c
                if not members:
                    expected.append(Decision("suspicious", None, ()))
                elif len(members) == 1:
                    expected.append(Decision("single_label", best, (best,)))
                else:
                    expected.append(Decision("resolved_tie", best, tuple(members)))
            assert list(decisions) == expected
            np.testing.assert_array_equal(
                decisions.labels,
                [SUSPICIOUS if d.label is None else d.label for d in expected],
            )
            kinds.update(d.kind for d in expected)
        assert kinds == {"suspicious", "single_label", "resolved_tie"}

    def test_label_is_the_argmax_of_a_non_empty_set(self):
        """Across random models and thresholds, a row with a non-empty set is
        labelled with the most probable member, which is the row's argmax."""
        rng = np.random.default_rng(12)
        for _ in range(30):
            num_classes = int(rng.integers(2, 7))
            params = ModelParams(rng.normal(size=(num_classes, 4)), rng.normal(size=num_classes))
            features = rng.normal(size=(60, 4))
            probs = predict_proba(params, features)
            tau = float(rng.uniform(0.0, 1.0))
            decisions = predict_with_calibration(CalibratedModel(params, tau, 0.9), features)
            members = 1.0 - probs <= tau
            masked = np.where(members, probs, -np.inf).argmax(axis=1)
            expected = np.where(members.any(axis=1), masked, SUSPICIOUS)
            np.testing.assert_array_equal(decisions.labels, expected)
            np.testing.assert_array_equal(decisions.members, members)

    @pytest.mark.parametrize("probs, label", [
        ([0.3, 0.3, 0.3, 0.1], 0),
        ([0.1, 0.4, 0.4, 0.1], 1),
        ([0.2, 0.2, 0.3, 0.3], 2),
    ])
    def test_tied_probabilities_resolve_to_the_lowest_id(self, probs, label):
        for tau in (0.71, 0.85, 0.95):
            model = CalibratedModel(bias_model(probs), tau, 0.9)
            decisions = predict_with_calibration(model, zero_features(3))
            assert decisions.members.any()
            np.testing.assert_array_equal(decisions.labels, [label] * 3)

    def test_requires_matrix_features(self):
        model = CalibratedModel(bias_model([0.5, 0.5]), 0.5, 0.9)
        with pytest.raises(ValueError, match="2-D"):
            predict_with_calibration(model, np.zeros(3))


class TestCalibrate:
    @staticmethod
    def make_cluster(params):
        return ClusterModel(params=params, total_data=100, mean_membership=0.8)

    def test_kept_probabilities_give_the_same_gate(self):
        """calibrate(out=probs) keeps predict_proba's bytes, and the gate fed
        those probabilities decides byte for byte as one that scores afresh."""
        rng = np.random.default_rng(8)
        for num_classes in (2, 4, 9):
            params = ModelParams(rng.normal(size=(num_classes, 4)), rng.normal(size=num_classes))
            batch = LabeledBatch(rng.normal(size=(300, 4)),
                                 rng.integers(0, num_classes, size=300))
            probs = np.empty((len(batch), num_classes))
            kept, _ = calibrate(self.make_cluster(params), batch, CalibrationState(), out=probs)
            fresh, _ = calibrate(self.make_cluster(params), batch, CalibrationState())
            assert kept == fresh
            assert probs.tobytes() == predict_proba(params, batch.features).tobytes()
            given = predict_with_calibration(kept, batch.features, probs=probs)
            scored = predict_with_calibration(kept, batch.features)
            assert given.labels.tobytes() == scored.labels.tobytes()
            assert given.members.tobytes() == scored.members.tobytes()
            with pytest.raises(ValueError, match="probs shape"):
                predict_with_calibration(kept, batch.features[:-1], probs=probs)

    def test_parameters_pass_through_untouched(self):
        rng = np.random.default_rng(2)
        params = ModelParams(rng.normal(size=(3, 4)), rng.normal(size=3))
        snapshot = params.copy()
        batch = LabeledBatch(rng.normal(size=(40, 4)),
                             rng.integers(0, 3, size=40))
        calibrated, _ = calibrate(self.make_cluster(params), batch,
                                  CalibrationState())
        assert calibrated.params is params
        np.testing.assert_array_equal(calibrated.params.weights, snapshot.weights)
        np.testing.assert_array_equal(calibrated.params.biases, snapshot.biases)

    def test_threshold_is_quantile_of_fresh_scores(self):
        rng = np.random.default_rng(3)
        params = ModelParams(rng.normal(size=(3, 4)), rng.normal(size=3))
        batch = LabeledBatch(rng.normal(size=(25, 4)), rng.integers(0, 3, size=25))
        state = CalibrationState(confidence=0.85, recent_fnr=0.1,
                                 recent_fpr=0.05, resource_index=0.2)
        calibrated, new_state = calibrate(self.make_cluster(params), batch, state)

        expected_q = update_confidence(state, CalibrationConfig())
        expected_scores = build_score_set(params, batch)
        expected_tau = quantile(expected_scores, expected_q)
        assert calibrated.confidence == expected_q
        assert calibrated.threshold == expected_tau
        assert new_state.confidence == expected_q

    def test_config_sensitivities_reach_the_update(self):
        rng = np.random.default_rng(3)
        params = ModelParams(rng.normal(size=(3, 4)), rng.normal(size=3))
        batch = LabeledBatch(rng.normal(size=(25, 4)), rng.integers(0, 3, size=25))
        state = CalibrationState(confidence=0.85, recent_fnr=0.1,
                                 recent_fpr=0.05, resource_index=0.2)
        cfg = CalibrationConfig(fnr_sensitivity=0.0, fpr_sensitivity=0.0,
                                resource_sensitivity=0.0)
        calibrated, new_state = calibrate(self.make_cluster(params), batch, state, cfg)
        assert calibrated.confidence == new_state.confidence == 0.85
        default, _ = calibrate(self.make_cluster(params), batch, state)
        assert default.confidence == update_confidence(state, CalibrationConfig()) != 0.85

    def test_input_state_not_mutated(self):
        rng = np.random.default_rng(4)
        params = ModelParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        batch = LabeledBatch(rng.normal(size=(10, 3)), rng.integers(0, 2, size=10))
        state = CalibrationState(confidence=0.9, recent_fnr=0.2)
        calibrate(self.make_cluster(params), batch, state)
        assert state.confidence == 0.9

    def test_empty_calibration_data_rejected(self):
        """A single sample calibrates fine; an empty batch cannot even be
        built, so the empty case is unrepresentable upstream of calibrate."""
        rng = np.random.default_rng(5)
        params = ModelParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        batch = LabeledBatch(rng.normal(size=(1, 3)), np.array([0]))
        calibrate(self.make_cluster(params), batch, CalibrationState())
        with pytest.raises(ValueError, match="at least one sample"):
            batch.subset(np.array([], dtype=np.int64))


class TestCoverageGuarantee:
    def test_split_conformal_coverage(self):
        """With the model held fixed, redrawn calibration/test splits attain
        close to the nominal 0.9 coverage (expected value k/(n+1) with
        n = 200 and k = 180, about 0.8955)."""
        source = SyntheticSource(num_classes=4, num_features=20,
                                 samples_per_class=1000, class_separation=3.0)
        pool = generate_synthetic(source, seed=0)
        order = np.random.default_rng(99).permutation(len(pool))
        train = pool.subset(order[:1800])
        rest = pool.subset(order[1800:])

        cfg = TrainConfig(learning_rate=0.1, batch_size=64, local_epochs=5,
                          dropout_rate=0.0)
        model = local_train(
            ModelParams.zeros(source.num_classes, source.num_features),
            train, cfg, seed=0,
        )

        q = 0.9
        n_cal = 200
        coverages = []
        for trial in range(20):
            split = np.random.default_rng(trial).permutation(len(rest))
            cal = rest.subset(split[:n_cal])
            test = rest.subset(split[n_cal:])
            tau = quantile(build_score_set(model, cal), q)
            test_scores = build_score_set(model, test)
            coverages.append(float((test_scores <= tau).mean()))

        mean_cov = float(np.mean(coverages))
        assert mean_cov >= q - 2.0 / math.sqrt(n_cal)
        assert 0.87 <= mean_cov <= 0.92
