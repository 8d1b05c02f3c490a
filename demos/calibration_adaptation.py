#!/usr/bin/env python3
"""Show how conformal calibration turns a classifier into a triage gate.

A trained cluster model is calibrated on held-out data: the nonconformity
scores of the calibration set pick a threshold so that roughly a target
fraction of clean traffic conforms. At inference time a sample whose every
class is nonconforming is flagged suspicious. We then feed the calibrator
bad news (missed attacks) and good news (false alarms) and watch the
confidence target, and with it the threshold, move.

Run: python3 demos/calibration_adaptation.py
"""

from dataclasses import replace

import numpy as np

from cfhfc import (
    CalibrationState,
    ClusterModel,
    ModelParams,
    SyntheticSource,
    TrainConfig,
    build_score_set,
    calibrate,
    generate_synthetic,
    local_train,
    predict_with_calibration,
)


def flag_counts(decisions):
    counts = {"single_label": 0, "resolved_tie": 0, "suspicious": 0}
    for d in decisions:
        counts[d.kind] += 1
    return counts


def main():
    # One cluster's worth of traffic: four classes, reasonably separable.
    source = SyntheticSource(num_classes=4, num_features=12,
                             samples_per_class=600, class_separation=3.0)
    pool = generate_synthetic(source, seed=5)
    order = np.random.default_rng(5).permutation(len(pool))
    train = pool.subset(order[:1600])
    calib = pool.subset(order[1600:1800])
    fresh = pool.subset(order[1800:])

    model = local_train(
        ModelParams.zeros(4, 12),
        train,
        TrainConfig(learning_rate=0.1, batch_size=64, local_epochs=5,
                    dropout_rate=0.0),
        seed=5,
    )
    cluster = ClusterModel(params=model, total_data=len(train), mean_membership=1.0)

    # Initial calibration at the default 90% confidence target.
    state = CalibrationState()
    calibrated, state = calibrate(cluster, calib, state)
    print(f"calibrated at confidence {calibrated.confidence:.3f}, "
          f"threshold {calibrated.threshold:.4f}")

    decisions = predict_with_calibration(calibrated, fresh.features)
    counts = flag_counts(decisions)
    covered = np.mean([d.kind != "suspicious" for d in decisions])
    print(f"on {len(fresh)} fresh samples: {counts['single_label']} single-label, "
          f"{counts['resolved_tie']} resolved ties, {counts['suspicious']} suspicious")
    print(f"fraction conforming {covered:.3f} "
          f"(target was {calibrated.confidence:.2f}, slack ~ 1/sqrt(n_cal))")

    # The score set is what the threshold is read from: show its quantile
    # structure so the threshold is not a black box.
    scores = build_score_set(model, calib)
    print(f"\ncalibration scores: min {scores.min():.4f}, "
          f"median {np.median(scores):.4f}, max {scores.max():.4f}")
    print(f"threshold sits at the {100 * calibrated.confidence:.0f}th "
          f"percentile of these scores")

    # Feedback loop. Missed attacks (false negatives) push confidence down,
    # which tightens the threshold and flags more traffic; false alarms
    # push it back up. Resource pressure nudges it up as well, trading
    # sensitivity for fewer escalations on busy hardware.
    print("\nfeedback adaptation:")
    print(f"  {'round':>5} {'fnr':>5} {'fpr':>5} {'confidence':>10} {'threshold':>9} "
          f"{'suspicious':>10}")
    for round_index, (fnr, fpr) in enumerate(
        [(0.00, 0.00), (0.10, 0.00), (0.20, 0.01), (0.00, 0.15), (0.00, 0.30)]
    ):
        state = replace(state, recent_fnr=fnr, recent_fpr=fpr,
                        resource_index=0.2)
        calibrated, state = calibrate(cluster, calib, state)
        decisions = predict_with_calibration(calibrated, fresh.features)
        n_susp = flag_counts(decisions)["suspicious"]
        print(f"  {round_index:>5} {fnr:>5.2f} {fpr:>5.2f} "
              f"{calibrated.confidence:>10.3f} {calibrated.threshold:>9.4f} "
              f"{n_susp:>10}")

    print("\nmissed attacks lower the confidence target, lowering the score "
          "threshold\nand widening the suspicious net; sustained false alarms "
          "relax it again.")


if __name__ == "__main__":
    main()
