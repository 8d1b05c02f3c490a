#!/usr/bin/env python3
"""Run the three aggregation methods on one heterogeneous fleet.

Twelve clients, a third each of three hardware archetypes, non-IID data
(Dirichlet 0.3). All methods see the same partition, the same holdout and
the same per-round seeds, so differences come from the aggregation rule
alone: flat averaging (fedavg), flat averaging with a proximal anchor
(fedprox), and hardware-clustered aggregation with per-cluster calibration
(cfhfc).

Run: python3 demos/method_comparison.py
"""

from cfhfc import (
    DatasetSpec,
    Scenario,
    SyntheticSource,
    TrainConfig,
    init_state,
    run_lockstep,
)

METHODS = ("fedavg", "fedprox", "cfhfc")


def scenario_for(method):
    dataset = DatasetSpec(
        source=SyntheticSource(num_classes=4, num_features=16,
                               samples_per_class=12000, class_separation=4.0),
        partition="dirichlet",
        concentration=0.3,
        calibration_fraction=0.1,
        holdout_fraction=0.2,
        seed=7,
    )
    # Two legacy devices, four mid-range, six fast: the realistic shape of
    # a fleet that has been partially refreshed.
    return Scenario(
        num_clients=12,
        num_clusters=3,
        rounds=10,
        method=method,
        seed=7,
        archetype_mix=(("pi3", 1 / 6), ("pi4", 1 / 3), ("pi400", 1 / 2)),
        dataset=dataset,
        train_cfg=TrainConfig(learning_rate=0.1, batch_size=64,
                              local_epochs=4, dropout_rate=0.1,
                              proximal_coeff=0.6),
    )


def main():
    # every method trains on the first one's data, in lockstep: each round,
    # one call per client trains all three models
    states = []
    for method in METHODS:
        print(f"running {method} ...")
        data = (states[0].clients, states[0].holdout) if states else None
        states.append(init_state(scenario_for(method), data))
    runs = dict(zip(METHODS, run_lockstep(states, states[0].scenario.rounds)))

    print("\naccuracy by round (binary attack-vs-normal on the shared holdout):")
    print("  round  " + "".join(f"{m:>9}" for m in METHODS))
    for i, row in enumerate(zip(*(runs[m] for m in METHODS))):
        print(f"  {i:>5}  " + "".join(f"{r.accuracy:9.4f}" for r in row))

    print("\nfinal round summary:")
    for m in METHODS:
        last = runs[m][-1]
        print(f"  {m:8s} acc {last.accuracy:.4f}  f1 {last.f1:.4f}  "
              f"fpr {last.fpr:.4f}  fnr {last.fnr:.4f}  "
              f"sync {last.sync_latency_s:.2f}s  ({len(runs[m])} rounds)")

    total = {m: sum(r.sync_latency_s for r in runs[m]) for m in METHODS}
    saved = 100.0 * (1.0 - total["cfhfc"] / total["fedavg"])
    print(f"\ncumulative synchronization time: "
          + ", ".join(f"{m} {total[m]:.1f}s" for m in METHODS))
    print(f"clustered aggregation finishes its rounds {saved:.0f}% faster "
          f"because each\ncluster synchronizes at the pace of its own slowest "
          f"member instead of the\nfleet's slowest member.")
    print("\nthe trade is visible above: flat averaging squeezes out the top "
          "accuracy,\nwhile the clustered run drives missed attacks to nearly "
          "zero (at the cost of\nmore false alarms) and spends about half the "
          "time synchronizing. which side\nof that trade matters is a "
          "deployment decision, not a modeling one.")


if __name__ == "__main__":
    main()
