#!/usr/bin/env python3
"""Measure how each aggregation method absorbs slow and stalled devices.

Three latency-only experiments on a mixed fleet (a third each of three
hardware archetypes, 500 samples per class per client, default training
load). First, round time as the fleet grows with nobody misbehaving:
flat synchronization waits for the globally slowest device, per-cluster
synchronization waits for each group's own slowest member. Second, a
fraction of devices stalls at a 3x slowdown and we compare how much of
that stall each method passes through to the round clock. Third, the
clustered bill at the base fleet's 20 clients, cluster by cluster, clean
and with 30% stalled.

No training happens here; the cost model alone answers every question,
which is what makes a 100-device sweep instant.

Run: python3 demos/straggler_study.py
"""

from dataclasses import replace

import numpy as np

from cfhfc import (
    DatasetSpec,
    Scenario,
    SyntheticSource,
    simulate_latency,
    straggler_metrics,
)

METHODS = ("fedavg", "fedprox", "cfhfc")
COUNTS = (20, 40, 60, 80, 100)
FRACTIONS = (0.0, 0.1, 0.2, 0.3)


def base_scenario():
    dataset = DatasetSpec(
        source=SyntheticSource(num_classes=4, num_features=20,
                               samples_per_class=10000),
        partition="dirichlet",
        concentration=0.3,
        seed=0,
    )
    return Scenario(num_clients=20, num_clusters=4, method="cfhfc", seed=0,
                    dataset=dataset)


def main():
    scenario = base_scenario()

    print("round synchronization time vs fleet size (no stragglers):")
    table = straggler_metrics(scenario, fractions=(0.0,), client_counts=COUNTS,
                              methods=METHODS)
    print(f"  {'clients':>7} " + "".join(f"{m:>9}" for m in METHODS)
          + f"{'saved':>8}")
    for n in COUNTS:
        sync = {m: table[m][n][0.0]["sync_latency_s"] for m in METHODS}
        saved = 100.0 * (1.0 - sync["cfhfc"] / sync["fedavg"])
        cells = "".join(f"{sync[m]:8.2f}s" for m in METHODS)
        print(f"  {n:>7} {cells}{saved:7.0f}%")
    print("flat methods pay for the single slowest device in the whole "
          "fleet; the\nclustered method pays the average of each group's "
          "slowest member, weighted\nby how much of the fleet lives there.")

    print("\nstragglers at 100 clients (3x slowdown), round time relative to "
          "a clean round:")
    table = straggler_metrics(scenario, fractions=FRACTIONS,
                              client_counts=(100,), methods=METHODS)
    print(f"  {'stalled':>8} " + "".join(f"{m:>9}" for m in METHODS))
    for f in FRACTIONS:
        cells = "".join(f"{table[m][100][f]['relative_pct']:8.0f}%"
                        for m in METHODS)
        print(f"  {100 * f:>7.0f}% {cells}")

    sme = {m: table[m][100][0.3]["sme"] for m in METHODS}
    print("\nstraggler mitigation effectiveness at 30% stalled "
          "(clean time / stalled time,\nhigher is better):")
    for m in sorted(METHODS, key=lambda m: -sme[m]):
        print(f"  {m:8s} {sme[m]:.3f}")

    n = scenario.num_clients
    print(f"\nthe clustered bill at {n} clients, per cluster: participants "
          "(memberships at or\nabove the participation floor) and the "
          "seconds its slowest participant takes:")
    # each client bills its share of the pool, as the sweep does
    sizes = np.full(n, float(round(scenario.dataset.pool_rows() / n)))
    sync = {}
    for f in (0.0, 0.3):
        bill = simulate_latency(replace(scenario, straggler_fraction=f), sizes)
        sync[f] = bill.sync_latency_s
        cells = "".join(f"{len(idx):>4} @ {s:4.1f}s"
                        for idx, s in zip(bill.participants, bill.per_cluster_s))
        print(f"  {100 * f:>3.0f}% stalled {cells}   bill {sync[f]:5.2f}s")

    print("\nthree containment behaviors: fedavg passes the whole 3x stall "
          "through to\nevery round; fedprox lets stalled devices do half "
          "their local work, so only\npart of the stall reaches the clock; "
          "the clustered method waits on a stalled\ndevice only in the "
          "clusters where its membership clears the participation\nfloor. "
          f"At 100 clients that spares part of the fleet. At {n} the "
          "stalled devices\nclear the floor of every cluster, so every "
          "cluster waits on them and the\nclustered round takes "
          f"{sync[0.3] / sync[0.0]:.1f}x its clean time, more than fedavg's 3x.")

if __name__ == "__main__":
    main()
