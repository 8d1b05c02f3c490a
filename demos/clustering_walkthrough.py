#!/usr/bin/env python3
"""Walk through hardware-aware clustering on a small mixed fleet.

We build a fleet of twelve devices from three archetypes, normalize their
capability profiles, and let fuzzy c-means find groups. The point of the
walkthrough is the membership matrix: a device near a group boundary keeps
weight in both groups instead of being forced into one, and that weight is
exactly what the aggregation tier later uses.

Run: python3 demos/clustering_walkthrough.py
"""

import numpy as np

from cfhfc import ARCHETYPES, clusters_for_clients, fcm_fit
from cfhfc.clustering import minmax_scale


def main():
    rng = np.random.default_rng(0)

    # Four devices of each archetype, with mild manufacturing spread so no
    # two profiles coincide. The middle archetype is the interesting one:
    # its compute sits between the other two. The fleet is one (n, 3) matrix
    # of (cpu GHz, memory GB, bandwidth Mbps) rows, as in the simulator.
    rows = []
    names = []
    for archetype in ("pi3", "pi4", "pi400"):
        cpu, memory, bandwidth = ARCHETYPES[archetype]
        for i in range(4):
            rows.append((cpu * rng.uniform(0.95, 1.05), memory,
                         bandwidth * rng.uniform(0.9, 1.1)))
            names.append(f"{archetype}-{i}")
    fleet = np.array(rows)

    print(f"fleet of {len(fleet)} devices")
    for name, (cpu, memory, bandwidth) in zip(names, fleet):
        print(f"  {name:9s} cpu {cpu:.2f} GHz, ram {memory:.1f} GB, "
              f"bw {bandwidth:5.1f} Mbps")

    # Profiles are min-max scaled per axis before clustering so that GHz,
    # GB and Mbps are comparable. The cluster count follows the same rule
    # the simulator uses for a fleet this size.
    normalized = minmax_scale(fleet)
    k = clusters_for_clients(len(fleet))
    partition = fcm_fit(normalized, num_clusters=k, seed=0)

    print(f"\nfuzzy c-means with {k} clusters converged in "
          f"{partition.iterations_used} iterations")
    print("objective trace:", " -> ".join(f"{v:.4f}" for v in partition.objective_trace[:5]),
          "... (never increases)")

    print("\nmembership matrix (rows sum to 1):")
    header = "  " + " " * 9 + "".join(f"  cluster {c}" for c in range(k))
    print(header)
    for name, row in zip(names, partition.memberships):
        cells = "".join(f"  {v:9.3f}" for v in row)
        print(f"  {name:9s}{cells}")

    # Show why soft membership matters: nudge one pi4 toward pi3 territory
    # and watch its weight split instead of flipping.
    borderline = fleet.copy()
    borderline[4] = 0.5 * (np.array(ARCHETYPES["pi3"]) + np.array(ARCHETYPES["pi4"]))
    part2 = fcm_fit(minmax_scale(borderline), num_clusters=k, seed=0)
    row = part2.memberships[4]
    print(f"\nafter moving {names[4]} halfway between the pi3 and pi4 archetypes,")
    print("its membership row becomes "
          + ", ".join(f"{v:.3f}" for v in row)
          + f" (max {row.max():.3f})")
    print("so its updates count toward both neighboring groups during "
          "aggregation,\nrather than being assigned all-or-nothing.")


if __name__ == "__main__":
    main()
