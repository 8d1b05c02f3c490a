"""Alternate the benchmark between another tree and this one, and judge the pairs.

    python3 tools/ab.py OTHER_TREE --workload s1-cfhfc --seed 0 --pairs 10 --seconds 6

OTHER_TREE is the baseline (usually a checkout of the parent commit) and the
tree this script sits in is the candidate. --workload takes a workload name
from BENCHMARK.json and repeats: the workloads run one after another, each
with its own pairs and verdicts. Each pair runs each tree's own
`python3 bench/run.py --workload W --seed S --seconds T --trace 0` in a fresh
process from that tree's root; the tree that runs first alternates from pair
to pair, so a drift of the host lands on both sides. It prints each pair's
end-to-end metrics, whether every run's output digest was the same, then per
metric the candidate's wins, both sides' medians and quartiles, and a verdict:

- gain: the candidate is better in at least 9 of 10 pairs, and the medians
  lie further apart than the baseline's quartile spread (p75 - p25);
- no worse: the candidate's median is within the metric's bound in
  BENCHMARK.json of the baseline's median;
- worse: neither.

The same summary follows for each run's raw (unscaled) operation time p50,
raw_op_ms, judged with op_ms_p50's bound: the benchmark scales each run by a
host-speed probe, and the probe alone can move one run's scaled time.

This stays outside bench/ until the benchmark has an A/B mode of its own.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GAIN_WIN_SHARE = 0.9
RAW_OP_MS = "raw_op_ms"  # bench/run.py's sample of unscaled operation times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """p25, p50 and p75, as bench/run.py reports them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return p25, p50, p75


def wins(base: list[float], cand: list[float], better: str) -> int:
    """The pairs in which the candidate is strictly better."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - b) < 0 for b, c in zip(base, cand, strict=True))


def verdict(base: list[float], cand: list[float], better: str, bound: float) -> str:
    """'gain', 'no worse' or 'worse' for paired runs of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    p25, base_mid, p75 = quartiles(base)
    cand_mid = quartiles(cand)[1]
    needed = math.ceil(GAIN_WIN_SHARE * len(base))
    if wins(base, cand, better) >= needed and sign * (base_mid - cand_mid) > p75 - p25:
        return "gain"
    if sign * (cand_mid - base_mid) <= bound * abs(base_mid):
        return "no worse"
    return "worse"


def parse(stdout: str) -> tuple[dict, str]:
    """The end-to-end metric values, plus RAW_OP_MS, and the output digest that
    one bench/run.py run printed: the metrics from its last line, the raw p50
    from its sample line '  raw_op_ms  p25 A  p50 B  p75 C  n N'."""
    lines = stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    raw = next(line.split() for line in lines if line.split()[:1] == [RAW_OP_MS])
    values = {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}
    return {**values, RAW_OP_MS: float(raw[raw.index("p50") + 1])}, digest


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One untraced run in tree, parsed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: bench/run.py exited {done.returncode}\n{done.stderr}")
    return parse(done.stdout)


def judge(trees: dict[str, Path], workload: str, seed: int, pairs: int, seconds: float) -> None:
    """Run one workload's alternating pairs in both trees and print its verdicts."""
    op_ms = next(m for m in SPEC["end_to_end"] if m["name"] == "op_ms_p50")
    metrics = [*SPEC["end_to_end"], {**op_ms, "name": RAW_OP_MS}]
    values = {side: {m["name"]: [] for m in metrics} for side in trees}
    digests = set()
    for i in range(pairs):
        order = ("base", "cand") if i % 2 == 0 else ("cand", "base")
        row = {}
        for side in order:
            row[side], digest = run(trees[side], workload, seed, seconds)
            digests.add(digest)
            for name, value in row[side].items():
                values[side][name].append(value)
        print(f"pair {i + 1} ({order[0]} first): " + "  ".join(
            f"{m['name']} {row['base'][m['name']]:.4g} -> {row['cand'][m['name']]:.4g}"
            for m in metrics), flush=True)
    print(f"{workload} seed {seed}, {pairs} pairs of {seconds:g} s; "
          f"digests {'equal' if len(digests) == 1 else 'DIFFER'}")
    for m in metrics:
        base, cand = values["base"][m["name"]], values["cand"][m["name"]]
        b25, b50, b75 = quartiles(base)
        c25, c50, c75 = quartiles(cand)
        print(f"  {m['name']:<12} wins {wins(base, cand, m['better'])}/{pairs}  "
              f"base {b50:.4g} [{b25:.4g}, {b75:.4g}]  cand {c50:.4g} [{c25:.4g}, {c75:.4g}]  "
              f"ratio {c50 / b50:.3f}  {verdict(base, cand, m['better'], m['bound'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the baseline tree")
    parser.add_argument("--workload", action="append", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]],
                        help="repeatable: one verdict per workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    trees = {"base": args.other.resolve(), "cand": ROOT}
    for workload in args.workload:
        judge(trees, workload, args.seed, args.pairs, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
