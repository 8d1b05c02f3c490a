"""Measure one workload of the cfhfc benchmark, or all of them.

    python3 bench/run.py --workload s1-cfhfc --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

Run from the repository root. A single workload prints a human-readable
report and, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The full
record (samples, quartiles, output digest, machine facts) is written to
bench/out/, and with --trace 1 the spans too. `--workload all` runs every
workload untraced and traced, each in its own process, and prints a summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

import workloads  # noqa: E402  (puts the repository's src/ on the import path)
from harness import machine_facts, measure  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "p25": values[0], "p50": values[0], "p75": values[0]}
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return {"n": len(values), "p25": p25, "p50": p50, "p75": p75}


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{name}-") as work_dir:
        workload = workloads.build(name, seed, Path(work_dir))
        m = measure(workload, seconds, trace)
    kind = "per_layer" if trace else "end_to_end"
    units = _declared(kind)
    values = {}
    if m.correct:
        values = m.per_layer() if trace else m.end_to_end()
        if set(values) != set(units):
            raise SystemExit(f"emitted metrics {sorted(values)} do not match {kind} of BENCHMARK.json")
    metric_name, metric_unit = workload.op_metric
    per_ms = 1.0 if metric_unit == "ms" else 1e-3
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "digest": m.digest,
        "machine": machine_facts(),
        kind: {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "samples": {
            "setup_s": _quartiles(m.setup_s),
            "op_ms": _quartiles([1e3 * s for s in m.op_s]) if m.op_s else None,
            "traced_op_ms": _quartiles([1e3 * s for s in m.traced_op_s]) if m.traced_op_s else None,
            "raw_setup_s": _quartiles(m.raw_setup_s),
            "raw_op_ms": _quartiles([1e3 * s for s in m.raw_op_s]) if m.raw_op_s else None,
        },
        "operations": {"position": m.op_position, "s": m.op_s, "raw_s": m.raw_op_s},
    }
    if values and not trace:
        named = {metric_name: {"value": per_ms * values["op_ms_p50"], "unit": metric_unit}}
        if m.sample_epochs:
            named["sample_epochs_per_s"] = {"value": m.sample_epochs / sum(m.op_s), "unit": "1/s"}
        record["named"] = named
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        m.tracer.write(OUT / f"spans-{stem}.jsonl")

    print(f"workload {name} seed {seed} trace {int(trace)}: {m.attempted} operations, "
          f"{m.failed} failed, {len(m.setup_s)} set-ups")
    print(f"digest {m.digest}")
    print(f"machine {json.dumps(record['machine'])}")
    for key, sample in record["samples"].items():  # quartiles of all operations
        if sample:
            print(f"  {key:<22} p25 {sample['p25']:.4g}  p50 {sample['p50']:.4g}  "
                  f"p75 {sample['p75']:.4g}  n {sample['n']}")
    for key, metric in {**record.get("named", {}), **record[kind]}.items():
        print(f"  {key:<36} {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": record[kind],
    }
    print(json.dumps(result))
    return 0 if m.correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each run in a fresh process."""
    status = 0
    for name in workloads.NAMES:
        print(f"== {name}: {workloads.PLAN['workloads'][name]['why']}")
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            path = OUT / f"{name}-seed{seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            done = subprocess.run(argv, cwd=workloads.ROOT, stdout=subprocess.PIPE, text=True)
            status = status or done.returncode
            if not path.exists():
                print(f"  trace {trace}: no result, exit code {done.returncode}")
                continue
            record = json.loads(path.read_text())
            share = record["failed"] / max(1, record["attempted"])
            print(f"  trace {trace}: {record['attempted']} operations, failed share {share:.3f}, "
                  f"digest {record['digest'][:16]}")
            metrics = record["per_layer"] if trace else {**record.get("named", {}),
                                                          **record["end_to_end"]}
            for key, metric in metrics.items():
                print(f"    {key:<36} {metric['value']:.6g} {metric['unit']}")
    print(f"machine {json.dumps(machine_facts())}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
