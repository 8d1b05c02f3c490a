"""The benchmark's workloads: what one operation is, and how its output is checked.

Every workload runs as a closed loop of episodes. An episode is one set-up
(`init_state` on the workload's base scenario) followed by a fixed number of
operations, each starting when the previous one ends. Every episode repeats
the same simulated work, so its outputs must digest identically; the digest
is how a speed-only change shows that it left the simulation alone.

The package is imported from the `src/` directory next to this one, never
from an installed copy, so the benchmark always measures the tree it sits in.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "cfhfc").is_dir():
    raise SystemExit(f"no cfhfc package under {ROOT / 'src'}: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cfhfc import cli, simulator  # noqa: E402
from cfhfc.simulator import ClusterConfig, Scenario, build_scenario  # noqa: E402
from cfhfc.model import TrainConfig  # noqa: E402

PLAN = json.loads((Path(__file__).resolve().parent / "plan.json").read_text())
DEFAULT_SEED: int = PLAN["default_seed"]
NAMES: tuple[str, ...] = tuple(PLAN["workloads"])


class OutputError(Exception):
    """An operation finished but its output failed the workload's check."""


def _finite(array: np.ndarray) -> bool:
    return bool(np.isfinite(array).all())


class Workload:
    """Set-up plus `ops_per_episode` operations, repeated until time is up.

    `op_metric` names the operation's end-to-end timing the way the plan and
    issues refer to it (round_ms_p50, sweep_s or compare_s).
    """

    op_metric: tuple[str, str]

    def __init__(self, name: str, scenario: Scenario, ops_per_episode: int = 1):
        self.name = name
        self.scenario = scenario
        self.ops_per_episode = ops_per_episode

    def setup(self) -> simulator.TrainingState:
        return simulator.init_state(self.scenario)

    def run(self, state: simulator.TrainingState):
        raise NotImplementedError

    def check(self, state: simulator.TrainingState, result) -> bytes:
        """Raise OutputError on a bad output; otherwise return its digest material."""
        raise NotImplementedError

    def sample_epochs(self, state: simulator.TrainingState) -> int:
        """Client train rows times local epochs done by one operation."""
        return 0


class RoundWorkload(Workload):
    """One operation is one `run_round` on the episode's state."""

    op_metric = ("round_ms_p50", "ms")

    def run(self, state):
        _, report = simulator.run_round(state, state.scenario)
        return report

    def check(self, state, report) -> bytes:
        rates = (report.accuracy, report.precision, report.recall, report.f1, report.fpr, report.fnr)
        if not math.isfinite(report.global_loss):
            raise OutputError(f"round {report.round_index}: loss {report.global_loss}")
        if not all(0.0 <= r <= 1.0 for r in rates):
            raise OutputError(f"round {report.round_index}: rate outside [0, 1] in {rates}")
        if not report.sync_latency_s > 0.0:
            raise OutputError(f"round {report.round_index}: sync latency {report.sync_latency_s}")
        model = state.global_model
        if not (_finite(model.weights) and _finite(model.biases)):
            raise OutputError(f"round {report.round_index}: global model is not finite")
        simulated = [getattr(report, f.name) for f in fields(report) if f.compare]
        return repr(simulated).encode() + model.weights.tobytes() + model.biases.tobytes()

    def sample_epochs(self, state) -> int:
        epochs = state.scenario.train_cfg.local_epochs
        return epochs * sum(len(client.train) for client in state.clients)


class SweepWorkload(Workload):
    """One operation is one `straggler_metrics` sweep of the base scenario."""

    op_metric = ("sweep_s", "s")

    def __init__(self, name: str, scenario: Scenario, **sweep_args):
        super().__init__(name, scenario)
        self.sweep_args = sweep_args

    def run(self, state):
        return simulator.straggler_metrics(state.scenario, **self.sweep_args)

    def check(self, state, sweep) -> bytes:
        for method, by_count in sweep.items():
            for count, by_fraction in by_count.items():
                for fraction, row in by_fraction.items():
                    if not all(math.isfinite(v) and v > 0.0 for v in row.values()):
                        raise OutputError(f"{method} n={count} f={fraction}: {row}")
        return repr(sweep).encode()


class CompareWorkload(Workload):
    """One operation is one in-process `cfhfc compare` command.

    `source_args` say where the scenario comes from (a preset and seed, or a
    config file); the set-up materializes the same scenario.
    """

    op_metric = ("compare_s", "s")
    columns = ["method", "round", "global_loss", "accuracy", "precision", "recall",
               "f1", "fpr", "fnr", "sync_latency_s"]

    def __init__(self, name: str, scenario: Scenario, source_args: list[str], rounds: int,
                 out_dir: Path):
        super().__init__(name, scenario)
        self.rounds = rounds
        self.out_dir = out_dir
        self.argv = ["compare", *source_args, "--rounds", str(rounds), "--out", str(out_dir)]

    def run(self, state):
        return cli.main(self.argv)

    def check(self, state, exit_code) -> bytes:
        if exit_code != 0:
            raise OutputError(f"compare exited with {exit_code}")
        table = (self.out_dir / "compare.csv").read_bytes()
        summary = (self.out_dir / "compare.json").read_bytes()
        rows = list(csv.reader(io.StringIO(table.decode())))
        if rows[0] != self.columns:
            raise OutputError(f"compare.csv header {rows[0]}")
        methods = json.loads(summary)["methods"]
        if len(rows) - 1 != len(methods) * self.rounds:
            raise OutputError(f"compare.csv has {len(rows) - 1} rows for {methods}")
        for row in rows[1:]:
            if not all(math.isfinite(float(v)) for v in row[2:]):
                raise OutputError(f"compare.csv row {row}")
        return table + summary


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """The named workload, with its inputs drawn from `seed`."""
    if name == "s1-cfhfc":
        scenario = build_scenario("scenario1", seed=seed, method="cfhfc")
        return RoundWorkload(name, scenario, PLAN["workloads"][name]["ops_per_episode"])
    if name == "s3-gate":
        scenario = build_scenario(
            "scenario3",
            seed=seed,
            method="cfhfc",
            straggler_fraction=0.3,
            cluster_cfg=ClusterConfig(profile_jitter=0.1),
            train_cfg=TrainConfig(local_epochs=1),
        )
        return RoundWorkload(name, scenario, PLAN["workloads"][name]["ops_per_episode"])
    if name == "straggler-sweep":
        return SweepWorkload(name, build_scenario("scenario1", seed=seed))
    if name == "compare-cli":
        scenario = build_scenario("scenario1", seed=seed)
        source = ["--preset", "scenario1", "--seed", str(seed)]
        return CompareWorkload(name, scenario, source, rounds=2, out_dir=out_dir)
    raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")
