"""Self-test of the benchmark: every workload's code path on a tiny scenario.

    python3 -m pytest bench/test_bench.py

No timing bound: it checks that every metric BENCHMARK.json names is emitted
and that every output check passes, in seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

import workloads
from harness import measure
from workloads import CompareWorkload, RoundWorkload, SweepWorkload, Workload, cli

from cfhfc.data import DatasetSpec, SyntheticSource
from cfhfc.model import TrainConfig
from cfhfc.simulator import ClusterConfig, build_scenario

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
ROUND_WORKLOADS = ("s1-cfhfc", "s3-gate")


def tiny_scenario(**overrides):
    return build_scenario(
        seed=3,
        num_clients=6,
        num_clusters=2,
        dataset=DatasetSpec(source=SyntheticSource(samples_per_class=300), seed=3),
        train_cfg=TrainConfig(local_epochs=1),
        **overrides,
    )


def tiny(name: str, tmp_path) -> Workload:
    """The named workload's code path at a size that runs in well under a second."""
    if name == "s1-cfhfc":
        return RoundWorkload(name, tiny_scenario(), 2)
    if name == "s3-gate":
        scenario = tiny_scenario(straggler_fraction=0.3, cluster_cfg=ClusterConfig(profile_jitter=0.1))
        return RoundWorkload(name, scenario, 2)
    if name == "straggler-sweep":
        return SweepWorkload(name, tiny_scenario(), client_counts=(4, 6))
    scenario = tiny_scenario()
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(cli.scenario_to_dict(scenario)))
    return CompareWorkload(name, scenario, ["--config", str(config)], rounds=1,
                           out_dir=tmp_path / "compare")


def test_tiny_covers_every_workload():
    assert set(workloads.NAMES) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_emits_every_metric(name, trace, tmp_path):
    m = measure(tiny(name, tmp_path), seconds=0.01, trace=trace)
    assert m.correct, f"{m.failed} of {m.attempted} operations failed"
    kind = "per_layer" if trace else "end_to_end"
    metrics = m.per_layer() if trace else m.end_to_end()
    assert set(metrics) == {metric["name"] for metric in SPEC[kind]}
    assert all(math.isfinite(value) for value in metrics.values())
    if not trace:
        assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", ROUND_WORKLOADS)
def test_traced_round_attributes_time_to_layers(name, tmp_path):
    metrics = measure(tiny(name, tmp_path), seconds=0.01, trace=True).per_layer()
    assert metrics["model.client_updates"] == 6
    assert metrics["clustering.fcm_calls"] == 1
    assert metrics["simulator.round_attributed_share"] > 0.5


def test_tracing_restores_the_package(tmp_path):
    originals = {name: getattr(cli, name) for name in ("init_state", "run_round", "cmd_compare")}
    measure(tiny("compare-cli", tmp_path), seconds=0.01, trace=True)
    assert {name: getattr(cli, name) for name in originals} == originals


class Drifting(RoundWorkload):
    """A round workload whose second episode reports a different output."""

    def __init__(self, scenario):
        super().__init__("drifting", scenario, 1)
        self.episodes = 0

    def setup(self):
        self.episodes += 1
        return super().setup()

    def check(self, state, report) -> bytes:
        return super().check(state, report) + bytes([self.episodes > 1])


def test_output_that_differs_between_episodes_is_a_failure():
    m = measure(Drifting(tiny_scenario()), seconds=0.01, trace=True)
    assert m.failed >= 1 and not m.correct


def test_command_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "straggler-sweep", "--seconds", "0.01",
         "--trace", "0"],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
