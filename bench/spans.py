"""Spans around the package's layer functions, recorded from outside the package.

While a recording is active, each traced function is replaced, in the
`cfhfc.simulator` and `cfhfc.cli` namespaces, by a wrapper that records one
span per call: name, layer (the module that defines the function), start,
end, enclosing span and run id. The call's arguments and result are kept on
the span until `settle` turns them into counts, which happens between
operations so that counting is never inside a timed span. Nothing under
`src/` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import cli, simulator  # imports cfhfc from this tree

TRACED = (
    "local_train",
    "prox_local_train",
    "fcm_fit",
    "cluster_aggregate",
    "global_aggregate",
    "weighted_average",
    "calibrate",
    "predict_with_calibration",
    "argmax_decisions",
    "confusion",
    "loss",
    "materialize_clients",
    "simulate_latency",
    "init_state",
    "run_round",
    "roc_sweep",
    "straggler_metrics",
    "cmd_compare",
)
NAMESPACES = (simulator, cli)

# centroids that round to the same point of a grid this fine, in the
# normalized profile space, count as one cluster
CENTROID_TOL = 1e-6


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    run: int
    counts: dict = field(default_factory=dict)
    call: tuple | None = None  # (signature, args, kwargs, result) until settled

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, args: dict, result) -> dict:
    """Work counts of one call, from its arguments and result."""
    if name in ("local_train", "prox_local_train"):
        rows, cfg = len(args["data"]), args["cfg"]
        return {"rows": rows, "steps": cfg.local_epochs * math.ceil(rows / cfg.batch_size)}
    if name == "materialize_clients":
        clients, holdout = result
        held = 0 if holdout is None else len(holdout)
        return {"rows": held + sum(c.size for c in clients)}
    if name == "fcm_fit":
        centroids = np.round(result.centroids / CENTROID_TOL)
        return {
            "iterations": result.iterations_used,
            "distinct": len(np.unique(centroids, axis=0)),
            "clusters": args["num_clusters"],
        }
    if name == "predict_with_calibration":
        kinds = Counter(d.kind for d in result)
        return {"rows": len(result), **kinds}
    if name == "confusion":
        return {"rows": len(args["predictions"])}
    if name == "run_round":
        report = result[1]
        return {"sim_sync_latency_s": report.sync_latency_s, "sim_accuracy": report.accuracy}
    if name == "simulate_latency":
        return {"sim_sync_latency_s": result.sync_latency_s}
    return {}


class Tracer:
    """In-memory spans of the calls made while a recording is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def recording(self, run: int):
        """Wrap every traced function for the duration of the block."""
        originals = []
        try:
            for module in NAMESPACES:
                for name in TRACED:
                    if hasattr(module, name):
                        fn = getattr(module, name)
                        originals.append((module, name, fn))
                        setattr(module, name, self._wrap(name, fn, run))
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)

    def _wrap(self, name: str, fn, run: int):
        layer = fn.__module__.rsplit(".", 1)[-1]
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else -1, run)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            span.call = (signature, args, kwargs, result)
            return result

        return traced

    def settle(self) -> None:
        """Turn the kept arguments and results into counts and drop them."""
        for span in self.spans:
            if span.call is not None:
                signature, args, kwargs, result = span.call
                span.counts = _counts(span.name, signature.bind(*args, **kwargs).arguments, result)
                span.call = None

    def write(self, path: Path) -> None:
        self.settle()
        with path.open("w") as out:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "layer": span.layer,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "run": span.run,
                    **span.counts,
                }
                out.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def layer_metrics(
    tracer: Tracer, op_positions: dict[int, int], setup_runs: set[int], scale: dict[int, float]
) -> dict[str, float]:
    """Per-layer metrics per traced operation.

    Each sum is the median over the traced operations at each position of
    the episode, averaged over positions, so counts and `sim_` statistics
    come out identical whichever operations a run happened to trace. Times
    are host seconds, each multiplied by the speed scale of its run.
    `data.setup_share` is measured over the traced set-ups instead, because
    on the round workloads the data layer runs only there.
    """
    tracer.settle()
    sums: dict[int, Counter] = defaultdict(Counter)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        target = sums[span.run]
        target[f"{span.name}.s"] += span.duration * scale[span.run]
        target[f"{span.name}.self_s"] += own * scale[span.run]
        target[f"{span.name}.calls"] += 1
        for key, value in span.counts.items():
            target[f"{span.name}.{key}"] += value
    setup = sum((sums[run] for run in setup_runs), Counter())
    by_position: dict[int, list[int]] = defaultdict(list)
    for run, position in op_positions.items():
        by_position[position].append(run)
    per_op: Counter = Counter()
    for runs in by_position.values():
        keys = set().union(*(sums[run] for run in runs))
        for key in keys:
            per_op[key] += statistics.median(sums[run][key] for run in runs) / len(by_position)

    def get(*keys: str) -> float:
        return sum(per_op[key] for key in keys)

    def ratio(num: float, den: float, factor: float = 1.0) -> float:
        return factor * num / den if den else 0.0

    edge = ("local_train", "prox_local_train")
    aggregation = ("cluster_aggregate", "global_aggregate", "weighted_average")
    gate_rows = get("predict_with_calibration.rows")
    metrics = {
        "data.materialize_s": get("materialize_clients.s"),
        "data.materialize_calls": get("materialize_clients.calls"),
        "data.rows_generated": get("materialize_clients.rows"),
        "data.setup_share": ratio(setup["materialize_clients.s"], setup["init_state.s"]),
        "model.edge_train_s": get(*(f"{n}.s" for n in edge)),
        "model.client_updates": get(*(f"{n}.calls" for n in edge)),
        "model.minibatch_steps": get(*(f"{n}.steps" for n in edge)),
        "model.us_per_step": ratio(
            get(*(f"{n}.s" for n in edge)), get(*(f"{n}.steps" for n in edge)), 1e6
        ),
        "clustering.fcm_s": get("fcm_fit.s"),
        "clustering.fcm_calls": get("fcm_fit.calls"),
        "clustering.fcm_iterations": get("fcm_fit.iterations"),
        "clustering.distinct_centroid_ratio": ratio(get("fcm_fit.distinct"), get("fcm_fit.clusters")),
        "aggregation.s": get(*(f"{n}.s" for n in aggregation)),
        "aggregation.calls": get(*(f"{n}.calls" for n in aggregation)),
        "calibration.calibrate_s": get("calibrate.s"),
        "calibration.gate_s": get("predict_with_calibration.s"),
        "calibration.gate_rows": gate_rows,
        "calibration.us_per_gate_row": ratio(get("predict_with_calibration.s"), gate_rows, 1e6),
        "calibration.sim_single_share": ratio(get("predict_with_calibration.single_label"), gate_rows),
        "calibration.sim_tie_share": ratio(get("predict_with_calibration.resolved_tie"), gate_rows),
        "calibration.sim_suspicious_share": ratio(get("predict_with_calibration.suspicious"), gate_rows),
        "metrics.argmax_s": get("argmax_decisions.s"),
        "metrics.confusion_s": get("confusion.s"),
        "metrics.rows_tabulated": get("confusion.rows"),
        "metrics.roc_s": get("roc_sweep.s"),
        "simulator.round_self_s": get("run_round.self_s"),
        "simulator.round_attributed_share": ratio(
            get("run_round.s") - get("run_round.self_s"), get("run_round.s")
        ),
        "simulator.latency_model_s": get("simulate_latency.self_s"),
        "simulator.sim_sync_latency_s": ratio(
            get("run_round.sim_sync_latency_s", "simulate_latency.sim_sync_latency_s"),
            get("run_round.calls", "simulate_latency.calls"),
        ),
        "simulator.sim_holdout_accuracy": ratio(get("run_round.sim_accuracy"), get("run_round.calls")),
        "cli.compare_self_s": get("cmd_compare.self_s"),
        "cli.init_state_calls": get("init_state.calls"),
    }
    return {name: float(value) for name, value in metrics.items()}
