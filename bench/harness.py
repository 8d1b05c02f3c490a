"""The closed loop that measures one workload, and the facts recorded with it.

Host speed on a shared machine drifts by tens of percent within seconds, so
every set-up and operation is bracketed by a fixed probe and its time is
scaled to the host speed at which the probe takes NOMINAL_PROBE_S. The scaled
times are the reported ones; the raw times are kept in the record. A change
that leaves work running between operations slows the probe and so flatters
itself: compare the raw times when one does.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer, layer_metrics
from workloads import ROOT, Workload


NOMINAL_PROBE_S = 0.011
_PROBE_X = np.linspace(0.0, 1.0, 128 * 20).reshape(128, 20)
_PROBE_W = np.linspace(-1.0, 1.0, 20 * 4).reshape(20, 4)
_PROBE_ROWS = np.linspace(0.0, 1.0, 6000)


def probe() -> float:
    """Host seconds of a fixed mix like the simulator's own work.

    Small numpy calls (a softmax minibatch), a plain interpreter loop, and
    one small Python object per row of an array. The garbage collector is
    held off meanwhile, so the probe times the host and not the objects the
    program (or the tracer) keeps alive.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        for _ in range(170):
            z = _PROBE_X @ _PROBE_W
            z -= z.max(axis=1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=1, keepdims=True)
        total = 0
        for i in range(80_000):
            total += i
        rows = [(i, float(v), (i,)) for i, v in enumerate(_PROBE_ROWS)]
        total += sum(row[1] > 0.5 for row in rows)
        return perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def timed(call):
    """(result, raw host seconds, scale to the nominal host speed) of one call."""
    before = probe()
    started = perf_counter()
    result = call()
    elapsed = perf_counter() - started
    return result, elapsed, 2 * NOMINAL_PROBE_S / (before + probe())


def balanced_median(values: list[float], positions: list[int]) -> float:
    """The median at each position of the episode, averaged over positions.

    Operations at different positions do different work (a round's FCM
    iterations depend on its index), so a plain median would jump between
    positions as the number of operations in a run changes.
    """
    at: dict[int, list[float]] = defaultdict(list)
    for value, position in zip(values, positions):
        at[position].append(value)
    return statistics.fmean(statistics.median(v) for v in at.values())


@dataclass
class Measurement:
    """What one run of a workload observed; times are scaled unless named raw."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)  # untraced operations
    op_position: list[int] = field(default_factory=list)  # of each op_s in its episode
    traced_op_s: list[float] = field(default_factory=list)
    traced_position: list[int] = field(default_factory=list)
    traced_run: list[int] = field(default_factory=list)  # run id of each traced_op_s
    raw_setup_s: list[float] = field(default_factory=list)
    raw_op_s: list[float] = field(default_factory=list)
    scale: dict[int, float] = field(default_factory=dict)  # run id -> speed scale
    sample_epochs: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    peak_rss_mb: float = 0.0
    tracer: Tracer | None = None
    setup_runs: set[int] = field(default_factory=set)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def covers(self, ops_per_episode: int) -> bool:
        """Whether every position of the episode has a sample, traced too if tracing."""
        positions = set(range(ops_per_episode))
        traced = self.tracer is None or positions <= set(self.traced_position)
        return positions <= set(self.op_position) and traced

    def end_to_end(self) -> dict[str, float]:
        return {
            "op_ms_p50": 1e3 * balanced_median(self.op_s, self.op_position),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        positions = dict(zip(self.traced_run, self.traced_position))
        metrics = layer_metrics(self.tracer, positions, self.setup_runs, self.scale)
        untraced = 1e3 * balanced_median(self.op_s, self.op_position)
        traced = 1e3 * balanced_median(self.traced_op_s, self.traced_position)
        metrics["trace.untraced_op_ms_p50"] = untraced
        metrics["trace.traced_op_ms_p50"] = traced
        metrics["trace.overhead_ratio"] = traced / untraced
        return metrics


def _peak_kb(pid: int) -> int:
    with contextlib.suppress(OSError):
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _live_descendants_kb() -> int:
    """Summed peak RSS of the live processes this one started, directly or not."""
    pids, total = [os.getpid()], 0
    while pids:
        pid = pids.pop()
        for task in Path(f"/proc/{pid}/task").glob("*"):
            with contextlib.suppress(OSError):
                children = [int(c) for c in (task / "children").read_text().split()]
                total += sum(_peak_kb(child) for child in children)
                pids.extend(children)
    return total


def measure(workload: Workload, seconds: float, trace: bool) -> Measurement:
    """Run episodes until `seconds` have passed and every position is sampled.

    With `trace`, operations alternate between untraced and traced (by
    operation and episode parity, so both halves see every position in the
    episode) and every set-up is traced.
    """
    m = Measurement(tracer=Tracer() if trace else None)
    reference: list[bytes] = []  # first digest material seen at each position of an episode
    children_kb = 0
    run = 0
    deadline = perf_counter() + seconds
    episode = 0
    while True:
        record = m.tracer.recording(run) if trace else contextlib.nullcontext()
        with record:
            state, elapsed, scale = timed(workload.setup)
        m.raw_setup_s.append(elapsed)
        m.setup_s.append(elapsed * scale)
        m.setup_runs.add(run)
        m.scale[run] = scale
        run += 1
        for position in range(workload.ops_per_episode):
            traced = trace and (episode + position) % 2 == 1
            m.attempted += 1
            try:
                record = m.tracer.recording(run) if traced else contextlib.nullcontext()
                with record:
                    result, elapsed, scale = timed(lambda: workload.run(state))
                material = workload.check(state, result)
            except Exception:  # noqa: BLE001 - a failed operation is counted, and the loop goes on
                traceback.print_exc(file=sys.stderr)
                m.failed += 1
                break  # the episode's state is no longer trustworthy
            finally:
                children_kb = max(children_kb, _live_descendants_kb())
            if traced:
                m.traced_op_s.append(elapsed * scale)
                m.traced_position.append(position)
                m.traced_run.append(run)
                m.scale[run] = scale
                m.tracer.settle()
            else:
                m.op_s.append(elapsed * scale)
                m.op_position.append(position)
                m.raw_op_s.append(elapsed)
                m.sample_epochs += workload.sample_epochs(state)
            run += 1
            if position == len(reference):
                reference.append(material)
            elif material != reference[position]:
                print(f"{workload.name}: episode {episode} operation {position} "
                      "differs from the first episode", file=sys.stderr)
                m.failed += 1
            if perf_counter() >= deadline and m.covers(workload.ops_per_episode):
                break
        episode += 1
        if perf_counter() >= deadline and (m.failed or m.covers(workload.ops_per_episode)):
            break
    digest = hashlib.sha256()
    for material in reference:
        digest.update(material)
    m.digest = digest.hexdigest()
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ended_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    m.peak_rss_mb = (own_kb + max(children_kb, ended_kb)) / 1024
    return m


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts() -> dict:
    """Facts that must match on both sides of a comparison."""
    cpu_model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # unset means the library default: OpenBLAS uses one thread per core
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git("rev-parse", "HEAD") if in_repo else "unknown",
        "git_dirty": None if status is None else bool(status),
    }
