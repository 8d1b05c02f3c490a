"""Round-synchronous training simulator for the three-tier protocol.

Each round runs edge, fog, and cloud in sequence: clients train locally on
their own slice, fog nodes cluster clients by hardware and reduce their
updates with membership weights, cluster models are conformally calibrated,
and the cloud combines the cluster models into the next global model. The
fedavg and fedprox baselines run the same loop with the fog tier collapsed
into a single pool.

Timing is simulated, not measured: a documented cost model turns profiles,
data sizes, and straggler status into per-client round times, from which
synchronization latency is derived per method. All randomness is derived
from the scenario seed through numpy SeedSequence, so a (scenario, seed)
pair reproduces bit-identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .aggregation import ClusterModel, cluster_aggregate, global_aggregate, weighted_average
from .calibration import (
    CONFIDENCE_BOUNDS,
    CalibrationState,
    calibrate,
    predict_with_calibration,
)
from .clustering import (
    FuzzyPartition,
    HardwareProfile,
    ResourceWeights,
    fcm_fit,
    minmax_scale,
)
from .data import ClientDataset, DatasetSpec, SyntheticSource, materialize_clients
from .metrics import (
    MetricReport,
    argmax_decisions,
    classification_metrics,
    confusion,
)
from .model import (
    LabeledBatch,
    ModelParams,
    TrainConfig,
    local_train,
    loss,
    prox_local_train,
)

__all__ = [
    "ARCHETYPES",
    "archetype_profile",
    "clusters_for_clients",
    "LatencyModel",
    "ClusterConfig",
    "CalibrationConfig",
    "Scenario",
    "ClusterRoundStat",
    "RoundReport",
    "LatencyReport",
    "TrainingState",
    "build_scenario",
    "init_state",
    "run_round",
    "run_training",
    "materialize_scenario",
    "simulate_latency",
    "straggler_metrics",
]

METHODS = ("cfhfc", "fedavg", "fedprox")

# device archetypes: (cpu GHz, memory GB, bandwidth Mbps)
ARCHETYPES: dict[str, tuple[float, float, float]] = {
    "pi3": (1.2, 1.0, 20.0),
    "pi4": (1.5, 4.0, 50.0),
    "pi400": (1.8, 8.0, 100.0),
}

EARLY_STOP_TOL = 1e-4
EARLY_STOP_WINDOW = 5

# seed stream tags
_TAG_TRAIN = 0
_TAG_FCM = 1
_TAG_JITTER = 2
_TAG_STRAGGLER = 3


def archetype_profile(name: str) -> HardwareProfile:
    if name not in ARCHETYPES:
        raise ValueError(f"unknown archetype {name!r}, expected one of {sorted(ARCHETYPES)}")
    cpu, mem, bw = ARCHETYPES[name]
    return HardwareProfile(cpu, mem, bw)


def clusters_for_clients(num_clients: int) -> int:
    """Cluster budget for a client count, interpolating the three presets."""
    return max(1, min(num_clients, round(4 + (num_clients - 20) / 7.5)))


@dataclass
class LatencyModel:
    """Cost model turning profiles and data sizes into round times.

    A client's round time is compute + communication + overhead: local epochs
    times samples times work_units_per_sample, divided by its normalized cpu
    (rescaled into [cpu_floor, 1] so slow devices do not divide by zero),
    plus a model upload and download over its bandwidth, plus fixed
    round-trip overhead. Stragglers multiply their whole round time by the
    scenario slowdown; under fedprox they absorb part of the slowdown by
    doing proportionally less local work (fedprox_partial_work is the
    absorbed fraction).
    """

    work_units_per_sample: float = 2.5e-5  # seconds per sample-epoch at full speed
    bytes_per_param: int = 8
    round_overhead_s: float = 1.0
    cpu_floor: float = 0.1
    fedprox_partial_work: float = 0.5

    def __post_init__(self) -> None:
        if self.work_units_per_sample <= 0:
            raise ValueError("work_units_per_sample must be positive")
        if self.bytes_per_param <= 0:
            raise ValueError("bytes_per_param must be positive")
        if self.round_overhead_s < 0:
            raise ValueError("round_overhead_s must be >= 0")
        if not 0 < self.cpu_floor <= 1:
            raise ValueError("cpu_floor must lie in (0, 1]")
        if not 0 <= self.fedprox_partial_work <= 1:
            raise ValueError("fedprox_partial_work must lie in [0, 1]")


@dataclass
class ClusterConfig:
    """Fuzzy clustering knobs for the fog tier."""

    fuzzifier: float = 3.0
    weights: ResourceWeights = field(default_factory=ResourceWeights)
    participation_floor: float = 0.05
    profile_jitter: float = 0.0  # multiplicative, e.g. 0.1 for +-10% per round
    max_iter: int = 100
    tol: float = 1e-7

    def __post_init__(self) -> None:
        if self.fuzzifier <= 1.0:
            raise ValueError(f"fuzzifier must be > 1, got {self.fuzzifier}")
        if not 0.0 <= self.participation_floor < 1.0:
            raise ValueError("participation_floor must lie in [0, 1)")
        if not 0.0 <= self.profile_jitter < 1.0:
            raise ValueError("profile_jitter must lie in [0, 1)")


@dataclass
class CalibrationConfig:
    """Adaptive conformal calibration knobs; disable for ablations."""

    enabled: bool = True
    initial_confidence: float = 0.9
    fnr_sensitivity: float = 0.5
    fpr_sensitivity: float = 0.2
    resource_sensitivity: float = 0.05

    def __post_init__(self) -> None:
        lo, hi = CONFIDENCE_BOUNDS
        if not lo <= self.initial_confidence <= hi:
            raise ValueError(
                f"initial_confidence must lie in [{lo}, {hi}], "
                f"got {self.initial_confidence}"
            )
        for name in ("fnr_sensitivity", "fpr_sensitivity", "resource_sensitivity"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class Scenario:
    """Everything needed to reproduce one training run."""

    num_clients: int = 20
    num_clusters: int = 4
    rounds: int = 20
    method: str = "cfhfc"
    seed: int = 0
    archetype_mix: tuple[tuple[str, float], ...] = (
        ("pi3", 1 / 3),
        ("pi4", 1 / 3),
        ("pi400", 1 / 3),
    )
    straggler_fraction: float = 0.0
    straggler_slowdown: float = 3.0
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    cluster_cfg: ClusterConfig = field(default_factory=ClusterConfig)
    calib_cfg: CalibrationConfig = field(default_factory=CalibrationConfig)
    latency: LatencyModel = field(default_factory=LatencyModel)
    attack_classes: tuple[int, ...] | None = None  # None = every class but 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.num_clusters < 1:
            raise ValueError(f"num_clusters must be >= 1, got {self.num_clusters}")
        if self.num_clusters > self.num_clients:
            raise ValueError(
                f"{self.num_clusters} clusters cannot be filled by "
                f"{self.num_clients} clients"
            )
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if not 0.0 <= self.straggler_fraction < 1.0:
            raise ValueError("straggler_fraction must lie in [0, 1)")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        total = sum(frac for _, frac in self.archetype_mix)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"archetype fractions must sum to 1, got {total}")
        for name, _ in self.archetype_mix:
            if name not in ARCHETYPES:
                raise ValueError(f"unknown archetype {name!r}")
        if self.attack_classes is not None:
            num_classes = self.dataset.num_classes
            if not self.attack_classes or not all(
                0 <= c < num_classes for c in self.attack_classes
            ):
                raise ValueError(
                    f"attack_classes must be a non-empty subset of "
                    f"[0, {num_classes}), got {list(self.attack_classes)}"
                )

    def resolved_attack_classes(self, num_classes: int) -> frozenset[int]:
        if self.attack_classes is not None:
            return frozenset(self.attack_classes)
        return frozenset(range(1, num_classes))


_PRESETS: dict[str, dict] = {
    "scenario1": {"num_clients": 20, "num_clusters": 4, "samples_per_class": 10000},
    "scenario2": {"num_clients": 50, "num_clusters": 8, "samples_per_class": 25000},
    "scenario3": {"num_clients": 80, "num_clusters": 12, "samples_per_class": 40000},
}


def build_scenario(preset: str | None = None, **overrides) -> Scenario:
    """A Scenario from a named preset plus field overrides.

    Presets fix the deployment scale (clients/clusters and a matching
    synthetic dataset size); every Scenario field can still be overridden.
    """
    fields: dict = {}
    if preset is not None:
        if preset not in _PRESETS:
            raise ValueError(
                f"unknown preset {preset!r}, expected one of {sorted(_PRESETS)}"
            )
        p = _PRESETS[preset]
        fields["num_clients"] = p["num_clients"]
        fields["num_clusters"] = p["num_clusters"]
        fields["dataset"] = DatasetSpec(
            source=SyntheticSource(samples_per_class=p["samples_per_class"])
        )
    caller_dataset = "dataset" in overrides
    fields.update(overrides)
    # a caller-supplied dataset keeps its own seed; otherwise it follows the
    # scenario seed so that different seeds draw different data
    if "seed" in fields and not caller_dataset:
        base = fields.get("dataset", DatasetSpec())
        fields["dataset"] = replace(base, seed=fields["seed"])
    return Scenario(**fields)


def _largest_remainder_counts(fractions: list[float], total: int) -> list[int]:
    raw = [f * total for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    remainder = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def _assign_archetypes(scenario: Scenario) -> list[str]:
    """Client archetypes, dealt in name order so the mix's order is irrelevant."""
    mix = sorted(scenario.archetype_mix)
    counts = _largest_remainder_counts([frac for _, frac in mix], scenario.num_clients)
    return [name for (name, _), count in zip(mix, counts) for _ in range(count)]


def _derived_seed(scenario_seed: int, *tags: int) -> int:
    seq = np.random.SeedSequence((scenario_seed, *tags))
    return int(seq.generate_state(1)[0])


def _pick_stragglers(scenario: Scenario, archetype_names: list[str]) -> np.ndarray:
    """Fixed straggler set, stratified per archetype so incidence is even."""
    flags = np.zeros(scenario.num_clients, dtype=bool)
    if scenario.straggler_fraction == 0.0:
        return flags
    rng = np.random.default_rng(_derived_seed(scenario.seed, _TAG_STRAGGLER))
    names = np.array(archetype_names)
    for name in dict.fromkeys(archetype_names):
        group = np.flatnonzero(names == name)
        k = int(round(scenario.straggler_fraction * len(group)))
        if k > 0:
            flags[rng.choice(group, size=k, replace=False)] = True
    return flags


@dataclass
class ClusterRoundStat:
    """Per-cluster calibration and timing detail for one round."""

    cluster_id: int
    participants: int
    confidence: float | None
    threshold: float | None
    fnr_hat: float | None
    fpr_hat: float | None
    latency_s: float


@dataclass
class RoundReport:
    """Everything the orchestrator learns from one synchronous round."""

    round_index: int
    global_loss: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    fpr: float
    fnr: float
    sync_latency_s: float
    per_cluster_latencies: tuple[float, ...]
    cluster_stats: tuple[ClusterRoundStat, ...]
    wall_clock_s: float = field(default=0.0, compare=False)


@dataclass
class LatencyReport:
    """Simulated timing of one synchronous round."""

    client_times: tuple[float, ...]
    per_cluster: tuple[float, ...]
    sync_latency_s: float


@dataclass
class TrainingState:
    """Mutable loop state threaded through run_round."""

    scenario: Scenario
    round_index: int
    global_model: ModelParams
    clients: list[ClientDataset]
    holdout: LabeledBatch | None
    profiles: np.ndarray  # (num_clients, 3) raw capabilities, as in ARCHETYPES
    archetype_names: list[str]
    stragglers: np.ndarray
    calib_states: list[CalibrationState]
    accuracy_trace: list[float] = field(default_factory=list)
    converged_round: int | None = None  # round at which early stopping fired

    @property
    def num_classes(self) -> int:
        return self.global_model.num_classes


def materialize_scenario(
    scenario: Scenario,
) -> tuple[list[ClientDataset], LabeledBatch | None]:
    """The scenario's client datasets and holdout.

    A dirichlet partition tops each client up to two minibatches, and to no
    fewer than 64 rows.
    """
    min_samples = max(2 * scenario.train_cfg.batch_size, 64)
    return materialize_clients(scenario.dataset, scenario.num_clients, min_samples)


def init_state(scenario: Scenario) -> TrainingState:
    """Materialize data and zero-initialize the shared model."""
    clients, holdout = materialize_scenario(scenario)
    archetype_names = _assign_archetypes(scenario)
    profiles = np.stack([archetype_profile(name).raw() for name in archetype_names])
    num_features = clients[0].train.features.shape[1]
    num_classes = scenario.dataset.num_classes
    calib = scenario.calib_cfg
    states = [
        CalibrationState(
            confidence=calib.initial_confidence,
            fnr_sensitivity=calib.fnr_sensitivity,
            fpr_sensitivity=calib.fpr_sensitivity,
            resource_sensitivity=calib.resource_sensitivity,
        )
        for _ in range(scenario.num_clusters)
    ]
    return TrainingState(
        scenario=scenario,
        round_index=0,
        global_model=ModelParams.zeros(num_classes, num_features),
        clients=clients,
        holdout=holdout,
        profiles=profiles,
        archetype_names=archetype_names,
        stragglers=_pick_stragglers(scenario, archetype_names),
        calib_states=states,
    )


def _effective_raw_profiles(
    scenario: Scenario,
    raw: np.ndarray,
    stragglers: np.ndarray,
    round_index: int,
) -> np.ndarray:
    """Raw capability matrix as the fog tier observes it this round.

    Straggling devices expose their slowed-down cpu (utilization is what the
    fog can actually measure); optional jitter models run-to-run load noise.
    """
    if scenario.straggler_fraction > 0.0:
        raw = raw.copy()
        raw[stragglers, 0] /= scenario.straggler_slowdown
    jitter = scenario.cluster_cfg.profile_jitter
    if jitter > 0.0:
        rng = np.random.default_rng(
            _derived_seed(scenario.seed, _TAG_JITTER, round_index)
        )
        raw = raw * rng.uniform(1.0 - jitter, 1.0 + jitter, size=raw.shape)
    return raw


def _cluster_round(
    scenario: Scenario,
    profiles: np.ndarray,
    stragglers: np.ndarray,
    round_index: int,
) -> tuple[FuzzyPartition, np.ndarray]:
    """Cluster this round's observed profiles; also returns their normalized matrix."""
    raw = _effective_raw_profiles(scenario, profiles, stragglers, round_index)
    normalized = minmax_scale(raw)
    observed = [
        HardwareProfile(*row, normalized=tuple(n)) for row, n in zip(raw, normalized)
    ]
    partition = fcm_fit(
        observed,
        scenario.num_clusters,
        fuzzifier=scenario.cluster_cfg.fuzzifier,
        weights=scenario.cluster_cfg.weights,
        max_iter=scenario.cluster_cfg.max_iter,
        tol=scenario.cluster_cfg.tol,
        seed=_derived_seed(scenario.seed, _TAG_FCM, round_index),
    )
    return partition, normalized


def _client_round_times(
    scenario: Scenario,
    raw: np.ndarray,
    sizes: np.ndarray,
    stragglers: np.ndarray,
    method: str,
    model_params: int,
) -> np.ndarray:
    lat = scenario.latency
    cpu_norm = minmax_scale(raw[:, :1])[:, 0]
    cpu = lat.cpu_floor + (1.0 - lat.cpu_floor) * cpu_norm
    compute = (
        scenario.train_cfg.local_epochs
        * sizes
        * lat.work_units_per_sample
        / cpu
    )
    bytes_per_round = 2.0 * model_params * lat.bytes_per_param
    comm = bytes_per_round / (raw[:, 2] * 1e6 / 8.0)
    times = compute + comm + lat.round_overhead_s
    if scenario.straggler_fraction > 0.0:
        slowdown = scenario.straggler_slowdown
        if method == "fedprox":
            slowdown = 1.0 + (slowdown - 1.0) * (1.0 - lat.fedprox_partial_work)
        times = times.copy()
        times[stragglers] *= slowdown
    return times


def _sync_from_times(
    scenario: Scenario,
    times: np.ndarray,
    memberships: np.ndarray | None,
) -> tuple[float, tuple[float, ...]]:
    """Synchronization latency and the per-cluster completion times.

    Baselines wait on the slowest client. The clustered method synchronizes
    inside each cluster first (a cluster completes when its slowest
    participant does), and clients only wait on their own cluster; the
    reported latency is the participation-mass-weighted mean of cluster
    completion times plus one cloud join overhead.
    """
    if scenario.method in ("fedavg", "fedprox") or memberships is None:
        peak = float(times.max())
        return peak, (peak,)
    floor = scenario.cluster_cfg.participation_floor
    per_cluster: list[float] = []
    masses: list[float] = []
    for k in range(memberships.shape[1]):
        participants = np.flatnonzero(memberships[:, k] >= floor)
        if participants.size == 0:
            per_cluster.append(0.0)
            masses.append(0.0)
            continue
        per_cluster.append(float(times[participants].max()))
        masses.append(float(memberships[participants, k].sum()))
    mass = np.array(masses)
    busy = mass > 0
    sync = float(
        (mass[busy] * np.array(per_cluster)[busy]).sum() / mass[busy].sum()
        + scenario.latency.round_overhead_s
    )
    return sync, tuple(per_cluster)


def simulate_latency(
    scenario: Scenario,
    memberships: np.ndarray | None = None,
    sizes: np.ndarray | None = None,
) -> LatencyReport:
    """One round of the timing model without any training.

    When memberships are omitted for the clustered method, a clustering pass
    is run on the scenario's observed profiles; when sizes are omitted the
    dataset partition is materialized to obtain them.
    """
    archetype_names = _assign_archetypes(scenario)
    profiles = np.stack([archetype_profile(name).raw() for name in archetype_names])
    stragglers = _pick_stragglers(scenario, archetype_names)
    if sizes is None:
        clients, _ = materialize_scenario(scenario)
        sizes = np.array([c.size for c in clients], dtype=np.float64)
    else:
        sizes = np.asarray(sizes, dtype=np.float64)
    source = scenario.dataset.source
    model_params = source.num_classes * (source.num_features + 1)
    times = _client_round_times(
        scenario, profiles, sizes, stragglers, scenario.method, model_params
    )
    if scenario.method == "cfhfc" and memberships is None:
        partition, _ = _cluster_round(scenario, profiles, stragglers, round_index=0)
        memberships = partition.memberships
    sync, per_cluster = _sync_from_times(scenario, times, memberships)
    return LatencyReport(tuple(float(t) for t in times), per_cluster, sync)


def run_round(state: TrainingState, scenario: Scenario) -> tuple[TrainingState, RoundReport]:
    """Advance the federation by one synchronous round.

    Returns the updated state and the round's report. The input state is
    mutated in place (round counter, model, calibration states).
    """
    started = time.perf_counter()
    round_index = state.round_index
    clients = state.clients
    sizes = np.array([c.size for c in clients], dtype=np.float64)
    anchor = state.global_model
    cfg = scenario.train_cfg
    attack = scenario.resolved_attack_classes(state.num_classes)

    # edge tier: local training
    updated: list[ModelParams] = []
    for client in clients:
        seed = _derived_seed(scenario.seed, _TAG_TRAIN, round_index, client.client_id)
        if scenario.method == "fedavg":
            updated.append(local_train(anchor, client.train, cfg, seed))
        else:
            updated.append(prox_local_train(anchor, anchor, client.train, cfg, seed))

    model_size = anchor.num_classes * (anchor.num_features + 1)
    times = _client_round_times(
        scenario, state.profiles, sizes, state.stragglers, scenario.method, model_size
    )

    cluster_stats: list[ClusterRoundStat] = []
    if scenario.method in ("fedavg", "fedprox"):
        new_global = weighted_average(updated, sizes)
        sync, per_cluster = _sync_from_times(scenario, times, None)
    else:
        partition, normalized_matrix = _cluster_round(
            scenario, state.profiles, state.stragglers, round_index
        )
        memberships = partition.memberships
        floor = scenario.cluster_cfg.participation_floor
        cluster_models: list[ClusterModel] = []
        sync, per_cluster = _sync_from_times(scenario, times, memberships)
        for k in range(scenario.num_clusters):
            participants = np.flatnonzero(memberships[:, k] >= floor)
            if participants.size == 0:
                continue
            updates = [
                (updated[i], float(memberships[i, k]), int(sizes[i]))
                for i in participants
            ]
            cluster_model = cluster_aggregate(updates)
            cluster_model.cluster_id = k
            stat = ClusterRoundStat(
                cluster_id=k,
                participants=int(participants.size),
                confidence=None,
                threshold=None,
                fnr_hat=None,
                fpr_hat=None,
                latency_s=per_cluster[k],
            )
            if scenario.calib_cfg.enabled:
                cal_batches = [
                    clients[i].calibration
                    for i in participants
                    if clients[i].calibration is not None
                ]
                if cal_batches:
                    pool = LabeledBatch(
                        np.concatenate([b.features for b in cal_batches]),
                        np.concatenate([b.labels for b in cal_batches]),
                    )
                    resource = float(
                        scenario.cluster_cfg.weights.as_array()
                        @ normalized_matrix[participants].mean(axis=0)
                    )
                    old_state = replace(
                        state.calib_states[k], resource_index=resource
                    )
                    calibrated, new_state = calibrate(cluster_model, pool, old_state)
                    decisions = predict_with_calibration(calibrated, pool.features)
                    rates = classification_metrics(
                        confusion(decisions.labels, pool.labels, attack, state.num_classes)
                    )
                    state.calib_states[k] = replace(
                        new_state, recent_fnr=rates.fnr, recent_fpr=rates.fpr
                    )
                    stat.confidence = calibrated.confidence
                    stat.threshold = calibrated.threshold
                    stat.fnr_hat = rates.fnr
                    stat.fpr_hat = rates.fpr
            cluster_stats.append(stat)
            cluster_models.append(cluster_model)
        if not cluster_models:
            raise RuntimeError("no cluster had any participants")
        new_global = global_aggregate(cluster_models)

    state.global_model = new_global
    state.round_index = round_index + 1

    if state.holdout is not None:
        test_loss = loss(new_global, state.holdout)
        predictions = argmax_decisions(new_global, state.holdout.features)
        counts = confusion(
            predictions, state.holdout.labels, attack, state.num_classes
        )
        report = classification_metrics(counts)
    else:
        test_loss = float("nan")
        report = MetricReport(*(float("nan"),) * 7)
    state.accuracy_trace.append(report.accuracy)

    round_report = RoundReport(
        round_index=round_index,
        global_loss=test_loss,
        accuracy=report.accuracy,
        precision=report.precision,
        recall=report.recall,
        f1=report.f1,
        fpr=report.fpr,
        fnr=report.fnr,
        sync_latency_s=sync,
        per_cluster_latencies=per_cluster,
        cluster_stats=tuple(cluster_stats),
        wall_clock_s=time.perf_counter() - started,
    )
    return state, round_report


def _should_stop(trace: list[float]) -> bool:
    if len(trace) < EARLY_STOP_WINDOW + 1:
        return False
    recent = trace[-(EARLY_STOP_WINDOW + 1) :]
    return all(
        abs(recent[i + 1] - recent[i]) < EARLY_STOP_TOL
        for i in range(EARLY_STOP_WINDOW)
    )


def run_training(
    scenario: Scenario, return_state: bool = False
) -> list[RoundReport] | tuple[list[RoundReport], TrainingState]:
    """Run the configured method for up to scenario.rounds rounds.

    Training stops early once global accuracy moves by less than 1e-4 over
    five consecutive rounds; the final state records that round as
    converged_round. Set return_state to also receive the final state
    (global model, calibration states).
    """
    state = init_state(scenario)
    reports: list[RoundReport] = []
    for _ in range(scenario.rounds):
        state, report = run_round(state, scenario)
        reports.append(report)
        if _should_stop(state.accuracy_trace):
            state.converged_round = report.round_index
            break
    if return_state:
        return reports, state
    return reports


def _scaled_scenario(scenario: Scenario, num_clients: int, method: str, fraction: float) -> Scenario:
    """Clone a scenario at a different scale, keeping per-client data constant."""
    dataset = scenario.dataset
    if isinstance(dataset.source, SyntheticSource):
        per_client = dataset.source.samples_per_class / scenario.num_clients
        source = replace(
            dataset.source,
            samples_per_class=max(1, round(per_client * num_clients)),
        )
        dataset = replace(dataset, source=source)
    return replace(
        scenario,
        num_clients=num_clients,
        num_clusters=clusters_for_clients(num_clients),
        method=method,
        straggler_fraction=fraction,
        dataset=dataset,
    )


def straggler_metrics(
    scenario: Scenario,
    fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3),
    client_counts: tuple[int, ...] = (20, 50, 80, 100),
    methods: tuple[str, ...] = METHODS,
) -> dict[str, dict[int, dict[float, dict[str, float]]]]:
    """Latency-only straggler sweep.

    For every method, client count, and straggler fraction, computes the
    per-round synchronization latency of the timing model (no training) and
    reports relative_pct = 100 * T(fraction) / T(0) and sme = T(0) /
    T(fraction), the straggler mitigation effectiveness. Client data sizes
    are held uniform at the scenario's mean so the sweep isolates hardware
    heterogeneity and straggler effects from partition skew.
    """
    out: dict[str, dict[int, dict[float, dict[str, float]]]] = {m: {} for m in methods}
    for n in client_counts:
        clients, _ = materialize_scenario(
            _scaled_scenario(scenario, n, scenario.method, 0.0)
        )
        mean_size = float(np.mean([c.size for c in clients]))
        sizes = np.full(n, round(mean_size), dtype=np.float64)
        for method in methods:
            zero = _scaled_scenario(scenario, n, method, 0.0)
            baseline_sync = simulate_latency(zero, sizes=sizes).sync_latency_s
            per_fraction: dict[float, dict[str, float]] = {}
            for fraction in fractions:
                if fraction == 0.0:
                    sync = baseline_sync
                else:
                    probe = _scaled_scenario(scenario, n, method, fraction)
                    sync = simulate_latency(probe, sizes=sizes).sync_latency_s
                per_fraction[fraction] = {
                    "sync_latency_s": sync,
                    "relative_pct": 100.0 * sync / baseline_sync,
                    "sme": baseline_sync / sync,
                }
            out[method][n] = per_fraction
    return out
