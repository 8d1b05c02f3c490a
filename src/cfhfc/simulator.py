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

from dataclasses import dataclass, field, replace

import numpy as np

from .aggregation import ClusterModel, cluster_aggregate, global_aggregate, weighted_average
from .calibration import (
    CalibrationConfig,
    CalibrationState,
    calibrate,
    predict_with_calibration,
)
from .clustering import (
    FuzzyPartition,
    ResourceWeights,
    fcm_fit,
    minmax_scale,
)
from .data import ClientDataset, DatasetSpec, SyntheticSource, client_sizes, materialize_clients
from .metrics import (
    RATE_NAMES,
    ConfusionCounts,
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


def clusters_for_clients(num_clients: int) -> int:
    """Cluster budget for a client count: 4, 8 and 12 at the presets' 20, 50 and 80."""
    return max(1, min(num_clients, round(4 + (num_clients - 20) / 7.5)))


@dataclass
class LatencyModel:
    """Cost model turning profiles and data sizes into round times.

    A client's round time is compute + communication + overhead: local epochs
    times samples times work_units_per_sample, divided by its normalized cpu
    (rescaled into [cpu_floor, 1] so slow devices do not divide by zero),
    plus a model upload and download over its bandwidth, plus fixed
    round-trip overhead. Stragglers multiply their whole round time by the
    scenario slowdown. Under fedprox the bill assumes a straggler absorbs
    part of the slowdown by doing proportionally less local work
    (fedprox_partial_work is the absorbed fraction); training still runs
    every client for the full local_epochs, so only the bill is reduced.
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
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


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
        names = [name for name, _ in self.archetype_mix]
        for i, name in enumerate(names):
            if name not in ARCHETYPES:
                raise ValueError(f"unknown archetype {name!r}")
            if name in names[:i]:
                raise ValueError(f"archetype {name!r} is listed more than once")
        self.dataset.check_shards(self.num_clients)
        if self.attack_classes is not None:
            num_classes = self.dataset.num_classes
            if not self.attack_classes or not all(
                0 <= c < num_classes for c in self.attack_classes
            ):
                raise ValueError(
                    f"attack_classes must be a non-empty subset of "
                    f"[0, {num_classes}), got {list(self.attack_classes)}"
                )

    def resolved_attack_classes(self) -> frozenset[int]:
        if self.attack_classes is not None:
            return frozenset(self.attack_classes)
        return frozenset(range(1, self.dataset.num_classes))


# each preset is a client count; clusters and data scale with it
_PRESETS: dict[str, int] = {"scenario1": 20, "scenario2": 50, "scenario3": 80}
_PRESET_SAMPLES_PER_CLIENT = 500  # per class


def build_scenario(preset: str | None = None, **overrides) -> Scenario:
    """A Scenario from a named preset plus field overrides.

    Presets fix the deployment scale: a client count, the cluster budget of
    clusters_for_clients and a synthetic dataset of 500 samples per class per
    client. Every Scenario field can still be overridden.
    """
    fields: dict = {}
    if preset is not None:
        if preset not in _PRESETS:
            raise ValueError(
                f"unknown preset {preset!r}, expected one of {sorted(_PRESETS)}"
            )
        n = _PRESETS[preset]
        fields["num_clients"] = n
        fields["num_clusters"] = clusters_for_clients(n)
        fields["dataset"] = DatasetSpec(
            source=SyntheticSource(samples_per_class=n * _PRESET_SAMPLES_PER_CLIENT)
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


def _derived_seed(scenario_seed: int, *tags: int) -> int:
    seq = np.random.SeedSequence((scenario_seed, *tags))
    return int(seq.generate_state(1)[0])


def _fleet(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The clients' raw (n, 3) capabilities and straggler flags.

    Archetypes are dealt in name order, so the mix's order is irrelevant, and
    each archetype's clients form one contiguous block. The straggler set is
    fixed and stratified per block, so incidence is even across archetypes.
    """
    mix = sorted(scenario.archetype_mix)
    counts = _largest_remainder_counts([frac for _, frac in mix], scenario.num_clients)
    profiles = np.repeat(np.array([ARCHETYPES[name] for name, _ in mix]), counts, axis=0)
    stragglers = np.zeros(scenario.num_clients, dtype=bool)
    if scenario.straggler_fraction == 0.0:
        return profiles, stragglers
    rng = np.random.default_rng(_derived_seed(scenario.seed, _TAG_STRAGGLER))
    start = 0
    for count in counts:
        k = int(round(scenario.straggler_fraction * count))
        if k > 0:
            stragglers[start + rng.choice(count, size=k, replace=False)] = True
        start += count
    return profiles, stragglers


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
    cluster_stats: tuple[ClusterRoundStat, ...]


@dataclass
class LatencyReport:
    """Simulated timing of one synchronous round."""

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
    stragglers: np.ndarray
    calib_states: list[CalibrationState]
    converged_round: int | None = None  # round at which early stopping fired


def _min_samples(scenario: Scenario) -> int:
    """A dirichlet partition tops each client up to two minibatches, and to no
    fewer than 64 rows."""
    return max(2 * scenario.train_cfg.batch_size, 64)


def materialize_scenario(
    scenario: Scenario,
) -> tuple[list[ClientDataset], LabeledBatch | None]:
    """The scenario's client datasets and holdout."""
    return materialize_clients(scenario.dataset, scenario.num_clients, _min_samples(scenario))


def init_state(scenario: Scenario) -> TrainingState:
    """Materialize data and zero-initialize the shared model."""
    clients, holdout = materialize_scenario(scenario)
    profiles, stragglers = _fleet(scenario)
    num_features = clients[0].train.features.shape[1]
    num_classes = scenario.dataset.num_classes
    states = [
        CalibrationState(scenario.calib_cfg.initial_confidence)
        for _ in range(scenario.num_clusters)
    ]
    return TrainingState(
        scenario=scenario,
        round_index=0,
        global_model=ModelParams.zeros(num_classes, num_features),
        clients=clients,
        holdout=holdout,
        profiles=profiles,
        stragglers=stragglers,
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
    partition = fcm_fit(
        normalized,
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
    slowdown = scenario.straggler_slowdown
    if scenario.method == "fedprox":
        slowdown = 1.0 + (slowdown - 1.0) * (1.0 - lat.fedprox_partial_work)
    times[stragglers] *= slowdown
    return times


def _participants(scenario: Scenario, memberships: np.ndarray) -> list[np.ndarray]:
    """Each cluster's participant indices: the clients at or above the floor."""
    floor = scenario.cluster_cfg.participation_floor
    return [np.flatnonzero(memberships[:, k] >= floor) for k in range(memberships.shape[1])]


def _sync_from_times(
    scenario: Scenario,
    times: np.ndarray,
    memberships: np.ndarray,
    participants: list[np.ndarray],
) -> tuple[float, tuple[float, ...]]:
    """The clustered method's synchronization latency and per-cluster completion times.

    Each cluster synchronizes inside itself first (it completes when its
    slowest participant does), and clients only wait on their own cluster;
    the reported latency is the participation-mass-weighted mean of cluster
    completion times plus one cloud join overhead. The baselines wait on the
    slowest client instead.
    """
    per_cluster = np.array([times[idx].max() if idx.size else 0.0 for idx in participants])
    # gathered, not masked over all clients: a masked sum adds in another order
    # and moves the reported latency in its last bits
    mass = np.array([memberships[idx, k].sum() for k, idx in enumerate(participants)])
    busy = mass > 0
    sync = float(
        (mass[busy] * per_cluster[busy]).sum() / mass[busy].sum()
        + scenario.latency.round_overhead_s
    )
    return sync, tuple(per_cluster.tolist())


def simulate_latency(scenario: Scenario, sizes: np.ndarray) -> LatencyReport:
    """One round of the timing model without any training.

    sizes holds each client's data size, in client order. The clustered
    method runs a clustering pass on the scenario's observed profiles; the
    baselines wait on the slowest client.
    """
    profiles, stragglers = _fleet(scenario)
    sizes = np.asarray(sizes, dtype=np.float64)
    source = scenario.dataset.source
    model_params = source.num_classes * (source.num_features + 1)
    times = _client_round_times(scenario, profiles, sizes, stragglers, model_params)
    sync = float(times.max())
    if scenario.method == "cfhfc":
        partition, _ = _cluster_round(scenario, profiles, stragglers, round_index=0)
        participants = _participants(scenario, partition.memberships)
        sync, _ = _sync_from_times(scenario, times, partition.memberships, participants)
    return LatencyReport(sync)


def _edge(state: TrainingState) -> list[ModelParams]:
    """Edge tier: every client trains locally from the current global model."""
    scenario = state.scenario
    anchor, cfg = state.global_model, scenario.train_cfg
    updated: list[ModelParams] = []
    for client in state.clients:
        seed = _derived_seed(scenario.seed, _TAG_TRAIN, state.round_index, client.client_id)
        if scenario.method == "fedavg":
            updated.append(local_train(anchor, client.train, cfg, seed))
        else:
            updated.append(prox_local_train(anchor, anchor, client.train, cfg, seed))
    return updated


_UNGATED = (None, None, None, None)


def _calibrate_cluster(
    state: TrainingState,
    k: int,
    cluster_model: ClusterModel,
    participants: np.ndarray,
    normalized: np.ndarray,
) -> tuple[float | None, ...]:
    """Conformally calibrate cluster k's model on its participants' calibration rows.

    Updates the cluster's calibration state and returns its confidence,
    threshold, fnr_hat and fpr_hat; all None when calibration is disabled or
    no participant holds calibration rows.
    """
    scenario = state.scenario
    if not scenario.calib_cfg.enabled:
        return _UNGATED
    batches = [state.clients[i].calibration for i in participants]
    batches = [b for b in batches if b is not None]
    if not batches:
        return _UNGATED
    pool = LabeledBatch(
        np.concatenate([b.features for b in batches]),
        np.concatenate([b.labels for b in batches]),
    )
    resource = float(
        scenario.cluster_cfg.weights.as_array() @ normalized[participants].mean(axis=0)
    )
    old_state = replace(state.calib_states[k], resource_index=resource)
    calibrated, new_state = calibrate(cluster_model, pool, old_state, scenario.calib_cfg)
    decisions = predict_with_calibration(calibrated, pool.features)
    attack = scenario.resolved_attack_classes()
    counts = confusion(decisions.labels, pool.labels, attack, scenario.dataset.num_classes)
    rates = classification_metrics(counts)
    state.calib_states[k] = replace(new_state, recent_fnr=rates.fnr, recent_fpr=rates.fpr)
    return calibrated.confidence, calibrated.threshold, rates.fnr, rates.fpr


def _fog(
    state: TrainingState, updated: list[ModelParams]
) -> tuple[ModelParams, float, tuple[ClusterRoundStat, ...]]:
    """Fog and cloud tiers: the next global model, sync latency and cluster stats.

    The baselines pool every update by data size and wait on the slowest
    client. The clustered method partitions this round's observed profiles,
    reduces each cluster's participants with their memberships, calibrates
    each cluster model and blends the cluster models in the cloud.
    """
    scenario = state.scenario
    sizes = np.array([c.size for c in state.clients], dtype=np.float64)
    anchor = state.global_model
    model_size = anchor.num_classes * (anchor.num_features + 1)
    times = _client_round_times(scenario, state.profiles, sizes, state.stragglers, model_size)
    if scenario.method != "cfhfc":
        return weighted_average(updated, sizes), float(times.max()), ()

    partition, normalized = _cluster_round(
        scenario, state.profiles, state.stragglers, state.round_index
    )
    memberships = partition.memberships
    participants = _participants(scenario, memberships)
    sync, per_cluster = _sync_from_times(scenario, times, memberships, participants)
    cluster_models: list[ClusterModel] = []
    stats: list[ClusterRoundStat] = []
    for k, idx in enumerate(participants):
        if idx.size == 0:
            continue
        cluster_model = cluster_aggregate(
            [(updated[i], float(memberships[i, k]), int(sizes[i])) for i in idx]
        )
        gate = _calibrate_cluster(state, k, cluster_model, idx, normalized)
        stats.append(ClusterRoundStat(k, int(idx.size), *gate, latency_s=per_cluster[k]))
        cluster_models.append(cluster_model)
    if not cluster_models:
        raise RuntimeError("no cluster had any participants")
    return global_aggregate(cluster_models), sync, tuple(stats)


def holdout_confusion(
    scenario: Scenario, model: ModelParams, holdout: LabeledBatch
) -> ConfusionCounts:
    """The confusion counts of the model's argmax decisions on the holdout."""
    decisions = argmax_decisions(model, holdout.features)
    attack = scenario.resolved_attack_classes()
    return confusion(decisions, holdout.labels, attack, scenario.dataset.num_classes)


def _evaluate(state: TrainingState) -> tuple[float, MetricReport]:
    """Holdout loss and argmax rates of the global model; NaN without a holdout."""
    if state.holdout is None:
        return float("nan"), MetricReport(*(float("nan"),) * len(RATE_NAMES))
    model, holdout = state.global_model, state.holdout
    test_loss = loss(model, holdout)
    return test_loss, classification_metrics(holdout_confusion(state.scenario, model, holdout))


def run_round(state: TrainingState, scenario: Scenario) -> tuple[TrainingState, RoundReport]:
    """Advance the federation by one synchronous round: edge, fog, evaluate.

    Everything is read from state.scenario; scenario must equal it. Returns
    the updated state and the round's report. The input state is mutated in
    place (round counter, model, calibration states).
    """
    if scenario != state.scenario:
        raise ValueError("run_round was given a scenario other than state.scenario")
    updated = _edge(state)
    state.global_model, sync, cluster_stats = _fog(state, updated)
    round_index = state.round_index
    state.round_index += 1
    test_loss, rates = _evaluate(state)
    report = RoundReport(
        round_index,
        test_loss,
        **{name: getattr(rates, name) for name in RATE_NAMES},
        sync_latency_s=sync,
        cluster_stats=cluster_stats,
    )
    return state, report


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
        if _should_stop([r.accuracy for r in reports]):
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
    heterogeneity and straggler effects from partition skew. The sizes come
    from the partition alone (client_sizes), without generating features.
    """
    out: dict[str, dict[int, dict[float, dict[str, float]]]] = {m: {} for m in methods}
    for n in client_counts:
        scaled = _scaled_scenario(scenario, n, scenario.method, 0.0)
        mean_size = float(np.mean(client_sizes(scaled.dataset, n, _min_samples(scaled))))
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
