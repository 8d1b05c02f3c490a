"""Round-synchronous training simulator for the three-tier protocol.

Each round runs edge, fog, and cloud in sequence: clients train locally on
their own slice, fog nodes cluster clients by hardware and reduce their
updates with membership weights, cluster models are conformally calibrated,
and the cloud combines the cluster models into the next global model. A flat
method (a row of METHODS) collapses the fog tier into a single pool.

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
from .clustering import ResourceWeights, fcm_fit, fcm_fit_stack, minmax_scale
from .data import ClientDataset, DatasetSpec, SyntheticSource, materialize_clients
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
    stack_train,
)

__all__ = [
    "ARCHETYPES",
    "clusters_for_clients",
    "ClusterConfig",
    "Scenario",
    "ClusterRoundStat",
    "RoundReport",
    "LatencyReport",
    "TrainingState",
    "build_scenario",
    "init_state",
    "run_round",
    "run_lockstep",
    "run_training",
    "materialize_scenario",
    "simulate_latency",
    "straggler_metrics",
]


@dataclass(frozen=True)
class Method:
    """A row of METHODS, the one place where a method name gets its meaning."""

    proximal: bool  # the edge pulls each client toward the global model (FedProx's term)
    clustered: bool  # FCM fog, per-cluster gates and bill; else one size pool, slowest bill
    partial_work: float = 0.0  # slowdown share a straggler is billed as skipping; it still trains


METHODS = {"cfhfc": Method(proximal=True, clustered=True),
           "fedavg": Method(proximal=False, clustered=False),
           "fedprox": Method(proximal=True, clustered=False, partial_work=0.5)}

# device archetypes: (cpu GHz, memory GB, bandwidth Mbps)
ARCHETYPES: dict[str, tuple[float, float, float]] = {
    "pi3": (1.2, 1.0, 20.0),
    "pi4": (1.5, 4.0, 50.0),
    "pi400": (1.8, 8.0, 100.0),
}

# seed stream tags
_TAG_TRAIN = 0
_TAG_FCM = 1
_TAG_JITTER = 2
_TAG_STRAGGLER = 3


def clusters_for_clients(num_clients: int) -> int:
    """Cluster budget for a client count: 4, 8 and 12 at the presets' 20, 50 and 80."""
    return max(1, min(num_clients, round(4 + (num_clients - 20) / 7.5)))


@dataclass
class ClusterConfig:
    """Fuzzy clustering knobs for the fog tier."""

    fuzzifier: float = 3.0
    weights: ResourceWeights = field(default_factory=ResourceWeights)
    participation_floor: float = 0.05
    profile_jitter: float = 0.0  # multiplicative, e.g. 0.1 for +-10% per round

    def __post_init__(self) -> None:
        if not 1.0 < self.fuzzifier < np.inf:
            raise ValueError(f"fuzzifier must be finite and > 1, got {self.fuzzifier}")
        if not 0.0 < self.participation_floor < 1.0:
            raise ValueError("participation_floor must lie in (0, 1)")
        if not 0.0 <= self.profile_jitter < 1.0:
            raise ValueError("profile_jitter must lie in [0, 1)")


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
    attack_classes: tuple[int, ...] | None = None  # None = every class but 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}, got {self.method!r}")
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.straggler_fraction < 1.0:
            raise ValueError("straggler_fraction must lie in [0, 1)")
        if not 1.0 <= self.straggler_slowdown < np.inf:
            raise ValueError(
                f"straggler_slowdown must be finite and >= 1, got {self.straggler_slowdown}"
            )
        fractions = [frac for _, frac in self.archetype_mix]
        if not all(0.0 <= frac <= 1.0 for frac in fractions):
            raise ValueError(f"archetype_mix fractions must lie in [0, 1], got {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError(f"archetype_mix fractions must sum to 1, got {sum(fractions)}")
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


def _fleet(scenario: Scenario, straggler_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """The clients' raw (n, 3) capabilities and straggler flags at a straggler fraction.

    Archetypes are dealt in name order, so the mix's order is irrelevant, and
    each archetype's clients form one contiguous block. The straggler set is
    fixed and stratified per block, so incidence is even across archetypes.
    The scenario's own straggler_fraction is not read.
    """
    mix = sorted(scenario.archetype_mix)
    counts = _largest_remainder_counts([frac for _, frac in mix], scenario.num_clients)
    profiles = np.repeat(np.array([ARCHETYPES[name] for name, _ in mix]), counts, axis=0)
    stragglers = np.zeros(scenario.num_clients, dtype=bool)
    if straggler_fraction == 0.0:
        return profiles, stragglers
    rng = np.random.default_rng(_derived_seed(scenario.seed, _TAG_STRAGGLER))
    start = 0
    for count in counts:
        k = int(round(straggler_fraction * count))
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
    """The timing model's bill for one round and, if clustered, the partition behind it:
    memberships, normalized observed profiles, each cluster's participants and seconds."""

    sync_latency_s: float
    memberships: np.ndarray | None = None
    normalized: np.ndarray | None = None
    participants: list[np.ndarray] = field(default_factory=list)
    per_cluster_s: tuple[float, ...] = ()


@dataclass
class TrainingState:
    """Mutable loop state threaded through run_round."""

    scenario: Scenario
    round_index: int
    global_model: ModelParams
    clients: list[ClientDataset]
    holdout: LabeledBatch | None
    calib_states: list[CalibrationState]


def _min_samples(scenario: Scenario) -> int:
    """A dirichlet partition tops each client up to two minibatches, and to no
    fewer than 64 rows."""
    return max(2 * scenario.train_cfg.batch_size, 64)


def materialize_scenario(
    scenario: Scenario, loaded: LabeledBatch | None = None
) -> tuple[list[ClientDataset], LabeledBatch | None]:
    """The scenario's client datasets and holdout; loaded is a CSV source's load()."""
    spec = scenario.dataset
    return materialize_clients(spec, scenario.num_clients, _min_samples(scenario), loaded)


def init_state(
    scenario: Scenario,
    data: tuple[list[ClientDataset], LabeledBatch | None] | None = None,
) -> TrainingState:
    """Zero-initialize the shared model on the scenario's clients and holdout.

    data is materialize_scenario's result for the scenario, or for one that
    differs only in method; it is materialized here when None. Training never
    writes to the batches, so runs of several methods can share one copy.
    """
    clients, holdout = materialize_scenario(scenario) if data is None else data
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
        calib_states=states,
    )


def _cluster_round(
    scenario: Scenario,
    fleets: list[tuple[np.ndarray, np.ndarray]],
    round_index: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cluster this round's observed profiles of each fleet: memberships and normalized matrix.

    Straggling devices expose their slowed-down cpu (utilization is what the
    fog can actually measure); optional jitter models run-to-run load noise.
    """
    raw = np.stack([profiles for profiles, _ in fleets])
    raw[np.stack([stragglers for _, stragglers in fleets]), 0] /= scenario.straggler_slowdown
    jitter = scenario.cluster_cfg.profile_jitter
    if jitter > 0.0:
        rng = np.random.default_rng(_derived_seed(scenario.seed, _TAG_JITTER, round_index))
        raw *= rng.uniform(1.0 - jitter, 1.0 + jitter, size=raw.shape[1:])
    normalized = np.stack([minmax_scale(observed) for observed in raw])
    cfg, seed = scenario.cluster_cfg, _derived_seed(scenario.seed, _TAG_FCM, round_index)
    args = (scenario.num_clusters, cfg.fuzzifier, cfg.weights)
    # a round makes one fcm_fit call, which tests and the benchmark's tracer count
    fits = ([fcm_fit(normalized[0], *args, seed=seed)] if len(fleets) == 1
            else fcm_fit_stack(normalized, *args, seeds=(seed,) * len(fleets)))
    return [(fit.memberships, observed) for fit, observed in zip(fits, normalized)]


# The timing model's cost constants, read by _clock's two halves alone. A
# client's round time is compute + communication + overhead: local_epochs x
# samples x WORK_S_PER_SAMPLE, divided by its normalized cpu (rescaled into
# [CPU_FLOOR, 1] so slow devices do not divide by zero), plus a model upload
# and download of BYTES_PER_PARAM bytes per parameter over its bandwidth, plus
# ROUND_OVERHEAD_S of fixed round trip. Stragglers multiply their whole round
# time by the scenario slowdown, less the method's partial_work share.
WORK_S_PER_SAMPLE = 2.5e-5  # seconds per sample-epoch at full speed
BYTES_PER_PARAM = 8
ROUND_OVERHEAD_S = 1.0
CPU_FLOOR = 0.1


def _clock(scenario: Scenario, sizes: np.ndarray, round_index: int) -> LatencyReport:
    """The timing model's bill for one round: every training round and every
    simulate_latency call is billed here.

    Its parts, which the straggler sweep calls apart to share the method-free
    ones: _base_times, each client's time from its profile and data size; for a
    clustered method, _cluster_round's partition; and _bill, the method's
    slowdown and synchronization. _fleet builds the fleet here and in the sweep.
    """
    fleet = _fleet(scenario, scenario.straggler_fraction)
    base = _base_times(scenario, fleet[0], sizes)
    clustered = METHODS[scenario.method].clustered
    partition = _cluster_round(scenario, [fleet], round_index)[0] if clustered else None
    return _bill(scenario, scenario.method, fleet[1], base, partition)


def _base_times(scenario: Scenario, profiles: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each client's round time before any straggler slowdown, from the cost constants
    above; the method and the straggler set enter nowhere. The model it ships has the
    dataset's shape (a CSV's width is its header minus the label)."""
    cpu_norm = minmax_scale(profiles[:, :1])[:, 0]
    cpu = CPU_FLOOR + (1.0 - CPU_FLOOR) * cpu_norm
    compute = scenario.train_cfg.local_epochs * sizes * WORK_S_PER_SAMPLE / cpu
    source = scenario.dataset.source
    bytes_per_round = 2.0 * source.num_classes * (source.num_features + 1) * BYTES_PER_PARAM
    comm = bytes_per_round / (profiles[:, 2] * 1e6 / 8.0)
    return compute + comm + ROUND_OVERHEAD_S


def _bill(
    scenario: Scenario,
    method: str,
    stragglers: np.ndarray,
    base: np.ndarray,
    partition: tuple[np.ndarray, np.ndarray] | None,
) -> LatencyReport:
    """The named method's bill on a fleet with these stragglers and base times; scenario.method
    and scenario.straggler_fraction are not read. A clustered bill reads the fleet's partition
    from _cluster_round: each cluster waits on its slowest participant (a client at or above
    the participation floor), and the bill is their participation-mass-weighted mean plus
    one cloud join overhead."""
    spec = METHODS[method]
    times = base.copy()
    slowdown = scenario.straggler_slowdown
    if spec.partial_work:  # a share of 0 leaves a huge slowdown's bits as they are
        slowdown = 1.0 + (slowdown - 1.0) * (1.0 - spec.partial_work)
    times[stragglers] *= slowdown
    if not spec.clustered:
        return LatencyReport(float(times.max()))
    memberships, normalized = partition
    floor = scenario.cluster_cfg.participation_floor
    member = memberships >= floor
    participants = [np.flatnonzero(column) for column in member.T]
    # the floor is above 0, so a cluster without participants is exactly one of
    # mass 0: it bills 0.0 here and is left out of the mean below (a masked max
    # is exact in any order, unlike the sum)
    per_cluster = np.where(member, times[:, None], 0.0).max(axis=0)
    # gathered, not masked over all clients: a masked sum adds in another order
    # and moves the reported latency in its last bits
    mass = np.array([memberships[idx, k].sum() for k, idx in enumerate(participants)])
    busy = mass > 0
    sync = float((mass[busy] * per_cluster[busy]).sum() / mass[busy].sum() + ROUND_OVERHEAD_S)
    return LatencyReport(sync, memberships, normalized, participants, tuple(per_cluster.tolist()))


def simulate_latency(scenario: Scenario, sizes: np.ndarray) -> LatencyReport:
    """Round 0's bill of the timing model, partition included, without any training.

    sizes holds each client's data size, in client order: num_clients finite,
    non-negative numbers.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.shape != (scenario.num_clients,):
        raise ValueError(f"sizes must have shape ({scenario.num_clients},), got {sizes.shape}")
    if not (np.isfinite(sizes).all() and (sizes >= 0).all()):
        raise ValueError("sizes must be finite and non-negative")
    return _clock(scenario, sizes, round_index=0)


def _edge(states: list[TrainingState]) -> list[list[ModelParams]]:
    """Edge tier: every client trains every state's global model (the states differ only in
    method) in one stack_train call, or a lone state's in local_train or prox_local_train."""
    lead, cfg = states[0], states[0].scenario.train_cfg
    models = [state.global_model for state in states]
    anchors = [s.global_model if METHODS[s.scenario.method].proximal else None for s in states]
    batches = [client.train for client in lead.clients]
    seeds = [_derived_seed(lead.scenario.seed, _TAG_TRAIN, lead.round_index, client.client_id)
             for client in lead.clients]
    if len(states) > 1:
        return [list(column) for column in zip(*stack_train(models, anchors, batches, cfg, seeds))]
    if anchors[0] is None:
        return [[local_train(models[0], data, cfg, seed) for data, seed in zip(batches, seeds)]]
    return [[prox_local_train(models[0], anchors[0], data, cfg, seed)
             for data, seed in zip(batches, seeds)]]


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
    pool = LabeledBatch.concatenate(batches)
    resource = float(
        scenario.cluster_cfg.weights.as_array() @ normalized[participants].mean(axis=0)
    )
    old_state = replace(state.calib_states[k], resource_index=resource)
    # calibrate scores the pool once, into probs, and the gate reuses them
    probs = np.empty((len(pool), cluster_model.params.num_classes))
    calibrated, new_state = calibrate(
        cluster_model, pool, old_state, scenario.calib_cfg, out=probs
    )
    decisions = predict_with_calibration(calibrated, pool.features, probs=probs)
    attack = scenario.resolved_attack_classes()
    counts = confusion(decisions.labels, pool.labels, attack, scenario.dataset.num_classes)
    rates = classification_metrics(counts)
    state.calib_states[k] = replace(new_state, recent_fnr=rates.fnr, recent_fpr=rates.fpr)
    return calibrated.confidence, calibrated.threshold, rates.fnr, rates.fpr


def _fog(
    state: TrainingState, updated: list[ModelParams]
) -> tuple[ModelParams, float, tuple[ClusterRoundStat, ...]]:
    """Fog and cloud tiers: the next global model, sync latency and cluster stats. A flat
    method pools the updates by data size; a clustered one reduces each cluster of _clock's
    partition by membership, calibrates it and blends the cluster models in the cloud."""
    scenario = state.scenario
    sizes = np.array([c.size for c in state.clients], dtype=np.float64)
    bill = _clock(scenario, sizes, state.round_index)
    if not METHODS[scenario.method].clustered:
        return weighted_average(updated, sizes), bill.sync_latency_s, ()

    cluster_models: list[ClusterModel] = []
    stats: list[ClusterRoundStat] = []
    for k, idx in enumerate(bill.participants):
        if idx.size == 0:
            continue
        cluster_model = cluster_aggregate(
            [(updated[i], float(bill.memberships[i, k]), int(sizes[i])) for i in idx]
        )
        gate = _calibrate_cluster(state, k, cluster_model, idx, bill.normalized)
        stats.append(ClusterRoundStat(k, int(idx.size), *gate, latency_s=bill.per_cluster_s[k]))
        cluster_models.append(cluster_model)
    if not cluster_models:
        raise RuntimeError("no cluster had any participants")
    return global_aggregate(cluster_models), bill.sync_latency_s, tuple(stats)


def holdout_confusion(
    scenario: Scenario,
    model: ModelParams,
    holdout: LabeledBatch,
    *,
    probs: np.ndarray | None = None,
) -> ConfusionCounts:
    """The confusion counts of the model's argmax decisions on the holdout.

    probs, when given, is the holdout's predict_proba under the model.
    """
    decisions = argmax_decisions(model, holdout.features, probs=probs)
    attack = scenario.resolved_attack_classes()
    return confusion(decisions, holdout.labels, attack, scenario.dataset.num_classes)


def _evaluate(state: TrainingState) -> tuple[float, MetricReport]:
    """Holdout loss and argmax rates of the global model; NaN without a holdout.

    loss scores the holdout once and leaves its probabilities in probs for
    the argmax decisions.
    """
    if state.holdout is None:
        return float("nan"), MetricReport(*(float("nan"),) * len(RATE_NAMES))
    model, holdout = state.global_model, state.holdout
    probs = np.empty((len(holdout), model.num_classes))
    test_loss = loss(model, holdout, out=probs)
    counts = holdout_confusion(state.scenario, model, holdout, probs=probs)
    return test_loss, classification_metrics(counts)


def run_round(state: TrainingState, scenario: Scenario) -> tuple[TrainingState, RoundReport]:
    """One synchronous round (edge, fog, evaluate): run_lockstep's one-state case. scenario
    must equal state.scenario; returns the state, mutated in place, and the round's report."""
    if scenario != state.scenario:
        raise ValueError("run_round was given a scenario other than state.scenario")
    return state, run_lockstep([state], 1)[0][0]


def run_lockstep(states: list[TrainingState], rounds: int) -> list[list[RoundReport]]:
    """Each state's reports of rounds more rounds, run together: the states share one scenario
    but for its method, one round index and one client list (init_state's data), so one call
    trains every model on every client, then each state runs its own fog and evaluation. Each
    state, mutated in place, ends and reports as run_training's would, byte for byte."""
    if not states:
        raise ValueError("run_lockstep needs at least one state in states")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if len({id(state) for state in states}) < len(states):
        raise ValueError("states holds one state more than once")
    lead = states[0]
    for state in states[1:]:
        if (replace(state.scenario, method=lead.scenario.method) != lead.scenario
                or state.round_index != lead.round_index or state.clients is not lead.clients):
            raise ValueError("lockstep states must differ only in method")
    reports: list[list[RoundReport]] = [[] for _ in states]
    for _ in range(rounds):
        for state, log, updated in zip(states, reports, _edge(states)):
            state.global_model, sync, cluster_stats = _fog(state, updated)
            state.round_index += 1
            test_loss, rates = _evaluate(state)
            rates = {name: getattr(rates, name) for name in RATE_NAMES}
            log.append(RoundReport(state.round_index - 1, test_loss, **rates,
                                   sync_latency_s=sync, cluster_stats=cluster_stats))
    return reports


def run_training(
    scenario: Scenario,
    return_state: bool = False,
    data: tuple[list[ClientDataset], LabeledBatch | None] | None = None,
) -> list[RoundReport] | tuple[list[RoundReport], TrainingState]:
    """Run the configured method for exactly scenario.rounds rounds.

    The holdout is scored every round and never steers training. Set
    return_state to also receive the final state (global model, calibration
    states). data is passed to init_state.
    """
    state = init_state(scenario, data)
    reports = run_lockstep([state], scenario.rounds)[0]
    return (reports, state) if return_state else reports


def _scaled_scenario(scenario: Scenario, num_clients: int) -> Scenario:
    """The scenario at num_clients clients.

    At its own client count the scenario keeps its fleet and clusters. At
    another count it gets clusters_for_clients' budget, and a synthetic
    source keeps its rows per client.
    """
    if num_clients == scenario.num_clients:
        return scenario
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
        dataset=dataset,
    )


def straggler_metrics(
    scenario: Scenario,
    fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3),
    client_counts: tuple[int, ...] = (20, 50, 80, 100),
    methods: tuple[str, ...] = tuple(METHODS),
    loaded: LabeledBatch | None = None,
) -> dict[str, dict[int, dict[float, dict[str, float]]]]:
    """Latency-only straggler sweep.

    For every method, client count, and straggler fraction, computes the
    per-round synchronization latency of the timing model (no training) and
    reports relative_pct = 100 * T(fraction) / T(0) and sme = T(0) /
    T(fraction), the straggler mitigation effectiveness. Client data sizes
    are held uniform so the sweep isolates hardware heterogeneity and
    straggler effects from partition skew: each of n clients bills the
    pool's rows per client, pool_rows / n, and no fewer than the rows a
    client is topped up to, rounded to a whole row. The size depends on no
    partition draw; a synthetic source is counted, not generated, and a CSV
    source's pool, the same at every count, is loaded once, or passed as loaded.
    At the scenario's own client count the sweep bills the scenario's own
    fleet, clusters included.

    Each cell is the bill simulate_latency gives the scaled scenario at that method and
    fraction, through _clock's two halves: the base times once per client count, the fleet
    once per count and distinct fraction (0.0 first), one stacked fit of those fleets if a
    method is clustered, then each method's bill.
    """
    if len(set(methods)) < len(methods) or not METHODS.keys() >= set(methods):
        raise ValueError(f"methods must be distinct names of {tuple(METHODS)}, got {methods}")
    for n in client_counts:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"client_counts must hold ints >= 1, got {n!r}")
    for fraction in fractions:
        if not 0.0 <= fraction < 1.0:  # Scenario.straggler_fraction's range
            raise ValueError(f"fractions must lie in [0, 1), got {fraction!r}")
    clustered = any(METHODS[method].clustered for method in methods)
    csv_rows = None
    if not isinstance(scenario.dataset.source, SyntheticSource):
        csv_rows = scenario.dataset.pool_rows(loaded)
    billed = tuple(dict.fromkeys((0.0, *fractions)))
    out: dict[str, dict[int, dict[float, dict[str, float]]]] = {m: {} for m in methods}
    for n in client_counts:
        scaled = _scaled_scenario(scenario, n)
        rows = scaled.dataset.pool_rows() if csv_rows is None else csv_rows
        sizes = np.full(n, round(max(rows / n, _min_samples(scaled))), dtype=np.float64)
        fleets = [_fleet(scaled, fraction) for fraction in billed]
        # the profiles, unlike the stragglers, are the same at every fraction
        base = _base_times(scaled, fleets[0][0], sizes)
        partitions = _cluster_round(scaled, fleets, 0) if clustered else [None] * len(fleets)
        for method in methods:
            sync = {
                fraction: _bill(scaled, method, stragglers, base, partition).sync_latency_s
                for fraction, (_, stragglers), partition in zip(billed, fleets, partitions)
            }
            out[method][n] = {
                fraction: {
                    "sync_latency_s": sync[fraction],
                    "relative_pct": 100.0 * sync[fraction] / sync[0.0],
                    "sme": sync[0.0] / sync[fraction],
                }
                for fraction in fractions
            }
    return out
