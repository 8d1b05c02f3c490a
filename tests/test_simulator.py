"""Tests for scenario construction, the round loop, and the timing model.

The reduction tests pin down the protocol algebra: with one cluster, equal
hardware, equal data volumes and no proximal pull, the clustered method must
reproduce the flat baselines bit for bit, because every aggregation path
collapses to the same normalized weights.
"""

import hashlib
import json
import math
import re
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

from cfhfc import (
    ARCHETYPES,
    CalibrationConfig,
    ClusterConfig,
    CsvSource,
    DatasetSpec,
    HardwareProfile,
    Scenario,
    SyntheticSource,
    TrainConfig,
    build_scenario,
    clusters_for_clients,
    init_state,
    local_train,
    run_lockstep,
    run_round,
    run_training,
    simulate_latency,
    straggler_metrics,
    update_confidence,
)
from cfhfc import data as data_module
from cfhfc import model as model_module
from cfhfc import cli, simulator
from cfhfc.simulator import METHODS, _TAG_TRAIN, Method, _derived_seed, materialize_scenario

GOLDEN = Path(__file__).parent / "golden"

SMALL_SOURCE = SyntheticSource(num_classes=4, num_features=8, samples_per_class=200)


def small_scenario(method="fedavg", seed=0, rho=0.0, num_clusters=1, rounds=3,
                   num_clients=4, learning_rate=0.05, archetype_mix=None,
                   separation=3.0, calib_enabled=True, scenario_rounds=None):
    """Fast equal-size scenario: the shard partition divides cleanly, so all
    four clients hold exactly 160 rows."""
    source = SMALL_SOURCE
    if separation != 3.0:
        source = SyntheticSource(num_classes=4, num_features=8,
                                 samples_per_class=200,
                                 class_separation=separation)
    dataset = DatasetSpec(
        source=source,
        partition="by_class_shards",
        shards_per_client=2,
        calibration_fraction=0.1,
        holdout_fraction=0.2,
        seed=seed,
    )
    return Scenario(
        num_clients=num_clients,
        num_clusters=num_clusters,
        rounds=rounds if scenario_rounds is None else scenario_rounds,
        method=method,
        seed=seed,
        archetype_mix=archetype_mix or (("pi4", 1.0),),
        dataset=dataset,
        train_cfg=TrainConfig(learning_rate=learning_rate, batch_size=32,
                              local_epochs=2, dropout_rate=0.1,
                              proximal_coeff=rho),
        calib_cfg=CalibrationConfig(enabled=calib_enabled),
    )


def jittered_scenario(method):
    """Six clients of three archetypes, two clusters, stragglers and profile
    jitter: every round's clustering differs."""
    mix = (("pi3", 1.0 / 3.0), ("pi4", 1.0 / 3.0), ("pi400", 1.0 / 3.0))
    return replace(
        small_scenario(method=method, num_clusters=2, num_clients=6, archetype_mix=mix),
        straggler_fraction=0.3,
        cluster_cfg=ClusterConfig(profile_jitter=0.1),
    )


def final_models_equal(a, b):
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.biases, b.biases)


class TestScenarioConstruction:
    def test_preset_shapes(self):
        for preset, clients, clusters, spc in (
            ("scenario1", 20, 4, 10000),
            ("scenario2", 50, 8, 25000),
            ("scenario3", 80, 12, 40000),
        ):
            s = build_scenario(preset)
            assert s.num_clients == clients
            assert s.num_clusters == clusters
            assert s.dataset.source.samples_per_class == spc

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            build_scenario("scenario9")

    def test_seed_reaches_dataset(self):
        s = build_scenario("scenario1", seed=42)
        assert s.seed == 42
        assert s.dataset.seed == 42

    def test_explicit_dataset_keeps_its_own_seed(self):
        dataset = DatasetSpec(source=SMALL_SOURCE, seed=7)
        s = build_scenario("scenario1", seed=42, dataset=dataset)
        assert s.seed == 42
        assert s.dataset.seed == 7

    def test_cluster_count_rule(self):
        assert clusters_for_clients(20) == 4
        assert clusters_for_clients(50) == 8
        assert clusters_for_clients(80) == 12
        assert clusters_for_clients(100) == 15
        assert clusters_for_clients(1) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="clusters"):
            small_scenario(num_clusters=5, num_clients=4)
        with pytest.raises(ValueError, match="method"):
            small_scenario(method="fedsgd")
        with pytest.raises(ValueError, match="sum to 1"):
            small_scenario(archetype_mix=(("pi4", 0.5),))
        # a negative share would deal a negative number of devices
        with pytest.raises(ValueError, match=r"fractions must lie in \[0, 1\]"):
            small_scenario(archetype_mix=(("pi3", 1.5), ("pi4", -0.5)))
        with pytest.raises(ValueError, match="unknown archetype 'rack_server'"):
            small_scenario(archetype_mix=(("rack_server", 1.0),))

    def test_duplicate_archetype_is_rejected(self):
        """A name listed twice would resolve to one dict entry holding half
        the mix, which the config reader then refuses."""
        with pytest.raises(ValueError, match="archetype 'pi3' is listed more than once"):
            Scenario(archetype_mix=(("pi3", 0.5), ("pi3", 0.5)))
        with pytest.raises(ValueError, match="'pi4' is listed more than once"):
            build_scenario("scenario1", archetype_mix=(("pi4", 0.25), ("pi3", 0.5), ("pi4", 0.25)))

    def test_every_float_field_rejects_non_finite_values(self):
        """Every config dataclass reachable from Scenario rejects NaN and inf in
        each of its float fields, naming the field first; so does archetype_mix."""
        classes, todo = set(), [Scenario]
        while todo:
            cls = todo.pop()
            classes.add(cls)
            for hint in get_type_hints(cls).values():
                todo += [h for h in get_args(hint) or (hint,) if is_dataclass(h)]
        checked = set()
        for cls in classes:
            hints = get_type_hints(cls)
            for name in (f.name for f in fields(cls) if hints[f.name] is float):
                for value in (math.nan, math.inf, -math.inf):
                    with pytest.raises(ValueError, match=f"^{name} must"):
                        cls(**{name: value})
                checked.add(f"{cls.__name__}.{name}")
        # the walk reaches a union member and a section two levels down
        assert {"SyntheticSource.class_separation", "ResourceWeights.cpu"} <= checked
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^archetype_mix fractions must lie in"):
                Scenario(archetype_mix=(("pi3", value), ("pi4", 0.5), ("pi400", 0.5)))

    def test_default_attack_classes(self):
        s = small_scenario()
        assert s.resolved_attack_classes() == frozenset({1, 2, 3})
        explicit = Scenario(
            num_clients=4, num_clusters=1, rounds=1, method="fedavg", seed=0,
            dataset=DatasetSpec(source=SMALL_SOURCE),
            attack_classes=(2,),
        )
        assert explicit.resolved_attack_classes() == frozenset({2})

    def test_archetype_profiles_are_increasing(self):
        pi3, pi4, pi400 = (HardwareProfile(*ARCHETYPES[n]) for n in ("pi3", "pi4", "pi400"))
        assert pi3.cpu_ghz < pi4.cpu_ghz < pi400.cpu_ghz
        assert pi3.bandwidth_mbps < pi4.bandwidth_mbps < pi400.bandwidth_mbps


class TestInitState:
    def test_zero_model_and_bookkeeping(self):
        scenario = small_scenario(num_clusters=2, num_clients=4, method="cfhfc")
        state = init_state(scenario)
        assert (state.global_model.weights == 0).all()
        assert (state.global_model.biases == 0).all()
        assert state.global_model.num_classes == 4
        assert len(state.clients) == 4
        assert len(state.calib_states) == 2
        assert all(
            cs.confidence == scenario.calib_cfg.initial_confidence
            for cs in state.calib_states
        )
        assert state.round_index == 0
        assert state.holdout is not None

    def test_equal_client_sizes_under_shard_partition(self):
        state = init_state(small_scenario())
        sizes = [c.size for c in state.clients]
        assert sizes == [160, 160, 160, 160]


class TestRoundLoop:
    def test_zero_rounds(self):
        assert run_training(small_scenario(rounds=0)) == []

    def test_round_rejects_a_scenario_other_than_the_states(self):
        scenario = small_scenario()
        state = init_state(scenario)
        with pytest.raises(ValueError, match="state.scenario"):
            run_round(state, replace(scenario, seed=1))
        assert state.round_index == 0
        state, report = run_round(state, replace(scenario))  # equal, not identical
        assert report.round_index == 0

    def test_deterministic_reports(self):
        scenario = small_scenario(method="cfhfc", num_clusters=2, rounds=2)
        a = run_training(scenario)
        b = run_training(scenario)
        assert a == b

    def test_methods_share_read_only_data(self):
        """compare materializes once and trains every method on that data:
        frozen, it gives each method the reports and model of its own copy."""
        scenario = small_scenario(method="cfhfc", num_clusters=2, rounds=2)
        clients, holdout = materialize_scenario(scenario)
        batches = [holdout, *(c.train for c in clients), *(c.calibration for c in clients)]
        for batch in batches:
            batch.features.flags.writeable = batch.labels.flags.writeable = False
        for method in METHODS:
            run = replace(scenario, method=method)
            shared, state = run_training(run, return_state=True, data=(clients, holdout))
            own, own_state = run_training(run, return_state=True)
            assert shared == own
            final_models_equal(state.global_model, own_state.global_model)

    def test_report_shape(self):
        reports = run_training(small_scenario(rounds=2))
        assert len(reports) == 2
        assert [r.round_index for r in reports] == [0, 1]
        for r in reports:
            assert 0.0 <= r.accuracy <= 1.0
            assert r.sync_latency_s > 0.0

    def test_single_client_round_is_broadcast_local_train(self):
        scenario = small_scenario(num_clients=1, num_clusters=1, rounds=1)
        state = init_state(scenario)
        start = state.global_model
        expected = local_train(
            start,
            state.clients[0].train,
            scenario.train_cfg,
            _derived_seed(scenario.seed, _TAG_TRAIN, 0, state.clients[0].client_id),
        )
        state, _ = run_round(state, scenario)
        final_models_equal(state.global_model, expected)

    def test_learnable_config_improves(self):
        scenario = small_scenario(rounds=5, separation=6.0)
        reports = run_training(scenario)
        assert reports[-1].global_loss < reports[0].global_loss
        assert reports[-1].accuracy >= reports[0].accuracy

    def test_frozen_model_trains_every_round(self):
        """A model that never moves still trains its full budget: the holdout
        is scored every round and never ends the run."""
        scenario = small_scenario(rounds=20, learning_rate=0.0)
        reports = run_training(scenario)
        assert [r.round_index for r in reports] == list(range(20))
        assert len({r.accuracy for r in reports}) == 1


class TestLayerCalls:
    """Each traced fog and metrics function runs once per use, through the
    simulator's globals; folding one into another would hide its layer."""

    COUNTED = ("fcm_fit", "calibrate", "predict_with_calibration", "confusion",
               "loss", "argmax_decisions", "simulate_latency")

    @classmethod
    def counted_calls(cls, monkeypatch) -> dict[str, int]:
        """Calls to each COUNTED simulator global from here on, by name."""
        calls = dict.fromkeys(cls.COUNTED, 0)

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in cls.COUNTED:
            monkeypatch.setattr(simulator, name, counting(name, getattr(simulator, name)))
        return calls

    def test_calls_per_jittered_round(self, monkeypatch):
        """A round bills itself without simulate_latency, so FCM runs once."""
        scenario = jittered_scenario("cfhfc")
        calls = self.counted_calls(monkeypatch)
        state = init_state(scenario)
        for _ in range(3):
            calls.update(dict.fromkeys(self.COUNTED, 0))
            state, report = run_round(state, scenario)
            gated = sum(stat.confidence is not None for stat in report.cluster_stats)
            assert gated == len(report.cluster_stats) >= 1
            assert calls == {
                "fcm_fit": 1,
                "calibrate": gated,
                "predict_with_calibration": gated,
                "confusion": gated + 1,
                "loss": 1,
                "argmax_decisions": 1,
                "simulate_latency": 0,
            }

    def test_sweep_bills_each_distinct_fraction_once(self, monkeypatch):
        """One fleet per client count and distinct fraction, 0.0 first; then one
        stacked FCM fit per count, whose slices are those fleets in that order;
        then each fleet billed once per method, with no fit inside any bill, no
        single fcm_fit and no simulate_latency call."""
        calls = self.counted_calls(monkeypatch)
        real_fleet, real_bill, real_stack = (
            simulator._fleet, simulator._bill, simulator.fcm_fit_stack)
        events, stacked = [], []

        def fleet(scenario, straggler_fraction):
            events.append(("fleet", scenario.num_clients, straggler_fraction))
            return real_fleet(scenario, straggler_fraction)

        def stack(points, *args, **kwargs):
            events.append(("stack", len(points[0]), len(points)))
            stacked.append(np.array(points))
            return real_stack(points, *args, **kwargs)

        def bill(scenario, method, *args):
            fits = calls["fcm_fit"] + len(stacked)
            report = real_bill(scenario, method, *args)
            events.append(("bill", scenario.num_clients, method,
                           calls["fcm_fit"] + len(stacked) - fits))
            return report

        monkeypatch.setattr(simulator, "_fleet", fleet)
        monkeypatch.setattr(simulator, "_bill", bill)
        monkeypatch.setattr(simulator, "fcm_fit_stack", stack)
        scenario = jittered_scenario("cfhfc")
        straggler_metrics(scenario, fractions=(0.5, 0.25, 0.5), client_counts=(6, 9))
        distinct = (0.0, 0.5, 0.25)
        assert events == [
            event
            for n in (6, 9)
            for event in [
                *(("fleet", n, fraction) for fraction in distinct),
                ("stack", n, len(distinct)),
                *(("bill", n, method, 0)
                  for method in ("cfhfc", "fedavg", "fedprox") for _ in distinct),
            ]
        ]
        assert calls["fcm_fit"] == 0
        assert calls["simulate_latency"] == 0
        monkeypatch.undo()
        for n, points in zip((6, 9), stacked):
            scaled = simulator._scaled_scenario(scenario, n)
            for fraction, slice_ in zip(distinct, points):
                alone = simulator._cluster_round(scaled, [simulator._fleet(scaled, fraction)], 0)
                assert slice_.tobytes() == alone[0][1].tobytes(), (n, fraction)

    def test_each_block_is_scored_once_per_round(self, monkeypatch):
        """Outside the edge tier a round computes logits once per gated
        cluster pool and once for the holdout, each over all of its rows."""
        scenario = jittered_scenario("cfhfc")
        scored, pools, in_edge = [], [], [False]
        real_logits, real_edge, real_calibrate = (
            model_module._logits, simulator._edge, simulator.calibrate)

        def logits(weights, biases, features, out=None):
            if not in_edge[0]:
                scored.append(len(features))
            return real_logits(weights, biases, features, out)

        def edge(states):
            in_edge[0] = True
            try:
                return real_edge(states)
            finally:
                in_edge[0] = False

        def calibrate(model, pool, *args, **kwargs):
            pools.append(len(pool))
            return real_calibrate(model, pool, *args, **kwargs)

        monkeypatch.setattr(model_module, "_logits", logits)
        monkeypatch.setattr(simulator, "_edge", edge)
        monkeypatch.setattr(simulator, "calibrate", calibrate)
        state = init_state(scenario)
        for _ in range(3):
            scored.clear()
            pools.clear()
            state, report = run_round(state, scenario)
            assert len(pools) == len(report.cluster_stats) >= 1
            assert scored == [*pools, len(state.holdout)]


def assert_same_model(a, b):
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.biases.tobytes() == b.biases.tobytes()


def pulled(scenario):
    """The scenario with a proximal pull, so that no two methods train alike."""
    return replace(scenario, train_cfg=replace(scenario.train_cfg, proximal_coeff=0.6))


def skewed_scenario():
    """Six Dirichlet clients (concentration 0.1) of 26 to 188 training rows at
    batch size 32: the smallest is below one minibatch."""
    scenario = small_scenario(num_clients=6, num_clusters=2, rounds=3)
    dataset = replace(scenario.dataset, partition="dirichlet", concentration=0.1,
                      calibration_fraction=0.6,
                      source=replace(SMALL_SOURCE, samples_per_class=600))
    return pulled(replace(scenario, dataset=dataset))


LOCKSTEP_SCENARIOS = {
    "six-clients": lambda: pulled(small_scenario(num_clients=6, num_clusters=2, rounds=3)),
    "stragglers-jitter": lambda: pulled(replace(jittered_scenario("cfhfc"), rounds=3)),
    "skewed-groups": skewed_scenario,
}


def recorded_groups(monkeypatch) -> list[list[int]]:
    """The client sizes of each model._sgd call from here on, in call order."""
    calls = []
    real = model_module._sgd

    def recording(params, anchors, batches, cfg, seeds):
        calls.append([len(b) for b in batches])
        return real(params, anchors, batches, cfg, seeds)

    monkeypatch.setattr(model_module, "_sgd", recording)
    return calls


class TestLockstep:
    @pytest.fixture
    def small_groups(self, monkeypatch):
        """A 512-row group budget: every scenario's clients train in several groups
        (skewed-groups: 188 and 169 rows, then 164, 138 and 88, then 26)."""
        monkeypatch.setattr(model_module, "_GROUP_ROWS", 512)

    @pytest.mark.parametrize("methods", [("fedprox", "cfhfc"), ("fedavg", "cfhfc", "fedprox")],
                             ids="-".join)
    @pytest.mark.parametrize("name", sorted(LOCKSTEP_SCENARIOS))
    def test_matches_per_method_run_training(self, name, methods, small_groups):
        """Each state's reports and final model, calibration included, are the
        bytes run_training gives its method alone."""
        scenario = LOCKSTEP_SCENARIOS[name]()
        data = materialize_scenario(scenario)
        states = [init_state(replace(scenario, method=m), data) for m in methods]
        logs = run_lockstep(states, scenario.rounds)
        for method, state, reports in zip(methods, states, logs):
            own, own_state = run_training(replace(scenario, method=method), return_state=True)
            assert reports == own
            assert state.round_index == own_state.round_index == scenario.rounds
            assert_same_model(state.global_model, own_state.global_model)
            assert state.calib_states == own_state.calib_states
        # the methods do train apart
        finals = {state.global_model.weights.tobytes() for state in states}
        assert len(finals) == len(methods)

    def test_skewed_clients_train_in_several_groups(self, small_groups, monkeypatch):
        scenario = skewed_scenario()
        data = materialize_scenario(scenario)
        states = [init_state(replace(scenario, method=m), data) for m in ("cfhfc", "fedavg")]
        groups = recorded_groups(monkeypatch)
        run_lockstep(states, 2)
        assert groups == [[188, 169], [164, 138, 88], [26]] * 2
        assert min(map(min, groups)) < scenario.train_cfg.batch_size

    def test_scenario1_compare_trains_once_per_client_group(self, monkeypatch):
        """Three methods at scenario1 train in 4 groups of at most 16,384 padded rows,
        not one call per client: 4,421 to 2,813 rows, 2,746 to 1,688, 1,427 to 230,
        and the other 230-row client."""
        scenario = build_scenario("scenario1", seed=0)
        scenario = replace(scenario, train_cfg=replace(scenario.train_cfg, local_epochs=0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the top-up warning
            data = materialize_scenario(scenario)
        states = [init_state(replace(scenario, method=m), data) for m in METHODS]
        groups = recorded_groups(monkeypatch)
        run_lockstep(states, 1)
        assert [len(group) for group in groups] == [3, 5, 11, 1]
        assert sum(groups, []) == sorted((len(c.train) for c in data[0]), reverse=True)

    def test_continues_states_a_round_at_a_time(self, small_groups):
        scenario = LOCKSTEP_SCENARIOS["six-clients"]()
        data = materialize_scenario(scenario)
        methods = ("cfhfc", "fedavg")
        states = [init_state(replace(scenario, method=m), data) for m in methods]
        logs = [run_lockstep(states, 1) for _ in range(scenario.rounds)]
        for i, method in enumerate(methods):
            own = run_training(replace(scenario, method=method))
            assert [log[i][0] for log in logs] == own

    @pytest.mark.parametrize("change", ["seed", "train_cfg", "clients", "round"])
    def test_rejects_states_that_differ_beyond_method(self, change):
        scenario = LOCKSTEP_SCENARIOS["six-clients"]()
        data = materialize_scenario(scenario)
        other = replace(scenario, method="fedavg")
        if change == "seed":
            other = replace(other, seed=scenario.seed + 1)
        elif change == "train_cfg":
            other = replace(other, train_cfg=replace(other.train_cfg, local_epochs=1))
        states = [init_state(scenario, data),
                  init_state(other, None if change == "clients" else data)]
        if change == "round":
            run_round(states[1], other)
        with pytest.raises(ValueError, match="differ only in method"):
            run_lockstep(states, 1)
        assert states[0].round_index == 0

    def test_rejects_no_states_and_negative_rounds(self):
        with pytest.raises(ValueError, match="at least one state in states"):
            run_lockstep([], 1)
        scenario = LOCKSTEP_SCENARIOS["six-clients"]()
        state = init_state(scenario)
        before = state.global_model.copy()
        with pytest.raises(ValueError, match="rounds must be >= 0, got -1"):
            run_lockstep([state], -1)
        assert state.round_index == 0
        assert_same_model(state.global_model, before)
        assert run_lockstep([state], 0) == [[]]

    def test_rejects_a_state_given_twice(self):
        """One state twice would train once and run two fogs on it, the second blending
        updates trained from the first one's model."""
        state = init_state(LOCKSTEP_SCENARIOS["six-clients"]())
        before = state.global_model.copy()
        with pytest.raises(ValueError, match="one state more than once"):
            run_lockstep([state, state], 1)
        assert state.round_index == 0
        assert_same_model(state.global_model, before)


class TestMethodReductions:
    def test_fedprox_zero_coeff_equals_fedavg(self):
        """Criterion: with no proximal pull the two baselines share every
        random draw and every reduction, so they agree bit for bit."""
        for seed in range(10):
            avg = run_training(
                small_scenario(method="fedavg", seed=seed, rho=0.0),
                return_state=True,
            )
            prox = run_training(
                small_scenario(method="fedprox", seed=seed, rho=0.0),
                return_state=True,
            )
            assert [r.accuracy for r in avg[0]] == [r.accuracy for r in prox[0]]
            assert [r.global_loss for r in avg[0]] == [r.global_loss for r in prox[0]]
            final_models_equal(avg[1].global_model, prox[1].global_model)

    def test_single_cluster_equal_hardware_equals_fedavg(self):
        """One cluster, identical devices, equal data volumes, no proximal
        pull: memberships are all one, so the fog reduction has the same
        normalized weights as the size-weighted baseline."""
        for seed in range(10):
            clustered = run_training(
                small_scenario(method="cfhfc", seed=seed, rho=0.0),
                return_state=True,
            )
            flat = run_training(
                small_scenario(method="fedavg", seed=seed, rho=0.0),
                return_state=True,
            )
            assert [r.accuracy for r in clustered[0]] == [
                r.accuracy for r in flat[0]
            ]
            final_models_equal(clustered[1].global_model, flat[1].global_model)

    def test_single_cluster_with_prox_equals_fedprox(self):
        for seed in range(3):
            clustered = run_training(
                small_scenario(method="cfhfc", seed=seed, rho=0.6),
                return_state=True,
            )
            prox = run_training(
                small_scenario(method="fedprox", seed=seed, rho=0.6),
                return_state=True,
            )
            assert [r.accuracy for r in clustered[0]] == [
                r.accuracy for r in prox[0]
            ]
            final_models_equal(clustered[1].global_model, prox[1].global_model)

    def test_calibration_never_touches_the_model(self):
        """Toggling calibration changes cluster statistics only."""
        on = run_training(
            small_scenario(method="cfhfc", num_clusters=2, calib_enabled=True),
            return_state=True,
        )
        off = run_training(
            small_scenario(method="cfhfc", num_clusters=2, calib_enabled=False),
            return_state=True,
        )
        assert [r.accuracy for r in on[0]] == [r.accuracy for r in off[0]]
        final_models_equal(on[1].global_model, off[1].global_model)
        stats_on = on[0][0].cluster_stats
        assert any(s.confidence is not None for s in stats_on)
        assert all(s.confidence is None for s in off[0][0].cluster_stats)


def scenario_outputs(scenario, names):
    """Each named method's reports and rounds.csv header and rows after 2 rounds, and
    its sweep cells, as text, so that equal outputs are equal bytes."""
    sweep = straggler_metrics(replace(scenario, method=names[0]), fractions=(0.0, 0.5),
                              client_counts=(6, 9), methods=tuple(names))
    outputs = []
    for name, cells in zip(names, sweep.values()):
        method_scenario = replace(scenario, method=name)
        reports = run_training(method_scenario)
        outputs.append((repr(reports), repr(cli._rounds_rows(method_scenario, reports)),
                        repr(cells)))
    return outputs


class TestMethodTable:
    """METHODS is the one place where a method name means anything."""

    def test_renamed_rows_give_the_same_bytes(self, monkeypatch):
        scenario = pulled(replace(jittered_scenario("cfhfc"), rounds=2))
        original = scenario_outputs(scenario, ("cfhfc", "fedavg", "fedprox"))
        renamed = {"hier": METHODS["cfhfc"], "flat": METHODS["fedavg"],
                   "anchored": METHODS["fedprox"]}
        # cli imports the table by name, so both bindings are the renamed table
        monkeypatch.setattr(simulator, "METHODS", renamed)
        monkeypatch.setattr(cli, "METHODS", renamed)
        assert scenario_outputs(scenario, ("hier", "flat", "anchored")) == original
        with pytest.raises(ValueError, match="method must be one of"):
            replace(scenario, method="cfhfc")

    def test_a_new_row_runs_from_the_table_alone(self, monkeypatch):
        """cfhfc without the proximal pull: fedavg's edge, cfhfc's bill and fog."""
        monkeypatch.setitem(METHODS, "cfhfc-plain", Method(proximal=False, clustered=True))
        scenario = pulled(replace(jittered_scenario("cfhfc"), rounds=2))
        data = materialize_scenario(scenario)
        states = {m: init_state(replace(scenario, method=m), data)
                  for m in ("cfhfc-plain", "fedavg", "cfhfc")}
        edge = {m: simulator._edge([state])[0] for m, state in states.items()}
        for new, plain, pulled_model in zip(*edge.values()):
            assert_same_model(new, plain)
            assert new.weights.tobytes() != pulled_model.weights.tobytes()
        sizes = np.array([c.size for c in data[0]], dtype=np.float64)
        new_bill, cfhfc_bill = (simulate_latency(states[m].scenario, sizes)
                                for m in ("cfhfc-plain", "cfhfc"))
        assert repr(new_bill) == repr(cfhfc_bill)
        sweep = straggler_metrics(scenario, fractions=(0.0, 0.5), client_counts=(6, 9),
                                  methods=("cfhfc-plain", "cfhfc"))
        assert repr(sweep["cfhfc-plain"]) == repr(sweep["cfhfc"])
        new_scenario = states["cfhfc-plain"].scenario
        reports = run_training(new_scenario)
        assert all(r.cluster_stats for r in reports)
        assert cli._rounds_rows(new_scenario, reports)[0] == cli._rounds_rows(
            states["cfhfc"].scenario, reports)[0]


class TestCalibrationWiring:
    """The scenario's calibration config is what the gate reads each round."""

    @staticmethod
    def gated_rounds(calib_cfg, rounds=2):
        """Each round's cluster stats, with the calibration states it started from."""
        scenario = replace(small_scenario(method="cfhfc", num_clusters=2), calib_cfg=calib_cfg)
        state = init_state(scenario)
        out = []
        for _ in range(rounds):
            before = list(state.calib_states)
            state, report = run_round(state, scenario)
            assert report.cluster_stats
            out.append((before, report.cluster_stats))
        return out

    def test_zero_sensitivities_hold_the_initial_confidence(self):
        cfg = CalibrationConfig(initial_confidence=0.8, fnr_sensitivity=0.0,
                                fpr_sensitivity=0.0, resource_sensitivity=0.0)
        for _, stats in self.gated_rounds(cfg):
            assert all(stat.confidence == 0.8 for stat in stats)

    def test_fnr_sensitivity_reaches_the_update(self):
        cfg = CalibrationConfig(initial_confidence=0.8, fnr_sensitivity=1.0,
                                fpr_sensitivity=0.0, resource_sensitivity=0.0)
        moved = False
        for before, stats in self.gated_rounds(cfg):
            for stat in stats:
                expected = update_confidence(before[stat.cluster_id], cfg)
                assert stat.confidence == expected
                moved |= expected != 0.8
        assert moved


class TestGoldenTraces:
    """Regression pins: three-round traces recorded from this implementation
    on this platform. Any drift in data generation, seeding, training, or
    aggregation order shows up here first."""

    EXPECTED = {
        "cfhfc": (
            (0.80625, 0.7625, 0.78125),
            (1.3769903508151888, 1.3682912310846418, 1.3605808874208543),
        ),
        "fedavg": (
            (0.78125, 0.75625, 0.79375),
            (1.3756220099617775, 1.3656780703102966, 1.3566893384076195),
        ),
        "fedprox": (
            (0.80625, 0.7625, 0.78125),
            (1.3769903508151888, 1.3682912310846418, 1.3605808874208543),
        ),
    }

    @pytest.mark.parametrize("method", sorted(EXPECTED))
    def test_three_round_trace(self, method):
        clusters = 2 if method == "cfhfc" else 1
        reports = run_training(
            small_scenario(method=method, seed=0, rho=0.6, num_clusters=clusters)
        )
        want_acc, want_loss = self.EXPECTED[method]
        got_acc = tuple(r.accuracy for r in reports)
        got_loss = tuple(r.global_loss for r in reports)
        np.testing.assert_allclose(got_acc, want_acc, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_loss, want_loss, rtol=0, atol=1e-12)

    def test_heterogeneous_cluster_trace(self):
        mix = (("pi3", 1.0 / 3.0), ("pi4", 1.0 / 3.0), ("pi400", 1.0 / 3.0))
        reports = run_training(
            small_scenario(method="cfhfc", seed=0, rho=0.6, num_clusters=2,
                           num_clients=6, archetype_mix=mix)
        )
        got_acc = tuple(r.accuracy for r in reports)
        got_loss = tuple(r.global_loss for r in reports)
        np.testing.assert_allclose(got_acc, (0.275, 0.275, 0.36875),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            got_loss,
            (1.379554814563051, 1.3735546139726396, 1.3693614507412528),
            rtol=0, atol=1e-12,
        )
        assert reports[0].sync_latency_s == pytest.approx(2.0537304, abs=1e-9)

    @pytest.mark.parametrize("method", ["cfhfc", "fedavg"])
    def test_scenario1_edge_matches_golden(self, method):
        # every client's sha256 of weights.tobytes() + biases.tobytes() after the
        # edge tier of scenario1's rounds 0 and 1 at seed 0: 20 clients of
        # 2,000-odd rows, 20 epochs of 128-row minibatches, pulled toward the
        # zero model and then toward a trained one
        golden = json.loads((GOLDEN / "edge_scenario1.json").read_text())[method]
        assert edge_digests(method) == golden


def edge_digests(method: str) -> list[list[str]]:
    """Per round (0 and 1), one hex digest per client of its model after the
    edge tier of scenario1 at seed 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # scenario1 tops clients up
        state = init_state(build_scenario("scenario1", seed=0, method=method))
    rounds = []
    for _ in range(2):
        rounds.append([
            hashlib.sha256(m.weights.tobytes() + m.biases.tobytes()).hexdigest()
            for m in simulator._edge([state])[0]
        ])
        state, _ = run_round(state, state.scenario)
    return rounds


class TestLatencyModel:
    MIX = (("pi3", 1.0 / 3.0), ("pi4", 1.0 / 3.0), ("pi400", 1.0 / 3.0))

    def test_identical_clients_differ_only_by_join_overhead(self):
        sizes = np.full(4, 160.0)
        clustered = simulate_latency(
            small_scenario(method="cfhfc", num_clusters=1), sizes=sizes
        )
        flat = simulate_latency(small_scenario(method="fedavg"), sizes=sizes)
        overhead = simulator.ROUND_OVERHEAD_S
        assert clustered.sync_latency_s == pytest.approx(
            flat.sync_latency_s + overhead, abs=1e-9
        )

    def test_slow_outlier_is_contained_by_clustering(self, monkeypatch):
        """Five fast devices plus one slow one: the baseline waits on the
        slow device, the clustered method mostly waits on the fast cluster."""
        mix = (("pi3", 1.0 / 6.0), ("pi400", 5.0 / 6.0))
        monkeypatch.setattr(simulator, "WORK_S_PER_SAMPLE", 0.01)
        sizes = np.full(6, 2000.0)
        common = dict(num_clients=6, archetype_mix=mix)
        clustered_scenario = small_scenario(method="cfhfc", num_clusters=2, **common)
        flat_scenario = small_scenario(method="fedavg", **common)
        clustered = simulate_latency(clustered_scenario, sizes=sizes)
        flat = simulate_latency(flat_scenario, sizes=sizes)
        assert clustered.sync_latency_s < 0.5 * flat.sync_latency_s

    def test_cluster_sync_never_beats_slowest_by_more_than_structure_allows(self):
        """The mass-weighted mean of cluster maxima plus one join overhead
        can never exceed the global maximum plus that overhead."""
        for seed in range(5):
            scenario = small_scenario(
                method="cfhfc", num_clusters=2, num_clients=6, seed=seed,
                archetype_mix=self.MIX,
            )
            sizes = np.full(6, 160.0)
            clustered = simulate_latency(scenario, sizes=sizes)
            flat_scenario = small_scenario(
                method="fedavg", num_clients=6, seed=seed, archetype_mix=self.MIX
            )
            flat = simulate_latency(flat_scenario, sizes=sizes)
            overhead = simulator.ROUND_OVERHEAD_S
            assert (
                clustered.sync_latency_s
                <= flat.sync_latency_s + overhead + 1e-9
            )

    def test_doubling_bytes_doubles_comm_term(self, monkeypatch):
        scenario = small_scenario(method="fedavg")
        sizes = np.full(4, 160.0)
        base = simulate_latency(scenario, sizes=sizes)
        monkeypatch.setattr(simulator, "BYTES_PER_PARAM", 16)
        doubled = simulate_latency(scenario, sizes=sizes)
        params = 4 * (8 + 1)
        bandwidth = HardwareProfile(*ARCHETYPES["pi4"]).bandwidth_mbps * 1e6 / 8.0
        comm = 2.0 * params * 8 / bandwidth
        # every client is an equal pi4, so fedavg's slowest client is any client
        assert doubled.sync_latency_s - base.sync_latency_s == pytest.approx(comm, rel=1e-9)

    def test_csv_source_bills_the_trained_model_size(self, tmp_path):
        """The timing model bills the model that training ships, whose width
        is the CSV's feature count."""
        rng = np.random.default_rng(0)
        path = tmp_path / "traffic.csv"
        lines = ["f0,f1,f2,f3,f4,label"] + [
            ",".join(f"{v:.4f}" for v in rng.random(5)) + f",{i % 4}"
            for i in range(400)
        ]
        path.write_text("\n".join(lines) + "\n")
        scenario = small_scenario(method="fedavg")
        scenario = replace(scenario, dataset=replace(
            scenario.dataset, source=CsvSource(str(path), num_classes=4)))
        state, report = run_round(init_state(scenario), scenario)
        assert state.global_model.num_features == 5
        sizes = np.array([c.size for c in state.clients], dtype=np.float64)
        assert simulate_latency(scenario, sizes=sizes).sync_latency_s == report.sync_latency_s

    @pytest.mark.parametrize("method", ["cfhfc", "fedavg", "fedprox"])
    def test_round_zero_bills_what_simulate_latency_bills(self, method):
        """Training and the latency-only sweep share one clock, and its bill
        carries the partition that round 0's cluster stats report."""
        scenario = jittered_scenario(method)
        state, report = run_round(init_state(scenario), scenario)
        sizes = np.array([c.size for c in state.clients], dtype=np.float64)
        bill = simulate_latency(scenario, sizes=sizes)
        assert bill.sync_latency_s == report.sync_latency_s
        if method != "cfhfc":
            assert bill.memberships is None
            return
        billed = {k: (len(idx), bill.per_cluster_s[k])
                  for k, idx in enumerate(bill.participants) if len(idx)}
        assert billed == {s.cluster_id: (s.participants, s.latency_s)
                          for s in report.cluster_stats}

    @pytest.mark.parametrize("sizes, message", [
        ([160.0], r"shape \(4,\), got \(1,\)"),
        (np.full((4, 1), 160.0), r"shape \(4,\), got \(4, 1\)"),
        (np.full(5, 160.0), r"shape \(4,\), got \(5,\)"),
        (np.full(4, -5.0), "finite and non-negative"),
        ([160.0, 160.0, np.nan, 160.0], "finite and non-negative"),
        ([160.0, np.inf, 160.0, 160.0], "finite and non-negative"),
    ], ids=["one", "column", "too-many", "negative", "nan", "inf"])
    def test_malformed_sizes_are_rejected(self, sizes, message):
        """One size is not broadcast to every client, and no size is negative."""
        with pytest.raises(ValueError, match=message):
            simulate_latency(small_scenario(method="cfhfc"), sizes=sizes)

    def test_per_cluster_report_shape(self):
        scenario = small_scenario(method="cfhfc", num_clusters=2, num_clients=6,
                                  archetype_mix=self.MIX)
        report = simulate_latency(scenario, sizes=np.full(6, 160.0))
        assert report.sync_latency_s > 0.0
        assert report.memberships.shape == (6, 2)
        assert report.normalized.shape == (6, 3)
        assert len(report.participants) == 2
        assert all(idx.ndim == 1 and idx.dtype.kind == "i" for idx in report.participants)
        assert len(report.per_cluster_s) == 2

    def test_idle_cluster_bills_zero_and_stays_out_of_the_mean(self):
        """A cluster with no client at the floor bills exactly 0.0, and the sync
        latency is the participation-mass-weighted mean over the busy clusters."""
        cfg = ClusterConfig(participation_floor=0.7, profile_jitter=0.2)
        scenario = build_scenario("scenario1", seed=2, cluster_cfg=cfg)
        report = simulate_latency(scenario, sizes=np.full(20, 1600.0))
        member = report.memberships >= cfg.participation_floor
        for k, idx in enumerate(report.participants):
            np.testing.assert_array_equal(idx, np.flatnonzero(member[:, k]))
        assert [len(idx) for idx in report.participants] == [0, 1, 1, 4]
        assert report.per_cluster_s[0] == 0.0
        assert min(report.per_cluster_s[1:]) > simulator.ROUND_OVERHEAD_S
        busy = [k for k, idx in enumerate(report.participants) if len(idx)]
        mass = np.array([report.memberships[report.participants[k], k].sum() for k in busy])
        seconds = np.array([report.per_cluster_s[k] for k in busy])
        sync = float((mass * seconds).sum() / mass.sum() + simulator.ROUND_OVERHEAD_S)
        assert sync == report.sync_latency_s == 7.664093462447779


class TestStragglerMetrics:
    @staticmethod
    def sweep(**kwargs):
        scenario = small_scenario(method="cfhfc", num_clusters=2, num_clients=6,
                                  archetype_mix=TestLatencyModel.MIX)
        for key, value in kwargs.items():
            setattr(scenario, key, value)
        return straggler_metrics(
            scenario,
            fractions=(0.0, 0.5),
            client_counts=(6,),
            methods=("cfhfc", "fedavg", "fedprox"),
        )

    @pytest.mark.parametrize("methods", [("fedavg", "FedProx", "fedprox", "fedavg"),
                                         ("fedavg", "fedprox", "fedavg")],
                             ids=["unknown", "repeated"])
    def test_rejects_unknown_and_repeated_methods_before_any_bill(self, methods, monkeypatch):
        billed = []
        monkeypatch.setattr(simulator, "_bill", lambda *args: billed.append(args))
        with pytest.raises(ValueError, match=re.escape("('cfhfc', 'fedavg', 'fedprox')")):
            straggler_metrics(build_scenario("scenario1", straggler_fraction=0.3),
                              fractions=(0.3,), client_counts=(20,), methods=methods)
        assert billed == []

    @pytest.mark.parametrize("grid", [
        {"fractions": (0.0, -0.1)}, {"fractions": (1.5,)}, {"fractions": (1.0,)},
        {"fractions": (float("nan"),)}, {"client_counts": (20, 2.5)},
        {"client_counts": (0,)}, {"client_counts": (True,)},
    ], ids=["negative", "above-one", "one", "nan", "float-count", "zero-count", "bool-count"])
    def test_rejects_a_bad_grid_before_any_fleet_or_bill(self, grid, monkeypatch):
        """Fractions lie in Scenario.straggler_fraction's [0, 1), and client
        counts are ints >= 1; the error names the bad value."""
        work = []
        monkeypatch.setattr(simulator, "_fleet", lambda *args: work.append(args))
        monkeypatch.setattr(simulator, "_bill", lambda *args: work.append(args))
        (name, values), = grid.items()
        with pytest.raises(ValueError, match=rf"^{name} .*got {re.escape(repr(values[-1]))}$"):
            straggler_metrics(build_scenario("scenario1"), **grid)
        assert work == []

    def test_own_client_count_keeps_the_scenario_clusters(self):
        """At the scenario's own client count the sweep bills the scenario's
        own fleet, not clusters_for_clients' budget for that count."""
        scenario = small_scenario(method="cfhfc", num_clusters=3, num_clients=6,
                                  archetype_mix=TestLatencyModel.MIX)
        assert clusters_for_clients(6) == 2
        sizes = np.full(6, 107.0)  # 800 rows less 160 held, over 6 clients
        table = straggler_metrics(scenario, fractions=(0.0, 0.5), client_counts=(6,),
                                  methods=("cfhfc",))
        own = {fraction: simulate_latency(replace(scenario, straggler_fraction=fraction),
                                          sizes=sizes).sync_latency_s
               for fraction in (0.0, 0.5)}
        assert table["cfhfc"][6][0.5]["sync_latency_s"] == own[0.5]
        assert table["cfhfc"][6][0.5]["sme"] == own[0.0] / own[0.5]
        budget = replace(scenario, num_clusters=2, straggler_fraction=0.5)
        assert simulate_latency(budget, sizes=sizes).sync_latency_s != own[0.5]

    def test_partition_draws_do_not_move_the_sweep(self):
        """The size comes from the pool's row count, so the partition's
        concentration cannot change a bill."""
        def sweep(concentration):
            scenario = small_scenario(method="cfhfc", num_clusters=2, num_clients=6,
                                      archetype_mix=TestLatencyModel.MIX)
            scenario.dataset = replace(scenario.dataset, partition="dirichlet",
                                       concentration=concentration)
            return straggler_metrics(scenario, fractions=(0.0, 0.5), client_counts=(6, 12))

        assert sweep(0.05) == sweep(5.0)

    def test_every_cell_is_the_simulate_latency_bill(self):
        """The sweep bills through _clock's halves, not simulate_latency, and
        every cell, at the scenario's own count (6) and another, is still the
        bill simulate_latency gives that method and fraction."""
        scenario = jittered_scenario("cfhfc")
        fractions = (0.5, 0.25, 0.5)
        table = straggler_metrics(scenario, fractions=fractions, client_counts=(6, 9))
        for n in (6, 9):
            scaled = simulator._scaled_scenario(scenario, n)
            rows = scaled.dataset.pool_rows()
            sizes = np.full(n, float(round(max(rows / n, simulator._min_samples(scaled)))))
            for method in METHODS:
                want = {
                    fraction: simulate_latency(replace(scaled, method=method,
                                                       straggler_fraction=fraction),
                                               sizes).sync_latency_s
                    for fraction in (0.0, *fractions)
                }
                for fraction in fractions:
                    cell = table[method][n][fraction]
                    assert cell["sync_latency_s"] == want[fraction], (n, method, fraction)
                    assert cell["sme"] == want[0.0] / want[fraction], (n, method, fraction)

    @staticmethod
    def csv_scenario(tmp_path):
        """Three fedavg clients on a 400-row, 4-class CSV: 320 pool rows."""
        rng = np.random.default_rng(1)
        path = tmp_path / "traffic.csv"
        path.write_text("\n".join(["f0,f1,f2,label"] + [
            ",".join(f"{v:.4f}" for v in rng.random(3)) + f",{i % 4}" for i in range(400)
        ]) + "\n")
        scenario = small_scenario(method="fedavg", num_clients=3, archetype_mix=TestLatencyModel.MIX)
        scenario.dataset = replace(scenario.dataset, partition="dirichlet",
                                   source=CsvSource(str(path), num_classes=4))
        return scenario

    def test_csv_source_is_loaded_once_per_sweep(self, tmp_path, monkeypatch):
        scenario = self.csv_scenario(tmp_path)
        loads = []
        real = data_module.load_csv

        def counting(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(data_module, "load_csv", counting)
        straggler_metrics(scenario, fractions=(0.0, 0.5), client_counts=(3, 4, 5, 6))
        assert len(loads) == 1

    def test_csv_source_bills_pool_rows_per_client(self, tmp_path):
        scenario = self.csv_scenario(tmp_path)
        assert scenario.dataset.pool_rows() == 320
        table = straggler_metrics(scenario, fractions=(0.0, 0.5), client_counts=(3,),
                                  methods=("fedavg",))
        for fraction in (0.0, 0.5):
            want = simulate_latency(replace(scenario, straggler_fraction=fraction),
                                    sizes=np.full(3, 107.0))  # round(320 / 3)
            assert table["fedavg"][3][fraction]["sync_latency_s"] == want.sync_latency_s

    def test_count_beyond_the_pool_bills_the_top_up_size(self):
        scenario = small_scenario(method="fedavg", num_clients=40,
                                  archetype_mix=TestLatencyModel.MIX)
        scenario.dataset = DatasetSpec(source=SyntheticSource(num_features=8, samples_per_class=10))
        assert scenario.dataset.pool_rows() == 32
        table = straggler_metrics(scenario, fractions=(0.0, 0.5), client_counts=(40,),
                                  methods=("fedavg",))
        for fraction in (0.0, 0.5):
            want = simulate_latency(replace(scenario, straggler_fraction=fraction),
                                    sizes=np.full(40, float(simulator._min_samples(scenario))))
            assert table["fedavg"][40][fraction]["sync_latency_s"] == want.sync_latency_s

    def test_zero_fraction_is_the_baseline(self):
        table = self.sweep()
        for method in ("cfhfc", "fedavg", "fedprox"):
            cell = table[method][6][0.0]
            assert cell["relative_pct"] == pytest.approx(100.0, abs=1e-9)
            assert cell["sme"] == pytest.approx(1.0, abs=1e-12)

    def test_stragglers_slow_everyone_but_fedprox_less_than_fedavg(self):
        table = self.sweep(straggler_slowdown=4.0)
        for method in ("cfhfc", "fedavg", "fedprox"):
            assert table[method][6][0.5]["relative_pct"] >= 100.0 - 1e-9
        assert (
            table["fedprox"][6][0.5]["relative_pct"]
            <= table["fedavg"][6][0.5]["relative_pct"] + 1e-9
        )

    def test_unit_slowdown_changes_nothing(self):
        table = self.sweep(straggler_slowdown=1.0)
        for method in ("cfhfc", "fedavg", "fedprox"):
            assert table[method][6][0.5]["relative_pct"] == pytest.approx(
                100.0, abs=1e-9
            )

    def test_sme_is_reciprocal_of_relative(self):
        table = self.sweep(straggler_slowdown=3.0)
        for method in ("cfhfc", "fedavg", "fedprox"):
            cell = table[method][6][0.5]
            assert cell["sme"] == pytest.approx(
                100.0 / cell["relative_pct"], rel=1e-12
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_sweep_matches_golden(self, seed):
        # every method at 20/50/80/100 clients and the default fractions, floats
        # stored with repr precision
        def keyed(table):
            if isinstance(table, dict):
                return {str(key): keyed(value) for key, value in table.items()}
            return table

        golden = json.loads((GOLDEN / "straggler_sweep.json").read_text())[str(seed)]
        assert keyed(straggler_metrics(build_scenario("scenario1", seed=seed))) == golden


class TestTopUpWarning:
    """The top-up warning keeps its text and names the simulator's line that asked
    for the clients, not a line inside the data layer. The straggler sweep builds
    no clients, so it tops none up."""

    @staticmethod
    def scenario():
        dataset = DatasetSpec(source=SMALL_SOURCE, concentration=0.05, seed=3)
        return replace(small_scenario(num_clients=8), dataset=dataset)

    @staticmethod
    def runtime_warnings(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        return [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("call", [materialize_scenario], ids=["materialize_scenario"])
    def test_points_at_the_simulator(self, call):
        topped = self.runtime_warnings(lambda: call(self.scenario()))
        assert len(topped) == 1
        assert re.fullmatch(r"topped up \d+ client\(s\) \[[\d, ]+\] to 64 samples with "
                            r"duplicates from the global pool", str(topped[0].message))
        assert topped[0].filename == simulator.__file__

    def test_straggler_sweep_tops_nothing_up(self):
        scenario = self.scenario()
        assert self.runtime_warnings(lambda: materialize_scenario(scenario))
        assert self.runtime_warnings(lambda: straggler_metrics(
            scenario, fractions=(0.0,), client_counts=(8,), methods=("fedavg",))) == []
