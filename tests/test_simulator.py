"""Tests for scenario construction, the round loop, and the timing model.

The reduction tests pin down the protocol algebra: with one cluster, equal
hardware, equal data volumes and no proximal pull, the clustered method must
reproduce the flat baselines bit for bit, because every aggregation path
collapses to the same normalized weights.
"""

import hashlib
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cfhfc import (
    ARCHETYPES,
    CalibrationConfig,
    ClusterConfig,
    CsvSource,
    DatasetSpec,
    HardwareProfile,
    LatencyModel,
    Scenario,
    SyntheticSource,
    TrainConfig,
    build_scenario,
    clusters_for_clients,
    init_state,
    local_train,
    run_round,
    run_training,
    simulate_latency,
    straggler_metrics,
    update_confidence,
)
from cfhfc import simulator
from cfhfc.simulator import _TAG_TRAIN, _derived_seed, materialize_scenario

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
        with pytest.raises(ValueError, match="unknown archetype 'rack_server'"):
            small_scenario(archetype_mix=(("rack_server", 1.0),))

    def test_duplicate_archetype_is_rejected(self):
        """A name listed twice would resolve to one dict entry holding half
        the mix, which the config reader then refuses."""
        with pytest.raises(ValueError, match="archetype 'pi3' is listed more than once"):
            Scenario(archetype_mix=(("pi3", 0.5), ("pi3", 0.5)))
        with pytest.raises(ValueError, match="'pi4' is listed more than once"):
            build_scenario("scenario1", archetype_mix=(("pi4", 0.25), ("pi3", 0.5), ("pi4", 0.25)))

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

    def test_frozen_model_stops_early(self):
        scenario = small_scenario(rounds=20, learning_rate=0.0)
        reports, state = run_training(scenario, return_state=True)
        assert len(reports) == 6  # five zero deltas end the run
        assert len({r.accuracy for r in reports}) == 1
        assert state.converged_round == 5


class TestLayerCalls:
    """Each traced fog and metrics function runs once per use, through the
    simulator's globals; folding one into another would hide its layer."""

    COUNTED = ("fcm_fit", "calibrate", "predict_with_calibration", "confusion",
               "loss", "argmax_decisions")

    def test_calls_per_jittered_round(self, monkeypatch):
        mix = (("pi3", 1.0 / 3.0), ("pi4", 1.0 / 3.0), ("pi400", 1.0 / 3.0))
        scenario = replace(
            small_scenario(method="cfhfc", num_clusters=2, num_clients=6, archetype_mix=mix),
            straggler_fraction=0.3,
            cluster_cfg=ClusterConfig(profile_jitter=0.1),
        )
        calls = dict.fromkeys(self.COUNTED, 0)

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in self.COUNTED:
            monkeypatch.setattr(simulator, name, counting(name, getattr(simulator, name)))
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
            }


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
            for m in simulator._edge(state)
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
        overhead = LatencyModel().round_overhead_s
        assert clustered.sync_latency_s == pytest.approx(
            flat.sync_latency_s + overhead, abs=1e-9
        )

    def test_slow_outlier_is_contained_by_clustering(self):
        """Five fast devices plus one slow one: the baseline waits on the
        slow device, the clustered method mostly waits on the fast cluster."""
        mix = (("pi3", 1.0 / 6.0), ("pi400", 5.0 / 6.0))
        scale = LatencyModel(work_units_per_sample=0.01)
        sizes = np.full(6, 2000.0)
        common = dict(num_clients=6, archetype_mix=mix)
        clustered_scenario = small_scenario(method="cfhfc", num_clusters=2, **common)
        clustered_scenario.latency = scale
        flat_scenario = small_scenario(method="fedavg", **common)
        flat_scenario.latency = scale
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
            overhead = scenario.latency.round_overhead_s
            assert (
                clustered.sync_latency_s
                <= flat.sync_latency_s + overhead + 1e-9
            )

    def test_doubling_bytes_doubles_comm_term(self):
        scenario = small_scenario(method="fedavg")
        sizes = np.full(4, 160.0)
        base = simulate_latency(scenario, sizes=sizes)
        scenario.latency = LatencyModel(bytes_per_param=16)
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

    def test_per_cluster_report_shape(self):
        scenario = small_scenario(method="cfhfc", num_clusters=2, num_clients=6,
                                  archetype_mix=self.MIX)
        report = simulate_latency(scenario, sizes=np.full(6, 160.0))
        assert report.sync_latency_s > 0.0


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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_sweep_matches_golden(self, seed):
        # every method at 20/50/80/100 clients and the default fractions, floats
        # stored with repr precision
        def keyed(table):
            if isinstance(table, dict):
                return {str(key): keyed(value) for key, value in table.items()}
            return table

        golden = json.loads((GOLDEN / "straggler_sweep.json").read_text())[str(seed)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scenario1 tops clients up
            assert keyed(straggler_metrics(build_scenario("scenario1", seed=seed))) == golden


class TestTopUpWarning:
    """The top-up warning keeps its text and names the simulator's line that asked
    for the clients, not a line inside the data layer."""

    @staticmethod
    def scenario():
        dataset = DatasetSpec(source=SMALL_SOURCE, concentration=0.05, seed=3)
        return replace(small_scenario(num_clients=8), dataset=dataset)

    @pytest.mark.parametrize("call", [
        materialize_scenario,
        lambda scenario: straggler_metrics(scenario, fractions=(0.0,), client_counts=(8,),
                                           methods=("fedavg",)),
    ], ids=["materialize_scenario", "straggler_metrics"])
    def test_points_at_the_simulator(self, call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(self.scenario())
        topped = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(topped) == 1
        assert re.fullmatch(r"topped up \d+ client\(s\) \[[\d, ]+\] to 64 samples with "
                            r"duplicates from the global pool", str(topped[0].message))
        assert topped[0].filename == simulator.__file__
