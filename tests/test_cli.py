"""End-to-end tests for the command line interface.

Every test drives main() with a real argv and inspects artifacts on disk;
repeat invocations must produce byte-identical files.
"""

import copy
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from cfhfc import cli, simulator
from cfhfc.cli import main, resolve_scenario, scenario_to_dict
from cfhfc.simulator import _fleet

GOLDEN = Path(__file__).parent / "golden"

SMALL_CONFIG = {
    "method": "cfhfc",
    "seed": 0,
    "rounds": 3,
    "num_clients": 4,
    "num_clusters": 2,
    "dataset": {
        "source": {
            "type": "synthetic",
            "num_classes": 4,
            "num_features": 8,
            "samples_per_class": 200,
        },
        "partition": "by_class_shards",
        "shards_per_client": 2,
        "calibration_fraction": 0.1,
        "holdout_fraction": 0.2,
    },
    "train": {
        "learning_rate": 0.05,
        "batch_size": 32,
        "local_epochs": 2,
    },
}

# stragglers and profile jitter make every round's clustering differ
STRAGGLER_CONFIG = dict(SMALL_CONFIG, straggler_fraction=0.3,
                        clustering={"profile_jitter": 0.1})

# the K=12 path: pi3 devices hold fractional memberships in many clusters
SCENARIO3_CONFIG = {"preset": "scenario3", "method": "cfhfc", "seed": 0, "rounds": 2,
                    "straggler_fraction": 0.3, "clustering": {"profile_jitter": 0.1},
                    "train": {"local_epochs": 1}}

# the regime where FCM iterates and memberships are fractional, for 3 rounds
JITTER_CONFIG = dict(SCENARIO3_CONFIG, rounds=3)

# every rate of a run without a holdout is undefined
NO_HOLDOUT_CONFIG = copy.deepcopy(SMALL_CONFIG)
NO_HOLDOUT_CONFIG.update(rounds=1)
NO_HOLDOUT_CONFIG["dataset"]["holdout_fraction"] = 0.0

CSV_CONFIG = {
    "method": "fedprox",
    "seed": 5,
    "num_clients": 6,
    "num_clusters": 3,
    "archetype_mix": {"pi3": 0.5, "pi400": 0.5},
    "attack_classes": [3, 1],
    "dataset": {
        "source": {"type": "csv", "path": "traffic.csv", "label_column": "class",
                   "num_classes": 5},
        "partition": "by_class_shards",
    },
    "clustering": {"weights": {"cpu": 0.5, "memory": 0.25, "bandwidth": 0.25}},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def resolved_bytes(preset, config) -> bytes:
    """The resolved configuration as `run` writes it to config.resolved.json."""
    scenario = resolve_scenario(preset, config)
    return (json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n").encode()


def read_all(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


RUN_ARTIFACTS = ("rounds.csv", "summary.json", "config.resolved.json",
                 "final_model.json")
REPORT_ARTIFACTS = ("roc_sweep.csv", "confusion.csv", "summary.txt")


def _no_generation(*args):
    raise AssertionError("a bad config generated features")


def _run_small_with(tmp_path, path, value):
    """main's exit code for `run` on SMALL_CONFIG with value set at the dotted path."""
    bad = copy.deepcopy(SMALL_CONFIG)
    *sections, key = path.split(".")
    node = bad
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(bad))
    return main(["run", "--config", str(config), "--out", str(tmp_path / "o")])


def strict_json(path):
    """The file's JSON, refusing the NaN and Infinity that json.dumps writes by default."""
    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


class TestRun:
    def test_writes_all_artifacts(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        for name in RUN_ARTIFACTS:
            assert (out / name).exists(), name

        rounds = (out / "rounds.csv").read_text().splitlines()
        assert rounds[0].startswith("round,global_loss,accuracy")
        assert len(rounds) == 1 + 3  # header + one line per round

        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "cfhfc"
        assert summary["rounds_run"] == 3
        assert 0.0 <= summary["final"]["accuracy"] <= 1.0
        assert summary["auc"] is not None

    def test_rerun_is_byte_identical(self, tmp_path, config_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
        assert read_all(out_a, RUN_ARTIFACTS) == read_all(out_b, RUN_ARTIFACTS)

    def test_lf_line_endings_and_compact_floats(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        raw = (out / "rounds.csv").read_bytes()
        assert b"\r" not in raw
        for cell in raw.decode().splitlines()[1].split(","):
            assert len(cell) <= 17  # %.9g keeps cells short

    def test_method_flag_overrides_config(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--method", "fedavg",
              "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "fedavg"
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["method"] == "fedavg"

    def test_unknown_config_key_names_dotted_path(self, tmp_path, capsys, monkeypatch):
        """An unknown key fails before any data is generated. The cost model and
        FCM's stopping limits are constants, so their old keys are unknown too."""
        monkeypatch.setattr("cfhfc.data._synthetic_chunks", _no_generation)
        for path, value in [("train.learning_rte", 0.1),
                            ("latency", {"round_overhead_s": 1.0}),
                            ("clustering.max_iter", 100),
                            ("clustering.tol", 1e-7)]:
            assert _run_small_with(tmp_path, path, value) == 1, path
            assert capsys.readouterr().err == f"config error: unknown key {path!r}\n"
            assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["run", "--config", str(path)])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_invalid_field_value(self, tmp_path, capsys):
        bad = dict(SMALL_CONFIG)
        bad["train"] = dict(SMALL_CONFIG["train"], learning_rate=-1.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        ("seed", 1.5),
        ("num_clients", 4.5),
        ("train.batch_size", 1e9),
        ("rounds", True),
        ("calibration.enabled", "no"),
        ("attack_classes", "12"),
        ("attack_classes", [7]),
        ("attack_classes", []),
        ("dataset.shards_per_client", 0),
        ("clustering.fuzzifier", 1.0),
        ("calibration.initial_confidence", 0.3),
        ("rounds", 0),
        ("clustering.participation_floor", 0.0),
        ("train.learning_rate", float("nan")),
        ("clustering.weights.cpu", float("nan")),
        ("seed", -1),
        # at index 16, so that its id stays dataset.source-value16
        ("dataset.source", {"type": "csv", "path": "missing.csv", "num_classes": 1}),
        ("dataset.seed", -1),
        # FCM's stopping limits are constants now, so these keys fail as unknown
        ("clustering.max_iter", 0),
        ("clustering.max_iter", -5),
        ("clustering.tol", -1.0),
        ("clustering.tol", 0.0),
    ])
    def test_bad_value_is_config_error_naming_dotted_path(self, tmp_path, capsys,
                                                          monkeypatch, path, value):
        """Bad values fail before any data is generated, not as runtime errors."""
        monkeypatch.setattr("cfhfc.data._synthetic_chunks", _no_generation)
        assert _run_small_with(tmp_path, path, value) == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, path", [
        ("--straggler-slowdown", "nan", "straggler_slowdown"),
        ("--seed", "-1", "seed"),
    ])
    def test_bad_flag_is_config_error_naming_its_field(self, tmp_path, capsys, monkeypatch,
                                                       flag, value, path):
        """A flag is checked as its config key is, before any data is generated."""
        monkeypatch.setattr("cfhfc.data._synthetic_chunks", _no_generation)
        code = main(["run", "--preset", "scenario1", "--rounds", "1", flag, value,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {path} must be")
        assert not (tmp_path / "o").exists()

    def test_more_shards_than_synthetic_rows_is_config_error(self, tmp_path, capsys):
        """A synthetic pool's size follows from the config, so it is checked there."""
        config = tmp_path / "shards.json"
        config.write_text(json.dumps({
            "num_clients": 10, "num_clusters": 2, "rounds": 1,
            "dataset": {"partition": "by_class_shards",
                        "source": {"type": "synthetic", "samples_per_class": 3}},
        }))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: num_clients x shards_per_client = 10 x 2 = 20 shards, "
            "but the pool has only 10 rows\n"
        )
        assert not (tmp_path / "o").exists()

    def test_no_holdout_writes_null_not_nan(self, tmp_path):
        """Without a holdout the loss and rates are undefined: JSON null, as auc is."""
        config = tmp_path / "no_holdout.json"
        config.write_text(json.dumps(NO_HOLDOUT_CONFIG))
        run, cmp = tmp_path / "run", tmp_path / "cmp"
        assert main(["run", "--config", str(config), "--out", str(run)]) == 0
        summary = strict_json(run / "summary.json")
        assert set(summary["final"]) == {"loss", "accuracy", "precision", "recall",
                                         "f1", "fpr", "fnr"}
        assert set(summary["final"].values()) == {None}
        assert summary["auc"] is None
        assert main(["compare", "--config", str(config), "--method", "fedavg",
                     "--method", "cfhfc", "--out", str(cmp)]) == 0
        comparison = strict_json(cmp / "compare.json")
        for key in ("final_accuracy", "final_loss", "auc", "final_accuracy_gap"):
            assert comparison[key] == {"cfhfc": None, "fedavg": None}, key

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_frozen_model_trains_every_round(self, tmp_path, command):
        """A model that never moves writes one row per round of the budget."""
        frozen = copy.deepcopy(SMALL_CONFIG)
        frozen["train"]["learning_rate"] = 0.0
        config = tmp_path / "frozen.json"
        config.write_text(json.dumps(frozen))
        out = tmp_path / "out"
        methods = ["--method", "cfhfc", "--method", "fedavg"] if command == "compare" else []
        assert main([command, "--config", str(config), "--rounds", "7", *methods,
                     "--out", str(out)]) == 0
        if command == "run":
            assert len((out / "rounds.csv").read_text().splitlines()) == 1 + 7
            summary = json.loads((out / "summary.json").read_text())
            assert summary["rounds_run"] == 7
            assert "converged_round" not in summary
        else:
            table = (out / "compare.csv").read_text().splitlines()[1:]
            for method in ("cfhfc", "fedavg"):
                assert [r.split(",")[1] for r in table if r.startswith(method + ",")] == [
                    str(i) for i in range(7)
                ]


class TestOverrideFlags:
    """Each Scenario override flag lands in config.resolved.json; a mistyped one
    is refused by the parser."""

    @pytest.mark.parametrize("flag, value, field, expected", [
        ("--seed", "7", "seed", 7),
        ("--rounds", "2", "rounds", 2),
        ("--straggler-fraction", "0.25", "straggler_fraction", 0.25),
        ("--straggler-slowdown", "4.5", "straggler_slowdown", 4.5),
    ])
    def test_flag_reaches_resolved_config(self, tmp_path, config_path, flag, value,
                                          field, expected):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), flag, value, "--out", str(out)]) == 0
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved[field] == expected
        assert type(resolved[field]) is type(expected)
        if field == "seed":
            assert resolved["dataset"]["seed"] == expected

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("flag, value, kind", [
        ("--seed", "1.5", "int"),
        ("--rounds", "two", "int"),
        ("--straggler-fraction", "a third", "float"),
        ("--straggler-slowdown", "3x", "float"),
    ])
    def test_mistyped_flag_is_rejected_by_the_parser(self, tmp_path, capsys, command,
                                                     flag, value, kind):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--preset", "scenario1", flag, value, "--out", str(out)])
        assert exit_info.value.code == 2
        assert f"{flag}: invalid {kind} value: '{value}'" in capsys.readouterr().err
        assert not out.exists()


class TestResolve:
    def test_partial_source_merges_onto_preset(self):
        scenario = resolve_scenario(
            "scenario1", {"dataset": {"source": {"num_features": 10}}}
        )
        assert scenario.dataset.source.num_features == 10
        assert scenario.dataset.source.samples_per_class == 10000

    def test_preset_argument_overrides_config_preset(self):
        scenario = resolve_scenario("scenario2", {"preset": "scenario1"})
        assert scenario.num_clients == 50

    @pytest.mark.parametrize("name, preset, config", [
        ("scenario1", "scenario1", None),
        ("scenario2", "scenario2", None),
        ("scenario3", "scenario3", None),
        ("small", None, SMALL_CONFIG),
        ("csv", None, CSV_CONFIG),
    ])
    def test_resolved_config_matches_golden(self, name, preset, config):
        golden = (GOLDEN / f"{name}.resolved.json").read_bytes()
        assert resolved_bytes(preset, config) == golden
        assert resolved_bytes(None, json.loads(golden)) == golden

    def test_resolved_config_reruns_the_same_fleet(self):
        """The resolved config lists the mix in name order; the fleet must
        not depend on the order the config file listed it in."""
        scenario = resolve_scenario(
            None, {"num_clients": 4, "archetype_mix": {"pi400": 0.5, "pi3": 0.5},
                   "straggler_fraction": 0.5}
        )
        written = json.dumps(scenario_to_dict(scenario), sort_keys=True)
        assert written.index('"pi3"') < written.index('"pi400"')
        rerun = resolve_scenario(None, json.loads(written))
        profiles, stragglers = _fleet(scenario, scenario.straggler_fraction)
        again, rerun_stragglers = _fleet(rerun, rerun.straggler_fraction)
        assert profiles.tobytes() == again.tobytes()
        assert stragglers.tolist() == rerun_stragglers.tolist()
        assert stragglers.sum() == 2


class TestCompare:
    def test_writes_comparison_artifacts(self, tmp_path, config_path):
        out = tmp_path / "cmp"
        code = main(["compare", "--config", str(config_path),
                     "--method", "cfhfc", "--method", "fedavg",
                     "--out", str(out)])
        assert code == 0
        table = (out / "compare.csv").read_text().splitlines()
        assert table[0].startswith("method,round,")
        methods = {line.split(",")[0] for line in table[1:]}
        assert methods == {"cfhfc", "fedavg"}

        comparison = json.loads((out / "compare.json").read_text())
        assert comparison["reference"] == "fedavg"
        assert set(comparison["final_accuracy"]) == {"cfhfc", "fedavg"}
        assert comparison["final_accuracy_gap"]["fedavg"] == 0.0
        assert comparison["latency_reduction_pct"]["fedavg"] == 0.0
        assert set(comparison["sme_per_straggler_fraction"]["cfhfc"]) == {
            "0.0", "0.1", "0.2", "0.3"
        }

    def test_loss_and_auc_match_each_run(self, tmp_path, config_path):
        """compare.json's per-method loss and AUC are what `run` writes for that method."""
        cmp = tmp_path / "cmp"
        assert main(["compare", "--config", str(config_path), "--method", "cfhfc",
                     "--method", "fedavg", "--out", str(cmp)]) == 0
        comparison = json.loads((cmp / "compare.json").read_text())
        for method in ("cfhfc", "fedavg"):
            run = tmp_path / method
            assert main(["run", "--config", str(config_path), "--method", method,
                         "--out", str(run)]) == 0
            summary = json.loads((run / "summary.json").read_text())
            assert comparison["final_loss"][method] == summary["final"]["loss"]
            assert comparison["auc"][method] == summary["auc"]
            assert comparison["auc"][method] is not None

    def test_preset_top_up_is_reported_once(self, tmp_path):
        """compare materializes the data once and its SME sweep builds no clients,
        so scenario1's two topped-up clients are reported once."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["compare", "--preset", "scenario1", "--rounds", "1",
                         "--out", str(tmp_path / "cmp")]) == 0
        topped = [str(w.message) for w in caught
                  if issubclass(w.category, RuntimeWarning) and "topped up" in str(w.message)]
        assert len(topped) == 1
        assert topped[0].startswith("topped up 2 client(s)")

    def test_single_method_rejected(self, tmp_path, config_path, capsys):
        code = main(["compare", "--config", str(config_path),
                     "--method", "fedavg", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "at least two methods" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--method", "fedavg", "--method", "fedavg"], "'fedavg' is given more than once"),
        (["--rounds", "0"], "rounds must be >= 1"),
    ])
    def test_config_error_before_any_output(self, tmp_path, config_path, capsys,
                                             args, message):
        out = tmp_path / "o"
        code = main(["compare", "--config", str(config_path), *args, "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["compare", "--config", str(config_path),
                "--method", "fedavg", "--method", "fedprox"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        names = ("compare.csv", "compare.json")
        assert read_all(out_a, names) == read_all(out_b, names)

    def test_identical_methods_have_zero_gap(self, tmp_path, config_path):
        """fedprox without a proximal pull is fedavg, so every gap is zero."""
        cfg = json.loads(config_path.read_text())
        cfg["train"]["proximal_coeff"] = 0.0
        path = config_path.parent / "zero_prox.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "cmp"
        code = main(["compare", "--config", str(path),
                     "--method", "fedavg", "--method", "fedprox",
                     "--out", str(out)])
        assert code == 0
        comparison = json.loads((out / "compare.json").read_text())
        assert comparison["final_accuracy_gap"]["fedprox"] == 0.0


class TestGoldenArtifacts:
    """Frozen from an earlier build: the same config must keep producing
    byte-identical artifacts."""

    @staticmethod
    def check(tmp_path, name, cfg):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(cfg))
        run, cmp = tmp_path / "run", tmp_path / "cmp"
        assert main(["run", "--config", str(config), "--out", str(run)]) == 0
        assert main(["compare", "--config", str(config), "--rounds", "2",
                     "--out", str(cmp)]) == 0
        produced = {**read_all(run, ("rounds.csv", "summary.json")),
                    **read_all(cmp, ("compare.csv", "compare.json"))}
        for artifact, data in produced.items():
            assert data == (GOLDEN / f"{name}.{artifact}").read_bytes(), artifact

    def test_run_and_compare_match_golden(self, tmp_path):
        self.check(tmp_path, "straggler", STRAGGLER_CONFIG)

    def test_scenario3_run_and_compare_match_golden(self, tmp_path):
        self.check(tmp_path, "scenario3", SCENARIO3_CONFIG)

    def test_jittered_fcm_matches_golden(self, tmp_path, monkeypatch):
        """Each round's FCM partition, to the byte, and the run's rounds.csv.

        Per round the golden holds iterations_used and the sha256 of the
        memberships, centroids, iterations_used (int64) and objective trace.
        """
        partitions = []
        real = simulator.fcm_fit

        def recording(*args, **kwargs):
            partitions.append(real(*args, **kwargs))
            return partitions[-1]

        monkeypatch.setattr(simulator, "fcm_fit", recording)
        config = tmp_path / "jitter.json"
        config.write_text(json.dumps(JITTER_CONFIG))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scenario3 tops clients up
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        got = [
            {
                "iterations_used": p.iterations_used,
                "sha256": hashlib.sha256(
                    p.memberships.tobytes() + p.centroids.tobytes()
                    + np.int64(p.iterations_used).tobytes()
                    + np.array(p.objective_trace).tobytes()
                ).hexdigest(),
            }
            for p in partitions
        ]
        assert got == json.loads((GOLDEN / "jitter.fcm.json").read_text())
        rounds = (tmp_path / "run" / "rounds.csv").read_bytes()
        assert rounds == (GOLDEN / "jitter.rounds.csv").read_bytes()


class TestReport:
    def test_derives_roc_confusion_and_summary(self, tmp_path, config_path):
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(config_path),
                     "--out", str(run_dir)]) == 0
        code = main(["report", str(run_dir)])
        assert code == 0
        roc = (run_dir / "roc_sweep.csv").read_text().splitlines()
        assert roc[0] == "threshold,fpr,tpr"
        last = roc[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == 1.0
        assert float(last[2]) == 1.0

        confusion_lines = (run_dir / "confusion.csv").read_text().splitlines()
        assert confusion_lines[0] == "truth,pred_0,pred_1,pred_2,pred_3"
        assert len(confusion_lines) == 5

        text = (run_dir / "summary.txt").read_text()
        for field in ("accuracy:", "precision:", "recall:", "f1:", "fpr:",
                      "fnr:", "auc:"):
            assert field in text

    def test_builds_no_clients(self, tmp_path):
        # a dirichlet split this skewed tops clients up while the run trains
        config = copy.deepcopy(SMALL_CONFIG)
        config.update(rounds=1, num_clients=8)
        config["dataset"].update(partition="dirichlet", concentration=0.05)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        with pytest.warns(RuntimeWarning, match="topped up"):
            assert main(["run", "--config", str(path), "--out", str(run_dir)]) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["report", str(run_dir)]) == 0
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_separate_output_directory(self, tmp_path, config_path):
        run_dir = tmp_path / "run"
        main(["run", "--config", str(config_path), "--out", str(run_dir)])
        report_dir = tmp_path / "derived"
        assert main(["report", str(run_dir), "--out", str(report_dir)]) == 0
        assert (report_dir / "roc_sweep.csv").exists()
        assert not (run_dir / "roc_sweep.csv").exists()

    def test_missing_run_directory(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "nowhere")])
        assert code == 1
        assert "missing run artifacts" in capsys.readouterr().err

    def test_report_matches_golden(self, tmp_path, config_path, monkeypatch):
        """Frozen from an earlier build; run from tmp_path so the run: line reads `run`."""
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(config_path), "--out", "run"]) == 0
        assert main(["report", "run"]) == 0
        for name in REPORT_ARTIFACTS:
            golden = (GOLDEN / f"report.{name}").read_bytes()
            assert (tmp_path / "run" / name).read_bytes() == golden, name

    def test_no_holdout_is_rejected_before_loading_data(self, tmp_path, capsys, monkeypatch):
        run_dir = tmp_path / "run"
        config = tmp_path / "no_holdout.json"
        config.write_text(json.dumps(NO_HOLDOUT_CONFIG))
        assert main(["run", "--config", str(config), "--out", str(run_dir)]) == 0
        loads = []
        monkeypatch.setattr(cli, "materialize_holdout", lambda spec: loads.append(spec))
        assert main(["report", str(run_dir)]) == 1
        assert capsys.readouterr().err == (
            "config error: run has no holdout split; cannot build a report\n"
        )
        assert loads == []
        for name in REPORT_ARTIFACTS:
            assert not (run_dir / name).exists(), name


class TestDefaults:
    def test_prints_parseable_json(self, capsys):
        assert main(["defaults"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["method"] == "cfhfc"
        assert cfg["train"]["learning_rate"] == 0.001
        assert cfg["train"]["proximal_coeff"] == 0.6
        assert cfg["calibration"]["initial_confidence"] == 0.9
        assert cfg["clustering"]["fuzzifier"] == 3.0

    def test_matches_golden(self, capsys):
        assert main(["defaults"]) == 0
        golden = (GOLDEN / "defaults.json").read_bytes()
        assert capsys.readouterr().out.encode() == golden
        assert resolved_bytes(None, json.loads(golden)) == golden

    def test_defaults_round_trip_through_resolver(self, capsys, tmp_path):
        main(["defaults"])
        cfg = json.loads(capsys.readouterr().out)
        scenario = resolve_scenario(None, cfg)
        assert scenario.method == "cfhfc"
        assert scenario.num_clients == 20
        assert scenario.train_cfg.learning_rate == 0.001
