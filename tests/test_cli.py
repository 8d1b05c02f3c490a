"""End-to-end tests for the command line interface.

Every test drives main() with a real argv and inspects artifacts on disk;
repeat invocations must produce byte-identical files.
"""

import copy
import json
from pathlib import Path

import pytest

from cfhfc.cli import main, resolve_scenario, scenario_to_dict
from cfhfc.simulator import _assign_archetypes

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

    def test_unknown_config_key_names_dotted_path(self, tmp_path, capsys):
        bad = dict(SMALL_CONFIG)
        bad["train"] = dict(SMALL_CONFIG["train"], learning_rte=0.1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "train.learning_rte" in capsys.readouterr().err

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
    ])
    def test_bad_value_is_config_error_naming_dotted_path(self, tmp_path, capsys,
                                                          path, value):
        """Bad values fail before any data is generated, not as runtime errors."""
        bad = copy.deepcopy(SMALL_CONFIG)
        *sections, key = path.split(".")
        node = bad
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(bad))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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
            None, {"num_clients": 4, "archetype_mix": {"pi400": 0.5, "pi3": 0.5}}
        )
        written = json.dumps(scenario_to_dict(scenario), sort_keys=True)
        assert written.index('"pi3"') < written.index('"pi400"')
        rerun = resolve_scenario(None, json.loads(written))
        assert _assign_archetypes(rerun) == _assign_archetypes(scenario)


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

    def test_single_method_rejected(self, tmp_path, config_path, capsys):
        code = main(["compare", "--config", str(config_path),
                     "--method", "fedavg", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "at least two methods" in capsys.readouterr().err

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
    def test_run_and_compare_match_golden(self, tmp_path):
        """Frozen from an earlier build: the same config must keep producing
        byte-identical artifacts."""
        config = tmp_path / "straggler.json"
        config.write_text(json.dumps(STRAGGLER_CONFIG))
        run, cmp = tmp_path / "run", tmp_path / "cmp"
        assert main(["run", "--config", str(config), "--out", str(run)]) == 0
        assert main(["compare", "--config", str(config), "--rounds", "2",
                     "--out", str(cmp)]) == 0
        produced = {**read_all(run, ("rounds.csv", "summary.json")),
                    **read_all(cmp, ("compare.csv", "compare.json"))}
        for name, data in produced.items():
            assert data == (GOLDEN / f"straggler.{name}").read_bytes(), name


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
