"""Command line front end: run, compare, report, defaults.

Configuration comes from a named preset, an optional strict JSON config file
(unknown keys and mistyped values are rejected with the offending field
named), and CLI flag overrides, in that order. All emitted CSVs use a header
row, LF line endings, and 9 significant digits for reals so that identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import types
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import CsvSource, SyntheticSource
from .metrics import (
    argmax_decisions,
    classification_metrics,
    confusion,
    roc_sweep,
    trapezoid_auc,
)
from .model import ModelParams
from .simulator import (  # init_state and run_round stay importable from here
    METHODS,
    RoundReport,
    Scenario,
    build_scenario,
    init_state,
    materialize_scenario,
    run_round,
    run_training,
    straggler_metrics,
)

__all__ = ["main", "cmd_run", "cmd_compare", "cmd_report", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 1."""


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".9g")
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config codec: keys and types come from the Scenario dataclass tree


# Scenario fields whose config-file key differs from the field name
_FILE_KEYS = {"train_cfg": "train", "cluster_cfg": "clustering", "calib_cfg": "calibration"}
# the "type" key that picks a member of a union of dataclasses
_TAGS = {SyntheticSource: "synthetic", CsvSource: "csv"}
_KINDS = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list",
    dict: "an object",
}


def _expect(value, kind: type, path: str):
    """value itself, if it has the JSON type of kind; an int is also a float."""
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise ConfigError(f"{path} must be {_KINDS[kind]}, got {value!r}")
    return value


def _decode(value, hint, path: str, base=None):
    """Type-check one config value against its field's hint and build it.

    A dataclass section merges onto base, the instance it replaces.
    """
    if isinstance(hint, types.UnionType):
        options = [h for h in get_args(hint) if h is not type(None)]
        if value is None and len(options) < len(get_args(hint)):
            return None
        if len(options) == 1:
            hint = options[0]
        else:  # a union of dataclasses, picked by the "type" key
            tags = {_TAGS[cls]: cls for cls in options}
            tag = _expect(value, dict, path).get("type", _TAGS.get(type(base)))
            if tag not in tags:
                raise ConfigError(f"{path}.type must be one of {sorted(tags)}, got {tag!r}")
            hint = tags[tag]
            value = {k: v for k, v in value.items() if k != "type"}
            base = base if isinstance(base, hint) else None
    if is_dataclass(hint):
        return _decode_fields(value, hint, path, base)
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        if get_origin(item) is tuple:  # pairs are written as a key -> value map
            value_hint = get_args(item)[1]
            return tuple(
                (k, _decode(v, value_hint, f"{path}.{k}"))
                for k, v in _expect(value, dict, path).items()
            )
        return tuple(
            _decode(v, item, f"{path}[{i}]")
            for i, v in enumerate(_expect(value, list, path))
        )
    return hint(_expect(value, hint, path))


def _decode_fields(value, cls: type, path: str, base):
    prefix = f"{path}." if path else ""
    hints = get_type_hints(cls)
    by_key = {_FILE_KEYS.get(f.name, f.name): f for f in fields(cls)}
    kwargs = {}
    for key, item in _expect(value, dict, path or "config").items():
        if key not in by_key:
            raise ConfigError(f"unknown key {prefix + key!r}")
        name = by_key[key].name
        kwargs[name] = _decode(item, hints[name], prefix + key, getattr(base, name, None))
    if base is None:
        for f in fields(cls):
            if f.name not in kwargs and f.default is f.default_factory is MISSING:
                raise ConfigError(f"{prefix}{f.name} is required")
    # every __post_init__ message starts with the offending field's name
    try:
        return replace(base, **kwargs) if base is not None else cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _encode(value):
    """The config-file form of a dataclass tree, inverting _decode."""
    if is_dataclass(value):
        out = {"type": _TAGS[type(value)]} if type(value) in _TAGS else {}
        for f in fields(value):
            out[_FILE_KEYS.get(f.name, f.name)] = _encode(getattr(value, f.name))
        return out
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return {k: _encode(v) for k, v in value}
        return [_encode(v) for v in value]
    return value


def resolve_scenario(
    preset: str | None,
    config: dict | None,
    method: str | None = None,
    seed: int | None = None,
    rounds: int | None = None,
    straggler_fraction: float | None = None,
    straggler_slowdown: float | None = None,
) -> Scenario:
    """Merge preset, config file, and CLI overrides into a Scenario.

    Every section of the config merges onto the preset's values. A seed
    also seeds the dataset unless the config sets dataset.seed itself.
    """
    cfg = dict(config) if config else {}
    file_preset = _decode(cfg.pop("preset", None), str | None, "preset")
    preset = preset or file_preset
    flags = {
        "method": method,
        "seed": seed,
        "rounds": rounds,
        "straggler_fraction": straggler_fraction,
        "straggler_slowdown": straggler_slowdown,
    }
    cfg.update({k: v for k, v in flags.items() if v is not None})
    try:
        scenario = build_scenario(preset) if preset else Scenario()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    scenario = _decode(cfg, Scenario, "", scenario)
    if "seed" in cfg and "seed" not in cfg.get("dataset", {}):
        scenario = replace(scenario, dataset=replace(scenario.dataset, seed=scenario.seed))
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize a Scenario into the config file schema (round-trippable)."""
    out = _encode(scenario)
    if scenario.attack_classes is None:
        out["attack_classes"] = sorted(
            scenario.resolved_attack_classes(scenario.dataset.num_classes)
        )
    return out


# ---------------------------------------------------------------------------
# commands


# RoundReport fields written per round by run and compare, after the round index
_ROUND_COLUMNS = (
    "global_loss",
    "accuracy",
    "precision",
    "recall",
    "f1",
    "fpr",
    "fnr",
    "sync_latency_s",
)


def _round_row(report: RoundReport) -> list:
    return [report.round_index] + [getattr(report, c) for c in _ROUND_COLUMNS]


def _rounds_rows(scenario: Scenario, reports: list[RoundReport]):
    header = ["round", *_ROUND_COLUMNS]
    cluster_detail = scenario.method == "cfhfc"
    if cluster_detail:
        for k in range(scenario.num_clusters):
            header += [
                f"cluster{k}_latency_s",
                f"cluster{k}_confidence",
                f"cluster{k}_threshold",
                f"cluster{k}_fnr_hat",
                f"cluster{k}_fpr_hat",
            ]
    rows = []
    for r in reports:
        row = _round_row(r)
        if cluster_detail:
            stats = {s.cluster_id: s for s in r.cluster_stats}
            for k in range(scenario.num_clusters):
                s = stats.get(k)
                if s is None:
                    row += [0.0, None, None, None, None]
                else:
                    row += [s.latency_s, s.confidence, s.threshold, s.fnr_hat, s.fpr_hat]
        rows.append(row)
    return header, rows


def _final_summary(scenario: Scenario, reports: list[RoundReport], state):
    final = reports[-1]
    auc = None
    if state.holdout is not None:
        attack = scenario.resolved_attack_classes(state.num_classes)
        points = roc_sweep(
            state.global_model, state.holdout, attack, np.linspace(0.0, 1.0, 101)
        )
        auc = trapezoid_auc(points)
    syncs = [r.sync_latency_s for r in reports]
    return {
        "method": scenario.method,
        "seed": scenario.seed,
        "rounds_run": len(reports),
        "converged_round": state.converged_round,
        "final": {
            "loss": final.global_loss,
            "accuracy": final.accuracy,
            "precision": final.precision,
            "recall": final.recall,
            "f1": final.f1,
            "fpr": final.fpr,
            "fnr": final.fnr,
        },
        "auc": auc,
        "latency": {
            "mean_sync_s": float(np.mean(syncs)),
            "max_sync_s": float(np.max(syncs)),
        },
    }


def cmd_run(scenario: Scenario, out_dir: str | Path) -> int:
    """Train one method and persist rounds.csv, summary.json, config, model."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports, state = run_training(scenario, return_state=True)
    if not reports:
        raise RuntimeError("scenario ran zero rounds; nothing to report")
    header, rows = _rounds_rows(scenario, reports)
    _write_csv(out / "rounds.csv", header, rows)
    summary = _final_summary(scenario, reports, state)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    (out / "config.resolved.json").write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
    )
    model = state.global_model
    (out / "final_model.json").write_text(
        json.dumps(
            {
                "weights": model.weights.tolist(),
                "biases": model.biases.tolist(),
            }
        )
        + "\n"
    )
    return 0


def cmd_compare(scenario: Scenario, methods: list[str], out_dir: str | Path) -> int:
    """Run several methods on the same data and emit side-by-side artifacts."""
    if len(methods) < 2:
        raise ConfigError(f"compare needs at least two methods, got {methods}")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    finals: dict[str, dict] = {}
    mean_sync: dict[str, float] = {}
    for method in methods:
        run_scenario = replace(scenario, method=method)
        reports, state = run_training(run_scenario, return_state=True)
        rows += [[method] + _round_row(r) for r in reports]
        finals[method] = _final_summary(run_scenario, reports, state)
        mean_sync[method] = finals[method]["latency"]["mean_sync_s"]
    _write_csv(out / "compare.csv", ["method", "round", *_ROUND_COLUMNS], rows)

    reference = "fedavg" if "fedavg" in methods else methods[0]
    sweep = straggler_metrics(
        scenario,
        fractions=(0.0, 0.1, 0.2, 0.3),
        client_counts=(scenario.num_clients,),
        methods=tuple(methods),
    )
    comparison = {
        "methods": list(methods),
        "reference": reference,
        "final_accuracy": {m: finals[m]["final"]["accuracy"] for m in methods},
        "final_accuracy_gap": {
            m: finals[m]["final"]["accuracy"] - finals[reference]["final"]["accuracy"]
            for m in methods
        },
        "mean_sync_latency_s": mean_sync,
        "latency_reduction_pct": {
            m: 100.0 * (1.0 - mean_sync[m] / mean_sync[reference]) for m in methods
        },
        "sme_per_straggler_fraction": {
            m: {
                str(frac): sweep[m][scenario.num_clients][frac]["sme"]
                for frac in (0.0, 0.1, 0.2, 0.3)
            }
            for m in methods
        },
    }
    (out / "compare.json").write_text(
        json.dumps(comparison, indent=2, sort_keys=True) + "\n"
    )
    return 0


def cmd_report(run_dir: str | Path, out_dir: str | Path | None = None) -> int:
    """Turn a finished run directory into ROC, confusion, and text summaries."""
    run_path = Path(run_dir)
    rounds_csv = run_path / "rounds.csv"
    if not rounds_csv.exists():
        raise ConfigError(f"missing run artifacts: {rounds_csv} not found")
    config_path = run_path / "config.resolved.json"
    model_path = run_path / "final_model.json"
    for p in (config_path, model_path):
        if not p.exists():
            raise ConfigError(f"missing run artifacts: {p} not found")
    out = Path(out_dir) if out_dir is not None else run_path
    out.mkdir(parents=True, exist_ok=True)

    scenario = resolve_scenario(None, json.loads(config_path.read_text()))
    raw_model = json.loads(model_path.read_text())
    model = ModelParams(np.array(raw_model["weights"]), np.array(raw_model["biases"]))
    _, holdout = materialize_scenario(scenario)
    if holdout is None:
        raise ConfigError("run has no holdout split; cannot build a report")
    attack = scenario.resolved_attack_classes(scenario.dataset.num_classes)

    points = roc_sweep(model, holdout, attack, np.linspace(0.0, 1.0, 101))
    _write_csv(
        out / "roc_sweep.csv",
        ["threshold", "fpr", "tpr"],
        [[t, f, p] for t, f, p in points],
    )
    auc = trapezoid_auc(points)

    decisions = argmax_decisions(model, holdout.features)
    counts = confusion(decisions, holdout.labels, attack, scenario.dataset.num_classes)
    num_classes = scenario.dataset.num_classes
    _write_csv(
        out / "confusion.csv",
        ["truth"] + [f"pred_{c}" for c in range(num_classes)],
        [[c] + list(counts.per_class[c]) for c in range(num_classes)],
    )

    report = classification_metrics(counts)
    lines = [
        f"run:       {run_path}",
        f"method:    {scenario.method}",
        f"seed:      {scenario.seed}",
        f"holdout:   {len(holdout)} samples",
        "",
        f"accuracy:  {report.accuracy:.6f}",
        f"precision: {report.precision:.6f}",
        f"recall:    {report.recall:.6f}",
        f"f1:        {report.f1:.6f}",
        f"fpr:       {report.fpr:.6f}",
        f"fnr:       {report.fnr:.6f}",
        f"auc:       {auc:.6f}",
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser, repeat_method: bool) -> None:
    parser.add_argument("--preset", choices=sorted(_preset_names()), default=None)
    parser.add_argument("--config", default=None, help="strict JSON config file")
    if repeat_method:
        parser.add_argument(
            "--method",
            action="append",
            choices=list(METHODS),
            default=None,
            help="repeatable; defaults to all three methods",
        )
    else:
        parser.add_argument("--method", choices=list(METHODS), default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--straggler-fraction", type=float, default=None)
    parser.add_argument("--straggler-slowdown", type=float, default=None)


def _preset_names() -> list[str]:
    from .simulator import _PRESETS

    return list(_PRESETS)


def _load_config_file(path: str | None) -> dict | None:
    if path is None:
        return None
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} not found")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {p} must contain a JSON object")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cfhfc",
        description="federated intrusion detection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train one method and write artifacts")
    _add_common(run_p, repeat_method=False)
    run_p.add_argument("--out", default="out")

    cmp_p = sub.add_parser("compare", help="run several methods side by side")
    _add_common(cmp_p, repeat_method=True)
    cmp_p.add_argument("--out", default="out")

    rep_p = sub.add_parser("report", help="derive ROC/confusion from a run directory")
    rep_p.add_argument("run_dir")
    rep_p.add_argument("--out", default=None)

    sub.add_parser("defaults", help="print the default configuration as JSON")

    args = parser.parse_args(argv)
    try:
        if args.command == "defaults":
            print(json.dumps(scenario_to_dict(Scenario()), indent=2, sort_keys=True))
            return 0
        if args.command == "report":
            return cmd_report(args.run_dir, args.out)
        config = _load_config_file(args.config)
        if args.command == "run":
            scenario = resolve_scenario(
                args.preset,
                config,
                method=args.method,
                seed=args.seed,
                rounds=args.rounds,
                straggler_fraction=args.straggler_fraction,
                straggler_slowdown=args.straggler_slowdown,
            )
            return cmd_run(scenario, args.out)
        if args.command == "compare":
            methods = args.method if args.method else list(METHODS)
            scenario = resolve_scenario(
                args.preset,
                config,
                seed=args.seed,
                rounds=args.rounds,
                straggler_fraction=args.straggler_fraction,
                straggler_slowdown=args.straggler_slowdown,
            )
            return cmd_compare(scenario, methods, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
