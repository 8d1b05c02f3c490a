"""Acceptance gate: ten go/no-go checks on the assembled system.

Each test prints one verdict line ("criterion N: PASS/FAIL - detail").
Criterion 6 documents a known negative result: under the pinned default
hyperparameters the clustered method does not win the configured accuracy
race against the flat baseline often enough. The test prints the per-seed
evidence and fails honestly rather than loosening the bar; the mechanism is
summarized in the failure message.
"""

import json
import math
import time

import numpy as np
import pytest

from cfhfc import (
    CalibratedModel,
    CalibrationConfig,
    CalibrationState,
    ClusterModel,
    DatasetSpec,
    LabeledBatch,
    ModelParams,
    Scenario,
    SyntheticSource,
    TrainConfig,
    build_scenario,
    build_score_set,
    calibrate,
    classification_metrics,
    fcm_fit,
    generate_synthetic,
    gradient,
    local_train,
    loss,
    normalize_profiles,
    predict_with_calibration,
    quantile,
    run_training,
    straggler_metrics,
)
from cfhfc.clustering import HardwareProfile
from cfhfc.cli import main
from cfhfc.metrics import ConfusionCounts


def verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def small_scenario(method, seed, rho, calib_enabled=True):
    """Equal-size, equal-hardware scenario for the reduction checks."""
    dataset = DatasetSpec(
        source=SyntheticSource(num_classes=4, num_features=8, samples_per_class=200),
        partition="by_class_shards",
        shards_per_client=2,
        calibration_fraction=0.1,
        holdout_fraction=0.2,
        seed=seed,
    )
    return Scenario(
        num_clients=4,
        num_clusters=1,
        rounds=3,
        method=method,
        seed=seed,
        archetype_mix=(("pi4", 1.0),),
        dataset=dataset,
        train_cfg=TrainConfig(learning_rate=0.05, batch_size=32, local_epochs=2,
                              dropout_rate=0.1, proximal_coeff=rho),
        calib_cfg=CalibrationConfig(enabled=calib_enabled),
    )


def test_criterion_01_metric_arithmetic():
    """Binary rates match an independent recomputation to 1e-12."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, size=4))
        report = classification_metrics(
            ConfusionCounts(tp, tn, fp, fn, np.zeros((2, 2)))
        )
        total = tp + tn + fp + fn
        acc = (tp + tn) / total if total else 0.0
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        fpr = fp / (fp + tn) if fp + tn else 0.0
        fnr = fn / (tp + fn) if tp + fn else 0.0
        worst = max(
            worst,
            abs(report.accuracy - acc),
            abs(report.precision - prec),
            abs(report.recall - rec),
            abs(report.f1 - f1),
            abs(report.fpr - fpr),
            abs(report.fnr - fnr),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    line = verdict(1, ok, f"1000 tables, max |delta| = {worst:.2e}, {elapsed:.2f}s")
    assert ok, line


def test_criterion_02_fcm_correctness():
    """Membership rows sum to one, the objective never increases, and a
    two-group fixture separates with dominant membership >= 0.9."""
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_row = 0.0
    worst_rise = 0.0
    for trial in range(100):
        n = int(rng.integers(6, 51))
        k = int(rng.integers(1, 7))
        profiles = normalize_profiles(
            [
                HardwareProfile(float(rng.uniform(0.5, 3.0)),
                                float(rng.uniform(0.5, 16.0)),
                                float(rng.uniform(5.0, 200.0)))
                for _ in range(n)
            ]
        )
        part = fcm_fit(profiles, num_clusters=k, seed=trial)
        worst_row = max(worst_row, float(np.abs(part.memberships.sum(axis=1) - 1.0).max()))
        trace = part.objective_trace
        for prev, cur in zip(trace, trace[1:]):
            worst_rise = max(worst_rise, cur - prev)

    slow = [HardwareProfile(1.0 + 0.01 * i, 1.0 + 0.02 * i, 10.0 + 0.1 * i)
            for i in range(4)]
    fast = [HardwareProfile(3.0 + 0.01 * i, 15.0 + 0.02 * i, 190.0 + 0.1 * i)
            for i in range(4)]
    part = fcm_fit(normalize_profiles(slow + fast), num_clusters=2)
    dominant = float(part.memberships.max(axis=1).min())

    elapsed = time.perf_counter() - started
    ok = worst_row <= 1e-9 and worst_rise <= 1e-9 and dominant >= 0.9 and elapsed < 5.0
    line = verdict(
        2,
        ok,
        f"row-sum dev {worst_row:.1e}, objective rise {worst_rise:.1e}, "
        f"dominant membership {dominant:.3f}, {elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_03_gradient_fidelity():
    """Analytic gradient vs central finite differences on 50 small cases."""
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    step = 1e-5
    worst = 0.0
    for _ in range(50):
        num_classes = int(rng.integers(2, 4))
        num_features = int(rng.integers(1, 5))
        model = ModelParams(rng.normal(size=(num_classes, num_features)),
                            rng.normal(size=num_classes))
        n = int(rng.integers(2, 12))
        batch = LabeledBatch(
            rng.normal(size=(n, num_features)),
            rng.integers(0, num_classes, size=n),
        )
        grad = gradient(model, batch)
        flat = np.concatenate([model.weights.ravel(), model.biases])
        analytic = np.concatenate([grad.weights.ravel(), grad.biases])
        numeric = np.empty_like(flat)
        for j in range(flat.size):
            plus, minus = flat.copy(), flat.copy()
            plus[j] += step
            minus[j] -= step
            w_p = plus[: model.weights.size].reshape(model.weights.shape)
            w_m = minus[: model.weights.size].reshape(model.weights.shape)
            numeric[j] = (
                loss(ModelParams(w_p, plus[model.weights.size:]), batch)
                - loss(ModelParams(w_m, minus[model.weights.size:]), batch)
            ) / (2.0 * step)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and elapsed < 1.0
    line = verdict(3, ok, f"50 instances, worst relative error {worst:.2e}, "
                          f"{elapsed:.2f}s")
    assert ok, line


def test_criterion_04_reduction_equivalences():
    """fedprox(rho=0) == fedavg and single-cluster cfhfc == fedavg, bit-exact
    over 10 seeds."""
    started = time.perf_counter()
    exact = True
    for seed in range(10):
        flat = run_training(small_scenario("fedavg", seed, 0.0), return_state=True)
        prox = run_training(small_scenario("fedprox", seed, 0.0), return_state=True)
        clustered = run_training(
            small_scenario("cfhfc", seed, 0.0, calib_enabled=False),
            return_state=True,
        )
        for other in (prox, clustered):
            exact &= np.array_equal(
                flat[1].global_model.weights, other[1].global_model.weights
            )
            exact &= np.array_equal(
                flat[1].global_model.biases, other[1].global_model.biases
            )
            exact &= [r.accuracy for r in flat[0]] == [r.accuracy for r in other[0]]
    elapsed = time.perf_counter() - started
    ok = exact and elapsed < 30.0
    line = verdict(4, ok, f"10 seeds, both reductions bit-exact = {exact}, "
                          f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_05_conformal_coverage():
    """Split-conformal coverage >= q - 2/sqrt(n_cal) averaged over 20 redraws."""
    started = time.perf_counter()
    source = SyntheticSource(num_classes=4, num_features=20,
                             samples_per_class=1000, class_separation=3.0)
    pool = generate_synthetic(source, seed=0)
    order = np.random.default_rng(99).permutation(len(pool))
    train = pool.subset(order[:1800])
    rest = pool.subset(order[1800:])
    model = local_train(
        ModelParams.zeros(4, 20),
        train,
        TrainConfig(learning_rate=0.1, batch_size=64, local_epochs=5,
                    dropout_rate=0.0),
        seed=0,
    )
    q, n_cal = 0.9, 200
    coverages = []
    for trial in range(20):
        split = np.random.default_rng(trial).permutation(len(rest))
        cal = rest.subset(split[:n_cal])
        test = rest.subset(split[n_cal:])
        tau = quantile(build_score_set(model, cal), q)
        coverages.append(float((build_score_set(model, test) <= tau).mean()))
    mean_cov = float(np.mean(coverages))
    bound = q - 2.0 / math.sqrt(n_cal)
    elapsed = time.perf_counter() - started
    ok = mean_cov >= bound and elapsed < 30.0
    line = verdict(5, ok, f"mean coverage {mean_cov:.4f} >= bound {bound:.4f}, "
                          f"{elapsed:.1f}s")
    assert ok, line


@pytest.mark.slow
def test_criterion_06_heterogeneity_benefit():
    """Accuracy race on the default 20-client preset, 10 seeds.

    A seed passes when the clustered method's final accuracy is at least the
    flat baseline's AND it reaches 95% of its own final accuracy within the
    rounds the baseline needs to reach that same level (never reached counts
    as infinite). The bar is 8 of 10 seeds.
    """
    started = time.perf_counter()

    def rounds_to_reach(trace, level):
        for i, value in enumerate(trace):
            if value >= level:
                return i + 1
        return math.inf

    rows = []
    passes = 0
    for seed in range(10):
        cf = run_training(build_scenario("scenario1", seed=seed, method="cfhfc"))
        fa = run_training(build_scenario("scenario1", seed=seed, method="fedavg"))
        cf_trace = [r.accuracy for r in cf]
        fa_trace = [r.accuracy for r in fa]
        level = 0.95 * cf_trace[-1]
        r_cf = rounds_to_reach(cf_trace, level)
        r_fa = rounds_to_reach(fa_trace, level)
        acc_ok = cf_trace[-1] >= fa_trace[-1]
        race_ok = r_cf <= r_fa
        seed_pass = acc_ok and race_ok
        passes += seed_pass
        rows.append(
            f"  seed {seed}: cfhfc {cf_trace[-1]:.4f} ({len(cf_trace)} rounds, "
            f"95% level in {r_cf}), fedavg {fa_trace[-1]:.4f} "
            f"({len(fa_trace)} rounds, level in {r_fa}) -> "
            f"{'pass' if seed_pass else 'FAIL'}"
        )
    elapsed = time.perf_counter() - started
    ok = passes >= 8 and elapsed < 300.0
    line = verdict(6, ok, f"{passes}/10 seeds (need 8), {elapsed:.0f}s")
    print("\n".join(rows))
    if not ok:
        pytest.fail(
            line
            + "\n"
            + "\n".join(rows)
            + "\n\nKnown negative result, kept honest rather than tuned away:\n"
            "with the pinned defaults (learning rate 0.001, proximal "
            "coefficient 0.6, 20 rounds) the reported accuracy is the binary "
            "attack-vs-normal rate, which plateaus near the 0.75 base rate "
            "while multiclass progress is still happening; the proximal pull "
            "damps per-round movement; and the fog tier weights member "
            "updates by membership only, so large-data clients carry no "
            "extra weight inside a cluster. A control run that swaps only "
            "the fog reduction for size-weighted averaging (the fedprox "
            "baseline) clears the race on the same seeds, isolating the "
            "deficit to the membership-only weighting. Sweeps over learning "
            "rate (0.001 to 0.5), class separation (3 to 8) and dataset "
            "size never reached 8/10 under this decision rule, so the "
            "criterion is reported as failing instead of weakening the "
            "test or shipping non-default hyperparameters."
        )
    assert ok, line


def test_criterion_07_latency_ordering():
    """Clustered sync latency sits 25-50% below the flat baseline at every
    client count in {20, 40, 60, 80, 100}."""
    started = time.perf_counter()
    scenario = build_scenario("scenario1")
    table = straggler_metrics(
        scenario,
        fractions=(0.0,),
        client_counts=(20, 40, 60, 80, 100),
        methods=("cfhfc", "fedavg"),
    )
    reductions = {}
    ok = True
    for n in (20, 40, 60, 80, 100):
        cf = table["cfhfc"][n][0.0]["sync_latency_s"]
        fa = table["fedavg"][n][0.0]["sync_latency_s"]
        reduction = 100.0 * (1.0 - cf / fa)
        reductions[n] = reduction
        ok &= 25.0 <= reduction <= 50.0
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    detail = ", ".join(f"N={n}: {reductions[n]:.1f}%" for n in sorted(reductions))
    line = verdict(7, ok, f"reduction vs flat baseline [{detail}], {elapsed:.0f}s")
    assert ok, line


def test_criterion_08_straggler_resilience():
    """At 30% stragglers (slowdown 3, N=100): clustered relative time <= 155%
    of its own baseline, flat baseline >= 180%, and the mitigation ordering
    cfhfc > fedprox > fedavg holds."""
    started = time.perf_counter()
    scenario = build_scenario("scenario1")
    table = straggler_metrics(
        scenario,
        fractions=(0.0, 0.3),
        client_counts=(100,),
        methods=("cfhfc", "fedavg", "fedprox"),
    )
    rel = {m: table[m][100][0.3]["relative_pct"] for m in table}
    sme = {m: table[m][100][0.3]["sme"] for m in table}
    ok = (
        rel["cfhfc"] <= 155.0
        and rel["fedavg"] >= 180.0
        and sme["cfhfc"] > sme["fedprox"] > sme["fedavg"]
    )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    line = verdict(
        8,
        ok,
        f"relative time cfhfc {rel['cfhfc']:.1f}% / fedavg {rel['fedavg']:.1f}%, "
        f"sme {sme['cfhfc']:.3f} > {sme['fedprox']:.3f} > {sme['fedavg']:.3f}, "
        f"{elapsed:.0f}s",
    )
    assert ok, line


def test_criterion_09_determinism(tmp_path):
    """Two identical compare runs produce byte-identical artifacts."""
    started = time.perf_counter()
    config = {
        "method": "cfhfc",
        "seed": 3,
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
            "holdout_fraction": 0.2,
        },
        "train": {"learning_rate": 0.05, "batch_size": 32, "local_epochs": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["compare", "--config", str(path)]
    code_a = main(args + ["--out", str(out_a)])
    code_b = main(args + ["--out", str(out_b)])
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("compare.csv", "compare.json")
    )
    elapsed = time.perf_counter() - started
    ok = code_a == 0 and code_b == 0 and same and elapsed < 300.0
    line = verdict(9, ok, f"compare.csv and compare.json byte-identical = {same}, "
                          f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_10_calibration_behavior():
    """Raising the threshold never raises the suspicious count, and
    calibration never rewrites model parameters."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    params = ModelParams(rng.normal(size=(4, 6)), rng.normal(size=4))
    features = rng.normal(size=(300, 6))
    counts = []
    for tau in np.linspace(0.01, 0.999, 20):
        model = CalibratedModel(params, threshold=float(tau), confidence=0.9)
        decisions = predict_with_calibration(model, features)
        counts.append(sum(d.kind == "suspicious" for d in decisions))
    monotone = all(a >= b for a, b in zip(counts, counts[1:]))

    snapshot = params.copy()
    batch = LabeledBatch(rng.normal(size=(50, 6)), rng.integers(0, 4, size=50))
    cluster = ClusterModel(params=params, total_data=100, mean_membership=0.7)
    calibrated, _ = calibrate(cluster, batch, CalibrationState())
    untouched = np.array_equal(
        calibrated.params.weights, snapshot.weights
    ) and np.array_equal(calibrated.params.biases, snapshot.biases)

    elapsed = time.perf_counter() - started
    ok = monotone and untouched and elapsed < 10.0
    line = verdict(
        10,
        ok,
        f"suspicious counts monotone = {monotone}, parameters untouched = "
        f"{untouched}, {elapsed:.2f}s",
    )
    assert ok, line
