"""Tests for synthetic data generation, CSV loading and client partitioning."""

import copy
import warnings

import numpy as np
import pytest

from cfhfc import (
    ClientDataset,
    CsvSource,
    DatasetSpec,
    LabeledBatch,
    ModelParams,
    SyntheticSource,
    TrainConfig,
    client_sizes,
    generate_synthetic,
    load_csv,
    local_train,
    materialize_clients,
    predict_proba,
)
from cfhfc.clustering import minmax_scale
from cfhfc.data import _dirichlet_rows, _gather_clients, _shard_rows

FIT_CFG = TrainConfig(learning_rate=0.1, batch_size=64, local_epochs=5,
                      dropout_rate=0.0)


def fit_and_score(data: LabeledBatch, num_classes: int) -> float:
    model = ModelParams.zeros(num_classes, data.features.shape[1])
    trained = local_train(model, data, FIT_CFG, seed=0)
    return float(np.mean(predict_proba(trained, data.features).argmax(axis=1) == data.labels))


class TestGenerateSynthetic:
    SOURCE = SyntheticSource(num_classes=4, num_features=10, samples_per_class=250)

    def test_shape_and_label_layout(self):
        data = generate_synthetic(self.SOURCE, seed=0)
        assert data.features.shape == (1000, 10)
        assert (np.diff(data.labels) >= 0).all()
        assert (np.bincount(data.labels, minlength=4) == 250).all()

    def test_features_scaled_to_unit_interval(self):
        data = generate_synthetic(self.SOURCE, seed=1)
        assert data.features.min() == 0.0
        assert data.features.max() == 1.0

    def test_deterministic_per_seed(self):
        a = generate_synthetic(self.SOURCE, seed=5)
        b = generate_synthetic(self.SOURCE, seed=5)
        c = generate_synthetic(self.SOURCE, seed=6)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_zero_separation_is_unlearnable(self):
        source = SyntheticSource(num_classes=4, num_features=10,
                                 samples_per_class=250, class_separation=0.0)
        data = generate_synthetic(source, seed=2)
        assert abs(fit_and_score(data, 4) - 0.25) < 0.05

    def test_wide_separation_is_learnable(self):
        source = SyntheticSource(num_classes=2, num_features=10,
                                 samples_per_class=250, class_separation=10.0)
        data = generate_synthetic(source, seed=3)
        assert fit_and_score(data, 2) >= 0.99


class TestLoadCsv:
    @staticmethod
    def write(tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_string_labels_mapped_by_first_appearance(self, tmp_path):
        path = self.write(
            tmp_path,
            "f1,f2,label\n0.1,0.2,normal\n0.3,0.4,ddos\n0.5,0.6,normal\n",
        )
        data = load_csv(path, "label", num_classes=2)
        np.testing.assert_array_equal(data.labels, [0, 1, 0])
        assert data.features.shape == (3, 2)

    def test_integer_labels_used_directly(self, tmp_path):
        path = self.write(tmp_path, "f1,label\n0.1,1\n0.2,0\n0.3,1\n")
        data = load_csv(path, "label", num_classes=2)
        np.testing.assert_array_equal(data.labels, [1, 0, 1])

    def test_features_minmax_scaled(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,label\n0.0,7.0,a\n10.0,7.0,b\n5.0,7.0,a\n")
        data = load_csv(path, "label", num_classes=2)
        np.testing.assert_allclose(data.features[:, 0], [0.0, 1.0, 0.5], atol=1e-15)
        np.testing.assert_array_equal(data.features[:, 1], 0.5)

    def test_malformed_rows_skipped_with_line_numbers(self, tmp_path):
        path = self.write(
            tmp_path,
            "f1,f2,label\n0.1,0.2,normal\nnot_a_number,0.4,ddos\n0.5,0.6,ddos\n",
        )
        with pytest.warns(RuntimeWarning, match=r"line\(s\) \[3\]"):
            data = load_csv(path, "label", num_classes=2)
        assert len(data) == 2
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_non_finite_rows_skipped_like_malformed_ones(self, tmp_path):
        path = self.write(
            tmp_path,
            "f1,f2,label\n0.1,0.2,normal\nnan,0.4,ddos\n0.5,inf,ddos\n"
            "0.7,x,normal\n0.5,0.6,ddos\n",
        )
        with pytest.warns(RuntimeWarning, match=r"skipped 3 .* line\(s\) \[3, 4, 5\]"):
            data = load_csv(path, "label", num_classes=2)
        np.testing.assert_allclose(data.features, [[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv", "label", num_classes=2)

    def test_missing_label_column(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,target\n0.1,0.2,1\n0.2,0.3,0\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path, "label", num_classes=2)

    def test_no_valid_rows(self, tmp_path):
        path = self.write(tmp_path, "f1,label\nbad,x\nworse,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError):
                load_csv(path, "label", num_classes=2)

    def test_label_out_of_declared_range(self, tmp_path):
        path = self.write(tmp_path, "f1,label\n0.1,0\n0.2,5\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path, "label", num_classes=2)


def synthetic_spec(n_per_class, num_classes, seed, partition="dirichlet", **fields):
    """A spec over class-balanced synthetic rows with no holdout unless fields set one."""
    source = SyntheticSource(num_classes=num_classes, num_features=5,
                             samples_per_class=n_per_class)
    fields.setdefault("holdout_fraction", 0.0)
    return DatasetSpec(source=source, partition=partition, seed=seed, **fields)


def client_labels(client):
    return np.concatenate([client.train.labels]
                          + ([client.calibration.labels] if client.calibration else []))


class TestSplitHoldout:
    @staticmethod
    def spec(holdout_fraction, seed=1):
        # a shard partition without calibration gives every pool row to one client
        return synthetic_spec(50, 2, seed, "by_class_shards", holdout_fraction=holdout_fraction,
                              calibration_fraction=0.0)

    def test_sizes_and_disjointness(self):
        spec = self.spec(0.2)
        clients, holdout = materialize_clients(spec, 4, min_samples=8)
        assert len(holdout) == 20
        assert sum(c.size for c in clients) == 80
        combined = np.vstack([c.train.features for c in clients] + [holdout.features])
        assert combined.shape == (100, 5)
        # every generated row appears exactly once across the clients and the holdout
        original = {tuple(r) for r in generate_synthetic(spec.source, spec.seed).features}
        assert {tuple(r) for r in combined} == original

    def test_zero_fraction_returns_none(self):
        clients, holdout = materialize_clients(self.spec(0.0), 4, min_samples=8)
        assert holdout is None
        assert sum(c.size for c in clients) == 100

    def test_deterministic(self):
        _, h1 = materialize_clients(self.spec(0.2, seed=7), 4, min_samples=8)
        _, h2 = materialize_clients(self.spec(0.2, seed=7), 4, min_samples=8)
        np.testing.assert_array_equal(h1.features, h2.features)


class TestDirichletPartition:
    @staticmethod
    def spec(seed, concentration, n_per_class=200, num_classes=4, **fields):
        return synthetic_spec(n_per_class, num_classes, seed, concentration=concentration,
                              **fields)

    def test_single_client_gets_everything(self):
        clients, _ = materialize_clients(self.spec(0, 0.3), 1, min_samples=1)
        assert len(clients) == 1
        assert clients[0].size == 800

    def test_sample_conservation_without_topup(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any top-up warning fails the test
            clients, _ = materialize_clients(self.spec(1, 10.0), 4, min_samples=8)
        assert sum(c.size for c in clients) == 800

    def test_high_concentration_approaches_global_mix(self):
        clients, _ = materialize_clients(self.spec(2, 1e6), 4, min_samples=8)
        for client in clients:
            labels = client_labels(client)
            proportions = np.bincount(labels, minlength=4) / len(labels)
            np.testing.assert_allclose(proportions, 0.25, atol=0.05)

    def test_low_concentration_skews_clients(self):
        clients, _ = materialize_clients(self.spec(3, 0.1), 4, min_samples=8)
        max_share = 0.0
        for client in clients:
            labels = client_labels(client)
            share = np.bincount(labels, minlength=4).max() / len(labels)
            max_share = max(max_share, share)
        assert max_share > 0.5  # at least one client is dominated by one class

    def test_train_and_calibration_disjoint(self):
        spec = self.spec(4, 0.5, calibration_fraction=0.2)
        clients, _ = materialize_clients(spec, 3, min_samples=8)
        for client in clients:
            assert client.calibration is not None
            train_rows = {tuple(r) for r in client.train.features}
            cal_rows = {tuple(r) for r in client.calibration.features}
            assert not train_rows & cal_rows

    def test_small_pool_tops_up_to_minimum(self):
        spec = self.spec(5, 0.05, n_per_class=30, num_classes=2)
        with pytest.warns(RuntimeWarning, match=r"topped up \d+ client\(s\) \[.*\] to 24 "
                          "samples with duplicates from the global pool"):
            clients, _ = materialize_clients(spec, 5, min_samples=24)
        for client in clients:
            assert client.size >= 24

    def test_deterministic(self):
        a, _ = materialize_clients(self.spec(6, 0.3), 4, min_samples=8)
        b, _ = materialize_clients(self.spec(6, 0.3), 4, min_samples=8)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.train.features, cb.train.features)
            np.testing.assert_array_equal(ca.train.labels, cb.train.labels)

    def test_min_samples_below_one_rejected_before_generation(self, monkeypatch):
        def generate(*args):
            raise AssertionError("data generated before min_samples was checked")

        monkeypatch.setattr("cfhfc.data.generate_synthetic", generate)
        spec = DatasetSpec(source=SyntheticSource(samples_per_class=10))
        with pytest.raises(ValueError, match="min_samples must be >= 1, got 0"):
            materialize_clients(spec, 60, min_samples=0)


class TestShardPartition:
    @staticmethod
    def spec(seed, n_per_class=100, num_classes=4, **fields):
        return synthetic_spec(n_per_class, num_classes, seed, "by_class_shards",
                              shards_per_client=2, **fields)

    def test_equal_sizes_when_divisible(self):
        # 400 rows into 4 clients x 2 shards = 8 shards of 50
        clients, _ = materialize_clients(self.spec(0, calibration_fraction=0.0), 4)
        assert all(c.size == 100 for c in clients)
        assert sum(c.size for c in clients) == 400

    def test_label_diversity_bounded_by_shards(self):
        clients, _ = materialize_clients(self.spec(1, calibration_fraction=0.0), 4)
        for client in clients:
            assert len(np.unique(client.train.labels)) <= 2

    def test_more_shards_than_rows_rejected(self):
        spec = self.spec(0, n_per_class=2, num_classes=2)
        with pytest.raises(ValueError, match=r"3 x 2 = 6 shards, but the pool has only 4 rows"):
            materialize_clients(spec, 3)

    @pytest.mark.parametrize("holdout_fraction", [0.0, 0.2])
    @pytest.mark.parametrize("samples_per_class", [4, 5, 6, 7])
    def test_config_check_agrees_with_the_generated_pool(self, samples_per_class,
                                                         holdout_fraction):
        spec = self.spec(0, n_per_class=samples_per_class, holdout_fraction=holdout_fraction)
        errors = []
        for call in (lambda: spec.check_shards(10), lambda: materialize_clients(spec, 10)):
            try:
                call()
                errors.append(None)
            except ValueError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]

    def test_deterministic(self):
        a, _ = materialize_clients(self.spec(2), 4)
        b, _ = materialize_clients(self.spec(2), 4)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.train.features, cb.train.features)


class TestMaterializeClients:
    def test_synthetic_pipeline_with_holdout(self):
        spec = DatasetSpec(
            source=SyntheticSource(num_classes=4, num_features=8,
                                   samples_per_class=100),
            partition="dirichlet",
            concentration=0.5,
            holdout_fraction=0.2,
            seed=3,
        )
        clients, holdout = materialize_clients(spec, 4, min_samples=8)
        assert len(clients) == 4
        assert holdout is not None
        assert len(holdout) == 80
        assert sum(c.size for c in clients) + len(holdout) == 400

    def test_no_holdout_when_fraction_zero(self):
        spec = DatasetSpec(
            source=SyntheticSource(num_classes=2, num_features=4,
                                   samples_per_class=100),
            concentration=5.0,
            holdout_fraction=0.0,
            seed=0,
        )
        _, holdout = materialize_clients(spec, 2, min_samples=8)
        assert holdout is None

    def test_shard_route(self):
        spec = DatasetSpec(
            source=SyntheticSource(num_classes=4, num_features=4,
                                   samples_per_class=100),
            partition="by_class_shards",
            shards_per_client=2,
            holdout_fraction=0.0,
            calibration_fraction=0.0,
            seed=1,
        )
        clients, _ = materialize_clients(spec, 4, min_samples=8)
        for client in clients:
            assert len(np.unique(client.train.labels)) <= 2

    def test_csv_route(self, tmp_path):
        lines = ["f1,f2,label"]
        rng = np.random.default_rng(0)
        for i in range(60):
            label = "atk" if i % 2 else "ok"
            lines.append(f"{rng.random():.6f},{rng.random():.6f},{label}")
        path = tmp_path / "flows.csv"
        path.write_text("\n".join(lines) + "\n")
        spec = DatasetSpec(
            source=CsvSource(path=str(path), label_column="label", num_classes=2),
            holdout_fraction=0.0,
            seed=0,
        )
        clients, _ = materialize_clients(spec, 2, min_samples=4)
        assert sum(c.size for c in clients) == 60


def outcome(call):
    """(result or ValueError text, RuntimeWarning texts) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except ValueError as exc:
            result = f"ValueError: {exc}"
    return result, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


class TestClientSizes:
    """client_sizes returns the sizes of materialize_clients' clients, with the same
    top-up warnings and the same errors, and leaves its spec alone."""

    @staticmethod
    def assert_sizes_match(spec, num_clients, min_samples):
        before = copy.deepcopy(spec)
        got = outcome(lambda: client_sizes(spec, num_clients, min_samples))
        want = outcome(lambda: [c.size for c in materialize_clients(spec, num_clients,
                                                                    min_samples)[0]])
        assert got == want
        assert spec == before
        return got

    @pytest.mark.parametrize("holdout_fraction", [0.0, 0.2])
    @pytest.mark.parametrize("calibration_fraction", [0.0, 0.2])
    @pytest.mark.parametrize("partition", ["dirichlet", "by_class_shards"])
    @pytest.mark.parametrize("num_clients", [1, 4, 60])
    def test_synthetic(self, num_clients, partition, calibration_fraction, holdout_fraction):
        # 40 rows: 60 clients force dirichlet top-ups and are more shards than rows
        spec = synthetic_spec(10, 4, 9, partition, concentration=0.4,
                              calibration_fraction=calibration_fraction,
                              holdout_fraction=holdout_fraction)
        sizes, warned = self.assert_sizes_match(spec, num_clients, 12)
        if num_clients == 60:
            if partition == "dirichlet":
                assert min(sizes) == 12
                assert warned and warned[0].startswith("topped up ")
            else:
                assert sizes.startswith("ValueError: num_clients x shards_per_client = 60 x 2")

    @pytest.mark.parametrize("partition", ["dirichlet", "by_class_shards"])
    def test_csv_with_string_labels(self, tmp_path, partition):
        rng = np.random.default_rng(4)
        names = ["normal", "scan", "flood"]
        rows = [f"{a:.6f},{b:.6f},{names[k]}"
                for a, b, k in zip(rng.random(50), rng.random(50), rng.integers(0, 3, 50))]
        path = tmp_path / "flows.csv"
        path.write_text("\n".join(["f1,f2,label", *rows]) + "\n")
        spec = DatasetSpec(source=CsvSource(path=str(path), num_classes=3),
                           partition=partition, holdout_fraction=0.2, seed=2)
        sizes, _ = self.assert_sizes_match(spec, 5, 10)
        assert len(sizes) == 5

    def test_generates_no_features(self, monkeypatch):
        def generate(*args):
            raise AssertionError("client_sizes generated features")

        monkeypatch.setattr("cfhfc.data.generate_synthetic", generate)
        spec = DatasetSpec(source=SyntheticSource(samples_per_class=100), holdout_fraction=0.0)
        assert sum(client_sizes(spec, 5, min_samples=1)) == 400

    @pytest.mark.parametrize("num_clients, min_samples, message", [
        (0, 64, "num_clients must be >= 1, got 0"),
        (5, 0, "min_samples must be >= 1, got 0"),
    ])
    def test_bad_request_rejected(self, num_clients, min_samples, message):
        with pytest.raises(ValueError, match=message):
            client_sizes(DatasetSpec(), num_clients, min_samples)


# The data layer as first written: a pool copied out of the generated matrix,
# one Python int per owned row sorted with sorted(), a client batch copied out
# of the pool and split again into train and calibration. The row-index data
# layer must reproduce it bit for bit.

def ref_generate_synthetic(source, seed):
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(source.num_classes, source.num_features))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    centers = source.class_separation * directions / norms
    features = np.concatenate(
        [
            centers[c] + rng.normal(size=(source.samples_per_class, source.num_features))
            for c in range(source.num_classes)
        ]
    )
    labels = np.repeat(np.arange(source.num_classes), source.samples_per_class)
    return LabeledBatch(minmax_scale(features), labels)


def ref_split_holdout(data, fraction, seed):
    if fraction == 0.0:
        return data, None
    n = len(data)
    n_holdout = int(round(fraction * n))
    n_holdout = min(max(n_holdout, 1), n - 1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return data.subset(perm[n_holdout:]), data.subset(perm[:n_holdout])


def ref_split_calibration(batch, fraction, rng):
    if fraction == 0.0 or len(batch) < 2:
        return batch, None
    n = len(batch)
    n_cal = min(max(int(round(fraction * n)), 1), n - 1)
    perm = rng.permutation(n)
    return batch.subset(perm[n_cal:]), batch.subset(perm[:n_cal])


def ref_dirichlet_partition(data, num_clients, concentration, seed,
                            calibration_fraction=0.1, min_samples=64):
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if concentration <= 0:
        raise ValueError(f"concentration must be positive, got {concentration}")
    rng = np.random.default_rng(seed)
    assignments = [[] for _ in range(num_clients)]
    for cls in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == cls)
        rng.shuffle(idx)
        shares = rng.dirichlet(np.full(num_clients, concentration))
        # cumulative rounding keeps the class exactly partitioned
        bounds = np.floor(np.cumsum(shares) * len(idx) + 0.5).astype(int)
        start = 0
        for client, stop in enumerate(bounds):
            assignments[client].extend(idx[start:stop])
            start = stop
    shortfall_clients = []
    for client, owned in enumerate(assignments):
        if len(owned) < min_samples:
            shortfall_clients.append(client)
            extra = rng.choice(len(data), size=min_samples - len(owned), replace=True)
            owned.extend(int(i) for i in extra)
    if shortfall_clients:
        warnings.warn(
            f"topped up {len(shortfall_clients)} client(s) {shortfall_clients} "
            f"to {min_samples} samples with duplicates from the global pool",
            RuntimeWarning,
            stacklevel=2,
        )
    clients = []
    for client, owned in enumerate(assignments):
        batch = data.subset(np.array(sorted(owned), dtype=np.int64))
        train, cal = ref_split_calibration(batch, calibration_fraction, rng)
        clients.append(ClientDataset(client, train, cal))
    return clients


def ref_shard_partition(data, num_clients, shards_per_client, seed,
                        calibration_fraction=0.1):
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if shards_per_client < 1:
        raise ValueError(
            f"shards_per_client must be >= 1, got {shards_per_client}"
        )
    rng = np.random.default_rng(seed)
    order = np.argsort(data.labels, kind="stable")
    shards = np.array_split(order, num_clients * shards_per_client)
    shard_ids = rng.permutation(num_clients * shards_per_client)
    clients = []
    for client in range(num_clients):
        mine = shard_ids[client * shards_per_client : (client + 1) * shards_per_client]
        idx = np.concatenate([shards[s] for s in mine])
        batch = data.subset(np.sort(idx))
        train, cal = ref_split_calibration(batch, calibration_fraction, rng)
        clients.append(ClientDataset(client, train, cal))
    return clients


def ref_materialize_clients(spec, num_clients, min_samples=64):
    if isinstance(spec.source, SyntheticSource):
        full = ref_generate_synthetic(spec.source, spec.seed)
    else:
        full = load_csv(
            spec.source.path, spec.source.label_column, spec.source.num_classes
        )
    pool, holdout = ref_split_holdout(full, spec.holdout_fraction, spec.seed)
    if spec.partition == "dirichlet":
        clients = ref_dirichlet_partition(
            pool,
            num_clients,
            spec.concentration,
            spec.seed,
            spec.calibration_fraction,
            min_samples,
        )
    else:
        clients = ref_shard_partition(
            pool,
            num_clients,
            spec.shards_per_client,
            spec.seed,
            spec.calibration_fraction,
        )
    return clients, holdout


def assert_batches_equal(got, want):
    if want is None:
        assert got is None
        return
    np.testing.assert_array_equal(got.features, want.features)
    np.testing.assert_array_equal(got.labels, want.labels)


def replay(call, reference):
    """Run both sides and return their results and top-up warning texts; a
    ValueError on the reference side must be a ValueError on ours too."""
    out = []
    for fn in (call, reference):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = fn()
            except ValueError:
                result = None
        out.append((result, [str(w.message) for w in caught
                             if issubclass(w.category, RuntimeWarning)]))
    (got, got_warned), (want, want_warned) = out
    assert (got is None) == (want is None)
    assert got_warned == want_warned
    return got, want


def assert_clients_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.client_id == w.client_id
        assert_batches_equal(g.train, w.train)
        assert_batches_equal(g.calibration, w.calibration)


def dirichlet_clients(data, num_clients, concentration, seed, calibration_fraction,
                      min_samples):
    """materialize_clients' dirichlet route, run on a hand-made pool."""
    rng = np.random.default_rng(seed)
    owned = _dirichlet_rows(data.labels, num_clients, concentration, rng, min_samples)
    return _gather_clients(data, owned, calibration_fraction, rng)


def shard_clients(data, num_clients, shards_per_client, seed, calibration_fraction):
    """materialize_clients' shard route, run on a hand-made pool."""
    rng = np.random.default_rng(seed)
    owned = _shard_rows(data.labels, num_clients, shards_per_client, rng)
    return _gather_clients(data, owned, calibration_fraction, rng)


class TestReferenceReplay:
    """Every client's rows, and the holdout, match the data layer as first
    written, over client counts from one to more than there are rows."""

    @staticmethod
    def gapped_pool():
        # 40 rows whose labels skip class 2
        rng = np.random.default_rng(11)
        return LabeledBatch(rng.random((40, 3)), rng.choice([0, 1, 3], size=40))

    @pytest.mark.parametrize("calibration_fraction", [0.0, 0.2])
    @pytest.mark.parametrize("min_samples", [0, 1, 12])
    @pytest.mark.parametrize("num_clients", [1, 5, 60])
    def test_dirichlet_partition(self, num_clients, min_samples, calibration_fraction):
        data = self.gapped_pool()
        features, labels = data.features.copy(), data.labels.copy()
        args = (data, num_clients, 0.5, 3, calibration_fraction, min_samples)
        got, want = replay(lambda: dirichlet_clients(*args),
                           lambda: ref_dirichlet_partition(*args))
        if want is not None:
            assert_clients_equal(got, want)
        np.testing.assert_array_equal(data.features, features)
        np.testing.assert_array_equal(data.labels, labels)

    @pytest.mark.parametrize("calibration_fraction", [0.0, 0.2])
    @pytest.mark.parametrize("num_clients", [1, 5, 60])
    def test_shard_partition(self, num_clients, calibration_fraction):
        data = self.gapped_pool()
        features, labels = data.features.copy(), data.labels.copy()
        args = (data, num_clients, 3, 4, calibration_fraction)
        got, want = replay(lambda: shard_clients(*args),
                           lambda: ref_shard_partition(*args))
        if want is not None:
            assert_clients_equal(got, want)
        np.testing.assert_array_equal(data.features, features)
        np.testing.assert_array_equal(data.labels, labels)

    @staticmethod
    def wide_pool():
        # 1,200 rows over 150 even labels up to 298, so shard labels need 16 bits
        rng = np.random.default_rng(12)
        return LabeledBatch(rng.random((1200, 2)), rng.choice(np.arange(0, 300, 2), size=1200))

    # owners fit 8 bits up to 256 clients and need 16 bits from 257
    @pytest.mark.parametrize("num_clients", [256, 257, 300])
    def test_more_than_255_clients(self, num_clients):
        data = self.wide_pool()
        for ours, reference, args in (
            (dirichlet_clients, ref_dirichlet_partition, (data, num_clients, 0.5, 3, 0.2, 5)),
            (shard_clients, ref_shard_partition, (data, num_clients, 4, 4, 0.2)),
        ):
            got, want = replay(lambda: ours(*args), lambda: reference(*args))
            assert want is not None
            assert_clients_equal(got, want)

    @pytest.mark.parametrize("holdout_fraction", [0.0, 0.2])
    @pytest.mark.parametrize("calibration_fraction", [0.0, 0.2])
    @pytest.mark.parametrize("partition", ["dirichlet", "by_class_shards"])
    @pytest.mark.parametrize("num_clients", [1, 4, 60])
    def test_materialize_clients(self, num_clients, partition, calibration_fraction,
                                 holdout_fraction):
        spec = DatasetSpec(
            source=SyntheticSource(num_classes=3, num_features=4, samples_per_class=15),
            partition=partition,
            concentration=0.4,
            calibration_fraction=calibration_fraction,
            holdout_fraction=holdout_fraction,
            seed=9,
        )
        got, want = replay(lambda: materialize_clients(spec, num_clients, 12),
                           lambda: ref_materialize_clients(spec, num_clients, 12))
        if want is not None:
            assert_clients_equal(got[0], want[0])
            assert_batches_equal(got[1], want[1])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generate_synthetic(self, seed):
        source = SyntheticSource(num_classes=3, num_features=5, samples_per_class=40,
                                 class_separation=2.0)
        assert_batches_equal(generate_synthetic(source, seed),
                             ref_generate_synthetic(source, seed))
