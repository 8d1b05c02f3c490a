"""Tests for synthetic data generation, CSV loading and client partitioning."""

import warnings

import numpy as np
import pytest

from cfhfc import (
    CsvSource,
    DatasetSpec,
    LabeledBatch,
    ModelParams,
    SyntheticSource,
    TrainConfig,
    accuracy,
    dirichlet_partition,
    generate_synthetic,
    load_csv,
    local_train,
    materialize_clients,
    shard_partition,
    split_holdout,
)

FIT_CFG = TrainConfig(learning_rate=0.1, batch_size=64, local_epochs=5,
                      dropout_rate=0.0)


def fit_and_score(data: LabeledBatch, num_classes: int) -> float:
    model = ModelParams.zeros(num_classes, data.features.shape[1])
    trained = local_train(model, data, FIT_CFG, seed=0)
    return accuracy(trained, data)


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


class TestSplitHoldout:
    @staticmethod
    def pool(n=100, seed=0):
        rng = np.random.default_rng(seed)
        return LabeledBatch(rng.random((n, 3)), rng.integers(0, 2, size=n))

    def test_sizes_and_disjointness(self):
        data = self.pool()
        remainder, holdout = split_holdout(data, 0.2, seed=1)
        assert len(holdout) == 20
        assert len(remainder) == 80
        combined = np.vstack([remainder.features, holdout.features])
        assert combined.shape == data.features.shape
        # every original row appears exactly once across the two splits
        original = {tuple(r) for r in data.features}
        assert {tuple(r) for r in combined} == original

    def test_zero_fraction_returns_none(self):
        data = self.pool()
        remainder, holdout = split_holdout(data, 0.0, seed=1)
        assert holdout is None
        assert remainder is data

    def test_deterministic(self):
        data = self.pool()
        _, h1 = split_holdout(data, 0.2, seed=7)
        _, h2 = split_holdout(data, 0.2, seed=7)
        np.testing.assert_array_equal(h1.features, h2.features)


class TestDirichletPartition:
    @staticmethod
    def pool(n_per_class=200, num_classes=4, seed=0):
        rng = np.random.default_rng(seed)
        features = rng.random((n_per_class * num_classes, 5))
        labels = np.repeat(np.arange(num_classes), n_per_class)
        return LabeledBatch(features, labels)

    def test_single_client_gets_everything(self):
        data = self.pool()
        clients = dirichlet_partition(data, 1, 0.3, seed=0, min_samples=1)
        assert len(clients) == 1
        assert clients[0].size == len(data)

    def test_sample_conservation_without_topup(self):
        data = self.pool()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any top-up warning fails the test
            clients = dirichlet_partition(data, 4, 10.0, seed=1, min_samples=8)
        assert sum(c.size for c in clients) == len(data)

    def test_high_concentration_approaches_global_mix(self):
        data = self.pool()
        clients = dirichlet_partition(data, 4, 1e6, seed=2, min_samples=8)
        for client in clients:
            labels = np.concatenate(
                [client.train.labels]
                + ([client.calibration.labels] if client.calibration else [])
            )
            proportions = np.bincount(labels, minlength=4) / len(labels)
            np.testing.assert_allclose(proportions, 0.25, atol=0.05)

    def test_low_concentration_skews_clients(self):
        data = self.pool()
        clients = dirichlet_partition(data, 4, 0.1, seed=3, min_samples=8)
        max_share = 0.0
        for client in clients:
            labels = np.concatenate(
                [client.train.labels]
                + ([client.calibration.labels] if client.calibration else [])
            )
            share = np.bincount(labels, minlength=4).max() / len(labels)
            max_share = max(max_share, share)
        assert max_share > 0.5  # at least one client is dominated by one class

    def test_train_and_calibration_disjoint(self):
        data = self.pool()
        clients = dirichlet_partition(data, 3, 0.5, seed=4, calibration_fraction=0.2,
                                      min_samples=8)
        for client in clients:
            assert client.calibration is not None
            train_rows = {tuple(r) for r in client.train.features}
            cal_rows = {tuple(r) for r in client.calibration.features}
            assert not train_rows & cal_rows

    def test_small_pool_tops_up_to_minimum(self):
        data = self.pool(n_per_class=30, num_classes=2)
        with pytest.warns(RuntimeWarning, match="topped up"):
            clients = dirichlet_partition(data, 5, 0.05, seed=5, min_samples=24)
        for client in clients:
            assert client.size >= 24

    def test_deterministic(self):
        data = self.pool()
        a = dirichlet_partition(data, 4, 0.3, seed=6, min_samples=8)
        b = dirichlet_partition(data, 4, 0.3, seed=6, min_samples=8)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.train.features, cb.train.features)
            np.testing.assert_array_equal(ca.train.labels, cb.train.labels)


class TestShardPartition:
    @staticmethod
    def pool(n_per_class=100, num_classes=4, seed=0):
        rng = np.random.default_rng(seed)
        features = rng.random((n_per_class * num_classes, 5))
        labels = np.repeat(np.arange(num_classes), n_per_class)
        return LabeledBatch(features, labels)

    def test_equal_sizes_when_divisible(self):
        data = self.pool()  # 400 rows into 4 clients x 2 shards = 8 shards of 50
        clients = shard_partition(data, 4, 2, seed=0, calibration_fraction=0.0)
        assert all(c.size == 100 for c in clients)
        assert sum(c.size for c in clients) == len(data)

    def test_label_diversity_bounded_by_shards(self):
        data = self.pool()
        clients = shard_partition(data, 4, 2, seed=1, calibration_fraction=0.0)
        for client in clients:
            assert len(np.unique(client.train.labels)) <= 2

    def test_deterministic(self):
        data = self.pool()
        a = shard_partition(data, 4, 2, seed=2)
        b = shard_partition(data, 4, 2, seed=2)
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
