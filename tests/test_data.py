"""Dataset loading, synthetic generation, and batching."""

import re

import numpy as np
import pytest

import quantbench.data as data
from quantbench.data import (
    CIFAR_RECORD_BYTES,
    Dataset,
    _teacher_for,
    batches,
    load_cifar10,
    load_csv,
    make_synthetic,
    synthetic_split,
)
from quantbench.errors import ConfigError, DataFormatError
from quantbench.nn import predict
from quantbench.tensor import Rng, Tensor


class TestDataset:
    def test_label_range_validated(self):
        x = Tensor.zeros((4, 3))
        with pytest.raises(DataFormatError):
            Dataset(x, np.array([0, 1, 2, 3]), class_count=3)
        with pytest.raises(DataFormatError):
            Dataset(x, np.array([0, -1, 0, 0]), class_count=3)

    def test_length_mismatch(self):
        with pytest.raises(DataFormatError):
            Dataset(Tensor.zeros((4, 3)), np.array([0, 1]), class_count=2)

    def test_subset(self):
        ds = Dataset(
            Tensor(np.arange(12.0).reshape(6, 2)), np.arange(6) % 3, class_count=3
        )
        sub = ds.subset(np.array([4, 0, 2]))
        assert np.array_equal(sub.features.ndarray, ds.features.ndarray[[4, 0, 2]])
        assert np.array_equal(sub.labels, np.array([1, 0, 2]))
        assert sub.class_count == 3
        assert sub.size == 3

    def test_subset_owns_read_only_features(self):
        ds = Dataset(
            Tensor(np.arange(12.0).reshape(6, 2)), np.arange(6) % 3, class_count=3
        )
        sub = ds.subset(np.arange(1, 4))
        assert not np.shares_memory(sub.features.ndarray, ds.features.ndarray)
        assert not np.shares_memory(sub.labels, ds.labels)
        assert not sub.features.ndarray.flags.writeable


    def test_labels_are_read_only_from_every_constructor(self, tmp_path):
        caller = np.arange(6) % 3
        ds = Dataset(Tensor.zeros((6, 2)), caller, class_count=3)
        (tmp_path / "d.csv").write_text("0.5,1\n0.25,0\n")
        split = synthetic_split("blobs", 6, 3, 3, 3, seed=1)
        parts = (ds, ds.subset(np.arange(2)), load_csv(tmp_path / "d.csv"),
                 split.train, split.valid, split.test)
        for part in parts:
            assert not part.labels.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                part.labels[0] = 1
        assert caller.flags.writeable  # the caller's array keeps its flags


class TestSynthetic:
    def test_blobs_shapes_and_determinism(self):
        a = make_synthetic("blobs", 50, 4, seed=3, dim=8)
        b = make_synthetic("blobs", 50, 4, seed=3, dim=8)
        c = make_synthetic("blobs", 50, 4, seed=4, dim=8)
        assert a.features.shape == (50, 8) and a.labels.shape == (50,)
        assert np.array_equal(a.features.ndarray, b.features.ndarray)
        assert not np.array_equal(a.features.ndarray, c.features.ndarray)
        assert a.class_count == 4

    def test_blobs_all_classes_present(self):
        ds = make_synthetic("blobs", 200, 5, seed=1, dim=6)
        assert set(np.unique(ds.labels)) == set(range(5))

    def test_blobs_reshaped(self):
        ds = make_synthetic("blobs", 20, 3, seed=2, shape=(2, 4, 4))
        assert ds.features.shape == (20, 2, 4, 4)

    def test_shape_only_for_blobs(self):
        with pytest.raises(ConfigError):
            make_synthetic("spirals", 20, 3, seed=2, shape=(2, 4, 4))

    def test_spirals_two_dimensional(self):
        ds = make_synthetic("spirals", 90, 3, seed=7)
        assert ds.features.shape == (90, 2)
        assert set(np.unique(ds.labels)) == {0, 1, 2}

    def test_teacher_net_labels_match_teacher(self):
        ds = make_synthetic("teacher_net", 64, 5, seed=9, dim=12)
        probs = predict(_teacher_for(9, 12, 5), ds.features.ndarray)
        assert np.array_equal(np.argmax(probs, axis=1), ds.labels)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_synthetic("moons", 20, 2, seed=0)

    def test_fewer_samples_than_classes(self):
        with pytest.raises(ConfigError):
            make_synthetic("blobs", 2, 3, seed=0)

    @pytest.mark.parametrize("kind, spread", [
        ("blobs", float("nan")), ("spirals", float("inf")),
        ("teacher_net", -float("inf")), ("blobs", -1.0),  # negative, as bad
    ])
    def test_non_finite_spread_rejected(self, kind, spread):
        with pytest.raises(ConfigError, match="spread"):
            make_synthetic(kind, 30, 3, seed=1, dim=4, spread=spread)
        with pytest.raises(ConfigError, match="spread"):
            synthetic_split(kind, 30, 10, 10, 3, 1, dim=4, spread=spread)

    def test_split_disjoint_and_seeded(self):
        split = synthetic_split("blobs", 60, 20, 20, classes=3, seed=5, dim=4)
        assert split.train.features.shape == (60, 4)
        assert split.valid.features.shape == (20, 4)
        assert split.test.features.shape == (20, 4)
        pool = np.vstack(
            [
                split.train.features.ndarray,
                split.valid.features.ndarray,
                split.test.features.ndarray,
            ]
        )
        assert len(np.unique(pool, axis=0)) == 100
        again = synthetic_split("blobs", 60, 20, 20, classes=3, seed=5, dim=4)
        assert np.array_equal(split.test.features.ndarray, again.test.features.ndarray)

    def test_split_shares_teacher(self):
        split = synthetic_split("teacher_net", 30, 10, 10, classes=3, seed=2, dim=6)
        teacher = _teacher_for(2, 6, 3)
        for part in (split.train, split.valid, split.test):
            probs = predict(teacher, part.features.ndarray)
            assert np.array_equal(np.argmax(probs, axis=1), part.labels)


class TestCsv:
    def test_round_trip_with_labels_file(self, tmp_path):
        ds = make_synthetic("blobs", 30, 3, seed=8, dim=5)
        fp = tmp_path / "feat.csv"
        lp = tmp_path / "lab.csv"
        np.savetxt(fp, ds.features.ndarray, fmt="%.17g", delimiter=",")
        np.savetxt(lp, ds.labels, fmt="%.17g", delimiter=",")
        loaded = load_csv(fp, labels_path=lp, class_count=3)
        assert np.array_equal(loaded.features.ndarray, ds.features.ndarray)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_round_trip_label_column(self, tmp_path):
        ds = make_synthetic("blobs", 12, 3, seed=8, dim=4)
        fp = tmp_path / "combined.csv"
        rows = np.column_stack([ds.features.ndarray, ds.labels])
        np.savetxt(fp, rows, fmt="%.17g", delimiter=",")
        loaded = load_csv(fp, class_count=3)
        assert np.array_equal(loaded.features.ndarray, ds.features.ndarray)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_label_column_fallback(self, tmp_path):
        p = tmp_path / "combined.csv"
        p.write_text("1.0,2.0,0\n3.0,4.0,2\n5.0,6.0,1\n")
        ds = load_csv(p, class_count=3)
        assert ds.features.shape == (3, 2)
        assert np.array_equal(ds.labels, np.array([0, 2, 1]))

    def test_class_count_defaults_to_max_label(self, tmp_path):
        p = tmp_path / "combined.csv"
        p.write_text("1.0,2.0,0\n3.0,4.0,4\n")
        assert load_csv(p).class_count == 5

    def test_class_count_stops_at_the_cap(self, tmp_path):
        p = tmp_path / "many.csv"
        p.write_text(f"1.0,0\n2.0,{data.MAX_CLASSES - 1}\n")
        assert load_csv(p).class_count == data.MAX_CLASSES
        p.write_text(f"1.0,0\n2.0,{data.MAX_CLASSES}\n")
        with pytest.raises(DataFormatError, match=r"many\.csv: largest label 65536 "):
            load_csv(p)

    def test_header_detected(self, tmp_path):
        p = tmp_path / "with_header.csv"
        p.write_text("x1,x2,label\n1.0,2.0,0\n3.0,4.0,1\n")
        ds = load_csv(p, class_count=2)
        assert ds.features.shape == (2, 2)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1.0,2.0,0\n3.0,1\n")
        with pytest.raises(DataFormatError, match=r"ragged\.csv:2"):
            load_csv(p, class_count=2)

    def test_non_numeric_cell_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0,0\n3.0,oops,1\n")
        with pytest.raises(DataFormatError, match=r"bad\.csv:2"):
            load_csv(p, class_count=2)

    def test_non_integer_labels_rejected(self, tmp_path):
        p = tmp_path / "frac.csv"
        p.write_text("1.0,2.0,0.5\n")
        with pytest.raises(DataFormatError):
            load_csv(p, class_count=2)

    @pytest.mark.parametrize("label, row, shown", [
        ("1e300", 1, "1e+300"), ("inf", 2, "inf"), ("9223372036854775808", 1, "9.22"),
        ("-inf", 2, "-inf"), ("nan", 2, "nan"),
    ])
    def test_unrepresentable_label_rejected(self, tmp_path, label, row, shown):
        p = tmp_path / "big.csv"
        rows = ["1.0,0", f"2.0,{label}"] if row == 2 else [f"1.0,{label}", "2.0,0"]
        p.write_text("\n".join(rows) + "\n")
        # Under the warnings-as-errors filter: no cast or subtraction warns first.
        shown = re.escape(f"row {row} has value {shown}")
        with pytest.raises(DataFormatError, match=shown):
            load_csv(p)

    def test_labels_length_mismatch(self, tmp_path):
        fp = tmp_path / "feat.csv"
        lp = tmp_path / "lab.csv"
        fp.write_text("1.0,2.0\n3.0,4.0\n")
        lp.write_text("0\n")
        with pytest.raises(DataFormatError, match="1 labels for 2 samples"):
            load_csv(fp, labels_path=lp)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_csv(tmp_path / "absent.csv", class_count=2)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("\n\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv(p)


class TestImageBatches:
    def _write_batch(self, path, n, seed):
        rng = np.random.RandomState(seed)
        records = np.empty((n, CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] = rng.randint(0, 10, size=n)
        records[:, 1:] = rng.randint(0, 256, size=(n, 3072))
        path.write_bytes(records.tobytes())

    def _write_all(self, directory, per_batch=24, test_n=12):
        for i in range(1, 6):
            self._write_batch(directory / f"data_batch_{i}.bin", per_batch, seed=i)
        self._write_batch(directory / "test_batch.bin", test_n, seed=99)

    def test_loads_and_splits(self, tmp_path, monkeypatch):
        # Desk-sized stand-in with the real record layout.
        monkeypatch.setattr(data, "CIFAR_VALID_COUNT", 20)
        self._write_all(tmp_path)
        split = load_cifar10(tmp_path)
        assert split.train.features.shape == (100, 3, 32, 32)
        assert split.valid.features.shape == (20, 3, 32, 32)
        assert split.test.features.shape == (12, 3, 32, 32)
        px = split.train.features.ndarray
        assert px.max() <= 1.0 and px.min() >= 0.0
        assert split.train.class_count == 10

    def test_validation_is_tail_of_train(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "CIFAR_VALID_COUNT", 20)
        self._write_all(tmp_path)
        split = load_cifar10(tmp_path)
        raw = np.frombuffer(
            (tmp_path / "data_batch_5.bin").read_bytes(), dtype=np.uint8
        ).reshape(-1, CIFAR_RECORD_BYTES)
        last = raw[-1, 1:].reshape(3, 32, 32).astype(np.float64) / 255.0
        assert np.array_equal(split.valid.features.ndarray[-1], last)

    def test_record_size_is_label_plus_pixels(self):
        assert CIFAR_RECORD_BYTES == 1 + 3 * 32 * 32

    def test_truncated_batch_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "CIFAR_VALID_COUNT", 4)
        self._write_all(tmp_path, per_batch=8, test_n=4)
        bad = tmp_path / "data_batch_3.bin"
        bad.write_bytes(bad.read_bytes()[:-100])
        with pytest.raises(DataFormatError, match="data_batch_3.bin"):
            load_cifar10(tmp_path)

    def test_too_few_records_for_split(self, tmp_path):
        self._write_all(tmp_path, per_batch=4, test_n=2)
        with pytest.raises(DataFormatError, match="validation"):
            load_cifar10(tmp_path)

    def test_missing_batch_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="missing batch"):
            load_cifar10(tmp_path)


class TestBatches:
    def _ds(self, n=10):
        return Dataset(
            Tensor(np.arange(float(n * 2)).reshape(n, 2)),
            np.arange(n) % 2,
            class_count=2,
        )

    def test_sequential_covers_everything(self):
        # Without an rng the batches are views, in order.
        ds = self._ds()
        got = list(batches(ds, 4))
        sizes = [feats.shape[0] for feats, _ in got]
        assert sizes == [4, 4, 2]
        for feats, labels in got:
            assert np.shares_memory(feats, ds.features.ndarray)
            assert np.shares_memory(labels, ds.labels)
        assert np.array_equal(np.vstack([f for f, _ in got]), ds.features.ndarray)
        assert np.array_equal(np.concatenate([l for _, l in got]), ds.labels)

    def test_shuffle_is_permutation(self):
        got = list(batches(self._ds(), 3, rng=Rng(5)))
        stacked = np.vstack([feats for feats, _ in got])
        assert not np.array_equal(stacked, self._ds().features.ndarray)
        assert np.array_equal(
            np.sort(stacked, axis=0), np.sort(self._ds().features.ndarray, axis=0)
        )

    def test_shuffle_deterministic_per_seed(self):
        a = np.vstack([f for f, _ in batches(self._ds(), 3, rng=Rng(7))])
        b = np.vstack([f for f, _ in batches(self._ds(), 3, rng=Rng(7))])
        assert np.array_equal(a, b)

    def test_labels_travel_with_rows(self):
        ds = self._ds()
        lookup = {tuple(f): l for f, l in zip(ds.features.ndarray, ds.labels)}
        for feats, labels in batches(ds, 4, rng=Rng(3)):
            for f, l in zip(feats, labels):
                assert lookup[tuple(f)] == l

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError):
            list(batches(self._ds(), 0))
