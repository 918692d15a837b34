"""Epoch-set invariants, fingerprints and the stratified split protocol."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mibci.augment import AugmentConfig, augment_set
from mibci.epochs import EpochSet, SplitSpec, _stratified_draw, derive_seed, split_dataset
from mibci.io import load_epochs, save_epochs

from helpers import make_set


def balanced_set(per_class: int, num_classes: int = 2) -> EpochSet:
    return make_set(per_class, channels=2, samples=4, num_classes=num_classes)


def one_row(data, label: int = 1, rate: float = 250.0) -> EpochSet:
    """A one-epoch set holding ``data``."""
    return EpochSet(np.asarray(data, dtype=float)[np.newaxis], [label], rate, num_classes=2, subject_ids="s")


class TestEpoch:
    """One-epoch sets: the checks and copies a single trial gets."""

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            one_row([[1.0, np.nan]])

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label 0 outside 1..2"):
            one_row([[1.0, 2.0]], label=0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="sampling_rate"):
            one_row([[1.0, 2.0]], rate=0.0)

    def test_rejects_1d_data(self):
        with pytest.raises(ValueError, match="n, channels, samples"):
            one_row([1.0, 2.0])

    def test_data_is_read_only(self):
        dataset = one_row([[1.0, 2.0]])
        with pytest.raises(ValueError):
            dataset.data[0, 0, 0] = 5.0

    def test_does_not_mutate_caller_array(self):
        arr = np.array([[1.0, 2.0]])
        dataset = one_row(arr)
        arr[0, 0] = 7.0  # would raise if flags were shared
        assert dataset.data[0, 0, 0] == 1.0

    def test_fingerprint_sensitive_to_data_and_label(self):
        a = one_row([[1.0, 2.0]], label=1)
        b = one_row([[1.0, 2.0]], label=2)
        c = one_row([[1.0, 2.5]], label=1)
        assert len(a.epoch_fingerprints() | b.epoch_fingerprints() | c.epoch_fingerprints()) == 3
        assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3


class TestEpochSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty set"):
            EpochSet(np.zeros((0, 2, 4)), [], 250.0, num_classes=2)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            EpochSet(np.zeros((2, 2, 4)), [3, 1], 250.0, num_classes=2)

    def test_whole_float_labels_become_ints(self):
        dataset = EpochSet(np.zeros((3, 1, 2)), [1.0, 2.0, 2.0], 100.0)
        assert dataset.labels.dtype == np.int64
        assert dataset.labels.tolist() == [1, 2, 2]

    def test_require_all_classes(self):
        partial = EpochSet(np.zeros((1, 2, 4)), [1], 250.0, num_classes=2)
        with pytest.raises(ValueError, match="no epochs"):
            partial.require_all_classes()

    def test_require_all_classes_message_is_capped(self):
        sparse = EpochSet(np.zeros((2, 1, 2)), [1, 2], 100.0, num_classes=1000)
        with pytest.raises(ValueError) as info:
            sparse.require_all_classes()
        assert str(info.value) == "classes with no epochs: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and 988 more"

    def test_require_all_classes_lists_up_to_ten(self):
        sparse = EpochSet(np.zeros((2, 1, 2)), [1, 2], 100.0, num_classes=12)
        with pytest.raises(ValueError) as info:
            sparse.require_all_classes()
        assert str(info.value) == "classes with no epochs: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]"

    def test_array_round_trip(self):
        dataset = balanced_set(3)
        rebuilt = EpochSet(dataset.to_array(), dataset.labels, dataset.sampling_rate)
        assert np.array_equal(rebuilt.to_array(), dataset.to_array())
        assert np.array_equal(rebuilt.labels, dataset.labels)

    def test_with_data_keeps_labels_and_metadata(self):
        dataset = balanced_set(2)
        X = 2.0 * dataset.to_array()
        rebuilt = dataset.with_data(X)
        assert np.array_equal(rebuilt.to_array(), X)
        for column in ("labels", "subject_ids", "origins"):
            assert np.array_equal(getattr(rebuilt, column), getattr(dataset, column))
        with pytest.raises(ValueError):
            dataset.with_data(X[:-1])

    def test_fingerprint_changes_with_order(self):
        dataset = balanced_set(2)
        shuffled = dataset.subset([1, 0, 2, 3])
        assert dataset.fingerprint != shuffled.fingerprint


def reference_fingerprint(subject_id: str, label: int, rate: float, row: np.ndarray) -> str:
    """The per-epoch sha256 the set's row hashes must reproduce."""
    h = hashlib.sha256()
    h.update(subject_id.encode("utf-8"))
    h.update(np.int64(label).tobytes())
    h.update(np.float64(rate).tobytes())
    h.update(np.ascontiguousarray(row, dtype=np.float64).tobytes())
    return h.hexdigest()


def reference_set_fingerprint(rows, num_classes: int) -> str:
    """The set hash over ``(subject_id, label, rate, row)`` tuples in order."""
    h = hashlib.sha256()
    h.update(np.int64(num_classes).tobytes())
    for row in rows:
        h.update(bytes.fromhex(reference_fingerprint(*row)))
    return h.hexdigest()


def rows_of(dataset: EpochSet) -> list[tuple]:
    return [(sid, label, dataset.sampling_rate, row)
            for sid, label, row in zip(dataset.subject_ids, dataset.labels, dataset.data)]


class TestArrayLayout:
    IDS = ["s1", "s\u00fc2", "", "s1"]
    LABELS = [1, 3, 2, 1]
    ORIGINS = ["recorded", "synthetic", "augmented", "recorded"]

    def standalone_rows(self) -> np.ndarray:
        return np.random.default_rng(8).normal(size=(4, 2, 5))

    def test_fingerprints_match_the_per_epoch_reference(self):
        data = self.standalone_rows()
        rows = [(sid, label, 160.0, row) for sid, label, row in zip(self.IDS, self.LABELS, data)]
        dataset = EpochSet(data, self.LABELS, 160.0, 3, self.IDS, self.ORIGINS)
        assert dataset.fingerprint == reference_set_fingerprint(rows, 3)
        assert dataset.epoch_fingerprints() == {reference_fingerprint(*row) for row in rows}
        assert [dataset.subset([i]).epoch_fingerprints() for i in range(4)] == [
            {reference_fingerprint(*row)} for row in rows
        ]
        picked = dataset.subset([3, 0, 0, 2])
        assert picked.fingerprint == reference_set_fingerprint([rows[i] for i in (3, 0, 0, 2)], 3)

    def test_loaded_and_augmented_fingerprints_match_the_reference(self, tmp_path):
        dataset = EpochSet(self.standalone_rows(), self.LABELS, 160.0, 3, self.IDS, self.ORIGINS)
        save_epochs(dataset, tmp_path / "rows.epb")
        loaded = load_epochs(tmp_path / "rows.epb")
        grown = augment_set(dataset, AugmentConfig(copies_per_epoch=2, rotation_half_range=1, seed=5))
        for derived in (loaded, grown, grown.subset([7, 7, 0])):
            assert derived.fingerprint == reference_set_fingerprint(rows_of(derived), 3)
            assert derived.epoch_fingerprints() == {reference_fingerprint(*row) for row in rows_of(derived)}

    def test_float32_data_is_kept_and_fingerprints_as_its_float64_value(self):
        single = self.standalone_rows().astype(np.float32)
        single.setflags(write=False)
        a = EpochSet(single, self.LABELS, 160.0, 3, self.IDS, self.ORIGINS)
        b = EpochSet(single.astype(np.float64), self.LABELS, 160.0, 3, self.IDS, self.ORIGINS)
        assert a.to_array() is single  # read-only float32 data is taken as it is
        assert b.to_array().dtype == np.float64
        assert EpochSet(single.astype(np.float16), self.LABELS, 160.0, 3).to_array().dtype == np.float64
        assert a.fingerprint == b.fingerprint == reference_set_fingerprint(rows_of(a), 3)
        assert a.epoch_fingerprints() == b.epoch_fingerprints()
        assert a.fingerprint_of([3, 0, 0]) == b.fingerprint_of([3, 0, 0]) == b.subset([3, 0, 0]).fingerprint

    def test_columns_round_trip_through_the_constructor(self):
        data = self.standalone_rows()
        dataset = EpochSet(data, self.LABELS, 160.0, 3, self.IDS, self.ORIGINS)
        assert dataset.to_array().shape == (4, 2, 5)
        assert dataset.labels.dtype == np.int64 and dataset.labels.tolist() == [1, 3, 2, 1]
        assert list(dataset.subject_ids) == self.IDS
        assert list(dataset.origins) == self.ORIGINS
        assert dataset.sampling_rate == 160.0
        assert np.array_equal(dataset.data, data)

    def test_arrays_are_read_only_and_rows_are_views(self):
        X = np.random.default_rng(0).normal(size=(3, 2, 4))
        dataset = EpochSet(X, [1, 2, 1], 100.0)
        assert not np.shares_memory(dataset.to_array(), X)
        X[0, 0, 0] = 99.0  # the caller's array stays writable and the set keeps its copy
        assert dataset.to_array()[0, 0, 0] != 99.0
        assert dataset.to_array() is dataset.data
        for arr in (dataset.data, dataset.labels):
            with pytest.raises(ValueError):
                arr[0] = 0
        row = dataset.data[0]
        assert np.shares_memory(row, dataset.data)
        with pytest.raises(ValueError):
            row[0, 0] = 1.0

    def test_scalar_columns_apply_to_every_row(self):
        dataset = EpochSet(np.zeros((2, 1, 3)), [1, 2], 50.0, subject_ids="x", origins="synthetic")
        assert dataset.num_classes == 2
        assert list(dataset.subject_ids) == ["x", "x"]
        assert list(dataset.origins) == ["synthetic", "synthetic"]

    @pytest.mark.parametrize(
        "data, labels, rate, match",
        [
            (np.zeros((0, 2, 3)), [], 100.0, "empty set"),
            (np.zeros((2, 3)), [1, 2], 100.0, "n, channels, samples"),
            (np.full((2, 1, 3), np.inf), [1, 2], 100.0, "non-finite"),
            (np.zeros((2, 1, 3)), [1], 100.0, "one label per epoch"),
            (np.zeros((2, 1, 3)), [0, 2], 100.0, "outside"),
            (np.zeros((2, 1, 3)), [1, 2], 0.0, "sampling_rate"),
            (np.zeros((4, 1, 3)), [1.5, 2.0, 1.0, 2.9], 100.0, "labels must be integers"),
            (np.zeros((2, 1, 3)), [np.nan, 1.0], 100.0, "labels must be integers"),
        ],
    )
    def test_constructor_validates_arrays(self, data, labels, rate, match):
        with pytest.raises(ValueError, match=match):
            EpochSet(data, labels, rate)


class TestSplit:
    def test_paper_counts_280_epochs(self):
        dataset = balanced_set(140)  # 280 total, 2 classes
        split = split_dataset(dataset, SplitSpec(test_fraction=0.2, validation_fraction=0.1, seed=7))
        assert len(split.test_indices) == 56
        pool = len(split.train_indices) + len(split.validation_indices)
        assert pool == 224
        # floor(0.1 * 112) per class -> 11 + 11 validation, remainder to train
        assert len(split.validation_indices) == 22
        assert len(split.train_indices) == 202

    def test_minimal_stratification(self):
        dataset = balanced_set(5)  # 10 epochs, 2 classes
        split = split_dataset(dataset, SplitSpec(test_fraction=0.2, validation_fraction=0.1, seed=1))
        labels = dataset.labels
        test_labels = labels[list(split.test_indices)]
        assert sorted(test_labels.tolist()) == [1, 2]

    def test_deterministic_given_seed(self):
        dataset = balanced_set(25)
        spec = SplitSpec(seed=99)
        assert split_dataset(dataset, spec) == split_dataset(dataset, spec)
        other = split_dataset(dataset, SplitSpec(seed=100))
        assert other != split_dataset(dataset, spec)

    def test_rejects_thin_classes(self):
        dataset = EpochSet(np.zeros((3, 2, 4)), [1, 1, 2], 250.0, num_classes=2)
        with pytest.raises(ValueError, match="too few"):
            split_dataset(dataset, SplitSpec())

    @settings(max_examples=40, deadline=None)
    @given(
        per_class=st.integers(min_value=2, max_value=125),
        num_classes=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        test_fraction=st.floats(min_value=0.05, max_value=0.6),
        val_fraction=st.floats(min_value=0.0, max_value=0.4),
    )
    def test_partitions_disjoint_exhaustive_proportional(
        self, per_class, num_classes, seed, test_fraction, val_fraction
    ):
        dataset = make_set(per_class, channels=1, samples=2, num_classes=num_classes)
        spec = SplitSpec(test_fraction=test_fraction, validation_fraction=val_fraction, seed=seed)
        split = split_dataset(dataset, spec)
        train, val, test = (
            set(split.train_indices),
            set(split.validation_indices),
            set(split.test_indices),
        )
        assert not (train & val or train & test or val & test)
        assert train | val | test == set(range(len(dataset)))
        labels = dataset.labels
        for c in range(1, num_classes + 1):
            n_c = int((labels == c).sum())
            test_c = sum(1 for i in split.test_indices if labels[i] == c)
            assert abs(test_c - n_c * test_fraction) < 1
            pool_c = n_c - test_c
            val_c = sum(1 for i in split.validation_indices if labels[i] == c)
            assert abs(val_c - pool_c * val_fraction) < 1

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=5),
        fraction=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_at_least_one_carve(self, counts, fraction, seed):
        """The estimator's validation carve: disjoint and exhaustive, and
        ``max(floor(n_c * f), 1)`` epochs of each class with two or more."""
        labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(1, len(counts) + 1), counts))
        carved, rest = _stratified_draw(labels, (fraction,), np.random.default_rng(seed), at_least_one=True)
        assert not set(carved.tolist()) & set(rest.tolist())
        assert sorted(carved.tolist() + rest.tolist()) == list(range(len(labels)))
        for c, n_c in enumerate(counts, start=1):
            want = max(int(np.floor(n_c * fraction)), 1) if n_c >= 2 else 0
            assert int((labels[carved] == c).sum()) == want


def test_derive_seed_stable_and_typed():
    assert derive_seed(1, 2, "x") == derive_seed(1, 2, "x")
    assert derive_seed(1, 2, "x") != derive_seed(1, 2, "y")
    assert derive_seed(1, 2) != derive_seed(2, 1)
    with pytest.raises(TypeError):
        derive_seed(1.5)
