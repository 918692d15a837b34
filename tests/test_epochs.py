"""Epoch/set invariants and the stratified split protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mibci.epochs import Epoch, EpochSet, SplitSpec, derive_seed, split_dataset

from helpers import make_epoch, make_set


def balanced_set(per_class: int, num_classes: int = 2) -> EpochSet:
    return make_set(per_class, channels=2, samples=4, num_classes=num_classes)


class TestEpoch:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_epoch([[1.0, np.nan]])

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="1-based"):
            make_epoch([[1.0, 2.0]], label=0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="sampling_rate"):
            make_epoch([[1.0, 2.0]], rate=0.0)

    def test_rejects_1d_data(self):
        with pytest.raises(ValueError, match="2-D"):
            make_epoch([1.0, 2.0])

    def test_data_is_read_only(self):
        ep = make_epoch([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ep.data[0, 0] = 5.0

    def test_does_not_mutate_caller_array(self):
        arr = np.array([[1.0, 2.0]])
        make_epoch(arr)
        arr[0, 0] = 7.0  # would raise if flags were shared

    def test_fingerprint_sensitive_to_data_and_label(self):
        a = make_epoch([[1.0, 2.0]], label=1)
        b = make_epoch([[1.0, 2.0]], label=2)
        c = make_epoch([[1.0, 2.5]], label=1)
        assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3


class TestEpochSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty set"):
            EpochSet(epochs=(), num_classes=2)

    def test_rejects_heterogeneous_shapes(self):
        eps = (make_epoch(np.zeros((2, 4))), make_epoch(np.zeros((3, 4))))
        with pytest.raises(ValueError, match="heterogeneous"):
            EpochSet(epochs=eps, num_classes=2)

    def test_rejects_heterogeneous_rates(self):
        eps = (make_epoch(np.zeros((2, 4)), rate=100), make_epoch(np.zeros((2, 4)), rate=250))
        with pytest.raises(ValueError, match="sampling rates"):
            EpochSet(epochs=eps, num_classes=2)

    def test_rejects_label_out_of_range(self):
        eps = (make_epoch(np.zeros((2, 4)), label=3), make_epoch(np.zeros((2, 4)), label=1))
        with pytest.raises(ValueError, match="outside"):
            EpochSet(epochs=eps, num_classes=2)

    def test_require_all_classes(self):
        eps = (make_epoch(np.zeros((2, 4)), label=1),)
        partial = EpochSet(epochs=eps, num_classes=2)
        with pytest.raises(ValueError, match="no epochs"):
            partial.require_all_classes()

    def test_array_round_trip(self):
        dataset = balanced_set(3)
        rebuilt = EpochSet.from_arrays(dataset.to_array(), dataset.labels, dataset.sampling_rate)
        assert np.array_equal(rebuilt.to_array(), dataset.to_array())
        assert np.array_equal(rebuilt.labels, dataset.labels)

    def test_with_data_keeps_labels_and_metadata(self):
        dataset = balanced_set(2)
        X = 2.0 * dataset.to_array()
        rebuilt = dataset.with_data(X)
        assert np.array_equal(rebuilt.to_array(), X)
        for before, after in zip(dataset, rebuilt):
            assert (after.label, after.subject_id, after.origin) == (before.label, before.subject_id, before.origin)
        with pytest.raises(ValueError):
            dataset.with_data(X[:-1])

    def test_fingerprint_changes_with_order(self):
        dataset = balanced_set(2)
        shuffled = dataset.subset([1, 0, 2, 3])
        assert dataset.fingerprint != shuffled.fingerprint


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
        eps = (
            make_epoch(np.zeros((2, 4)), label=1),
            make_epoch(np.zeros((2, 4)), label=1),
            make_epoch(np.zeros((2, 4)), label=2),
        )
        dataset = EpochSet(epochs=eps, num_classes=2)
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


def test_derive_seed_stable_and_typed():
    assert derive_seed(1, 2, "x") == derive_seed(1, 2, "x")
    assert derive_seed(1, 2, "x") != derive_seed(1, 2, "y")
    assert derive_seed(1, 2) != derive_seed(2, 1)
    with pytest.raises(TypeError):
        derive_seed(1.5)
