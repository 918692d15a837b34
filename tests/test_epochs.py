"""Epoch/set invariants and the stratified split protocol."""

import hashlib

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
            EpochSet.from_epochs((), num_classes=2)

    def test_rejects_heterogeneous_shapes(self):
        eps = (make_epoch(np.zeros((2, 4))), make_epoch(np.zeros((3, 4))))
        with pytest.raises(ValueError, match="heterogeneous"):
            EpochSet.from_epochs(eps, num_classes=2)

    def test_rejects_heterogeneous_rates(self):
        eps = (make_epoch(np.zeros((2, 4)), rate=100), make_epoch(np.zeros((2, 4)), rate=250))
        with pytest.raises(ValueError, match="sampling rates"):
            EpochSet.from_epochs(eps, num_classes=2)

    def test_rejects_label_out_of_range(self):
        eps = (make_epoch(np.zeros((2, 4)), label=3), make_epoch(np.zeros((2, 4)), label=1))
        with pytest.raises(ValueError, match="outside"):
            EpochSet.from_epochs(eps, num_classes=2)

    def test_require_all_classes(self):
        eps = (make_epoch(np.zeros((2, 4)), label=1),)
        partial = EpochSet.from_epochs(eps, num_classes=2)
        with pytest.raises(ValueError, match="no epochs"):
            partial.require_all_classes()

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
        for before, after in zip(dataset, rebuilt):
            assert (after.label, after.subject_id, after.origin) == (before.label, before.subject_id, before.origin)
        with pytest.raises(ValueError):
            dataset.with_data(X[:-1])

    def test_fingerprint_changes_with_order(self):
        dataset = balanced_set(2)
        shuffled = dataset.subset([1, 0, 2, 3])
        assert dataset.fingerprint != shuffled.fingerprint


def reference_fingerprint(ep: Epoch) -> str:
    """The per-Epoch sha256 the set's row hashes must reproduce."""
    h = hashlib.sha256()
    h.update(ep.subject_id.encode("utf-8"))
    h.update(np.int64(ep.label).tobytes())
    h.update(np.float64(ep.sampling_rate).tobytes())
    h.update(np.ascontiguousarray(ep.data).tobytes())
    return h.hexdigest()


def reference_set_fingerprint(epochs, num_classes: int) -> str:
    h = hashlib.sha256()
    h.update(np.int64(num_classes).tobytes())
    for ep in epochs:
        h.update(bytes.fromhex(reference_fingerprint(ep)))
    return h.hexdigest()


class TestArrayLayout:
    def standalone_epochs(self):
        rng = np.random.default_rng(8)
        ids = ["s1", "s\u00fc2", "", "s1"]
        origins = ["recorded", "synthetic", "augmented", "recorded"]
        return [
            Epoch(subject_id=sid, label=label, data=rng.normal(size=(2, 5)), sampling_rate=160.0, origin=origin)
            for sid, label, origin in zip(ids, [1, 3, 2, 1], origins)
        ]

    def test_fingerprints_match_the_per_epoch_reference(self):
        epochs = self.standalone_epochs()
        dataset = EpochSet.from_epochs(epochs, num_classes=3)
        assert dataset.fingerprint == reference_set_fingerprint(epochs, 3)
        assert dataset.epoch_fingerprints() == {reference_fingerprint(ep) for ep in epochs}
        assert [ep.fingerprint for ep in dataset] == [reference_fingerprint(ep) for ep in epochs]
        picked = dataset.subset([3, 0, 0, 2])
        assert picked.fingerprint == reference_set_fingerprint([epochs[i] for i in (3, 0, 0, 2)], 3)

    def test_columns_round_trip_through_the_constructor(self):
        epochs = self.standalone_epochs()
        dataset = EpochSet.from_epochs(epochs, num_classes=3)
        assert dataset.to_array().shape == (4, 2, 5)
        assert dataset.labels.dtype == np.int64 and dataset.labels.tolist() == [1, 3, 2, 1]
        assert list(dataset.subject_ids) == [ep.subject_id for ep in epochs]
        assert list(dataset.origins) == [ep.origin for ep in epochs]
        for before, after in zip(epochs, dataset):
            assert (after.subject_id, after.label, after.sampling_rate, after.origin) == (
                before.subject_id, before.label, before.sampling_rate, before.origin
            )
            assert np.array_equal(after.data, before.data)

    def test_arrays_are_read_only_and_iteration_yields_views(self):
        X = np.random.default_rng(0).normal(size=(3, 2, 4))
        dataset = EpochSet(X, [1, 2, 1], 100.0)
        assert not np.shares_memory(dataset.to_array(), X)
        X[0, 0, 0] = 99.0  # the caller's array stays writable and the set keeps its copy
        assert dataset.to_array()[0, 0, 0] != 99.0
        assert dataset.to_array() is dataset.data
        for arr in (dataset.data, dataset.labels):
            with pytest.raises(ValueError):
                arr[0] = 0
        views = list(dataset)
        assert all(np.shares_memory(ep.data, dataset.data) for ep in views)
        with pytest.raises(ValueError):
            views[0].data[0, 0] = 1.0

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
        eps = (
            make_epoch(np.zeros((2, 4)), label=1),
            make_epoch(np.zeros((2, 4)), label=1),
            make_epoch(np.zeros((2, 4)), label=2),
        )
        dataset = EpochSet.from_epochs(eps, num_classes=2)
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
