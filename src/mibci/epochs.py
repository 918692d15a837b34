"""Epoch and dataset types, fingerprints, and the stratified split protocol."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Epoch",
    "EpochSet",
    "SplitSpec",
    "Split",
    "split_dataset",
    "derive_seed",
]


def derive_seed(*parts) -> int:
    """Derive a 64-bit seed from a mixed int/str path, stably across runs.

    Used to give every run, stage, and epoch its own independent RNG stream
    from one master seed.
    """
    words = []
    for part in parts:
        if isinstance(part, (int, np.integer)):
            words.append(int(part) & 0xFFFFFFFFFFFFFFFF)
        elif isinstance(part, str):
            digest = hashlib.sha256(part.encode("utf-8")).digest()
            words.append(int.from_bytes(digest[:8], "little"))
        else:
            raise TypeError(f"seed path parts must be int or str, got {type(part)}")
    ss = np.random.SeedSequence(words)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Epoch:
    """One labeled trial: a channels x samples matrix with its sampling rate.

    Attributes
    ----------
    subject_id : str
        Identifier of the recorded subject.
    label : int
        1-based class label.
    data : ndarray
        ``(n_channels, n_samples)`` float64 amplitudes (microvolt scale).
    sampling_rate : float
        Sampling rate in Hz, strictly positive.
    origin : str
        Provenance flag: ``"recorded"``, ``"synthetic"`` or ``"augmented"``.
    """

    subject_id: str
    label: int
    data: np.ndarray
    sampling_rate: float
    origin: str = "recorded"

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"epoch data must be a 2-D channels x samples matrix, got {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("epoch data contains non-finite values")
        if int(self.label) < 1:
            raise ValueError(f"labels are 1-based, got {self.label}")
        if not self.sampling_rate > 0:
            raise ValueError(f"sampling_rate must be positive, got {self.sampling_rate}")
        if data is self.data or data.base is not None:
            data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "label", int(self.label))
        object.__setattr__(self, "sampling_rate", float(self.sampling_rate))

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def with_data(self, data: np.ndarray, origin: str | None = None) -> "Epoch":
        """New epoch with replaced samples, label and metadata preserved."""
        return replace(self, data=data, origin=self.origin if origin is None else origin)

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the epoch (metadata + raw samples)."""
        h = hashlib.sha256()
        h.update(self.subject_id.encode("utf-8"))
        h.update(np.int64(self.label).tobytes())
        h.update(np.float64(self.sampling_rate).tobytes())
        h.update(np.ascontiguousarray(self.data).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class EpochSet:
    """A homogeneous collection of epochs sharing shape, rate, and label range."""

    epochs: tuple[Epoch, ...]
    num_classes: int

    def __post_init__(self) -> None:
        epochs = tuple(self.epochs)
        if not epochs:
            raise ValueError("empty set: an EpochSet needs at least one epoch")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        first = epochs[0]
        for i, ep in enumerate(epochs):
            if ep.data.shape != first.data.shape:
                raise ValueError(
                    f"heterogeneous epoch shapes: epoch {i} is {ep.data.shape}, "
                    f"expected {first.data.shape}"
                )
            if ep.sampling_rate != first.sampling_rate:
                raise ValueError("heterogeneous sampling rates within one set")
            if not 1 <= ep.label <= self.num_classes:
                raise ValueError(
                    f"epoch {i} label {ep.label} outside 1..{self.num_classes}"
                )
        object.__setattr__(self, "epochs", epochs)

    def __len__(self) -> int:
        return len(self.epochs)

    def __iter__(self):
        return iter(self.epochs)

    @property
    def n_channels(self) -> int:
        return self.epochs[0].n_channels

    @property
    def n_samples(self) -> int:
        return self.epochs[0].n_samples

    @property
    def sampling_rate(self) -> float:
        return self.epochs[0].sampling_rate

    @property
    def labels(self) -> np.ndarray:
        return np.array([ep.label for ep in self.epochs], dtype=np.int64)

    def to_array(self) -> np.ndarray:
        """Stack all epochs into one (n, channels, samples) float64 array."""
        return np.stack([ep.data for ep in self.epochs])

    def class_counts(self) -> np.ndarray:
        """Per-class epoch counts, index 0 = class 1."""
        counts = np.zeros(self.num_classes, dtype=np.int64)
        for ep in self.epochs:
            counts[ep.label - 1] += 1
        return counts

    def require_all_classes(self) -> "EpochSet":
        """Raise unless every class 1..num_classes has at least one epoch."""
        counts = self.class_counts()
        if (counts == 0).any():
            missing = [c + 1 for c in np.nonzero(counts == 0)[0]]
            raise ValueError(f"classes with no epochs: {missing}")
        return self

    def subset(self, indices: Sequence[int]) -> "EpochSet":
        return EpochSet(
            epochs=tuple(self.epochs[i] for i in indices),
            num_classes=self.num_classes,
        )

    def with_data(self, X: np.ndarray) -> "EpochSet":
        """New set whose epoch i carries ``X[i]``, labels and metadata preserved."""
        return EpochSet(
            epochs=tuple(ep.with_data(x) for ep, x in zip(self.epochs, X, strict=True)),
            num_classes=self.num_classes,
        )

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the full set (epoch order matters)."""
        h = hashlib.sha256()
        h.update(np.int64(self.num_classes).tobytes())
        for ep in self.epochs:
            h.update(bytes.fromhex(ep.fingerprint))
        return h.hexdigest()

    def epoch_fingerprints(self) -> set[str]:
        return {ep.fingerprint for ep in self.epochs}

    @classmethod
    def from_arrays(
        cls,
        X: np.ndarray,
        y: Iterable[int],
        sampling_rate: float,
        num_classes: int | None = None,
        subject_id: str = "",
        origin: str = "recorded",
    ) -> "EpochSet":
        """Build a set from a stacked (n, channels, samples) array and labels."""
        X = np.asarray(X, dtype=np.float64)
        y = [int(v) for v in y]
        if X.ndim != 3 or X.shape[0] != len(y):
            raise ValueError("X must be (n, channels, samples) with one label per epoch")
        if num_classes is None:
            num_classes = max(y)
        epochs = tuple(
            Epoch(subject_id=subject_id, label=lbl, data=X[i], sampling_rate=sampling_rate, origin=origin)
            for i, lbl in enumerate(y)
        )
        return cls(epochs=epochs, num_classes=num_classes)


@dataclass(frozen=True)
class SplitSpec:
    """Holdout fractions and the seed that fixes the shuffle."""

    test_fraction: float = 0.2
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.test_fraction < 1:
            raise ValueError("test_fraction must be in (0, 1)")
        if not 0 <= self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in [0, 1)")


@dataclass(frozen=True)
class Split:
    """Disjoint index lists into an EpochSet covering every epoch."""

    train_indices: tuple[int, ...]
    validation_indices: tuple[int, ...]
    test_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = (set(self.train_indices), set(self.validation_indices), set(self.test_indices))
        total = len(self.train_indices) + len(self.validation_indices) + len(self.test_indices)
        union = parts[0] | parts[1] | parts[2]
        if len(union) != total:
            raise ValueError("split partitions overlap")


def split_dataset(dataset: EpochSet, spec: SplitSpec) -> Split:
    """Stratified train/validation/test split of an epoch set.

    Per class, ``floor(n_c * test_fraction)`` epochs go to test and
    ``floor(pool_c * validation_fraction)`` of the remaining pool go to
    validation; everything left is training data, so the holdout partitions
    are never larger than their nominal fractions. The validation partition
    is carved from the training pool before any augmentation happens.

    Parameters
    ----------
    dataset : EpochSet
        Must hold at least two epochs of every class.
    spec : SplitSpec
        Fractions and shuffle seed; the split is deterministic given the seed.

    Returns
    -------
    Split
        Sorted, pairwise-disjoint index tuples that cover the whole set.
    """
    dataset.require_all_classes()
    counts = dataset.class_counts()
    if (counts < 2).any():
        thin = [c + 1 for c in np.nonzero(counts < 2)[0]]
        raise ValueError(f"each class needs >= 2 epochs to split, too few in classes {thin}")

    rng = np.random.default_rng(spec.seed)
    labels = dataset.labels
    train: list[int] = []
    val: list[int] = []
    test: list[int] = []
    for c in range(1, dataset.num_classes + 1):
        idx = np.nonzero(labels == c)[0]
        idx = idx[rng.permutation(len(idx))]
        n_test = int(np.floor(len(idx) * spec.test_fraction))
        pool = idx[n_test:]
        n_val = int(np.floor(len(pool) * spec.validation_fraction))
        test.extend(int(i) for i in idx[:n_test])
        val.extend(int(i) for i in pool[:n_val])
        train.extend(int(i) for i in pool[n_val:])
    return Split(
        train_indices=tuple(sorted(train)),
        validation_indices=tuple(sorted(val)),
        test_indices=tuple(sorted(test)),
    )
