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


def _read_only(data: np.ndarray) -> np.ndarray:
    """``data`` itself when it is read-only and C-contiguous, else a read-only copy."""
    if data.flags.writeable or not data.flags.c_contiguous:
        data = data.copy()
        data.setflags(write=False)
    return data


@dataclass(frozen=True)
class Epoch:
    """One labeled trial: a channels x samples matrix with its sampling rate.

    A standalone epoch keeps a read-only copy of a writable ``data`` array;
    the epochs an :class:`EpochSet` yields are views of its read-only rows.

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
        object.__setattr__(self, "data", _read_only(data))
        object.__setattr__(self, "label", int(self.label))
        object.__setattr__(self, "sampling_rate", float(self.sampling_rate))

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the epoch (metadata + raw samples)."""
        h = hashlib.sha256()
        h.update(self.subject_id.encode("utf-8"))
        h.update(np.int64(self.label).tobytes())
        h.update(np.float64(self.sampling_rate).tobytes())
        h.update(self.data.tobytes())
        return h.hexdigest()


@dataclass(frozen=True, eq=False)
class EpochSet:
    """Epochs stacked into one read-only ``(n, channels, samples)`` float64 array.

    ``labels`` (1-based int64), ``subject_ids`` and ``origins`` hold one entry
    per row; a single string applies to every row, and ``num_classes=None``
    takes the largest label. A writable ``data`` array is copied, a read-only
    one is kept. Iterating yields :class:`Epoch` views of the rows.
    """

    data: np.ndarray
    labels: np.ndarray
    sampling_rate: float
    num_classes: int | None = None
    subject_ids: np.ndarray | str = ""
    origins: np.ndarray | str = "recorded"

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim == 3 and len(data) == 0:
            raise ValueError("empty set: an EpochSet needs at least one epoch")
        if data.ndim != 3 or min(data.shape) < 1:
            raise ValueError(f"epoch data must be (n, channels, samples), got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("epoch data contains non-finite values")
        n = len(data)
        labels = np.asarray(self.labels).astype(np.int64)
        if labels.shape != (n,):
            raise ValueError(f"need one label per epoch: {labels.shape} labels for {n} epochs")
        num_classes = int(labels.max() if self.num_classes is None else self.num_classes)
        if num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        bad = np.flatnonzero((labels < 1) | (labels > num_classes))
        if bad.size:
            raise ValueError(f"epoch {bad[0]} label {labels[bad[0]]} outside 1..{num_classes}")
        if not self.sampling_rate > 0:
            raise ValueError(f"sampling_rate must be positive, got {self.sampling_rate}")
        labels.setflags(write=False)
        object.__setattr__(self, "data", _read_only(data))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sampling_rate", float(self.sampling_rate))
        object.__setattr__(self, "num_classes", num_classes)
        for name in ("subject_ids", "origins"):
            object.__setattr__(self, name, np.broadcast_to(np.array(getattr(self, name), dtype=object), (n,)))

    @classmethod
    def from_epochs(cls, epochs: Iterable[Epoch], num_classes: int | None = None) -> "EpochSet":
        """Stack epochs that share one shape and one sampling rate."""
        epochs = tuple(epochs)
        if not epochs:
            raise ValueError("empty set: an EpochSet needs at least one epoch")
        shapes = sorted({ep.data.shape for ep in epochs})
        if len(shapes) > 1:
            raise ValueError(f"heterogeneous epoch shapes {shapes} within one set")
        if len({ep.sampling_rate for ep in epochs}) > 1:
            raise ValueError("heterogeneous sampling rates within one set")
        data = np.stack([ep.data for ep in epochs])
        data.setflags(write=False)
        return cls(data, [ep.label for ep in epochs], epochs[0].sampling_rate, num_classes,
                   [ep.subject_id for ep in epochs], [ep.origin for ep in epochs])

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self):
        for row, label, subject_id, origin in zip(self.data, self.labels, self.subject_ids, self.origins):
            yield Epoch(subject_id, label, row, self.sampling_rate, origin)

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_samples(self) -> int:
        return self.data.shape[2]

    def to_array(self) -> np.ndarray:
        """The stored read-only (n, channels, samples) float64 array."""
        return self.data

    def class_counts(self) -> np.ndarray:
        """Per-class epoch counts, index 0 = class 1."""
        return np.bincount(self.labels - 1, minlength=self.num_classes)

    def require_all_classes(self) -> "EpochSet":
        """Raise unless every class 1..num_classes has at least one epoch."""
        counts = self.class_counts()
        if (counts == 0).any():
            missing = [c + 1 for c in np.nonzero(counts == 0)[0]]
            raise ValueError(f"classes with no epochs: {missing}")
        return self

    def subset(self, indices: Sequence[int]) -> "EpochSet":
        """The epochs at ``indices``, in that order; repeats are allowed."""
        idx = np.asarray(indices, dtype=np.intp)
        data = self.data[idx]
        data.setflags(write=False)
        return EpochSet(data, self.labels[idx], self.sampling_rate, self.num_classes,
                        self.subject_ids[idx], self.origins[idx])

    def with_data(self, X: np.ndarray) -> "EpochSet":
        """New set whose epoch i carries ``X[i]``, labels and metadata preserved."""
        return replace(self, data=X)

    @cached_property
    def _row_fingerprints(self) -> tuple[str, ...]:
        return tuple(ep.fingerprint for ep in self)

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the full set (epoch order matters)."""
        h = hashlib.sha256(np.int64(self.num_classes).tobytes())
        for row in self._row_fingerprints:
            h.update(bytes.fromhex(row))
        return h.hexdigest()

    def epoch_fingerprints(self) -> set[str]:
        return set(self._row_fingerprints)


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
