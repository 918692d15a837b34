"""The epoch set type, its fingerprints, and the stratified split protocol."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .base import _blocks, _check_fields, _epoch_data, _integer_labels

__all__ = [
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


@dataclass(frozen=True, eq=False)
class EpochSet:
    """Epochs stacked into one read-only ``(n, channels, samples)`` array.

    float32 ``data`` (an EPB1 file's samples, an augmented training set) stays
    float32; any other becomes float64. ``labels`` (1-based int64),
    ``subject_ids`` and ``origins`` hold one entry per row; a single string
    applies to every row, and ``num_classes=None`` takes the largest label. A
    writable ``data`` array is copied, a read-only one is kept.
    """

    data: np.ndarray
    labels: np.ndarray
    sampling_rate: float
    num_classes: int | None = None
    subject_ids: np.ndarray | str = ""
    origins: np.ndarray | str = "recorded"

    def __post_init__(self) -> None:
        data = _epoch_data(self.data)
        if data.ndim == 3 and len(data) == 0:
            raise ValueError("empty set: an EpochSet needs at least one epoch")
        if data.ndim != 3 or min(data.shape) < 1:
            raise ValueError(f"epoch data must be (n, channels, samples), got shape {data.shape}")
        if not all(np.isfinite(block).all() for block in _blocks(data)):  # one block's mask at a time
            raise ValueError("epoch data contains non-finite values")
        n = len(data)
        labels = _integer_labels(self.labels)
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

    def __len__(self) -> int:
        return len(self.data)

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_samples(self) -> int:
        return self.data.shape[2]

    def to_array(self) -> np.ndarray:
        """The stored read-only (n, channels, samples) array, float32 or float64."""
        return self.data

    def class_counts(self) -> np.ndarray:
        """Per-class epoch counts, index 0 = class 1."""
        return np.bincount(self.labels - 1, minlength=self.num_classes)

    def require_all_classes(self) -> "EpochSet":
        """Raise unless every class 1..num_classes has at least one epoch."""
        missing = np.flatnonzero(self.class_counts() == 0) + 1
        if missing.size:
            shown = missing[:10].tolist()
            more = f" and {missing.size - 10} more" if missing.size > 10 else ""
            raise ValueError(f"classes with no epochs: {shown}{more}")
        return self

    def subset(self, indices: Sequence[int], data: np.ndarray | None = None) -> "EpochSet":
        """The epochs at ``indices``, in that order; repeats are allowed.
        ``data``, when given, replaces their samples row for row and is taken
        over (made read-only, not copied), so the rows are never copied."""
        idx = np.asarray(indices, dtype=np.intp)
        data = self.data[idx] if data is None else data
        data.setflags(write=False)
        return EpochSet(data, self.labels[idx], self.sampling_rate, self.num_classes,
                        self.subject_ids[idx], self.origins[idx])

    def with_data(self, X: np.ndarray) -> "EpochSet":
        """New set whose epoch i carries ``X[i]``, labels and metadata preserved."""
        return replace(self, data=X)

    @cached_property
    def _row_digests(self) -> dict:
        """Row index -> sha256 digest, filled as rows are first hashed."""
        return {}

    def _row_digest(self, i: int) -> bytes:
        """sha256 of row ``i``'s subject id (UTF-8), int64 label, float64 rate
        and samples as float64, so the digest does not depend on the stored
        dtype. Each row is hashed once, and only when asked for."""
        digest = self._row_digests.get(i)
        if digest is None:
            h = hashlib.sha256(self.subject_ids[i].encode("utf-8"))
            h.update(self.labels[i].tobytes())
            h.update(np.float64(self.sampling_rate).tobytes())
            # rows are C-contiguous, so hashlib reads a float64 row in place
            h.update(self.data[i].astype(np.float64, copy=False))
            digest = self._row_digests[i] = h.digest()
        return digest

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the full set (epoch order matters)."""
        return self.fingerprint_of(range(len(self)))

    def fingerprint_of(self, indices: Sequence[int]) -> str:
        """``self.subset(indices).fingerprint``, from this set's row hashes, without copying a row."""
        h = hashlib.sha256(np.int64(self.num_classes).tobytes())
        for i in indices:
            h.update(self._row_digest(i))
        return h.hexdigest()

    def epoch_fingerprints(self, indices: Sequence[int] | None = None) -> set[str]:
        """The row hashes of every epoch, or of the epochs at ``indices``."""
        return {self._row_digest(i).hex() for i in (range(len(self)) if indices is None else indices)}


@dataclass(frozen=True)
class SplitSpec:
    """Holdout fractions and the seed that fixes the shuffle."""

    test_fraction: float = 0.2
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not 0 <= self.validation_fraction < 1:
            raise ValueError(f"validation_fraction must be in [0, 1), got {self.validation_fraction}")


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


def _stratified_draw(
    labels: np.ndarray, fractions: tuple[float, ...], rng: np.random.Generator, at_least_one: bool = False
) -> list[np.ndarray]:
    """Per class, in ascending label order: permute its indices with ``rng``,
    then cut ``floor(n * f)`` of the ``n`` still uncut for each fraction
    ``f`` in turn; ``at_least_one`` raises a cut of 0 to 1 while two or more
    are left. Returns the sorted cuts, then the sorted rest."""
    cuts = [[np.empty(0, dtype=np.intp)] for _ in range(len(fractions) + 1)]  # empty labels give empty cuts
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(len(idx))]
        for k, fraction in enumerate(fractions):
            n = int(np.floor(len(idx) * fraction))
            if at_least_one and n == 0 and len(idx) > 1:
                n = 1
            cuts[k].append(idx[:n])
            idx = idx[n:]
        cuts[-1].append(idx)
    return [np.sort(np.concatenate(cut)) for cut in cuts]


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

    test, val, train = _stratified_draw(
        dataset.labels, (spec.test_fraction, spec.validation_fraction), np.random.default_rng(spec.seed)
    )
    return Split(
        train_indices=tuple(train.tolist()),
        validation_indices=tuple(val.tolist()),
        test_indices=tuple(test.tolist()),
    )
