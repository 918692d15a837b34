"""The five-step epoch augmentation and the training-set expansion built on it.

Per epoch, in order: zero the mean of every channel, amplify all channels by
one random factor, invert polarity with probability 1/2, rotate every channel
circularly by one random shift, and add white Gaussian noise. The random
amounts are each drawn once per epoch and applied to all channels. Expanding
a training set keeps each original and appends ``copies_per_epoch``
independently augmented variants, so the default setting grows the set
tenfold with class balance preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .base import EstimatorMixin, _check_fields, as_epoch_array, as_labels
from .epochs import EpochSet

__all__ = [
    "AugmentConfig",
    "zero_mean",
    "random_scale",
    "polarity_invert",
    "time_rotate",
    "noise_inject",
    "augment_epoch",
    "augment_set",
    "EpochAugmenter",
]

# The largest noise_sd: numpy's normal draws stay below 14, so noise stays
# below 16 times it, within float32 range, the store of every variant that
# training reads or the CLI writes.
MAX_NOISE_SD = float(np.finfo(np.float32).max / 16)


@dataclass(frozen=True)
class AugmentConfig:
    """Knobs of the augmentation transform.

    ``rotation_half_range=None`` means half the epoch length (integer floor),
    resolved when an epoch is seen. ``noise_sd`` is configurable because the
    fixed default presumes a raw microvolt amplitude scale; it is at most
    :data:`MAX_NOISE_SD`, and :meth:`check_range` bounds ``amp_high`` and
    ``noise_sd`` by the epochs augmented and the dtype they are stored in.
    """

    amp_low: float = 0.2
    amp_high: float = 5.0
    flip_probability: float = 0.5
    rotation_half_range: int | None = None
    noise_sd: float = 0.01
    copies_per_epoch: int = 9
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        if not 0 < self.amp_low <= self.amp_high:
            raise ValueError("need 0 < amp_low <= amp_high")
        if not 0 <= self.flip_probability <= 1:
            raise ValueError("flip_probability must be in [0, 1]")
        if self.rotation_half_range is not None and self.rotation_half_range < 0:
            raise ValueError("rotation_half_range must be >= 0")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        if self.noise_sd > MAX_NOISE_SD:
            raise ValueError(f"noise_sd must be in [0, {MAX_NOISE_SD:g}], got {self.noise_sd:g}")
        if self.copies_per_epoch < 0:
            raise ValueError("copies_per_epoch must be >= 0")

    def check_range(self, peak: float, dtype) -> None:
        """Raise ``ValueError`` naming ``amp_high`` or ``noise_sd`` unless every
        variant fits ``dtype`` when the zero-meaned epochs are at most
        ``peak`` in magnitude. A variant sample is such a sample times a
        factor of at most ``amp_high``, plus noise below ``16 * noise_sd``."""
        limit, name = float(np.finfo(dtype).max), np.dtype(dtype).name
        scaled = float(peak) * float(self.amp_high)  # Python floats: inf on overflow, no warning
        if scaled > limit:
            raise ValueError(f"amp_high {self.amp_high:g} scales zero-mean samples of magnitude up to "
                             f"{peak:g} beyond the {name} range {limit:g} of the augmented set")
        if scaled + 16 * float(self.noise_sd) > limit:
            raise ValueError(f"noise_sd {self.noise_sd:g} added to zero-mean samples of magnitude up to "
                             f"{peak:g} times amp_high {self.amp_high:g} leaves the {name} range "
                             f"{limit:g} of the augmented set")


def zero_mean(data: np.ndarray) -> np.ndarray:
    """Subtract each channel's sample mean from a channels x samples array."""
    return data - data.mean(axis=1, keepdims=True)


def random_scale(
    data: np.ndarray,
    rng: np.random.Generator,
    amp_low: float = AugmentConfig.amp_low,
    amp_high: float = AugmentConfig.amp_high,
) -> tuple[np.ndarray, float]:
    """Multiply every sample of every channel by one uniform random factor.

    Returns the scaled array and the drawn factor for auditability.
    """
    factor = float(rng.uniform(amp_low, amp_high))
    return data * factor, factor


def polarity_invert(
    data: np.ndarray,
    rng: np.random.Generator,
    flip_probability: float = AugmentConfig.flip_probability,
) -> tuple[np.ndarray, int]:
    """Multiply all channels by -1 with the given probability, else by +1."""
    sign = -1 if rng.uniform() < flip_probability else 1
    return data * sign, sign


def time_rotate(
    data: np.ndarray,
    rng: np.random.Generator,
    half_range: int | None = AugmentConfig.rotation_half_range,
) -> tuple[np.ndarray, int]:
    """Circularly shift every channel by one integer drawn from [-N/2, +N/2].

    Sample index j moves to (j + shift) mod N, the same shift on all channels.
    """
    n_samples = data.shape[1]
    if half_range is None:
        half_range = n_samples // 2
    if half_range > n_samples:
        raise ValueError("rotation_half_range cannot exceed the epoch length")
    shift = int(rng.integers(-half_range, half_range + 1))
    return np.roll(data, shift, axis=1), shift


def noise_inject(
    data: np.ndarray,
    rng: np.random.Generator,
    noise_sd: float = AugmentConfig.noise_sd,
) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise to every sample of every channel."""
    if noise_sd == 0:
        return data
    return data + rng.normal(0.0, noise_sd, size=data.shape)


def augment_epoch(
    data: np.ndarray,
    cfg: AugmentConfig,
    rng: np.random.Generator,
    return_draws: bool = False,
) -> np.ndarray | tuple[np.ndarray, dict]:
    """Apply the five augmentation steps in order with fresh draws.

    ``data`` is one channels x samples epoch. With ``return_draws=True`` the
    drawn (factor, sign, shift) values are returned alongside for audits.
    """
    out = zero_mean(data)
    out, factor = random_scale(out, rng, cfg.amp_low, cfg.amp_high)
    out, sign = polarity_invert(out, rng, cfg.flip_probability)
    out, shift = time_rotate(out, rng, cfg.rotation_half_range)
    out = noise_inject(out, rng, cfg.noise_sd)
    if return_draws:
        return out, {"scale": factor, "sign": sign, "shift": shift}
    return out


def augment_set(dataset: EpochSet, cfg: AugmentConfig, dtype=np.float64) -> EpochSet:
    """Expand a training set with augmented variants of every epoch.

    Each source epoch keeps its position followed by ``copies_per_epoch``
    variants with ``origin="augmented"`` and the source's label and subject,
    so the output size is ``len(dataset) * (1 + copies_per_epoch)`` and the
    class histogram scales by the same factor. Epoch ``i`` draws from its own
    substream seeded by ``(cfg.seed, i)``; the result is bit-identical for
    identical inputs and safe to compute in parallel per epoch.

    Every variant is computed from the float64 value of its source epoch and
    stored in ``dtype``, as the sources are. float32 holds a set that only
    training reads, which rounds to :data:`training.TRAIN_DTYPE` anyway, in
    half the memory: each value is rounded once, where it is stored. A
    variant that could leave ``dtype``'s range is refused first, by
    :meth:`AugmentConfig.check_range`, before anything is stored.
    """
    peaks = (np.abs(zero_mean(epoch.astype(np.float64, copy=False))).max() for epoch in dataset.data)
    cfg.check_range(max(peaks, default=0.0), dtype)
    stride = 1 + cfg.copies_per_epoch
    out = np.empty((len(dataset) * stride, dataset.n_channels, dataset.n_samples), dtype=dtype)
    out[::stride] = dataset.data
    for i, epoch in enumerate(dataset.data):
        epoch = epoch.astype(np.float64, copy=False)  # one epoch at a time, never the whole set
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFFFFFFFFFF, i]))
        for j in range(1, stride):
            out[i * stride + j] = augment_epoch(epoch, cfg, rng)
    out.setflags(write=False)
    source = np.repeat(np.arange(len(dataset)), stride)
    origins = np.where(np.arange(len(out)) % stride == 0, dataset.origins[source], "augmented")
    return EpochSet(out, dataset.labels[source], dataset.sampling_rate, dataset.num_classes,
                    dataset.subject_ids[source], origins)


class EpochAugmenter(EstimatorMixin):
    """Array-level facade over :func:`augment_set` with the resampler contract.

    ``fit_resample(X, y)`` takes ``(n, channels, samples)`` data with 1-based
    labels and returns the expanded pair, matching the imblearn-style
    resampler shape so the step drops into existing tooling.
    """

    def __init__(
        self,
        amp_low: float = AugmentConfig.amp_low,
        amp_high: float = AugmentConfig.amp_high,
        flip_probability: float = AugmentConfig.flip_probability,
        rotation_half_range: int | None = AugmentConfig.rotation_half_range,
        noise_sd: float = AugmentConfig.noise_sd,
        copies_per_epoch: int = AugmentConfig.copies_per_epoch,
        seed: int = 0,
    ):
        self.amp_low = amp_low
        self.amp_high = amp_high
        self.flip_probability = flip_probability
        self.rotation_half_range = rotation_half_range
        self.noise_sd = noise_sd
        self.copies_per_epoch = copies_per_epoch
        self.seed = seed

    def _config(self) -> AugmentConfig:
        return AugmentConfig(**{f.name: getattr(self, f.name) for f in fields(AugmentConfig)})

    def fit(self, X=None, y=None):
        return self

    def fit_resample(self, X, y) -> tuple[np.ndarray, np.ndarray]:
        X = as_epoch_array(X)
        y = as_labels(y)
        # augmentation reads no sampling rate, and only the arrays come back
        grown = augment_set(EpochSet(X, y, sampling_rate=1.0), self._config())
        return grown.to_array(), grown.labels
