"""Synthetic mu/beta-band epoch generator used as desk-scale ground truth.

Each epoch is white Gaussian background noise plus two fixed-frequency
sinusoids (the centers of the 8-12 Hz mu band and the 18-26 Hz beta band)
with a uniform random phase per epoch, scaled by per-class per-channel
gains. Classes therefore differ only in where the band power sits, which is
the discrimination the downstream pipeline is supposed to pick up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import _check_fields
from .epochs import EpochSet

__all__ = ["SyntheticSpec", "generate_synthetic"]

MU_BAND = (8.0, 12.0)
BETA_BAND = (18.0, 26.0)


def _lateralized_gains(num_classes: int, channels: int, gain: float) -> np.ndarray:
    """Block-diagonal gain map: class c drives its own contiguous channel group."""
    gains = np.zeros((num_classes, channels))
    per = max(1, channels // num_classes)
    for c in range(num_classes):
        lo = min(c * per, channels - 1)
        hi = channels if c == num_classes - 1 else min((c + 1) * per, channels)
        gains[c, lo:hi] = gain
    return gains


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic generator.

    ``mu_gains`` and ``beta_gains`` are (num_classes, channels) arrays of
    nonnegative sinusoid amplitudes; ``None`` selects a lateralized default
    where each class excites its own channel block in both bands.
    """

    num_classes: int = 2
    epochs_per_class: int = 100
    channels: int = 4
    samples: int = 250
    sampling_rate: float = 250.0
    mu_gains: np.ndarray | None = None
    beta_gains: np.ndarray | None = None
    mu_hz: float = 10.0
    beta_hz: float = 22.0
    noise_sd: float = 1.0
    default_gain: float = 2.0
    seed: int = 0
    subject_id: str = "synthetic"

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.epochs_per_class < 1 or self.channels < 1 or self.samples < 1:
            raise ValueError("epochs_per_class, channels, and samples must be positive")
        for name in ("noise_sd", "default_gain"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        nyquist = self.sampling_rate / 2.0
        if not (0 < self.mu_hz < nyquist) or not (0 < self.beta_hz < nyquist):
            raise ValueError(
                f"mu_hz and beta_hz ({self.mu_hz}, {self.beta_hz} Hz) must lie above 0 and below "
                f"the Nyquist frequency {nyquist} Hz of sampling_rate"
            )
        for name in ("mu_gains", "beta_gains"):
            g = getattr(self, name)
            if g is None:
                g = _lateralized_gains(self.num_classes, self.channels, self.default_gain)
            g = np.asarray(g, dtype=np.float64)
            if g.shape != (self.num_classes, self.channels):
                raise ValueError(f"{name} must have shape (num_classes, channels)")
            if (g < 0).any():
                raise ValueError(f"{name} must be nonnegative")
            g.setflags(write=False)
            object.__setattr__(self, name, g)


def generate_synthetic(spec: SyntheticSpec) -> EpochSet:
    """Generate a labeled epoch set from the parameters; deterministic given the seed."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.samples) / spec.sampling_rate
    data = np.empty((spec.num_classes * spec.epochs_per_class, spec.channels, spec.samples))
    for c in range(spec.num_classes):
        mu_g = spec.mu_gains[c][:, None]
        beta_g = spec.beta_gains[c][:, None]
        for k in range(c * spec.epochs_per_class, (c + 1) * spec.epochs_per_class):
            phase_mu = rng.uniform(0.0, 2.0 * np.pi)
            phase_beta = rng.uniform(0.0, 2.0 * np.pi)
            data[k] = rng.normal(0.0, spec.noise_sd, size=(spec.channels, spec.samples))
            data[k] += mu_g * np.sin(2.0 * np.pi * spec.mu_hz * t + phase_mu)
            data[k] += beta_g * np.sin(2.0 * np.pi * spec.beta_hz * t + phase_beta)
    data.setflags(write=False)
    labels = np.repeat(np.arange(1, spec.num_classes + 1), spec.epochs_per_class)
    return EpochSet(data, labels, spec.sampling_rate, spec.num_classes, spec.subject_id, "synthetic")
