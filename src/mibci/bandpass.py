"""Butterworth band-pass filter bank applied with zero phase.

Filters are designed as cascaded second-order sections and applied
forward-backward so epochs keep their timing; the signal is reflect-padded
by ``3 * order`` samples per side before the two passes and trimmed after,
which tames edge transients on short epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal

from .epochs import EpochSet

__all__ = [
    "DEFAULT_BANDS",
    "FilterBankSpec",
    "design_bandpass",
    "zero_phase_bandpass",
    "apply_filter_bank_set",
]

DEFAULT_BANDS: tuple[tuple[float, float], ...] = (
    (6.0, 12.0),
    (12.0, 18.0),
    (18.0, 24.0),
    (24.0, 30.0),
    (30.0, 36.0),
)


@dataclass(frozen=True)
class FilterBankSpec:
    """Band edges in Hz plus the Butterworth design order."""

    bands: tuple[tuple[float, float], ...] = DEFAULT_BANDS
    order: int = 4

    def __post_init__(self) -> None:
        bands = tuple((float(lo), float(hi)) for lo, hi in self.bands)
        if not bands:
            raise ValueError("filter bank needs at least one band")
        for lo, hi in bands:
            if not 0 < lo < hi:
                raise ValueError(f"invalid band ({lo}, {hi}): need 0 < low < high")
        if self.order < 1:
            raise ValueError("filter order must be >= 1")
        object.__setattr__(self, "bands", bands)

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    def validate_rate(self, sampling_rate: float) -> None:
        nyquist = sampling_rate / 2.0
        for lo, hi in self.bands:
            if hi >= nyquist:
                raise ValueError(
                    f"band ({lo}, {hi}) Hz reaches the Nyquist frequency "
                    f"{nyquist} Hz at a {sampling_rate} Hz sampling rate"
                )


def design_bandpass(low_hz: float, high_hz: float, sampling_rate: float, order: int = 4) -> np.ndarray:
    """Design a Butterworth band-pass as second-order sections.

    Returns the SOS coefficient array for :func:`zero_phase_bandpass`. After
    the forward-backward application the magnitude response is the squared
    single-pass response: at least 0.9 at the band center and at most 0.1 at
    half the low edge and 1.5 times the high edge for the default order.
    """
    nyquist = sampling_rate / 2.0
    if not 0 < low_hz < high_hz < nyquist:
        raise ValueError(
            f"band ({low_hz}, {high_hz}) Hz invalid for sampling rate {sampling_rate} Hz "
            f"(need 0 < low < high < {nyquist})"
        )
    return signal.butter(order, [low_hz, high_hz], btype="bandpass", fs=sampling_rate, output="sos")


def _sosfilt_settled(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One cascade pass with steady-state initial conditions at the first sample."""
    zi = signal.sosfilt_zi(sos)
    x0 = x[..., 0]
    zi_full = zi.reshape(zi.shape[0], *(1,) * x0.ndim, 2) * x0[None, ..., None]
    y, _ = signal.sosfilt(sos, x, axis=-1, zi=zi_full)
    return y


def zero_phase_bandpass(data: np.ndarray, sos: np.ndarray, order: int = 4) -> np.ndarray:
    """Filter along the last axis forward and backward (zero phase).

    Reflect-pads by ``3 * order`` samples each side (clipped for very short
    signals), runs the cascade in both directions with steady-state initial
    conditions, then trims the padding. The initial conditions make the
    response to a constant input exactly its (near-zero) steady state, so no
    step transient leaks into short epochs.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[-1]
    pad = min(3 * order, n - 1)
    widths = [(0, 0)] * (data.ndim - 1) + [(pad, pad)]
    padded = np.pad(data, widths, mode="reflect")
    y = _sosfilt_settled(sos, padded)
    y = _sosfilt_settled(sos, y[..., ::-1])[..., ::-1]
    return y[..., pad : pad + n] if pad else y


def _filter_bank(X: np.ndarray, spec: FilterBankSpec, sampling_rate: float) -> np.ndarray:
    """Expand ``(n, E, T)`` epochs to read-only ``(n, E*B, T)`` band-filtered signals.

    Output channel ``b*E + e`` is channel ``e`` filtered into band ``b``;
    the sample count is unchanged.
    """
    spec.validate_rate(sampling_rate)
    n, e, t = X.shape
    out = np.empty((n, e * spec.n_bands, t))
    for b, (lo, hi) in enumerate(spec.bands):
        sos = design_bandpass(lo, hi, sampling_rate, spec.order)
        out[:, b * e : (b + 1) * e] = zero_phase_bandpass(X, sos, spec.order)
    out.setflags(write=False)
    return out


def apply_filter_bank_set(dataset: EpochSet, spec: FilterBankSpec) -> EpochSet:
    """Expand every E-channel epoch of a set to E*B band-filtered channels.

    Output channel ``b*E + e`` is channel ``e`` filtered into band ``b``;
    labels and metadata are kept.
    """
    return dataset.with_data(_filter_bank(dataset.to_array(), spec, dataset.sampling_rate))
