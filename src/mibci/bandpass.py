"""Butterworth band-pass filter bank applied with zero phase.

Filters are designed as cascaded second-order sections and applied
forward-backward with ``scipy.signal.sosfiltfilt`` so epochs keep their
timing; the signal is reflect-padded by ``3 * order`` samples per side
before the two passes and trimmed after, which tames edge transients on
short epochs. ``scipy.signal`` is imported on first use, so a process that
never filters never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DocumentError, _blocks, _check_fields, _is_kind, _map_shares
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
        _check_fields(self)
        if not (_is_kind(self.bands, list) and all(
            _is_kind(b, list) and len(b) == 2 and all(_is_kind(v, float) for v in b) for b in self.bands
        )):
            raise DocumentError(f"bands must be a list of (low, high) pairs of numbers, got {self.bands!r}")
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

    def sections(self, sampling_rate: float) -> list[np.ndarray]:
        """One :func:`design_bandpass` SOS array per band at ``sampling_rate``."""
        self.validate_rate(sampling_rate)
        return [design_bandpass(lo, hi, sampling_rate, self.order) for lo, hi in self.bands]

    def validate_rate(self, sampling_rate: float) -> None:
        nyquist = sampling_rate / 2.0
        for lo, hi in self.bands:
            if hi >= nyquist:
                raise ValueError(
                    f"band ({lo}, {hi}) Hz reaches the Nyquist frequency "
                    f"{nyquist} Hz at a {sampling_rate} Hz sampling rate"
                )


def design_bandpass(low_hz: float, high_hz: float, sampling_rate: float, order: int = FilterBankSpec.order) -> np.ndarray:
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
    from scipy import signal

    return signal.butter(order, [low_hz, high_hz], btype="bandpass", fs=sampling_rate, output="sos")


def zero_phase_bandpass(data: np.ndarray, sos: np.ndarray, order: int = FilterBankSpec.order) -> np.ndarray:
    """Filter along the last axis forward and backward (zero phase).

    ``scipy.signal.sosfiltfilt`` with even (reflect) padding of ``3 * order``
    samples each side, clipped for very short signals, and steady-state
    initial conditions in both directions. The initial conditions make the
    response to a constant input exactly its (near-zero) steady state, so no
    step transient leaks into short epochs. scipy's default odd padding of
    ``3 * n_taps`` samples gives different output.
    """
    from scipy import signal

    data = np.asarray(data, dtype=np.float64)
    pad = min(3 * order, data.shape[-1] - 1)
    return signal.sosfiltfilt(sos, data, axis=-1, padtype="even", padlen=pad)


def _filter_bank(X: np.ndarray, spec: FilterBankSpec, sections: list[np.ndarray],
                 out: np.ndarray | None = None) -> np.ndarray:
    """Expand ``(n, E, T)`` epochs to read-only ``(n, E*B, T)`` band-filtered signals.

    Output channel ``b*E + e`` is channel ``e`` filtered into band ``b``;
    the sample count is unchanged. Exactly ``X`` is filtered through
    ``sections`` (``spec.sections(sampling_rate)``): callers pass one block
    of :func:`base._blocks`. ``out`` receives the output when given.

    One thread per usable CPU filters a contiguous share of the epochs
    through every band and writes only its share's rows. Each row is
    filtered on its own, so the output is the same bits whatever the share
    sizes, and whatever the number of threads.
    """
    n, e, t = X.shape
    if out is None:
        out = np.empty((n, e * spec.n_bands, t))

    def fill(share: slice) -> None:
        for b, sos in enumerate(sections):
            out[share, b * e : (b + 1) * e] = zero_phase_bandpass(X[share], sos, spec.order)

    _map_shares(fill, n)
    out.setflags(write=False)
    return out


def apply_filter_bank_set(dataset: EpochSet, spec: FilterBankSpec) -> EpochSet:
    """Expand every E-channel epoch of a set to E*B band-filtered channels.

    Output channel ``b*E + e`` is channel ``e`` filtered into band ``b``;
    labels and metadata are kept. Each block of :func:`base._blocks` is cast
    to float64 once and filtered straight into the output.
    """
    X, sections = dataset.to_array(), spec.sections(dataset.sampling_rate)
    out = np.empty((len(X), X.shape[1] * spec.n_bands, X.shape[2]))
    for block, dest in zip(_blocks(X, dtype=np.float64), _blocks(out)):
        _filter_bank(block, spec, sections, dest)
    out.setflags(write=False)
    return dataset.with_data(out)
