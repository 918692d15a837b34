"""Butterworth band-pass filter bank applied with zero phase.

Filters are designed as cascaded second-order sections and applied
forward-backward, as ``scipy.signal.sosfiltfilt`` does, so epochs keep their
timing: the signal is even-extended (reflected) by ``3 * order`` samples per
side, filtered forward and backward by ``scipy.signal.sosfilt`` from each
band's steady state, and trimmed, which tames edge transients on short
epochs. A bank designs each band's sections and steady state once per pass.
``scipy.signal`` is imported on first use, so a process that never filters
never loads it.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .base import ROUND_EPOCHS, DocumentError, _blocks, _check_fields, _is_kind, _pipeline
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

    def sections(self, sampling_rate: float) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per band at ``sampling_rate``, its :func:`design_bandpass` SOS array
        and the ``scipy.signal.sosfilt_zi`` steady state that both passes
        start from. Both stay writable: ``sosfilt`` refuses a read-only array.
        A band that :func:`design_bandpass` refuses at this rate, or whose
        steady state cannot be solved for, raises ``ValueError`` naming it."""
        from scipy import signal

        designed = []
        for lo, hi in self.bands:
            sos = design_bandpass(lo, hi, sampling_rate, self.order)
            try:
                designed.append((sos, signal.sosfilt_zi(sos)))
            except np.linalg.LinAlgError as err:
                raise ValueError(
                    f"band ({lo}, {hi}) Hz cannot be designed as an order-{self.order} Butterworth band-pass "
                    f"at a {sampling_rate:g} Hz sampling rate: its steady state cannot be solved ({err})"
                ) from None
        return designed


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
            f"(need 0 < low < high < {nyquist}, the Nyquist frequency)"
        )
    from scipy import signal

    return signal.butter(order, [low_hz, high_hz], btype="bandpass", fs=sampling_rate, output="sos")


def zero_phase_bandpass(data: np.ndarray, sos: np.ndarray, order: int = FilterBankSpec.order) -> np.ndarray:
    """Filter along the last axis forward and backward (zero phase).

    The same bits as ``scipy.signal.sosfiltfilt`` with even (reflect) padding
    of ``3 * order`` samples each side, clipped for very short signals: the
    even extension, two ``scipy.signal.sosfilt`` passes each started in the
    steady state scaled by its first sample, and the trim. The initial
    conditions make the response to a constant input exactly its (near-zero)
    steady state, so no step transient leaks into short epochs. scipy's
    default odd padding of ``3 * n_taps`` samples gives different output.
    """
    from scipy import signal

    return _two_pass(*_extend(np.asarray(data, dtype=np.float64), order), sos, signal.sosfilt_zi(sos))


def _extend(data: np.ndarray, order: int) -> tuple[np.ndarray, int]:
    """``data`` reflected at both ends of its last axis by ``3 * order``
    samples, clipped to one less than its length, and that sample count."""
    pad = min(3 * order, data.shape[-1] - 1)
    return np.pad(data, [(0, 0)] * (data.ndim - 1) + [(pad, pad)], mode="reflect"), pad


def _two_pass(ext: np.ndarray, pad: int, sos: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """The extension ``ext`` filtered forward, then backward, along its last
    axis, with its ``pad`` samples trimmed from each end; each pass starts in
    the steady state ``zi`` scaled by its first sample."""
    from scipy import signal

    zi = zi.reshape(len(zi), *(1,) * (ext.ndim - 1), 2)

    def settled(x):
        return signal.sosfilt(sos, x, axis=-1, zi=zi * x[..., :1])[0]

    return settled(settled(ext)[..., ::-1])[..., ::-1][..., pad : ext.shape[-1] - pad]


def _filter_bank(X: np.ndarray, spec: FilterBankSpec, sections: list[tuple[np.ndarray, np.ndarray]],
                 out: np.ndarray | None = None) -> np.ndarray:
    """Expand ``(n, E, T)`` epochs to read-only ``(n, E*B, T)`` band-filtered signals.

    Output channel ``b*E + e`` is channel ``e`` filtered into band ``b``;
    the sample count is unchanged. ``X`` is cast to float64, extended once
    for every band and filtered through ``sections``
    (``spec.sections(sampling_rate)``, designed once per pass). ``out``
    receives the output when given. Each row is filtered on its own, so an
    epoch's output does not depend on the other epochs of ``X``.
    """
    X = np.asarray(X, dtype=np.float64)
    n, e, t = X.shape
    if out is None:
        out = np.empty((n, e * spec.n_bands, t))
    ext, pad = _extend(X, spec.order)
    for b, (sos, zi) in enumerate(sections):
        out[:, b * e : (b + 1) * e] = _two_pass(ext, pad, sos, zi)
    out.setflags(write=False)
    return out


def _filter_rounds(data: np.ndarray, spec: FilterBankSpec, sampling_rate: float,
                   rows: np.ndarray | None = None, out: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """The bank's output for ``data[rows]`` (every row when ``rows`` is
    None), in order, one round of :data:`base.ROUND_EPOCHS` epochs at a time.

    The rounds are filtered through :func:`base._pipeline`, up to one per
    usable CPU (at most :data:`base.PIPELINE_WORKERS`) ahead of the caller;
    a single round is filtered inline. Each round is written into its rows of
    ``out`` when given, else into a buffer allocated here, on the calling
    thread, which frees it once the caller drops it. Close the iterator
    (``contextlib.closing``) so that an error stops its threads at once.
    """
    sections = spec.sections(sampling_rate)
    shape = (data.shape[1] * spec.n_bands, data.shape[2])

    def rounds():
        start = 0
        for raw in _blocks(data, rows, np.float64, ROUND_EPOCHS):
            yield raw, np.empty((len(raw), *shape)) if out is None else out[start : start + len(raw)]
            start += len(raw)

    return _pipeline(lambda round_: _filter_bank(round_[0], spec, sections, round_[1]), rounds())


def apply_filter_bank_set(dataset: EpochSet, spec: FilterBankSpec) -> EpochSet:
    """Expand every E-channel epoch of a set to E*B band-filtered channels.

    Output channel ``b*E + e`` is channel ``e`` filtered into band ``b``;
    labels and metadata are kept. Each round of :func:`_filter_rounds` is
    cast to float64 once and filtered straight into the output.
    """
    X = dataset.to_array()
    out = np.empty((len(X), X.shape[1] * spec.n_bands, X.shape[2]))
    with closing(_filter_rounds(X, spec, dataset.sampling_rate, out=out)) as rounds:
        for _ in rounds:
            pass
    out.setflags(write=False)
    return dataset.with_data(out)
