"""Filter design and filter-bank behavior via sine-through-filter oracles."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from scipy import signal

import mibci.bandpass as bandpass_module
import mibci.base as base_module
from mibci.bandpass import (
    DEFAULT_BANDS,
    FilterBankSpec,
    _filter_bank,
    apply_filter_bank_set,
    design_bandpass,
    zero_phase_bandpass,
)
from mibci.base import BLOCK_EPOCHS
from mibci.epochs import EpochSet

from helpers import make_set

FS = 250.0


def two_pass_gain(sos, freq, fs=FS, seconds=8.0, order=4):
    """Steady-state amplitude ratio of a pure sine after both passes."""
    t = np.arange(int(fs * seconds)) / fs
    x = np.sin(2 * np.pi * freq * t)[None, :]
    y = zero_phase_bandpass(x, sos, order)
    mid = slice(len(t) // 4, 3 * len(t) // 4)
    return float(np.abs(y[0, mid]).max())


def reference_zero_phase(data, sos, order):
    """Reflect padding of 3*order samples, two settled sosfilt passes, then the trim."""
    n = data.shape[-1]
    pad = min(3 * order, n - 1)
    padded = np.pad(data, [(0, 0)] * (data.ndim - 1) + [(pad, pad)], mode="reflect")
    zi = signal.sosfilt_zi(sos)

    def settled(x):
        zi_full = zi.reshape(zi.shape[0], *(1,) * (x.ndim - 1), 2) * x[None, ..., :1]
        return signal.sosfilt(sos, x, axis=-1, zi=zi_full)[0]

    y = settled(settled(padded)[..., ::-1])[..., ::-1]
    return y[..., pad : pad + n]


class TestDesign:
    def test_center_gain_high(self):
        sos = design_bandpass(8, 12, FS, order=4)
        assert two_pass_gain(sos, 10.0) >= 0.9

    def test_stopband_gains_low(self):
        sos = design_bandpass(8, 12, FS, order=4)
        assert two_pass_gain(sos, 4.0) <= 0.1  # 0.5 * low edge
        assert two_pass_gain(sos, 18.0) <= 0.1  # 1.5 * high edge
        assert two_pass_gain(sos, 40.0) <= 0.1

    def test_dc_killed(self):
        sos = design_bandpass(8, 12, FS, order=4)
        out = zero_phase_bandpass(np.ones((1, 1000)), sos, 4)
        assert np.abs(out).max() <= 1e-6

    def test_band_against_nyquist(self):
        with pytest.raises(ValueError):
            design_bandpass(100, 130, FS)
        with pytest.raises(ValueError):
            design_bandpass(12, 8, FS)
        with pytest.raises(ValueError):
            design_bandpass(0, 8, FS)


class TestFilterBankSpec:
    def test_defaults(self):
        spec = FilterBankSpec()
        assert spec.bands == DEFAULT_BANDS
        assert spec.n_bands == 5

    def test_rejects_empty_and_inverted(self):
        with pytest.raises(ValueError):
            FilterBankSpec(bands=())
        with pytest.raises(ValueError):
            FilterBankSpec(bands=((12.0, 6.0),))

    def test_rate_validation(self):
        spec = FilterBankSpec()
        with pytest.raises(ValueError, match="Nyquist"):
            spec.validate_rate(60.0)


def filter_one(data):
    """Filter-bank output of a one-epoch set holding ``data``."""
    (out,) = apply_filter_bank_set(EpochSet(np.asarray(data)[np.newaxis], [1], FS, num_classes=2),
                                   FilterBankSpec()).data
    return out


class TestZeroPhase:
    @pytest.mark.parametrize("n", [1, 2, 13, 500])
    @pytest.mark.parametrize("order", [1, 4, 6])
    def test_bit_identical_to_the_padded_two_pass_reference(self, n, order):
        x = np.random.default_rng(n).normal(size=(3, 2, n))
        for lo, hi in DEFAULT_BANDS:
            sos = design_bandpass(lo, hi, FS, order)
            assert np.array_equal(zero_phase_bandpass(x, sos, order), reference_zero_phase(x, sos, order))


class TestApplyFilterBank:
    def test_channel_expansion(self):
        out = filter_one(np.random.default_rng(0).normal(size=(3, 200)))
        assert out.shape == (15, 200)

    def test_sine_energy_lands_in_its_band(self):
        t = np.arange(500) / FS
        data = np.tile(np.sin(2 * np.pi * 10.0 * t), (3, 1))
        out = filter_one(data)
        e = len(data)
        energies = [float((out[b * e : (b + 1) * e] ** 2).sum()) for b in range(5)]
        assert energies[0] >= 10 * max(energies[1:])

    def test_zero_in_zero_out(self):
        out = filter_one(np.zeros((2, 100)))
        assert np.abs(out).max() <= 1e-12

    def test_band_ordering_is_band_major(self):
        t = np.arange(500) / FS
        data = np.vstack([np.sin(2 * np.pi * 10.0 * t), np.sin(2 * np.pi * 27.0 * t)])
        out = filter_one(data)
        # channel b*E+e: band 0 keeps channel 0's 10 Hz, band 3 keeps channel 1's 27 Hz
        assert (out[0] ** 2).sum() > 10 * (out[1] ** 2).sum()
        assert (out[3 * 2 + 1] ** 2).sum() > 10 * (out[3 * 2] ** 2).sum()

    def test_set_variant_matches_per_epoch(self):
        dataset = make_set(2, channels=2, samples=64)
        spec = FilterBankSpec()
        whole = apply_filter_bank_set(dataset, spec)
        for before, after in zip(dataset.data, whole.data):
            blocks = [
                zero_phase_bandpass(before, design_bandpass(lo, hi, FS, spec.order), spec.order)
                for lo, hi in spec.bands
            ]
            assert np.array_equal(after, np.concatenate(blocks))
        assert np.array_equal(whole.labels, dataset.labels)


class TestBlockedFilterBank:
    """``apply_filter_bank_set`` filters blocks of BLOCK_EPOCHS epochs into
    its output; each epoch is filtered on its own, so block edges change no
    bit."""

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 100])
    def test_matches_whole_batch_and_per_epoch_bit_for_bit(self, n):
        assert BLOCK_EPOCHS == 32
        spec = FilterBankSpec()
        x = np.random.default_rng(n).normal(size=(n, 3, 120))
        out = apply_filter_bank_set(EpochSet(x, np.ones(n, dtype=int), FS, num_classes=2), spec).to_array()
        sections = [design_bandpass(lo, hi, FS, spec.order) for lo, hi in spec.bands]
        whole = np.concatenate([zero_phase_bandpass(x, sos, spec.order) for sos in sections], axis=1)
        per_epoch = np.stack([
            np.concatenate([zero_phase_bandpass(epoch, sos, spec.order) for sos in sections])
            for epoch in x
        ])
        assert out.shape == (n, 15, 120)
        assert not out.flags.writeable
        assert np.array_equal(out, whole)
        assert np.array_equal(out, per_epoch)

    def test_float32_input_is_filtered_in_float64(self):
        x = np.random.default_rng(4).normal(size=(40, 2, 80)).astype(np.float32)
        spec = FilterBankSpec()
        out = _filter_bank(x, spec, spec.sections(FS))
        assert out.dtype == np.float64
        assert np.array_equal(out, _filter_bank(x.astype(np.float64), spec, spec.sections(FS)))

    def test_working_set_is_the_output_plus_one_block(self):
        """At the BCI-IV-2a training shape the set's bank allocates its 93 MB
        output plus at most 10 MB (9.1 MB measured); filtering each band over
        the whole partition at once took the output plus 60 MB."""
        x = np.random.default_rng(0).normal(size=(212, 22, 500))
        dataset = EpochSet(x, np.tile([1, 2, 3, 4], 53), FS)
        spec = FilterBankSpec()
        output_bytes = x.nbytes * spec.n_bands
        tracemalloc.start()
        try:
            out = apply_filter_bank_set(dataset, spec).to_array()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == output_bytes
        assert peak <= output_bytes + 10e6


def one_thread_bank(x, spec):
    """The bank as one thread runs it over the whole of ``x``, a band at a time."""
    return np.concatenate([zero_phase_bandpass(x, sos, spec.order) for sos in spec.sections(FS)], axis=1)


class TestThreadedFilterBank:
    """``_filter_bank`` gives each usable CPU's thread a contiguous share of
    a block's epochs; each epoch is filtered on its own, so every CPU count
    and share size gives the same bits."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 2, 31, 32])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_block_is_the_same_bits_at_every_cpu_count(self, cpus, n, dtype, monkeypatch):
        monkeypatch.setattr(base_module, "_usable_cpus", lambda: cpus)
        spec = FilterBankSpec()
        x = np.random.default_rng(n).normal(size=(n, 3, 120)).astype(dtype)
        out = _filter_bank(x, spec, spec.sections(FS))
        assert out.dtype == np.float64 and not out.flags.writeable
        assert np.array_equal(out, one_thread_bank(x, spec))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_set_is_the_same_bits_at_every_cpu_count(self, cpus, dtype, monkeypatch):
        monkeypatch.setattr(base_module, "_usable_cpus", lambda: cpus)
        spec = FilterBankSpec()
        n = 2 * BLOCK_EPOCHS + 7
        x = np.random.default_rng(cpus).normal(size=(n, 2, 100)).astype(dtype)
        out = apply_filter_bank_set(EpochSet(x, np.tile([1, 2], n)[:n], FS), spec).to_array()
        assert np.array_equal(out, one_thread_bank(x, spec))

    @pytest.mark.parametrize("n, shares", [(1, [1]), (2, [1, 1]), (32, [10, 11, 11])])
    def test_one_thread_per_usable_cpu_each_filters_its_share_through_every_band(self, n, shares, monkeypatch):
        started, filtered = [], []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        real_filter = bandpass_module.zero_phase_bandpass

        def recording_filter(data, sos, order):
            filtered.append(len(data))
            return real_filter(data, sos, order)

        monkeypatch.setattr(base_module, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(base_module, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(bandpass_module, "zero_phase_bandpass", recording_filter)
        spec = FilterBankSpec()
        _filter_bank(np.random.default_rng(5).normal(size=(n, 2, 80)), spec, spec.sections(FS))
        assert started == ([] if len(shares) == 1 else [len(shares)])
        assert sorted(filtered) == sorted(shares * spec.n_bands)
