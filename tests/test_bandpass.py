"""Filter design and filter-bank behavior via sine-through-filter oracles."""

import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

import mibci.bandpass as bandpass_module
import mibci.base as base_module
from mibci.bandpass import (
    DEFAULT_BANDS,
    FilterBankSpec,
    _filter_bank,
    _filter_rounds,
    apply_filter_bank_set,
    design_bandpass,
    zero_phase_bandpass,
)
from mibci.base import BLOCK_EPOCHS, PIPELINE_WORKERS, ROUND_EPOCHS
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
        with pytest.raises(ValueError, match=r"band \(24\.0, 30\.0\) Hz .*Nyquist"):
            spec.sections(60.0)


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
    """``apply_filter_bank_set`` filters rounds of ROUND_EPOCHS epochs into
    its output; each epoch is filtered on its own, so round edges change no
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

    def test_working_set_is_the_output_plus_the_rounds_in_flight(self, monkeypatch):
        """At the BCI-IV-2a training shape, on 2 usable CPUs, the set's bank
        allocates its 93 MB output plus at most 4 MB (2.3 MB measured): each
        round in flight is filtered straight into the output. Blocks of 32
        epochs shared over the CPUs took the output plus 9.1 MB, and
        filtering each band over the whole partition at once the output plus
        60 MB."""
        monkeypatch.setattr(base_module, "_usable_cpus", lambda: 2)
        x = np.random.default_rng(0).normal(size=(212, 22, 500))
        dataset = EpochSet(x, np.tile([1, 2, 3, 4], 53), FS)
        spec = FilterBankSpec()
        apply_filter_bank_set(EpochSet(x[:4], [1, 2, 3, 4], FS), spec)  # loads scipy.signal untraced
        output_bytes = x.nbytes * spec.n_bands
        tracemalloc.start()
        try:
            out = apply_filter_bank_set(dataset, spec).to_array()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == output_bytes
        assert peak <= output_bytes + 4e6


def one_thread_bank(x, spec):
    """The bank as one thread runs it over the whole of ``x``, a band at a time."""
    return np.concatenate([zero_phase_bandpass(x, design_bandpass(lo, hi, FS, spec.order), spec.order)
                           for lo, hi in spec.bands], axis=1)


def filtered_rounds(x, spec):
    """Every round ``_filter_rounds`` yields for ``x``, checked read-only
    and copied as it arrives."""
    copies = []
    with closing(_filter_rounds(x, spec, FS)) as rounds:
        for r in rounds:
            assert not r.flags.writeable
            copies.append(r.copy())
    return copies


class TestThreadedFilterBank:
    """``_filter_rounds`` filters rounds of ROUND_EPOCHS epochs on one
    thread per usable CPU, ahead of the caller, and yields them in order;
    each epoch is filtered on its own, so every CPU count gives the same
    bits."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 2, 31, 32])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_rounds_are_the_same_bits_at_every_cpu_count(self, cpus, n, dtype, monkeypatch):
        monkeypatch.setattr(base_module, "_usable_cpus", lambda: cpus)
        spec = FilterBankSpec()
        x = np.random.default_rng(n).normal(size=(n, 3, 120)).astype(dtype)
        rounds = filtered_rounds(x, spec)
        assert [len(r) for r in rounds] == [min(ROUND_EPOCHS, n - k) for k in range(0, n, ROUND_EPOCHS)]
        assert all(r.dtype == np.float64 for r in rounds)
        assert np.array_equal(np.concatenate(rounds), one_thread_bank(x, spec))
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

    @pytest.mark.parametrize("n", [1, 2, 32])
    def test_one_pool_filters_each_round_into_a_buffer_of_the_calling_thread(self, n, monkeypatch):
        """One pool of one thread per usable CPU filters each round through
        every band into an output the calling thread allocated; at most one
        round per CPU is started beyond the one the caller holds. A single
        round (n of 1 or 2) starts no pool and is filtered on the calling
        thread."""
        started, calls, ahead = [], [], []
        consumed = 0

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        real_bank = bandpass_module._filter_bank

        def recording_bank(X, spec, sections, out=None):
            calls.append((len(X), out is not None, threading.current_thread() is threading.main_thread()))
            return real_bank(X, spec, sections, out)

        monkeypatch.setattr(base_module, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(base_module, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(bandpass_module, "_filter_bank", recording_bank)
        spec = FilterBankSpec()
        with closing(_filter_rounds(np.random.default_rng(5).normal(size=(n, 2, 80)), spec, FS)) as rounds:
            for _ in rounds:
                consumed += 1
                ahead.append(len(calls) - consumed)
        sizes = [min(ROUND_EPOCHS, n - k) for k in range(0, n, ROUND_EPOCHS)]
        pooled = len(sizes) > 1
        assert started == ([3] if pooled else [])
        assert sorted(calls) == sorted((size, True, not pooled) for size in sizes)
        assert max(ahead) <= 3

    def test_many_usable_cpus_start_at_most_the_capped_pool(self, monkeypatch):
        """On 64 usable CPUs the pool has PIPELINE_WORKERS threads, so the
        rounds alive at once do not grow with the CPU count."""
        started, calls, ahead = [], [], []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        real_bank = bandpass_module._filter_bank

        def recording_bank(X, spec, sections, out=None):
            calls.append(len(X))
            return real_bank(X, spec, sections, out)

        monkeypatch.setattr(base_module, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(base_module, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(bandpass_module, "_filter_bank", recording_bank)
        spec = FilterBankSpec()
        x = np.random.default_rng(8).normal(size=(4 * PIPELINE_WORKERS * ROUND_EPOCHS, 2, 80))
        got = []
        with closing(_filter_rounds(x, spec, FS)) as rounds:
            for r in rounds:
                got.append(r.copy())
                ahead.append(len(calls) - len(got))
        assert started == [PIPELINE_WORKERS] and PIPELINE_WORKERS < 64
        assert len(calls) == 4 * PIPELINE_WORKERS
        assert max(ahead) <= PIPELINE_WORKERS
        assert np.array_equal(np.concatenate(got), one_thread_bank(x, spec))

    def test_one_usable_cpu_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started on one usable CPU")

        monkeypatch.setattr(base_module, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(base_module, "ThreadPoolExecutor", no_pool)
        spec = FilterBankSpec()
        x = np.random.default_rng(6).normal(size=(9, 2, 80))
        assert np.array_equal(np.concatenate(filtered_rounds(x, spec)), one_thread_bank(x, spec))


class TestDesignedOnce:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 300),
        order=st.integers(1, 6),
        lead=st.lists(st.integers(1, 3), max_size=2),
        dtype=st.sampled_from([np.float32, np.float64]),
        band=st.sampled_from(DEFAULT_BANDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_phase_is_sosfiltfilt_with_even_padding_bit_for_bit(self, n, order, lead, dtype, band, seed):
        x = np.random.default_rng(seed).normal(size=(*lead, n)).astype(dtype)
        sos = design_bandpass(*band, FS, order)
        expected = signal.sosfiltfilt(sos, x, padtype="even", padlen=min(3 * order, n - 1))
        got = zero_phase_bandpass(x, sos, order)
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.array_equal(got, expected)

    def test_each_band_is_designed_once_per_pass(self, monkeypatch):
        solved = []
        real_zi = signal.sosfilt_zi

        def counting_zi(sos):
            solved.append(len(sos))
            return real_zi(sos)

        monkeypatch.setattr(signal, "sosfilt_zi", counting_zi)
        spec = FilterBankSpec()
        n = 3 * ROUND_EPOCHS + 1
        apply_filter_bank_set(EpochSet(np.random.default_rng(7).normal(size=(n, 2, 64)), np.tile([1, 2], n)[:n], FS),
                              spec)
        assert len(solved) == spec.n_bands

    def test_sections_and_steady_states_stay_writable(self):
        for sos, zi in FilterBankSpec().sections(FS):
            assert sos.flags.writeable and zi.flags.writeable

    def test_a_band_whose_steady_state_is_singular_is_named(self, monkeypatch):
        """A section with a double pole at z = 1 (denominator 1 - 2/z + 1/z^2)
        makes ``sosfilt_zi``'s system I - A exactly singular by construction:
        elimination leaves an exactly zero pivot in any IEEE arithmetic, which
        LAPACK's getrf reports, so ``np.linalg.solve`` raises LinAlgError."""
        real_design = bandpass_module.design_bandpass

        def design(low_hz, high_hz, sampling_rate, order):
            if (low_hz, high_hz) == (12.0, 18.0):
                return np.array([[1.0, 0.0, -1.0, 1.0, -2.0, 1.0]])
            return real_design(low_hz, high_hz, sampling_rate, order)

        monkeypatch.setattr(bandpass_module, "design_bandpass", design)
        message = ("band (12.0, 18.0) Hz cannot be designed as an order-3 Butterworth band-pass at a "
                   "250 Hz sampling rate: its steady state cannot be solved (Singular matrix)")
        with pytest.raises(ValueError, match=re.escape(message)):
            FilterBankSpec(order=3).sections(FS)
