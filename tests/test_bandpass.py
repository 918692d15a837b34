"""Filter design and filter-bank behavior via sine-through-filter oracles."""

import numpy as np
import pytest

from mibci.bandpass import (
    DEFAULT_BANDS,
    FilterBankSpec,
    apply_filter_bank_set,
    design_bandpass,
    zero_phase_bandpass,
)

from mibci.epochs import EpochSet

from helpers import make_epoch, make_set

FS = 250.0


def two_pass_gain(sos, freq, fs=FS, seconds=8.0, order=4):
    """Steady-state amplitude ratio of a pure sine after both passes."""
    t = np.arange(int(fs * seconds)) / fs
    x = np.sin(2 * np.pi * freq * t)[None, :]
    y = zero_phase_bandpass(x, sos, order)
    mid = slice(len(t) // 4, 3 * len(t) // 4)
    return float(np.abs(y[0, mid]).max())


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


def filter_one(ep):
    """Filter-bank output of a one-epoch set."""
    (out,) = apply_filter_bank_set(EpochSet.from_epochs((ep,), num_classes=2), FilterBankSpec())
    return out


class TestApplyFilterBank:
    def test_channel_expansion(self):
        ep = make_epoch(np.random.default_rng(0).normal(size=(3, 200)))
        out = filter_one(ep)
        assert out.data.shape == (15, 200)

    def test_sine_energy_lands_in_its_band(self):
        t = np.arange(500) / FS
        ep = make_epoch(np.tile(np.sin(2 * np.pi * 10.0 * t), (3, 1)))
        out = filter_one(ep)
        e = ep.n_channels
        energies = [float((out.data[b * e : (b + 1) * e] ** 2).sum()) for b in range(5)]
        assert energies[0] >= 10 * max(energies[1:])

    def test_zero_in_zero_out(self):
        ep = make_epoch(np.zeros((2, 100)))
        out = filter_one(ep)
        assert np.abs(out.data).max() <= 1e-12

    def test_band_ordering_is_band_major(self):
        t = np.arange(500) / FS
        data = np.vstack([np.sin(2 * np.pi * 10.0 * t), np.sin(2 * np.pi * 27.0 * t)])
        out = filter_one(make_epoch(data))
        # channel b*E+e: band 0 keeps channel 0's 10 Hz, band 3 keeps channel 1's 27 Hz
        assert (out.data[0] ** 2).sum() > 10 * (out.data[1] ** 2).sum()
        assert (out.data[3 * 2 + 1] ** 2).sum() > 10 * (out.data[3 * 2] ** 2).sum()

    def test_set_variant_matches_per_epoch(self):
        dataset = make_set(2, channels=2, samples=64)
        spec = FilterBankSpec()
        whole = apply_filter_bank_set(dataset, spec)
        for before, after in zip(dataset, whole):
            blocks = [
                zero_phase_bandpass(before.data, design_bandpass(lo, hi, FS, spec.order), spec.order)
                for lo, hi in spec.bands
            ]
            assert np.array_equal(after.data, np.concatenate(blocks))
            assert after.label == before.label
