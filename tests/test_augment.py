"""The five augmentation steps and the set expansion."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mibci.augment import (
    AugmentConfig,
    EpochAugmenter,
    augment_epoch,
    augment_set,
    noise_inject,
    polarity_invert,
    random_scale,
    time_rotate,
    zero_mean,
)

from mibci.epochs import EpochSet

from helpers import ForcedRng, make_set


def reference_augment_set(dataset: EpochSet, cfg: AugmentConfig) -> list[tuple]:
    """The epoch-by-epoch expansion loop, one step at a time; each output
    row is a ``(subject_id, label, data, origin)`` tuple."""
    out = []
    for i, (subject_id, label, source, origin) in enumerate(
        zip(dataset.subject_ids, dataset.labels, dataset.data, dataset.origins)
    ):
        out.append((subject_id, label, source, origin))
        if not cfg.copies_per_epoch:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFFFFFFFFFF, i]))
        for _ in range(cfg.copies_per_epoch):
            data = source - source.mean(axis=1, keepdims=True)
            data = data * float(rng.uniform(cfg.amp_low, cfg.amp_high))
            sign = -1 if rng.uniform() < cfg.flip_probability else 1
            data = data * sign
            half = data.shape[1] // 2 if cfg.rotation_half_range is None else cfg.rotation_half_range
            shift = int(rng.integers(-half, half + 1))
            data = np.roll(data, shift, axis=1)
            if cfg.noise_sd:
                data = data + rng.normal(0.0, cfg.noise_sd, size=data.shape)
            out.append((subject_id, label, data, "augmented"))
    return out


class TestZeroMean:
    def test_simple(self):
        out = zero_mean(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(out, [[-1.0, 0.0, 1.0]])

    def test_already_zero_mean_unchanged(self):
        ep = np.array([[-1.0, 0.0, 1.0]])
        assert np.allclose(zero_mean(ep), ep, atol=1e-12)

    def test_constant_channel(self):
        out = zero_mean(np.array([[5.0, 5.0, 5.0, 5.0]]))
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_per_channel_means_vanish(self):
        ep = np.random.default_rng(0).normal(2.0, 3.0, size=(4, 100))
        out = zero_mean(ep)
        rms = np.sqrt((out**2).mean(axis=1))
        assert np.all(np.abs(out.mean(axis=1)) <= 1e-9 * np.maximum(rms, 1.0))


class TestRandomScale:
    def test_forced_factor(self):
        out, factor = random_scale(np.array([[-1.0, 0.0, 1.0]]), ForcedRng(uniform_values=[2.0]))
        assert factor == 2.0
        assert np.array_equal(out, [[-2.0, 0.0, 2.0]])

    def test_factor_one_is_identity(self):
        ep = np.array([[-1.0, 0.5, 1.0]])
        out, _ = random_scale(ep, ForcedRng(uniform_values=[1.0]))
        assert np.array_equal(out, ep)

    def test_draw_distribution(self):
        rng = np.random.default_rng(42)
        ep = np.array([[1.0]])
        draws = np.array([random_scale(ep, rng)[1] for _ in range(10_000)])
        assert draws.min() >= 0.2
        assert draws.max() <= 5.0
        assert 2.5 <= draws.mean() <= 2.7


class TestPolarityInvert:
    def test_forced_flip(self):
        out, sign = polarity_invert(np.array([[-2.0, 0.0, 2.0]]), ForcedRng(uniform_values=[0.0]))
        assert sign == -1
        assert np.array_equal(out, [[2.0, 0.0, -2.0]])

    def test_no_flip_is_identity(self):
        ep = np.array([[1.0, 2.0]])
        out, sign = polarity_invert(ep, ForcedRng(uniform_values=[0.9]))
        assert sign == 1
        assert np.array_equal(out, ep)

    def test_flip_fraction(self):
        rng = np.random.default_rng(7)
        ep = np.array([[1.0]])
        signs = np.array([polarity_invert(ep, rng)[1] for _ in range(10_000)])
        fraction = (signs == -1).mean()
        assert 0.47 <= fraction <= 0.53


class TestTimeRotate:
    def test_unit_shift(self):
        out, shift = time_rotate(np.array([[1.0, 2.0, 3.0, 4.0]]), ForcedRng(integer_values=[1]))
        assert shift == 1
        assert np.array_equal(out, [[4.0, 1.0, 2.0, 3.0]])

    def test_zero_shift_identity(self):
        ep = np.array([[1.0, 2.0, 3.0, 4.0]])
        out, _ = time_rotate(ep, ForcedRng(integer_values=[0]))
        assert np.array_equal(out, ep)

    def test_magnitude_spectrum_preserved(self):
        rng = np.random.default_rng(5)
        ep = rng.normal(size=(3, 64))
        out, _ = time_rotate(ep, rng)
        before = np.abs(np.fft.rfft(ep, axis=1))
        after = np.abs(np.fft.rfft(out, axis=1))
        assert np.all(np.abs(after - before) <= 1e-9 * np.maximum(before, 1e-12))

    def test_shift_range_bounds(self):
        rng = np.random.default_rng(0)
        ep = np.zeros((1, 9))
        shifts = {time_rotate(ep, rng)[1] for _ in range(500)}
        assert min(shifts) == -4 and max(shifts) == 4


class TestNoiseInject:
    def test_zero_sd_identity(self):
        ep = np.array([[1.0, 2.0]])
        out = noise_inject(ep, np.random.default_rng(0), noise_sd=0.0)
        assert np.array_equal(out, ep)

    def test_variance_bound_at_scale(self):
        ep = np.zeros((10, 100_000))
        out = noise_inject(ep, np.random.default_rng(2), noise_sd=0.01)
        assert 0.98e-4 <= out.var() <= 1.02e-4

    def test_per_channel_mean_clt_bound(self):
        n = 100_000
        ep = np.zeros((4, n))
        out = noise_inject(ep, np.random.default_rng(3), noise_sd=0.5)
        bound = 4 * 0.5 / np.sqrt(n)
        assert np.all(np.abs(out.mean(axis=1)) <= bound)


class TestAugmentEpoch:
    def test_degenerate_draws_reduce_to_zero_mean(self):
        ep = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 4.0, 0.0, 4.0]])
        cfg = AugmentConfig(noise_sd=0.0)
        rng = ForcedRng(uniform_values=[1.0, 0.9], integer_values=[0])
        out = augment_epoch(ep, cfg, rng)
        assert np.allclose(out, zero_mean(ep))
        grown = augment_set(make_set(1, channels=2, samples=4), AugmentConfig(copies_per_epoch=1))
        assert grown.origins[1] == "augmented"
        assert grown.labels[1] == grown.labels[0]

    def test_pre_noise_channel_means_zero(self):
        rng = np.random.default_rng(1)
        ep = rng.normal(3.0, 1.0, size=(4, 50))
        out = augment_epoch(ep, AugmentConfig(noise_sd=0.0), np.random.default_rng(2))
        assert np.all(np.abs(out.mean(axis=1)) <= 1e-9)

    def test_pre_noise_spectrum_is_scaled_original(self):
        rng = np.random.default_rng(4)
        ep = rng.normal(size=(3, 64))
        out, draws = augment_epoch(
            ep, AugmentConfig(noise_sd=0.0), np.random.default_rng(9), return_draws=True
        )
        base = np.abs(np.fft.rfft(zero_mean(ep), axis=1))
        got = np.abs(np.fft.rfft(out, axis=1))
        expected = draws["scale"] * base
        floor = 1e-9 * expected.max(axis=1, keepdims=True)  # the DC bin is exactly 0 in theory
        assert np.all(np.abs(got - expected) <= np.maximum(1e-9 * expected, floor))


class TestAugmentSet:
    def test_expansion_counts(self):
        dataset = make_set(101, channels=2, samples=8)  # 202 epochs
        grown = augment_set(dataset, AugmentConfig(copies_per_epoch=9, noise_sd=0.0))
        assert len(grown) == 2020

    def test_expansion_counts_224(self):
        dataset = make_set(112, channels=1, samples=8)  # 224 epochs
        grown = augment_set(dataset, AugmentConfig(copies_per_epoch=9))
        assert len(grown) == 2240

    def test_zero_copies_identity(self):
        dataset = make_set(3, channels=2, samples=8)
        grown = augment_set(dataset, AugmentConfig(copies_per_epoch=0))
        assert grown.fingerprint == dataset.fingerprint

    def test_class_histogram_scales(self):
        dataset = make_set(4, channels=1, samples=8, num_classes=3)
        grown = augment_set(dataset, AugmentConfig(copies_per_epoch=9))
        assert np.array_equal(grown.class_counts(), 10 * dataset.class_counts())

    def test_deterministic(self):
        dataset = make_set(3, channels=2, samples=16)
        cfg = AugmentConfig(seed=77)
        a = augment_set(dataset, cfg)
        b = augment_set(dataset, cfg)
        assert a.fingerprint == b.fingerprint
        c = augment_set(dataset, AugmentConfig(seed=78))
        assert c.fingerprint != a.fingerprint

    def test_provenance_flags(self):
        dataset = make_set(2, channels=1, samples=8)
        grown = augment_set(dataset, AugmentConfig(copies_per_epoch=2))
        origins = list(grown.origins)
        assert origins.count("augmented") == 2 * len(dataset)
        assert origins.count("recorded") == len(dataset)

    @pytest.mark.parametrize(
        "cfg",
        [
            AugmentConfig(seed=3),
            AugmentConfig(copies_per_epoch=0),
            AugmentConfig(copies_per_epoch=2, noise_sd=0.0, seed=-5),
            AugmentConfig(rotation_half_range=1, flip_probability=1.0, noise_sd=0.3, seed=2**64 + 9),
        ],
    )
    def test_bit_equal_to_the_epoch_by_epoch_loop(self, cfg):
        source = make_set(3, channels=2, samples=11, num_classes=3, seed=4)
        dataset = EpochSet(source.to_array(), source.labels, source.sampling_rate, 3,
                           [f"s{i % 2}" for i in range(len(source))], "synthetic")
        grown = augment_set(dataset, cfg)
        expected = reference_augment_set(dataset, cfg)
        subject_ids, labels, data, origins = (list(column) for column in zip(*expected))
        assert np.array_equal(grown.to_array(), np.stack(data))
        assert grown.labels.tolist() == labels
        assert list(grown.origins) == origins
        assert list(grown.subject_ids) == subject_ids
        rebuilt = EpochSet(np.stack(data), labels, dataset.sampling_rate, 3, subject_ids, origins)
        assert grown.fingerprint == rebuilt.fingerprint

    @settings(max_examples=25, deadline=None)
    @given(
        per_class=st.integers(min_value=1, max_value=12),
        copies=st.integers(min_value=0, max_value=11),
    )
    def test_size_rule_property(self, per_class, copies):
        dataset = make_set(per_class, channels=1, samples=6)
        grown = augment_set(dataset, AugmentConfig(copies_per_epoch=copies))
        assert len(grown) == len(dataset) * (1 + copies)
        assert np.array_equal(grown.class_counts(), (1 + copies) * dataset.class_counts())


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(amp_low=0.0)
    with pytest.raises(ValueError):
        AugmentConfig(amp_low=2.0, amp_high=1.0)
    with pytest.raises(ValueError):
        AugmentConfig(flip_probability=1.5)
    with pytest.raises(ValueError):
        AugmentConfig(noise_sd=-0.1)
    with pytest.raises(ValueError):
        AugmentConfig(copies_per_epoch=-1)


def test_estimator_facade():
    aug = EpochAugmenter(copies_per_epoch=3, seed=5)
    # the facade's knobs are the config's fields; augmentation reads no sampling rate
    assert list(aug.get_params()) == [f.name for f in fields(AugmentConfig)]
    assert aug.get_params()["copies_per_epoch"] == 3
    X = np.random.default_rng(0).normal(size=(4, 2, 16))
    y = [1, 1, 2, 2]
    X2, y2 = aug.fit_resample(X, y)
    assert X2.shape == (16, 2, 16)
    assert np.bincount(y2)[1:].tolist() == [8, 8]
    aug.set_params(copies_per_epoch=0)
    X3, _ = aug.fit_resample(X, y)
    assert np.allclose(X3, X)
