"""The synthetic generator against the band-power oracle."""

import re

import numpy as np
import pytest

from mibci.synthetic import MAX_AMPLITUDE, SyntheticSpec, generate_synthetic

from helpers import band_power


def test_band_power_separates_classes_by_construction():
    # class 1 drives channel 0 in the mu band, class 2 drives channel 1
    spec = SyntheticSpec(
        num_classes=2,
        epochs_per_class=12,
        channels=2,
        samples=128,
        sampling_rate=128.0,
        mu_gains=np.array([[5.0, 0.0], [0.0, 5.0]]),
        beta_gains=np.zeros((2, 2)),
        noise_sd=0.5,
        seed=3,
    )
    dataset = generate_synthetic(spec)
    powers = {1: [], 2: []}
    for label, data in zip(dataset.labels, dataset.data):
        powers[label].append(band_power(data[0], spec.sampling_rate, 8.0, 12.0))
    assert np.mean(powers[1]) > np.mean(powers[2])


def test_pure_noise_variance_bound():
    spec = SyntheticSpec(
        num_classes=2,
        epochs_per_class=1,
        channels=2,
        samples=1000,
        mu_gains=np.zeros((2, 2)),
        beta_gains=np.zeros((2, 2)),
        noise_sd=1.0,
        seed=11,
    )
    dataset = generate_synthetic(spec)
    for data in dataset.data:
        for ch in range(dataset.n_channels):
            assert 0.8 <= data[ch].var() <= 1.2


def test_same_seed_identical_different_seed_differs():
    spec = SyntheticSpec(epochs_per_class=3, channels=2, samples=64, seed=5)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert a.fingerprint == b.fingerprint
    c = generate_synthetic(SyntheticSpec(epochs_per_class=3, channels=2, samples=64, seed=6))
    assert c.fingerprint != a.fingerprint


def test_band_above_nyquist_rejected():
    with pytest.raises(ValueError, match="Nyquist"):
        SyntheticSpec(sampling_rate=40.0, beta_hz=22.0)


def test_negative_gain_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        SyntheticSpec(channels=1, mu_gains=np.array([[-1.0], [0.0]]))


def test_labels_and_shapes():
    spec = SyntheticSpec(num_classes=3, epochs_per_class=2, channels=4, samples=32)
    dataset = generate_synthetic(spec)
    assert len(dataset) == 6
    assert dataset.num_classes == 3
    assert sorted(set(dataset.labels)) == [1, 2, 3]
    assert dataset.to_array().shape == (6, 4, 32)
    assert all(origin == "synthetic" for origin in dataset.origins)


@pytest.mark.parametrize("field", ["num_classes", "epochs_per_class", "channels", "samples", "seed"])
@pytest.mark.parametrize("value", ["3", 3.0, True])
def test_integer_fields_refuse_other_types(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        SyntheticSpec(**{field: value})



@pytest.mark.parametrize("fields, message", [
    (dict(noise_sd=1e308), "noise_sd must be in [0, 1.12356e+307], got 1e+308"),
    (dict(default_gain=1e308), "default_gain must be in [0, 1.12356e+307], got 1e+308"),
    (dict(mu_gains=[[0.0, 0.0], [2.0, 1e308]]), "mu_gains row 1 must be at most 1.12356e+307, got 1e+308"),
    (dict(beta_gains=[[np.inf, 0.0], [0.0, 0.0]]), "beta_gains row 0 must be at most 1.12356e+307, got inf"),
    (dict(mu_gains=[[1.0, 0.0], [0.0, np.nan]]), "mu_gains row 1 must be at most 1.12356e+307, got nan"),
])
def test_an_amplitude_that_can_overflow_is_named(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SyntheticSpec(num_classes=2, channels=2, **fields)


def test_the_largest_amplitudes_generate_finite_unchanged_samples():
    """At MAX_AMPLITUDE in every field the samples are finite, and they are
    the unit-amplitude set scaled: the range rule changes no sample."""
    fields = dict(num_classes=2, epochs_per_class=20, channels=2, samples=64, seed=4)
    unit = generate_synthetic(SyntheticSpec(**fields, noise_sd=1.0, mu_gains=np.ones((2, 2)),
                                            beta_gains=np.ones((2, 2))))
    scale = 2.0**1019  # the largest power of two in range, so scaling is exact
    assert scale <= MAX_AMPLITUDE < 2 * scale
    big = generate_synthetic(SyntheticSpec(**fields, noise_sd=scale, mu_gains=np.full((2, 2), scale),
                                           beta_gains=np.full((2, 2), scale)))
    assert np.array_equal(big.to_array(), unit.to_array() * scale)
