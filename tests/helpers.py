"""Shared test oracles, independent of the library's computation paths."""

from __future__ import annotations

import math

import numpy as np

from mibci.epochs import Epoch, EpochSet, SplitSpec, derive_seed, split_dataset
from mibci.network import forward, mse_loss


def naive_dft_magnitude(x: np.ndarray) -> np.ndarray:
    """Direct O(N^2) DFT magnitude of a 1-D signal."""
    n = len(x)
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return np.abs(basis @ x)


def band_power(x: np.ndarray, sampling_rate: float, low: float, high: float) -> float:
    """Magnitude-spectrum sum over the bins of a frequency band."""
    mags = naive_dft_magnitude(x)
    freqs = np.arange(len(x)) * sampling_rate / len(x)
    mask = (freqs >= low) & (freqs <= high)
    return float(mags[mask].sum())


def student_t_tail_quadrature(t: float, df: int) -> float:
    """Two-tailed Student-t tail probability by numeric integration."""
    from scipy import integrate

    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)

    def density(x):
        return c * (1.0 + x * x / df) ** (-(df + 1) / 2)

    tail, _ = integrate.quad(density, abs(t), np.inf)
    return 2.0 * tail


def numeric_gradients(spec, params, x, targets, h: float = 1e-5, mode: str = "eval"):
    """Central finite differences of the batch MSE for every parameter."""
    grads = []
    for bp in params.blocks:
        entry = {}
        for name in bp.trainable():
            arr = getattr(bp, name)
            g = np.zeros_like(arr)
            for idx in np.ndindex(*arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                lp = mse_loss(np.atleast_2d(forward(spec, params, x, mode=mode)), targets)
                arr[idx] = orig - h
                lm = mse_loss(np.atleast_2d(forward(spec, params, x, mode=mode)), targets)
                arr[idx] = orig
                g[idx] = (lp - lm) / (2 * h)
            entry[name] = g
        grads.append(entry)
    return grads


def max_relative_gradient_error(analytic, numeric) -> float:
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        for name, arr in gn.items():
            a = ga[name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(arr)), 1e-8)
            worst = max(worst, float((np.abs(a - arr) / denom).max()))
    return worst


def make_epoch(data, label: int = 1, rate: float = 250.0, subject: str = "s") -> Epoch:
    return Epoch(subject_id=subject, label=label, data=np.asarray(data, dtype=float), sampling_rate=rate)


def make_set(n_per_class: int, channels: int = 3, samples: int = 16, num_classes: int = 2,
             rate: float = 250.0, seed: int = 0) -> EpochSet:
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(num_classes * n_per_class, channels, samples))
    labels = np.repeat(np.arange(1, num_classes + 1), n_per_class)
    return EpochSet(data, labels, rate, num_classes, subject_ids="s")


def plant_training_copy(dataset: EpochSet, plan, partition: str = "test") -> EpochSet:
    """Overwrite one run-0 training epoch with a copy of a held-out epoch.

    The held-out epoch is the first of ``partition`` ("test" or
    "validation") under the plan's run-0 split; the overwritten training
    epoch has the same label, so the planted set splits the same way.
    """
    split = split_dataset(dataset, SplitSpec(
        test_fraction=plan.test_fraction,
        validation_fraction=plan.validation_fraction,
        seed=derive_seed(plan.master_seed, 0, "split"),
    ))
    held = getattr(split, f"{partition}_indices")[0]
    labels = dataset.labels
    victim = next(i for i in split.train_indices if labels[i] == labels[held])
    order = np.arange(len(dataset))
    order[victim] = held
    return dataset.subset(order)


class ForcedRng:
    """Duck-typed rng returning scripted values for the augmentation draws."""

    def __init__(self, uniform_values=(), integer_values=(), normal_value=0.0):
        self._uniform = list(uniform_values)
        self._integers = list(integer_values)
        self._normal = normal_value

    def uniform(self, low=0.0, high=1.0):
        return self._uniform.pop(0)

    def integers(self, low, high):
        return self._integers.pop(0)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.full(size, self._normal) if size is not None else self._normal
