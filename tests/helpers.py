"""Shared test oracles, independent of the library's computation paths."""

from __future__ import annotations

import base64
import math

import numpy as np

from mibci.epochs import EpochSet, SplitSpec, derive_seed, split_dataset
from mibci.experiment import ExperimentReport, RunResult
from mibci.base import BLOCK_EPOCHS
from mibci.network import _forward_stack, mse_loss


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
    """Central finite differences of the batch MSE for every parameter, each
    loss from one whole-batch pass of the stack ``backward`` records."""
    x = np.asarray(x, dtype=params.dtype)
    grads = []
    for bp in params.blocks:
        entry = {}
        for name in bp.trainable():
            arr = getattr(bp, name)
            g = np.zeros_like(arr)
            for idx in np.ndindex(*arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                lp = mse_loss(_forward_stack(spec, params, x, mode, None, []), targets)
                arr[idx] = orig - h
                lm = mse_loss(_forward_stack(spec, params, x, mode, None, []), targets)
                arr[idx] = orig
                g[idx] = (lp - lm) / (2 * h)
            entry[name] = g
        grads.append(entry)
    return grads


def masked_eval_forward(spec, params, x):
    """Eval forward through the recorded stack ``backward`` runs, which
    builds the ReLU, dropout and pool masks, in blocks of BLOCK_EPOCHS as
    ``forward`` runs them."""
    x = np.asarray(x, dtype=params.dtype)
    return np.concatenate([
        _forward_stack(spec, params, x[start : start + BLOCK_EPOCHS], "eval", None, [])
        for start in range(0, len(x), BLOCK_EPOCHS)
    ])


def max_relative_gradient_error(analytic, numeric) -> float:
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        for name, arr in gn.items():
            a = ga[name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(arr)), 1e-8)
            worst = max(worst, float((np.abs(a - arr) / denom).max()))
    return worst


def packed(a: np.ndarray) -> str:
    """A network-document array in format 2: base64 of its little-endian
    bytes in C order."""
    a = np.asarray(a)
    return base64.b64encode(a.astype(a.dtype.newbyteorder("<")).tobytes()).decode("ascii")


def unpacked(text: str, dtype) -> np.ndarray:
    """Inverse of :func:`packed`, as a writable native array."""
    return np.frombuffer(base64.b64decode(text), dtype=np.dtype(dtype).newbyteorder("<")).astype(dtype)


def as_format_1(network: dict) -> dict:
    """A format-2 network document rewritten as format 1: no ``format``
    field, and every array a list of decimals."""
    network = {k: v for k, v in network.items() if k != "format"}
    network["blocks"] = [
        {name: unpacked(text, network["dtype"]).tolist() for name, text in entry.items()}
        for entry in network["blocks"]
    ]
    return network


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


def report_of(accuracies: list) -> ExperimentReport:
    """A report whose run ``i`` scored ``accuracies[i]``, or failed where it is None."""
    runs = [RunResult(run=i, seed=i, error="failed") if a is None else RunResult(run=i, seed=i, accuracy=a, kappa=a)
            for i, a in enumerate(accuracies)]
    ok = [a for a in accuracies if a is not None]
    mean = float(np.mean(ok)) if ok else None
    return ExperimentReport(plan={}, runs=runs, mean_accuracy=mean, sd_accuracy=None, mean_kappa=mean,
                            sd_kappa=None, n_failed=len(runs) - len(ok), provenance={})
