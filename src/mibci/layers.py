"""1-D network layers with explicit forward/backward passes.

All layer inputs are batched ``(batch, planes, length)`` float arrays.
Convolution is cross-correlation (no kernel flip). Forward functions return
``(output, cache)``; the cache feeds the matching backward function, which
returns the input gradient plus parameter gradients where applicable.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv1d_forward",
    "conv1d_backward",
    "relu",
    "relu_forward",
    "relu_backward",
    "maxpool_forward",
    "maxpool_backward",
    "batchnorm_forward",
    "batchnorm_backward",
    "dropout_forward",
    "dropout_backward",
]

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def _pad_widths(kernel_size: int) -> tuple[int, int]:
    total = kernel_size - 1
    left = total // 2
    return left, total - left


def conv1d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    padding: str = "same",
) -> tuple[np.ndarray, tuple]:
    """Cross-correlate a batch with a (out, in, k) kernel stack plus bias.

    ``same`` zero-pads to preserve the length; ``valid`` requires
    ``length >= k`` and yields ``length - k + 1`` outputs.
    """
    if x.ndim != 3:
        raise ValueError(f"expected (batch, planes, length) input, got shape {x.shape}")
    out_planes, in_planes, k = weight.shape
    if x.shape[1] != in_planes:
        raise ValueError(f"input has {x.shape[1]} planes, kernel expects {in_planes}")
    if padding == "same":
        left, right = _pad_widths(k)
        xp = np.pad(x, ((0, 0), (0, 0), (left, right)))
    elif padding == "valid":
        if x.shape[2] < k:
            raise ValueError(f"valid padding needs length >= kernel ({x.shape[2]} < {k})")
        xp = x
    else:
        raise ValueError(f"unknown padding {padding!r}")
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)
    y = np.einsum("bplk,opk->bol", windows, weight, optimize=True)
    y += bias[None, :, None]
    return y, (windows, padding, weight)


def conv1d_backward(dy: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a conv layer: returns (dx, dweight, dbias).

    ``dx`` is one full correlation of ``dy`` with the flipped kernel, taken
    only at the positions of the unpadded input.
    """
    windows, padding, weight = cache
    k = weight.shape[2]
    dw = np.einsum("bol,bplk->opk", dy, windows, optimize=True)
    db = dy.sum(axis=(0, 2))
    left, right = _pad_widths(k) if padding == "same" else (0, 0)
    dyp = np.pad(dy, ((0, 0), (0, 0), (k - 1 - left, k - 1 - right)))
    dy_windows = np.lib.stride_tricks.sliding_window_view(dyp, k, axis=2)
    dx = np.einsum("bolk,opk->bpl", dy_windows, weight[:, :, ::-1], optimize=True)
    return dx, dw, db


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(x, 0.0)


def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.maximum(x, 0.0)
    return y, x > 0


def relu_backward(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dy * mask


def maxpool_forward(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Window-2/stride-2 max pooling with ceil semantics.

    An odd trailing sample forms its own window, so the output length is
    ``ceil(length / 2)``. The cache holds a boolean mask that is true where
    a window's first sample is its maximum; ties and a NaN first sample go
    to the first sample, exactly as ``argmax`` picks.
    """
    half = x.shape[2] // 2
    left = x[:, :, 0 : 2 * half : 2]
    right = x[:, :, 1 : 2 * half : 2]
    first = (left >= right) | np.isnan(left)
    pooled = np.where(first, left, right)
    if x.shape[2] % 2:
        pooled = np.concatenate([pooled, x[:, :, -1:]], axis=2)
    return pooled, (x.shape, first)


def maxpool_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    """Route each window's gradient to the sample the forward pass kept."""
    x_shape, first = cache
    half = x_shape[2] // 2
    dx = np.empty(x_shape, dtype=dy.dtype)
    np.multiply(dy[:, :, :half], first, out=dx[:, :, 0 : 2 * half : 2])
    np.multiply(dy[:, :, :half], ~first, out=dx[:, :, 1 : 2 * half : 2])
    if x_shape[2] % 2:
        dx[:, :, -1] = dy[:, :, -1]
    return dx


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str = "train",
) -> tuple[np.ndarray, tuple]:
    """Per-plane batch normalization over the batch and time axes.

    Train mode normalizes by batch statistics and updates the running
    buffers in place with momentum 0.1; eval mode uses the running buffers.
    A batch of one epoch cannot be normalized in train mode.
    """
    if mode == "train":
        if x.shape[0] < 2:
            raise ValueError("batchnorm in train mode needs a batch of at least 2")
        mean = x.mean(axis=(0, 2))
        centered = x - mean[None, :, None]
        # the same sum and division as x.var, so the result is bit-identical
        var = (centered * centered).sum(axis=(0, 2)) / (x.shape[0] * x.shape[2])
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    elif mode == "eval":
        centered = x - running_mean[None, :, None]
        var = running_var
    else:
        raise ValueError(f"unknown mode {mode!r}")
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = np.multiply(centered, inv_std[None, :, None], out=centered)
    y = gamma[None, :, None] * xhat
    y += beta[None, :, None]
    return y, (xhat, inv_std, gamma, mode)


def batchnorm_backward(dy: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of batchnorm: returns (dx, dgamma, dbeta)."""
    xhat, inv_std, gamma, mode = cache
    dgamma = (dy * xhat).sum(axis=(0, 2))
    dbeta = dy.sum(axis=(0, 2))
    scale = gamma * inv_std
    dx = dy * scale[None, :, None]
    if mode == "eval":
        return dx, dgamma, dbeta
    # the per-plane means of dx and dx * xhat, from the sums already taken
    n = dy.shape[0] * dy.shape[2]
    dx -= (scale * dbeta / n)[None, :, None]
    dx -= xhat * (scale * dgamma / n)[None, :, None]
    return dx, dgamma, dbeta


def dropout_forward(
    x: np.ndarray,
    p: float,
    mode: str = "train",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: train zeroes with probability p and rescales survivors."""
    if not 0 <= p < 1:
        raise ValueError("dropout probability must be in [0, 1)")
    if mode == "eval" or p == 0.0:
        return x, None
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * mask, mask


def dropout_backward(dy: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return dy if mask is None else dy * mask
