"""Modified (0/1) Walsh matrices and the class-code assignment built on them.

The classifier's fixed target vectors are rows of a Hadamard-derived binary
matrix: any two distinct rows (or columns) differ in exactly half of their
positions, so class centers sit at the maximum mutual Hamming distance the
code length allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["WalshCodebook", "build_walsh", "hamming"]


def build_walsh(size: int) -> np.ndarray:
    """Build the modified Walsh matrix of a power-of-two size.

    Sylvester's recursion ``H_{2n} = [[H_n, H_n], [H_n, -H_n]]`` in natural
    (Hadamard) row order, with ``+1 -> 1`` and ``-1 -> 0``.

    Parameters
    ----------
    size : int
        Matrix dimension, a power of two in [2, 1024].

    Returns
    -------
    ndarray
        ``(size, size)`` array of dtype uint8 with values in {0, 1}.
    """
    if size < 2 or size > 1024 or size & (size - 1) != 0:
        raise ValueError(f"size must be a power of two in [2, 1024], got {size}")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < size:
        h = np.block([[h, h], [h, -h]])
    return (h > 0).astype(np.uint8)


def hamming(u: Sequence[int] | np.ndarray, v: Sequence[int] | np.ndarray) -> int:
    """Number of positions where two equal-length binary vectors differ."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    return int(np.count_nonzero(u != v))


@dataclass(frozen=True)
class WalshCodebook:
    """The fixed class targets: class ``c`` (1-based) regresses onto Walsh row ``c``.

    Row 0 is the all-ones row and is never a class target, so every pair of
    class targets keeps the full ``size / 2`` Hamming separation and none is
    constant. ``targets`` is the read-only ``(num_classes, size)`` float64
    matrix whose row ``c - 1`` is Walsh row ``c``; the nearest target in
    squared Euclidean distance is the decision (see :mod:`mibci.mdn`).
    """

    num_classes: int
    size: int = 16
    targets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.num_classes + 1 > self.size:
            raise ValueError(
                f"code size {self.size} too small for {self.num_classes} classes "
                "(the constant row is reserved)"
            )
        targets = build_walsh(self.size)[1 : self.num_classes + 1].astype(np.float64)
        targets.setflags(write=False)
        object.__setattr__(self, "targets", targets)
