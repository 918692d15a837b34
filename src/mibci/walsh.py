"""Modified (0/1) Walsh matrices and the class-code assignment built on them.

The classifier's fixed target vectors are rows of a Hadamard-derived binary
matrix: any two distinct rows (or columns) differ in exactly half of their
positions, so class centers sit at the maximum mutual Hamming distance the
code length allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """A binary code matrix plus the class -> row assignment.

    Class ``c`` (1-based) is assigned matrix row ``c``; row 0 is the all-ones
    row and is never used as a class target, so every pair of class targets
    keeps the full ``size / 2`` Hamming separation and none is constant.
    """

    matrix: np.ndarray
    class_rows: dict[int, int]

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("codebook matrix must be square")
        if not np.array_equal(m[0], np.ones(m.shape[1], dtype=m.dtype)):
            raise ValueError("row 0 of the code matrix must be all ones")
        rows = list(self.class_rows.values())
        if len(set(rows)) != len(rows):
            raise ValueError("class -> row assignment must be injective")
        if 0 in rows:
            raise ValueError("the constant row 0 cannot serve as a class target")
        if any(not 0 < r < m.shape[0] for r in rows):
            raise ValueError("assigned row index out of range")

    @classmethod
    def for_classes(cls, num_classes: int, size: int = 16) -> "WalshCodebook":
        """Build a codebook assigning classes 1..num_classes to rows 1..num_classes."""
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if num_classes + 1 > size:
            raise ValueError(
                f"code size {size} too small for {num_classes} classes "
                "(the constant row is reserved)"
            )
        matrix = build_walsh(size)
        return cls(matrix=matrix, class_rows={c: c for c in range(1, num_classes + 1)})

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.class_rows)

    def target(self, label: int) -> np.ndarray:
        """The binary code vector assigned to a class label (float64 copy)."""
        if label not in self.class_rows:
            raise ValueError(f"label {label} has no assigned code row")
        return self.matrix[self.class_rows[label]].astype(np.float64)

    @cached_property
    def targets(self) -> np.ndarray:
        """Stacked ``(num_classes, size)`` float64 target matrix, row c-1 = class c."""
        out = np.stack([self.target(c) for c in sorted(self.class_rows)])
        out.setflags(write=False)
        return out
