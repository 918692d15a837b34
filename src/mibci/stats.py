"""Paired t-test with the two-tailed Student-t p-value.

The p-value is twice the lower tail of the t distribution at -|t|, taken
from ``scipy.special.stdtr``, imported on first use.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "TTestResult",
    "paired_ttest",
    "student_t_two_tailed_p",
]


@dataclass(frozen=True)
class TTestResult:
    """t statistic, degrees of freedom, and the two-tailed p-value.

    ``degenerate`` marks the zero-variance-differences case, where the
    statistic is infinite and p is reported as exactly 0.
    """

    t: float
    df: int
    p: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def student_t_two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for a Student-t variable with df degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if not math.isfinite(t):
        return 0.0
    from scipy import special

    return float(2.0 * special.stdtr(df, -abs(t)))


def paired_ttest(a, b) -> TTestResult:
    """Two-tailed paired t-test of two equal-length measurement lists.

    The statistic is mean(d) / (sd(d) / sqrt(n)) over the differences
    d = a - b with the sample (n-1) standard deviation. Identical inputs
    give t = 0, p = 1; zero-variance differences with a nonzero mean give
    an infinite statistic, p = 0, and the ``degenerate`` flag.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D sequences")
    n = a.size
    if n < 2:
        raise ValueError("paired t-test needs at least two pairs")
    d = a - b
    mean = d.mean()
    sd = d.std(ddof=1)
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, p=1.0)
        return TTestResult(t=math.copysign(math.inf, mean), df=df, p=0.0, degenerate=True)
    t = float(mean / (sd / math.sqrt(n)))
    return TTestResult(t=t, df=df, p=student_t_two_tailed_p(t, df))
