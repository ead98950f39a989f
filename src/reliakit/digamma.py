"""Digamma at the integers, the only arguments the KSG estimator needs
(neighbour counts + 1, k, n).

Each psi(m) is evaluated on its own: upward recurrence pushes the argument
above a threshold, then the de Moivre asymptotic expansion

    psi(x) ~ ln x - 1/(2x) - sum_j B_2j / (2j * x^(2j))

is summed through the B_12 term. With the threshold at 10 the truncation
error is below 1e-15, comfortably inside the 1e-12 budget the estimator
tests hold us to. Validated against the integer identity
psi(m) = H_{m-1} - gamma and scipy.special.digamma.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_ASYMPTOTIC_MIN = 10.0

# B_2j / (2j) for j = 1..6: 1/12, 1/120, 1/252, 1/240, 1/132, 691/32760.
_C1 = 1.0 / 12.0
_C2 = 1.0 / 120.0
_C3 = 1.0 / 252.0
_C4 = 1.0 / 240.0
_C5 = 1.0 / 132.0
_C6 = 691.0 / 32760.0


@lru_cache(maxsize=32)
def digamma_table(nmax: int) -> np.ndarray:
    """Read-only array t with t[m] = psi(m) for m in 1..nmax (t[0] is NaN).

    Each entry is evaluated independently by the series, so errors do not
    accumulate the way a cumulative-sum of 1/m would. Cached because
    bootstrap replicates reuse the same table thousands of times.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    t = np.empty(nmax + 1, dtype=np.float64)
    t[0] = np.nan
    for m in range(1, nmax + 1):
        x, acc = float(m), 0.0
        while x < _ASYMPTOTIC_MIN:
            acc -= 1.0 / x
            x += 1.0
        r = 1.0 / (x * x)
        series = r * (_C1 - r * (_C2 - r * (_C3 - r * (_C4 - r * (_C5 - r * _C6)))))
        t[m] = acc + math.log(x) - 0.5 / x - series
    t.flags.writeable = False
    return t
