"""Unsigned 64-bit integer arithmetic on numpy arrays that numpy has no
ufunc for."""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF


def mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products of uint64 arrays."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    t = a_lo * b_lo
    u = a_hi * b_lo + (t >> 32)
    v = a_lo * b_hi + (u & _MASK32)
    return a_hi * b_hi + (u >> 32) + (v >> 32)
