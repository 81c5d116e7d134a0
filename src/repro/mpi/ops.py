"""Reduction operators for allreduce/exscan.

Each op is a binary callable working on scalars, numpy arrays, or anything
supporting the underlying operator.  Arrays are combined elementwise without
copies where numpy allows.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

__all__ = ["SUM", "MAX", "MIN", "ReduceOp"]

ReduceOp = Callable[[Any, Any], Any]


def SUM(a: Any, b: Any) -> Any:
    """Elementwise / scalar addition."""
    return np.add(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a + b


def MAX(a: Any, b: Any) -> Any:
    """Elementwise / scalar maximum."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return a if a >= b else b


def MIN(a: Any, b: Any) -> Any:
    """Elementwise / scalar minimum."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return a if a <= b else b

