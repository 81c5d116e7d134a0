"""Estimating the on-wire size of message payloads.

The simulation needs a byte count for every message to charge transfer time.
NumPy arrays report exactly; other Python objects get a cheap structural
estimate (we deliberately avoid pickling large object graphs on the hot
path — the estimate only needs to be the right order of magnitude, since
metadata messages are latency-dominated anyway).
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

__all__ = ["payload_nbytes", "sequence_nbytes"]

_SCALAR_BYTES = 8
_CONTAINER_OVERHEAD = 16


def payload_nbytes(obj: Any) -> int:
    """Best-effort on-wire byte size of ``obj``.

    Exact for numpy arrays, bytes, and str; structural estimate for
    containers; 8 bytes for scalars and None.  A tuple of arrays — what
    a two-phase ``alltoallv`` sends to each aggregator — is sized in one
    pass, to the count the generic walk gives.
    """
    if obj is None:
        return _SCALAR_BYTES
    if type(obj) is tuple:
        total = _CONTAINER_OVERHEAD
        for x in obj:
            if type(x) is not np.ndarray:
                break
            total += x.nbytes
        else:
            return total
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return _SCALAR_BYTES
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sequence_nbytes(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return _CONTAINER_OVERHEAD + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    # Dataclass-like/arbitrary object: estimate from its attribute dict.
    attrs = getattr(obj, "__dict__", None)
    if attrs:
        return _CONTAINER_OVERHEAD + payload_nbytes(attrs)
    return 64


def sequence_nbytes(parts: Iterable[int]) -> int:
    """Size of a list/tuple whose elements measure ``parts`` bytes — for
    callers that need the per-element sizes as well as the total."""
    return _CONTAINER_OVERHEAD + sum(parts)
