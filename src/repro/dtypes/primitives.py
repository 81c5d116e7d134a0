"""Primitive datatypes and their numpy correspondence."""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import Datatype
from repro.errors import DatatypeError

__all__ = [
    "Primitive",
    "BYTE",
    "INT32",
    "INT64",
    "FLOAT32",
    "FLOAT64",
    "INT",
    "DOUBLE",
    "primitive_by_name",
]


class Primitive(Datatype):
    """A named elementary type of fixed width."""

    def __init__(self, name: str, numpy_dtype: np.dtype) -> None:
        self.name = name
        self.numpy_dtype = np.dtype(numpy_dtype)
        self._size = self.numpy_dtype.itemsize
        self._extent = self._size

    def runs(self):
        return (
            np.zeros(1, dtype=np.int64),
            np.full(1, self._size, dtype=np.int64),
        )

    def __repr__(self) -> str:
        return f"<Primitive {self.name}>"


BYTE = Primitive("BYTE", np.uint8)
INT32 = Primitive("INT32", np.int32)
INT64 = Primitive("INT64", np.int64)
FLOAT32 = Primitive("FLOAT32", np.float32)
FLOAT64 = Primitive("FLOAT64", np.float64)

INT = INT32
"""C ``int`` on the simulated platform (the paper's edge indices)."""

DOUBLE = FLOAT64
"""C ``double`` (the paper's field data)."""

_BY_NAME = {p.name: p for p in (BYTE, INT32, INT64, FLOAT32, FLOAT64)}


def primitive_by_name(name: str) -> Primitive:
    """Primitive by its registered name (e.g. ``"FLOAT64"``) — the inverse
    of the names the metadata tables store."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise DatatypeError(f"no primitive datatype named {name!r}") from None

