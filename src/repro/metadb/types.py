"""Column types of the metadata database: INTEGER, REAL and TEXT.

Every column is NOT NULL: :meth:`ColumnType.coerce` rejects None like
any other value of the wrong type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Tuple

import numpy as np

from repro.errors import SQLTypeError

__all__ = ["ColumnType", "INTEGER", "REAL", "TEXT", "type_by_name"]


@dataclass(frozen=True)
class ColumnType:
    """A declared SQL column type: the Python values it accepts and the
    conversion that stores them."""

    name: str
    accepts: Tuple[type, ...]
    convert: Callable[[Any], Any]

    def coerce(self, value: Any) -> Any:
        """Validate/convert a Python value for storage.  A bool is no
        number here, and None is no value: every column is NOT NULL."""
        if isinstance(value, self.accepts) and not isinstance(value, bool):
            return self.convert(value)
        got = "NULL (every column is NOT NULL)" if value is None else repr(value)
        raise SQLTypeError(f"{self.name} column got {got}")


INTEGER = ColumnType("INTEGER", (int, np.integer), int)
REAL = ColumnType("REAL", (int, float, np.integer, np.floating), float)
TEXT = ColumnType("TEXT", (str,), str)

_TYPES = {t.name: t for t in (INTEGER, REAL, TEXT)}


def type_by_name(name: str) -> ColumnType:
    """Look up a type by its SQL name (case-insensitive)."""
    try:
        return _TYPES[name.upper()]
    except KeyError:
        raise SQLTypeError(f"unknown column type {name!r}") from None
