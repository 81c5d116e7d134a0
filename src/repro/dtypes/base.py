"""Datatype base class: size, extent, and byte-run decomposition."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DatatypeError

__all__ = ["Datatype", "Runs"]

Runs = Tuple[np.ndarray, np.ndarray]
"""A run list: (byte offsets, byte lengths), both int64 arrays of equal shape."""


class Datatype:
    """Abstract MPI-style datatype.

    Concrete types expose:

    * :attr:`size` — number of *data* bytes one instance describes;
    * :attr:`extent` — the span it occupies, holes included (tiling stride);
    * :meth:`runs` — the byte runs of one instance relative to its origin,
      in typemap order (not merged, not sorted).

    Types are immutable; ``commit()`` exists for MPI API fidelity and
    returns ``self``.  Because they are, a lowering derived from a type is
    a pure function of the instance and may be kept on it: a file view
    flattens and validates its filetype once (:mod:`repro.mpiio.view`).
    Displacement arrays are held by reference, so a constructor's caller
    must not mutate them afterwards (MPI copies them at creation).
    """

    _size: int
    _extent: int
    _view_tile = None
    """The file view's flattened, validated tile of this type, set the
    first time a :class:`~repro.mpiio.view.FileView` installs it."""

    @property
    def size(self) -> int:
        """Data bytes per instance (excludes holes)."""
        return self._size

    @property
    def extent(self) -> int:
        """Span per instance, holes included; consecutive instances tile at
        this stride."""
        return self._extent

    def runs(self) -> Runs:
        """Byte runs ``(offsets, lengths)`` of one instance, typemap order."""
        raise NotImplementedError

    def commit(self) -> "Datatype":
        """MPI fidelity no-op."""
        return self

    def with_extent(self, extent: int) -> "Datatype":
        """Return a copy resized to a new extent (``MPI_Type_create_resized``)."""
        from repro.dtypes.constructors import Resized

        return Resized(self, extent)

    # Helpers shared by constructors -----------------------------------

    @staticmethod
    def _check_count(name: str, value: int) -> int:
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise DatatypeError(f"{name} must be a non-negative int, got {value!r}")
        return int(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} size={self.size} extent={self.extent}>"
