"""MPI derived datatypes: describing noncontiguous data layouts.

SDM's irregular I/O rests on MPI derived datatypes: a *map array* (which
global element belongs to this rank) becomes an indexed filetype, which
becomes an MPI-IO file view, which collective I/O then optimizes.  This
package holds the types that path builds:

* primitives (:data:`INT32`, :data:`FLOAT64`, ...) mapping to numpy dtypes;
* :class:`IndexedBlock` — the map-array filetype;
* ``Datatype.with_extent`` (``MPI_Type_create_resized``) — the stride a
  view tiles a type at.

A type's :meth:`~Datatype.runs` are its byte runs ``(offsets, lengths)``;
:mod:`repro.mpiio.view` validates and merges them into a view's tile.

Example — every 4th double out of a file, as rank ``r`` of 4 would view it::

    ft = FLOAT64.with_extent(4 * FLOAT64.size)
    view = FileView(disp=8 * r, etype=FLOAT64, filetype=ft)
    offsets, lengths = view.runs_for(0, 3 * 8)   # [8r, 8r + 32, ...], [8, ...]
"""

from repro.dtypes.base import Datatype
from repro.dtypes.primitives import (
    BYTE,
    FLOAT32,
    FLOAT64,
    INT32,
    INT64,
    DOUBLE,
    INT,
    Primitive,
)
from repro.dtypes.constructors import IndexedBlock

__all__ = [
    "Datatype",
    "Primitive",
    "BYTE",
    "INT32",
    "INT64",
    "FLOAT32",
    "FLOAT64",
    "INT",
    "DOUBLE",
    "IndexedBlock",
]
