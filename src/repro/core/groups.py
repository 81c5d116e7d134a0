"""Dataset attributes, data groups, and import lists.

The paper groups output datasets that share type and global size into a
*data group* "to experiment different ways of organizing data in files";
imports (arrays created outside SDM) get their own list with file offsets
and content kinds (INDEX vs DATA).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.dtypes.constructors import IndexedBlock
from repro.dtypes.primitives import DOUBLE, Primitive
from repro.errors import SDMStateError, SDMUnknownDataset

__all__ = ["DatasetAttrs", "ImportAttrs", "DataGroup", "DataView"]


@dataclass
class DatasetAttrs:
    """Attributes of one output dataset (access_pattern_table row)."""

    name: str
    data_type: Primitive = DOUBLE
    storage_order: str = "ROW_MAJOR"
    global_size: int = 0
    """Global element count (the file holds this many elements per step)."""
    basic_pattern: str = "IRREGULAR"

    def global_bytes(self) -> int:
        """Bytes of one full timestep instance of this dataset."""
        return self.global_size * self.data_type.size


@dataclass
class ImportAttrs:
    """Attributes of one imported (externally created) array."""

    name: str
    data_type: Primitive = DOUBLE
    file_name: str = ""
    file_content: str = "DATA"  # "INDEX" for indirection arrays
    storage_order: str = "ROW_MAJOR"
    partition: str = "DISTRIBUTED"


@dataclass(eq=False)
class DataView:
    """An installed data mapping for one dataset (from ``SDM_data_view``).

    File views need monotone displacements, so the map array is sorted once
    here; ``perm`` reorders user data into sorted-map order and
    :meth:`to_user_order` restores it.  For SDM's own maps (built sorted)
    ``perm`` is None.

    A view built by :meth:`from_map` owns its arrays — private read-only
    copies, as MPI copies a datatype's displacements at creation — so
    what is derived from it once (:meth:`filetype`, a chunked read's plan
    in :mod:`repro.core.datapath`) stays true for the view's lifetime.
    Views compare by identity.
    """

    map_sorted: np.ndarray
    perm: Optional[np.ndarray]
    local_count: int
    _filetypes: Dict[Primitive, IndexedBlock] = field(
        default_factory=dict, repr=False
    )

    @property
    def gid_min(self) -> int:
        """Smallest global index mapped (0 for an empty view — the empty
        range convention ``gid_min > gid_max`` used by chunk maps)."""
        return int(self.map_sorted[0]) if self.local_count else 0

    @property
    def gid_max(self) -> int:
        """Largest global index mapped (-1 for an empty view)."""
        return int(self.map_sorted[-1]) if self.local_count else -1

    @classmethod
    def from_map(cls, map_array: np.ndarray) -> "DataView":
        """A view over a private read-only copy of ``map_array``: the
        caller may reuse or mutate its array afterwards."""
        m = np.array(map_array, dtype=np.int64)
        if m.ndim != 1:
            raise SDMStateError("map array must be 1-D")
        perm = None
        if not (len(m) > 1 and (np.diff(m) > 0).all()):
            perm = np.argsort(m, kind="stable")
            m = m[perm]
            perm.setflags(write=False)
        m.setflags(write=False)
        return cls(map_sorted=m, perm=perm, local_count=len(m))

    def filetype(self, dtype: Primitive) -> Optional[IndexedBlock]:
        """The map-array filetype over ``dtype`` elements (element ``g`` at
        ``g * dtype.extent``), built once per element type, so every file
        view installed through it after the first reuses the lowered
        tile (:mod:`repro.mpiio.view`).  None for an empty view, which
        installs a dense view instead (a filetype needs positive size)."""
        ft = self._filetypes.get(dtype)
        if ft is None and self.local_count:
            ft = self._filetypes[dtype] = IndexedBlock(
                1, self.map_sorted, dtype
            )
        return ft

    def to_file_order(self, buf: np.ndarray) -> np.ndarray:
        """User-order data -> sorted (file) order."""
        return buf if self.perm is None else buf[self.perm]

    def to_user_order(self, data: np.ndarray) -> np.ndarray:
        """Sorted (file) order -> user order."""
        if self.perm is None:
            return data
        out = np.empty_like(data)
        out[self.perm] = data
        return out


@dataclass
class DataGroup:
    """A handle over a group of datasets sharing organization and run id."""

    group_id: int
    runid: int
    datasets: "OrderedDict[str, DatasetAttrs]" = field(default_factory=OrderedDict)
    views: Dict[str, DataView] = field(default_factory=dict)
    finalized: bool = False

    def dataset(self, name: str) -> DatasetAttrs:
        """Attributes of a member dataset."""
        try:
            return self.datasets[name]
        except KeyError:
            raise SDMUnknownDataset(
                f"dataset {name!r} not in group {self.group_id}"
            ) from None

    def view(self, name: str) -> DataView:
        """The installed data view of a dataset."""
        self.dataset(name)
        try:
            return self.views[name]
        except KeyError:
            raise SDMStateError(
                f"no data view installed for dataset {name!r}; "
                "call data_view first"
            ) from None
