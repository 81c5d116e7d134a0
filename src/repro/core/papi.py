"""C-style aliases mirroring the paper's Figures 2 and 3 line by line.

The pythonic API lives on :class:`repro.core.api.SDM`; this module maps the
paper's exact function names onto it so the quickstart example can be read
side by side with the paper::

    handle = SDM_initialize(ctx, "fun3d")
    result = SDM_make_datalist(handle, 2, ["p", "q"])
    SDM_associate_attributes(handle, 2, result, data_type=DOUBLE, ...)
    group = SDM_set_attributes(handle, 2, result)
    ...
    SDM_write(handle, group, "p", t, p_buf)
    SDM_finalize(handle, group)

The explicit count arguments (``2`` above) exist purely for fidelity with
the C signatures; they are validated against the actual list lengths.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.catalog import collective
from repro.core.api import SDM
from repro.core.groups import DataGroup, DatasetAttrs
from repro.core.layout import Organization
from repro.core.ring import EdgeChunk, LocalPartition
from repro.errors import SDMStateError
from repro.mpi.job import RankContext

__all__ = [
    "SDM_initialize",
    "SDM_make_datalist",
    "SDM_associate_attributes",
    "SDM_set_attributes",
    "SDM_make_importlist",
    "SDM_import",
    "SDM_partition_table",
    "SDM_partition_index",
    "SDM_partition_index_size",
    "SDM_partition_data_size",
    "SDM_index_registry",
    "SDM_data_view",
    "SDM_write",
    "SDM_read",
    "SDM_reorganize",
    "SDM_release_importlist",
    "SDM_finalize",
]


def _check_count(n: int, seq: Sequence) -> None:
    if n != len(seq):
        raise SDMStateError(f"count argument {n} != list length {len(seq)}")


def SDM_initialize(
    ctx: RankContext,
    name_of_application: str,
    organization: Organization = Organization.LEVEL_2,
    storage_order: str = "canonical",
) -> SDM:
    """Establish the database connection and create the metadata tables."""
    return SDM(
        ctx, name_of_application, organization=organization,
        storage_order=storage_order,
    )


def SDM_make_datalist(sdm: SDM, n: int, names: Sequence[str]) -> List[DatasetAttrs]:
    """Create attribute records for ``n`` datasets."""
    _check_count(n, names)
    return sdm.make_datalist(names)


def SDM_associate_attributes(
    sdm: SDM, n: int, attrs: Sequence[DatasetAttrs], **shared
) -> None:
    """Apply shared attributes to ``n`` records."""
    _check_count(n, attrs)
    sdm.associate_attributes(attrs, **shared)


@collective(uniform_result=True)
def SDM_set_attributes(sdm: SDM, n: int, datalist: Sequence[DatasetAttrs]) -> DataGroup:
    """Store the datalist's metadata; returns the group handle."""
    _check_count(n, datalist)
    return sdm.set_attributes(datalist)


def SDM_make_importlist(
    sdm: SDM, n: int, names: Sequence[str], file_name: str,
    index_names: Sequence[str] = (),
):
    """Describe ``n`` arrays created outside SDM."""
    _check_count(n, names)
    return sdm.make_importlist(names, file_name=file_name, index_names=index_names)


@collective
def SDM_import(
    sdm: SDM,
    name: str,
    file_offset: int,
    total_elements: int,
    map_array: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Import one array: contiguously, or irregularly via ``map_array``
    (install the mapping with ``SDM_data_view`` semantics)."""
    if map_array is None:
        return sdm.import_contiguous(name, file_offset, total_elements)
    return sdm.import_irregular(name, file_offset, total_elements, map_array)


def SDM_partition_table(sdm: SDM, partitioning_vector: np.ndarray) -> np.ndarray:
    """Localize the replicated partitioning vector."""
    return sdm.partition_table(partitioning_vector)


@collective
def SDM_partition_index(
    sdm: SDM, partitioning_vector: np.ndarray, chunk: Optional[EdgeChunk]
) -> LocalPartition:
    """Distribute the indexes (ring algorithm, or history file if found)."""
    return sdm.partition_index(partitioning_vector, chunk)


def SDM_partition_index_size(sdm: SDM) -> int:
    """Local (owned + ghost) edge count."""
    return sdm.partition_index_size()


def SDM_partition_data_size(sdm: SDM) -> int:
    """Local (owned + ghost) node count."""
    return sdm.partition_data_size()


@collective
def SDM_index_registry(sdm: SDM, local: Optional[LocalPartition] = None):
    """Register the index distribution in a history file (asynchronous)."""
    return sdm.index_registry(local)


def SDM_data_view(sdm: SDM, handle: DataGroup, name: str, map_array) -> None:
    """Define the mapping between file and processor memory for a dataset."""
    sdm.data_view(handle, name, map_array)


@collective(uniform_result=True)
def SDM_write(sdm: SDM, handle: DataGroup, name: str, timestep: int, buf) -> str:
    """Collectively write one dataset instance."""
    return sdm.write(handle, name, timestep, buf)


@collective
def SDM_read(sdm: SDM, handle: DataGroup, name: str, timestep: int, buf) -> np.ndarray:
    """Collectively read one dataset instance back."""
    return sdm.read(handle, name, timestep, buf)


@collective(uniform_result=True)
def SDM_reorganize(
    sdm: SDM, handle: DataGroup, name: str, timestep: int
) -> str:
    """Rewrite a chunked instance into canonical (global) element order."""
    return sdm.reorganize(handle, name, timestep)


def SDM_release_importlist(sdm: SDM, n: int = 0) -> None:
    """Free the import structures."""
    sdm.release_importlist()


@collective(uniform_result=True)
def SDM_finalize(sdm: SDM, handle: Optional[DataGroup] = None, n: int = 0) -> None:
    """Close files and end the run."""
    sdm.finalize(handle)
