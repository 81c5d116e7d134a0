"""SDM — the Scientific Data Manager (the paper's contribution).

The runtime library that fronts MPI-IO and the metadata database for
irregular applications.  Each rank constructs an :class:`SDM` instance
(``SDM_initialize``), describes its datasets (``make_datalist`` /
``set_attributes``), imports and partitions mesh data (``make_importlist`` /
``import_contiguous`` / ``partition_table`` / ``partition_index`` /
``import_irregular``), optionally registers the index distribution in a
*history file* (``index_registry``), and then writes checkpoint results
(``data_view`` / ``write``) under one of three file-organization levels
and one of two storage orders — canonical (global order, exchanged at
write time) or chunked (distribution order, exchange-free, reorganizable
later via ``reorganize``).  A third axis, *maintenance*, moves the
expensive after-work off the application's critical path: background
reorganization, chunked-file compaction, and asynchronous history writes
all run on the per-rank daemon workers of
:class:`~repro.core.maintenance.MaintenanceService` (``reorganize_mode=
"background"``, ``SDM.compact``, ``SDM.drain_maintenance``).

See :mod:`repro.core.api` for the class, :mod:`repro.core.write` and
:mod:`repro.core.resolve` for the two storage orders' write and read
paths, :mod:`repro.core.maintenance` for the service tier, and
:mod:`repro.core.papi` for C-style aliases that mirror the paper's
Figures 2 and 3 line by line.
"""

from repro.core.caches import IndexBlockCache
from repro.core.groups import DataGroup, DatasetAttrs, ImportAttrs
from repro.core.layout import CANONICAL, CHUNKED, Organization
from repro.core.api import SDM
from repro.core.maintenance import COMPACT, REORGANIZE, MaintenanceService
from repro.core.services import sdm_services, snapshot_services

__all__ = [
    "SDM",
    "Organization",
    "IndexBlockCache",
    "MaintenanceService",
    "REORGANIZE",
    "COMPACT",
    "CANONICAL",
    "CHUNKED",
    "DatasetAttrs",
    "ImportAttrs",
    "DataGroup",
    "sdm_services",
    "snapshot_services",
]
