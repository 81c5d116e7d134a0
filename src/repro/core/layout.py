"""Checkpoint layout: organization levels × storage orders × maintenance.

Three independent axes decide where checkpoint bytes land and who keeps
them healthy (paper Section 3.2, the storage-order extension of
:mod:`repro.core.write`, and the maintenance tier of
:mod:`repro.core.maintenance`):

**File organization** — how many files the output is packed into:

* **Level 1** — each dataset at each timestep goes to its own file: simple,
  but a file-open + file-view + file-close per dataset per step.
* **Level 2** — one file per dataset; timesteps append.  Fewer files, fewer
  opens; append offsets tracked in ``execution_table``.
* **Level 3** — one file per data *group*; every dataset, every timestep
  appends.  Fewest files; offsets in ``execution_table``.

**Storage order** — how the bytes of one dataset instance are arranged
*inside* its file:

* **canonical** (:data:`CANONICAL`) — element ``i`` of the global array sits
  at byte ``base + i * esize``: ranks scatter through irregular file views
  and the two-phase collective exchange assembles global order at write
  time.  Reads are a single strided/indexed view — the fast read path.
* **chunked** (:data:`CHUNKED`) — each rank appends its local block *in the
  order it is distributed*: a sorted int64 index block followed by the data
  block, with no interprocess data exchange at all.  Chunk locations and
  global-index ranges go to ``chunk_table``; reads assemble from the chunk
  maps, and ``SDM.reorganize`` rewrites an instance into canonical order
  (one exchange, amortized over every later read).

**Maintenance** — *when* the expensive after-work runs:

* **sync** — ``SDM.reorganize`` / ``SDM.compact`` pay the deferred
  exchange or the compaction pass collectively on the application ranks,
  on the critical path.
* **background** — the same work is *enqueued*: every rank appends the
  job (same program order everywhere) to the per-rank daemon workers of
  the job's :class:`~repro.core.maintenance.MaintenanceService`, and the
  application moves on.  The queue lifecycle is: **enqueue** (rank 0
  records the job in the metadata database's ``maintenance_table``; the
  row *is* the pending work) → **execute** (the workers run the job
  collectively over a job-unique communicator context and atomically
  flip the metadata, so readers transparently serve whichever
  representation is current) → **complete** (rank 0 deletes the row).
  A job enqueued but never executed — a ``deferred``-mode service, a
  snapshot taken mid-backlog — survives in ``maintenance_table`` and is
  adopted and executed by the next job's service at attach time.
  ``SDM.drain_maintenance`` blocks until this rank's queue is empty, the
  read-your-maintenance barrier.

Chunked instances get distinct file names (the ``.chunked`` infix below) so
a packed level-2/3 file never interleaves the two representations; the
authoritative marker remains the metadata — an instance with ``chunk_table``
rows is chunked, one without is canonical.  Reorganizing an instance out
of a packed chunked file leaves a dead region behind: topmost regions are
reclaimed by the retreating append cursor, interior ones are recorded in
``extent_table`` until a compaction job slides the live chunks down and
truncates the file.
"""

from __future__ import annotations

import enum

__all__ = [
    "Organization",
    "CANONICAL",
    "CHUNKED",
    "STORAGE_ORDERS",
    "checkpoint_file_name",
    "is_chunked_name",
    "history_file_name",
]


class Organization(enum.IntEnum):
    """The three file organizations of the paper."""

    LEVEL_1 = 1
    LEVEL_2 = 2
    LEVEL_3 = 3


CANONICAL = "canonical"
"""Storage order: global element order, assembled at write time."""

CHUNKED = "chunked"
"""Storage order: per-rank blocks in distribution order, exchange-free."""

STORAGE_ORDERS = (CANONICAL, CHUNKED)


def checkpoint_file_name(
    application: str,
    group_id: int,
    dataset: str,
    timestep: int,
    organization: Organization,
    storage_order: str = CANONICAL,
) -> str:
    """Name of the file a (dataset, timestep) checkpoint lands in.

    Canonical names are unchanged from the paper's three levels; chunked
    instances land in a sibling file with a ``.chunked`` infix.
    """
    infix = "" if storage_order == CANONICAL else f".{storage_order}"
    if organization == Organization.LEVEL_1:
        return f"{application}/{dataset}.t{timestep:06d}{infix}"
    if organization == Organization.LEVEL_2:
        return f"{application}/{dataset}{infix}.dat"
    return f"{application}/group{group_id}{infix}.dat"


def is_chunked_name(file_name: str) -> bool:
    """Whether a checkpoint file name carries the chunked infix.

    Chunked instances only ever live in ``.chunked``-infixed files and
    canonical ones never do, so readers can skip the ``chunk_table``
    lookup entirely for canonical names.  A false positive (a dataset
    whose *name* contains ".chunked") merely costs the lookup — the
    metadata stays authoritative.
    """
    return f".{CHUNKED}" in file_name


def history_file_name(application: str, problem_size: int, nprocs: int) -> str:
    """Name of the index-distribution history file for a problem size and
    process count (one history per (size, P) pair, as in the paper)."""
    return f"{application}/history.S{problem_size}.P{nprocs}.idx"
