"""Shared services for SDM jobs, with cross-job persistence.

An SDM job needs three machine-wide services: the parallel file system,
the metadata database, and the background maintenance tier
(:class:`~repro.core.maintenance.MaintenanceService` — the per-rank
daemon workers that run reorganization, compaction, and asynchronous
history writes off the application's critical path).  :func:`sdm_services`
builds the ``services`` factory :func:`repro.mpi.mpirun` expects;
:func:`snapshot_services` captures files and database after a job so a
*subsequent* job can start from that state — which is how the
history-file experiments model "subsequent runs" of an application
(files and MySQL outlive any single mpirun).  The maintenance service
itself is per-job, but its pending-work queue lives in the database's
``maintenance_table``, so a queue row whose job never ran (its enqueuer
crashed first) rides the snapshot and is adopted by the next job's
service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.config import MachineModel
from repro.metadb.engine import Database
from repro.mpi.job import JobResult
from repro.pfs.file import PFSFile
from repro.pfs.filesystem import FileSystem
from repro.pfs.striping import StripeLayout
from repro.simt.simulator import Simulator

__all__ = ["ServicesSnapshot", "sdm_services", "snapshot_services"]


@dataclass
class ServicesSnapshot:
    """Persistent state carried between jobs: files + database contents."""

    files: Dict[str, np.ndarray]
    db_dump: str


def snapshot_services(job: JobResult) -> ServicesSnapshot:
    """Capture a finished job's file system and database contents."""
    fs: FileSystem = job.services["fs"]
    db: Database = job.services["db"]
    files = {
        name: fs.lookup(name).store.read(0, fs.lookup(name).size)
        for name in fs.list_files()
    }
    return ServicesSnapshot(files=files, db_dump=db.dump())


def sdm_services(seed_from: Optional[ServicesSnapshot] = None):
    """Build the ``services`` factory for an SDM job.

    The factory creates a fresh :class:`FileSystem` and :class:`Database`
    attached to the job's simulator, plus the job's
    :class:`~repro.core.maintenance.MaintenanceService` — always: it
    carries the job's chunked-cache registry and read gate, so every SDM
    and catalog relies on it.  With ``seed_from`` the file and database
    contents start from a previous job's snapshot (host-side restore, no
    virtual time) — including any maintenance backlog recorded in
    ``maintenance_table``, which the service adopts and executes once an
    ``SDM`` attaches it.  A job in which no ``SDM`` attaches the service
    (a catalog-only job) runs no attach-time recovery sweep: the first
    ``acquire_file_lease`` after a crash finds the dead holder's lease,
    recovers the file, and steals the lease.
    """

    def factory(sim: Simulator, machine: MachineModel):
        from repro.core.maintenance import MaintenanceService

        fs = FileSystem(sim, machine)
        if seed_from is not None:
            layout = StripeLayout(
                stripe_size=machine.storage.stripe_size,
                n_controllers=machine.storage.n_controllers,
            )
            for name, data in seed_from.files.items():
                f = PFSFile(name, layout, ctime=sim.now)
                f.store.write(0, data)
                fs._files[name] = f
            db = Database.loads(seed_from.db_dump)
            db.attach(sim, machine)
        else:
            db = Database(sim, machine)
        maint = MaintenanceService(sim, machine, fs, db)
        return {"fs": fs, "db": db, "maint": maint}

    return factory
