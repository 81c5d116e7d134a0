"""Run catalog: browsing and reading SDM output without the producing code.

The paper's future-work section plans "to develop SDM further to support
visualization applications" — tools that arrive after a simulation, knowing
nothing but the database, and want the data.  :class:`SDMCatalog` is that
support: it reconstructs everything a reader needs from the metadata tables
alone —

* which runs exist (``run_table``),
* which datasets each run produced, with types and global sizes
  (``access_pattern_table``),
* which timesteps of each dataset were written and where
  (``execution_table``) —

and rehydrates a :class:`~repro.core.groups.DataGroup` so
:meth:`~repro.core.api.SDM.read` works against a past run with no knowledge
of how it organized its files.

Use it from inside a simulated job::

    catalog = SDMCatalog.attach(ctx)
    runs = catalog.runs()
    steps = catalog.timesteps(runid=1, dataset="p")
    data = catalog.read_global(runid=1, dataset="p", timestep=steps[-1])
    catalog.release()          # drop the snapshot pin when done

A catalog attaches with a **snapshot pin** by default: it reads the
metadata epoch current at attach time for its whole lifetime, so
background reorganization and compaction of the producing run's files
can proceed concurrently without ever changing (or corrupting) what the
catalog returns — MVCC isolation, no quiescence contract.  Pass
``snapshot=False`` to always follow the newest published metadata
instead.  See ``docs/concurrency.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.analysis.catalog import collective
from repro.core.datapath import DatapathHost
from repro.core.groups import DataGroup, DatasetAttrs, DataView
from repro.core.layout import Organization
from repro.dtypes.primitives import Primitive, primitive_by_name
from repro.errors import SDMUnknownDataset
from repro.mpi.communicator import Communicator
from repro.mpi.job import RankContext
from repro.mpiio.hints import validate_hints

__all__ = ["RunRecord", "DatasetRecord", "SDMCatalog"]


@dataclass(frozen=True)
class RunRecord:
    """One application run known to the database."""

    runid: int
    application: str
    dimension: int
    problem_size: int
    num_timesteps: int


@dataclass(frozen=True)
class DatasetRecord:
    """One dataset of a run, as registered in access_pattern_table."""

    runid: int
    name: str
    basic_pattern: str
    data_type: Primitive
    storage_order: str
    global_size: int


def _dataset_from_row(
    runid: int, name: str, pattern: str, type_name: str, order: str, size
) -> DatasetRecord:
    """Build a DatasetRecord from an access_pattern_table row — outside
    input, so an unknown type name raises ``DatatypeError``."""
    dtype = primitive_by_name(type_name)
    return DatasetRecord(runid, name, pattern, dtype, order, int(size))


class SDMCatalog(DatapathHost):
    """Read-only view over a (possibly finished) SDM metadata database: a
    datapath host with pin identity ``"catalog"`` that writes nothing."""

    def __init__(self, ctx: RankContext, io_hints=None,
                 snapshot: bool = True) -> None:
        self.ctx = ctx
        validate_hints(io_hints)
        self.io_hints = dict(io_hints) if io_hints else None
        """MPI-IO hints applied to every catalog read (e.g. a
        ``coalesce_gap`` for viewers scanning sparse subsets of chunked
        runs)."""
        # Database.loads restores persisted index declarations, so a
        # snapshot arrives ready to probe.
        super().__init__(
            ctx.comm, "", Organization.LEVEL_2,  # a catalog writes nothing
            lease_holder="catalog", maintenance=ctx.service("maint"),
            hints=self.io_hints,
        )
        if snapshot:
            # Every browse and read below resolves against the epoch
            # current at attach until release(), whatever concurrent
            # maintenance publishes meanwhile.
            self.pin.take(self.comm)

    @property
    def comm(self) -> Communicator:
        """``ctx.comm`` at call time: a subgroup that installs its
        ``comm.split`` communicator as ``ctx.comm`` reads on its ranks."""
        return self.ctx.comm

    @comm.setter
    def comm(self, comm: Communicator) -> None:
        self.ctx.comm = comm

    @classmethod
    @collective(op="catalog.attach", uniform_result=True, receivers=("SDMCatalog",))
    def attach(cls, ctx: RankContext, io_hints=None,
               snapshot: bool = True) -> "SDMCatalog":
        """Attach to the job's shared database, file system and
        maintenance services.  Collective; pins the current metadata
        epoch unless ``snapshot=False``."""
        return cls(ctx, io_hints, snapshot)

    @collective(op="catalog.release", uniform_result=True, receivers=("catalog",))
    def release(self) -> None:
        """Drop the snapshot pin, reap what it alone held live and audit
        for leaks (collective; idempotent;
        :meth:`~repro.core.datapath.DatapathHost.shutdown`).  Reads after
        release still work, cold."""
        self.shutdown()

    # ------------------------------------------------------------------
    # Browsing
    # ------------------------------------------------------------------

    def runs(self) -> List[RunRecord]:
        """All recorded runs, oldest first (a sorted walk of run_table's
        ordered runid index — no scan, no sort)."""
        rows = self.tables.db.execute(
            "SELECT runid, application, dimension, problem_size, "
            "num_timesteps FROM run_table ORDER BY runid",
            proc=self.ctx.proc,
        )
        return [RunRecord(int(r), a, int(d), int(p), int(n))
                for r, a, d, p, n in rows]

    def datasets(self, runid: int) -> List[DatasetRecord]:
        """Datasets a run registered, in registration order."""
        rows = self.tables.db.execute(
            "SELECT dataset, basic_pattern, data_type, storage_order, "
            "global_size FROM access_pattern_table WHERE runid = ?",
            (runid,),
            proc=self.ctx.proc,
        )
        return [
            _dataset_from_row(runid, name, pattern, type_name, order, size)
            for name, pattern, type_name, order, size in rows
        ]

    def timesteps(self, runid: int, dataset: str) -> List[int]:
        """Timesteps of a dataset with recorded data, ascending, at the
        catalog's snapshot (the open versions when unpinned) — a
        concurrent flip never double-lists a timestep."""
        return self.tables.timesteps_for(
            runid, dataset, epoch=self.pin.epoch, proc=self.ctx.proc
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _dataset_record(self, runid: int, dataset: str) -> DatasetRecord:
        # One composite-index probe on (runid, dataset) rather than
        # fetching the run's whole dataset list.
        rows = self.tables.db.execute(
            "SELECT basic_pattern, data_type, storage_order, global_size "
            "FROM access_pattern_table WHERE runid = ? AND dataset = ?",
            (runid, dataset),
            proc=self.ctx.proc,
        )
        if not rows:
            raise SDMUnknownDataset(
                f"run {runid} has no dataset {dataset!r}"
            )
        return _dataset_from_row(runid, dataset, *rows[0])

    def load_group(self, runid: int) -> DataGroup:
        """Rehydrate a :class:`DataGroup` for a past run from the database.

        Install views with :meth:`repro.core.api.SDM.data_view` and the
        group works with ``SDM.read(..., runid=runid)`` exactly like a
        group created in the producing run.
        """
        group = DataGroup(group_id=0, runid=runid)
        for rec in self.datasets(runid):
            group.datasets[rec.name] = DatasetAttrs(
                name=rec.name,
                data_type=rec.data_type,
                storage_order=rec.storage_order,
                global_size=rec.global_size,
                basic_pattern=rec.basic_pattern,
            )
        return group

    @collective(op="catalog.read_slice")
    def read_slice(
        self,
        runid: int,
        dataset: str,
        timestep: int,
        map_array: np.ndarray,
    ) -> np.ndarray:
        """Collectively read an arbitrary element subset of a past dataset.

        Every rank of the job must call with its own map array; location
        and layout come entirely from the metadata tables.  Both storage
        orders are served: canonical instances through one indexed view,
        chunked instances assembled from their ``chunk_table`` maps — a
        visualization front end needs no idea how the producing run chose
        to write.
        """
        rec = self._dataset_record(runid, dataset)
        view = DataView.from_map(np.asarray(map_array, dtype=np.int64))
        out, _fname, _chunks = self.read_pinned(
            runid, dataset, timestep, rec.data_type, view, close=True
        )
        return out

    @collective(op="catalog.read_global", uniform_result=True)
    def read_global(
        self, runid: int, dataset: str, timestep: int
    ) -> np.ndarray:
        """Collectively read a whole dataset instance; every rank receives
        the full global array (the visualization-front-end pattern)."""
        rec = self._dataset_record(runid, dataset)
        comm = self.comm
        # Ranks split the read evenly, then allgather.
        n = rec.global_size
        base = n // comm.size
        counts = [base + (1 if r < n % comm.size else 0)
                  for r in range(comm.size)]
        start = sum(counts[: comm.rank])
        mine = np.arange(start, start + counts[comm.rank], dtype=np.int64)
        piece = self.read_slice(runid, dataset, timestep, mine)
        pieces = comm.allgather(piece)
        return np.concatenate(pieces)
