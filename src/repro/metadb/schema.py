"""The paper's SDM metadata schema (Figure 4) and typed accessors.

Thirteen tables, as created by ``SDM_initialize``: the paper's six,
``chunk_table`` for the chunked storage order, two that back the
maintenance service layer, and four for MVCC and crash recovery:

* ``run_table`` — one row per application run: id, dimensionality, problem
  size, timestep count, wall-clock date fields.
* ``access_pattern_table`` — one row per output dataset: its basic pattern
  (IRREGULAR here), element type, storage order, global size.
* ``execution_table`` — one row per (dataset, timestep) written: which file
  and at which offset — this is what makes level-2/3 packed organizations
  navigable.
* ``chunk_table`` — one row per rank-chunk of a *chunked* (write-optimized)
  dataset instance: which global index range the chunk covers (plus its
  ``gid_step`` for arithmetic-progression maps, which store no index
  block) and where its index block and data block live in the file.  A
  (runid, dataset, timestep) with chunk rows is stored in distribution
  order; one without is canonical.
  :meth:`SDMTables.update_execution` + :meth:`SDMTables.close_chunks` flip
  an instance from chunked to canonical after reorganization.
* ``import_table`` — one row per imported (externally created) array.
* ``index_table`` — one row per registered index distribution: problem
  size, process count, history file name.
* ``index_history_table`` — per-rank partitioned sizes and history-file
  offsets for a registered distribution.
* ``maintenance_table`` — one row per *pending* background-maintenance
  job (reorganization or compaction) queued with
  :mod:`repro.core.maintenance`.  Rows are inserted at enqueue time and
  deleted when the job completes, so the set of rows *is* the surviving
  work queue: a snapshot taken mid-backlog carries it to the next job,
  which adopts and executes it (the DataFed-style persistent service
  tier).
* ``extent_table`` — one free (dead) region per row of a ``.chunked``
  checkpoint file: reorganization moves an instance out of the file but
  only the topmost region is reclaimed by the append cursor; interior
  regions are recorded here until a chunked write reuses one
  (:meth:`SDMTables.allocate_extent`, first fit) or a compaction pass
  slides the live chunks down and clears them.  Reaping truncates the
  extents at or above the cursor whenever it retreats it.

* ``epoch_table`` (the publish log doubling as the flip intent journal),
  ``lease_table`` (exclusive flip leases with boot/heartbeat/TTL
  liveness), ``pin_table`` (reader snapshot pins with abandonment
  stamps), and ``watermark_table`` (per-file reap progress) — the
  MVCC/robustness tier; see the inline DDL comments.

:class:`SDMTables` wraps a :class:`~repro.metadb.engine.Database` with typed
methods for exactly the statements SDM issues, so the SQL lives here and the
runtime stays readable.

:data:`SDM_INDEXES` declares secondary indexes on the hot lookup paths,
one index per column tuple: each serves equality on any leading prefix
(the ``(runid, dataset, timestep)`` point lookup behind every read, the
``(problem_size, num_procs[, rank])`` history lookups) and the
range/ORDER BY shapes on the column after it (``max_offset_in_file``'s
end-of-file probe, the catalog's timestep and run listings), so no
declaration is a column prefix of another on the same table.  (This
flattens the *host* execution time of the simulator itself as runs and
timesteps accumulate; the simulated virtual-time charge is set by the
:class:`~repro.config.DatabaseModel` cost model and is per-row-touched
either way.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SDMStateError
from repro.metadb.engine import Database
from repro.simt.process import Process

__all__ = [
    "SDM_SCHEMA",
    "SDM_INDEXES",
    "SDMTables",
    "ChunkRecord",
    "HistoryRecord",
    "HistoryRankRecord",
    "MaintenanceRecord",
    "CHUNK_INDEX_BYTES",
    "OPEN_EPOCH",
    "EPOCH_INTENT",
    "EPOCH_PUBLISHED",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_PIN_TTL",
]

#: ``valid_to`` sentinel of a row that is current (not superseded).  An
#: equality conjunct on this value resolves current visibility in the
#: same single statement the unversioned schema used, so the hot read
#: path never consults epoch_table.
OPEN_EPOCH = 2 ** 62

#: epoch_table states: a flip's write-ahead record starts as ``intent``
#: and :meth:`SDMTables.commit_flip` flips it to ``published`` — the
#: single-statement commit point of the whole metadata flip.
EPOCH_INTENT = "intent"
EPOCH_PUBLISHED = "published"

#: Virtual-time lease lifetime: a flip lease whose heartbeat is older
#: than this is presumed dead and may be recovered + stolen.  Flips
#: heartbeat before each publish step, so a live holder never expires.
DEFAULT_LEASE_TTL = 60.0

#: Virtual-time pin lifetime: a snapshot pin untouched for this long is
#: presumed abandoned and released by the maintenance reaper.  Readers
#: touch their pin (throttled to every TTL/4) on the read path.
DEFAULT_PIN_TTL = 300.0

#: The MVCC-versioned tables (``valid_from``/``valid_to`` columns): a
#: flip's rollback withdraws and reopens row versions in each of them.
VERSIONED_TABLES: Tuple[str, ...] = ("execution_table", "chunk_table")

#: Equality key of one dataset instance in either versioned table.
_INSTANCE = "runid = ? AND dataset = ? AND timestep = ?"

#: The INSERT that opens a row version, per versioned table (8 and 12
#: columns: the payload, then ``valid_from`` and ``valid_to``).
_OPEN_VERSION = {
    table: f"INSERT INTO {table} VALUES ({', '.join('?' * width)})"
    for table, width in zip(VERSIONED_TABLES, (8, 12))
}

#: An extent is reused only when the write fills at least this share of
#: it (skipping an allocation that would strand a large splinter).
_MIN_EXTENT_FILL = 0.5


def _visible(epoch: Optional[int]) -> Tuple[str, Tuple[int, ...]]:
    """The one visibility predicate, as ``(SQL conjunct, parameters)``:
    a row version is visible at ``epoch`` iff ``valid_from <= epoch <
    valid_to``; ``epoch=None`` means *current* visibility — the open
    versions, resolved by a single equality on the sentinel."""
    if epoch is None:
        return "valid_to = ?", (OPEN_EPOCH,)
    return "valid_from <= ? AND valid_to > ?", (epoch, epoch)


SDM_SCHEMA: Tuple[str, ...] = (
    """CREATE TABLE IF NOT EXISTS run_table (
        runid INTEGER, application TEXT, dimension INTEGER,
        problem_size INTEGER, num_timesteps INTEGER,
        year INTEGER, month INTEGER, day INTEGER, hour INTEGER, minute INTEGER
    )""",
    """CREATE TABLE IF NOT EXISTS access_pattern_table (
        runid INTEGER, dataset TEXT, basic_pattern TEXT,
        data_type TEXT, storage_order TEXT, global_size INTEGER
    )""",
    # execution_table and chunk_table rows are *versioned*: a row is
    # visible at epoch E iff valid_from <= E < valid_to.  Open (current)
    # rows carry valid_to = OPEN_EPOCH; a metadata flip closes the old
    # version (valid_to = new epoch) and inserts the successor
    # (valid_from = new epoch).  Fresh appends insert valid_from = 0 so
    # they are visible to every pinned snapshot — MVCC isolates flips,
    # not ordinary writes.
    """CREATE TABLE IF NOT EXISTS execution_table (
        runid INTEGER, dataset TEXT, timestep INTEGER,
        file_name TEXT, file_offset INTEGER, nbytes INTEGER,
        valid_from INTEGER, valid_to INTEGER
    )""",
    """CREATE TABLE IF NOT EXISTS chunk_table (
        runid INTEGER, dataset TEXT, timestep INTEGER, rank INTEGER,
        gid_min INTEGER, gid_max INTEGER, num_elements INTEGER,
        gid_step INTEGER, index_offset INTEGER, data_offset INTEGER,
        valid_from INTEGER, valid_to INTEGER
    )""",
    """CREATE TABLE IF NOT EXISTS import_table (
        runid INTEGER, imported_name TEXT, file_name TEXT,
        data_type TEXT, storage_order TEXT, partition TEXT,
        file_content TEXT, file_offset INTEGER, num_elements INTEGER
    )""",
    """CREATE TABLE IF NOT EXISTS index_table (
        problem_size INTEGER, num_procs INTEGER, dimension INTEGER,
        registered_file_name TEXT
    )""",
    """CREATE TABLE IF NOT EXISTS index_history_table (
        problem_size INTEGER, num_procs INTEGER, rank INTEGER,
        edge_count INTEGER, node_count INTEGER,
        edge_offset INTEGER, node_offset INTEGER
    )""",
    """CREATE TABLE IF NOT EXISTS maintenance_table (
        jobid INTEGER, kind TEXT, application TEXT, organization INTEGER,
        group_id INTEGER, runid INTEGER, dataset TEXT, timestep INTEGER,
        file_name TEXT, data_type TEXT, global_size INTEGER
    )""",
    """CREATE TABLE IF NOT EXISTS extent_table (
        file_name TEXT, file_offset INTEGER, nbytes INTEGER
    )""",
    # Append-only publish log doubling as the flip *intent journal*: one
    # row per epoch of a file.  A flip first writes its row with
    # state='intent' (the write-ahead record), inserts/closes the row
    # versions, then flips state='published' — the commit point.  A
    # recovering lease stealer resolves a surviving 'intent' row by
    # rolling the flip back, and a 'published' row by finishing its reap.
    # The global epoch counter is MAX(epoch) across all files; a file's
    # current epoch is MAX(epoch) for its rows.  Reaped history is pruned
    # up to the file's reap watermark.
    """CREATE TABLE IF NOT EXISTS epoch_table (
        file_name TEXT, epoch INTEGER, state TEXT
    )""",
    # Short exclusive per-file lease taken by metadata flips (reorganize,
    # compact).  A second writer finding a *live* lease here fails fast
    # with SDMLeaseConflict instead of silently losing an update.  A
    # lease is dead — stealable after recovery — when its holder's boot
    # predates the database's current incarnation, or when its heartbeat
    # is older than its ttl.
    """CREATE TABLE IF NOT EXISTS lease_table (
        file_name TEXT, holder TEXT,
        boot INTEGER, acquired_at REAL, heartbeat REAL, ttl REAL
    )""",
    # Reader snapshots: a pin holds its epoch's row versions alive.  The
    # reaper skips any dead version whose validity interval contains a
    # pinned epoch.  boot/touched support the abandoned-pin reaper: a pin
    # from a prior incarnation, or one untouched past the timeout, was
    # leaked by a dead client and is released on its behalf.
    """CREATE TABLE IF NOT EXISTS pin_table (
        pin_id INTEGER, client TEXT, epoch INTEGER,
        boot INTEGER, touched REAL
    )""",
    # Per-file reap progress: every row version of epochs below the
    # watermark has been reaped, so epoch history below it is pruned.
    # Replaces the global min-pin floor — one stuck pin no longer blocks
    # epoch-log truncation for every other file.
    """CREATE TABLE IF NOT EXISTS watermark_table (
        file_name TEXT, epoch INTEGER
    )""",
)

SDM_INDEXES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    # One probe allocates runids; the index also serves the catalog's
    # `ORDER BY runid` run listing without a sort.
    ("run_table", ("runid",)),
    # dataset_row probes both columns; the catalog's dataset listing
    # binds the runid prefix.
    ("access_pattern_table", ("runid", "dataset")),
    # lookup_execution_version and the close/reap statements bind all
    # three columns, the catalog's `WHERE runid/dataset ORDER BY
    # timestep` the first two; the (file_name, file_offset) index answers
    # max_offset_in_file's `ORDER BY file_offset DESC LIMIT 1` end-of-file
    # probe directly.
    ("execution_table", ("runid", "dataset", "timestep")),
    ("execution_table", ("file_name", "file_offset")),
    # chunks_for is a sorted probe (equality triple + ORDER BY rank); the
    # close/reap statements bind the triple prefix.
    ("chunk_table", ("runid", "dataset", "timestep", "rank")),
    ("import_table", ("runid", "imported_name")),
    ("index_table", ("problem_size", "num_procs")),
    ("index_history_table", ("problem_size", "num_procs", "rank")),
    # Pending-job adoption walks `ORDER BY jobid` and allocation probes
    # MAX(jobid) — both served from the slice ends of one index.
    ("maintenance_table", ("jobid",)),
    # Extent listing/truncation is an equality-plus-range shape;
    # clear_extents and the free-byte sum bind the file_name prefix.
    ("extent_table", ("file_name", "file_offset")),
    # Global epoch allocation probes MAX(epoch); per-file current-epoch
    # and history pruning narrow on (file_name, epoch).
    ("epoch_table", ("epoch",)),
    ("epoch_table", ("file_name", "epoch")),
    ("lease_table", ("file_name",)),
    # Pin touch, advance and release probe pin_id.
    ("pin_table", ("pin_id",)),
    # Reap-watermark lookup is a per-file point probe.
    ("watermark_table", ("file_name",)),
)
"""(table, column tuple) index declarations for SDM's hot lookups."""


CHUNK_INDEX_BYTES = 8
"""Bytes per entry of a chunk's global-index block (int64)."""


@dataclass(frozen=True)
class ChunkRecord:
    """chunk_table row: one rank's block of a chunked dataset instance.

    ``gid_min``/``gid_max`` bound the global indices the chunk covers
    (``(0, -1)`` for an empty chunk); ``index_offset``/``data_offset`` are
    absolute file byte offsets of the chunk's sorted int64 index block and
    its data block.  ``index_offset == data_offset`` marks an *arithmetic*
    chunk — the map is the progression ``gid_min, gid_min + gid_step, ...,
    gid_max`` (``gid_step == 1``: the dense case), so no index block is
    stored and element positions are computed, never fetched.  For chunks
    with a real index block ``gid_step`` is 1 and unused.
    """

    rank: int
    gid_min: int
    gid_max: int
    num_elements: int
    index_offset: int
    data_offset: int
    gid_step: int = 1

    @property
    def block(self) -> Optional[Tuple[int, int]]:
        """``(index_offset, num_elements)`` of the index block this chunk
        stores — the key blocks are fetched and cached by — or None for
        an empty or arithmetic chunk, which stores none."""
        if self.num_elements and self.index_offset != self.data_offset:
            return (self.index_offset, self.num_elements)
        return None


@dataclass(frozen=True)
class MaintenanceRecord:
    """maintenance_table row: one pending background-maintenance job.

    ``kind`` is ``"reorganize"`` or ``"compact"``.  Reorganize jobs carry
    everything the execute half needs to run without the producing
    :class:`~repro.core.groups.DataGroup` (the dataset's type name and
    global size, the group id for level-3 file naming); compact jobs only
    use ``file_name``.
    """

    jobid: int
    kind: str
    application: str
    organization: int
    group_id: int
    runid: int
    dataset: str
    timestep: int
    file_name: str
    data_type: str
    global_size: int


@dataclass(frozen=True)
class HistoryRecord:
    """index_table row: one registered index distribution."""

    problem_size: int
    num_procs: int
    dimension: int
    file_name: str


@dataclass(frozen=True)
class HistoryRankRecord:
    """index_history_table row: one rank's slice of a history file."""

    rank: int
    edge_count: int
    node_count: int
    edge_offset: int
    node_offset: int


class SDMTables:
    """Typed accessors over the SDM schema."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.n_leases_stolen = 0
        """Expired leases recovered and taken over by a later acquirer."""
        self.n_flips_rolled_back = 0
        """Interrupted flips withdrawn (intent record found, commit not
        reached: successors deleted, predecessors reopened)."""
        self.n_flips_rolled_forward = 0
        """Committed flips whose reap half was finished by recovery."""
        self.n_pins_expired = 0
        """Abandoned snapshot pins released on a dead client's behalf."""
        self._next_pin_id = 1
        """Lowest pin id :meth:`create_pin` may still issue: ids issued
        through this accessor, the job's one, are never issued again."""

    def recovery_stats(self) -> Dict[str, int]:
        """The crash-recovery counters every ``stats()`` surface reports:
        the recoveries made through this accessor, which a job's
        maintenance service shares with every host of the job."""
        return {
            "leases_stolen": self.n_leases_stolen,
            "flips_rolled_back": self.n_flips_rolled_back,
            "flips_rolled_forward": self.n_flips_rolled_forward,
            "pins_expired": self.n_pins_expired,
        }

    def create_all(self, proc: Optional[Process] = None) -> None:
        """Create the thirteen tables and their indexes (idempotent)."""
        for ddl in SDM_SCHEMA:
            self.db.execute(ddl, proc=proc)
        for table, columns in SDM_INDEXES:
            self.db.create_index(table, columns)

    # -- the rules every table below shares, each stated once --------------

    def _next_id(self, table: str, column: str, proc) -> int:
        """Allocate a counter column's next id: MAX+1, starting at 1 (one
        probe of the column's index)."""
        rows = self.db.execute(f"SELECT MAX({column}) FROM {table}", proc=proc)
        return 1 if rows[0][0] is None else rows[0][0] + 1

    @staticmethod
    def _expect_rows(touched: int, expected: int, what: str, why: str) -> None:
        """The fence behind every count-checked UPDATE/DELETE: any other
        match count means a concurrent flip or recovery got there first,
        and carrying on would silently lose an update."""
        if touched != expected:
            raise SDMStateError(
                f"{what} matched {touched} of {expected} rows; {why}"
            )

    def _open_versions(self, table: str, rows, valid_from: int, proc) -> None:
        """Insert ``rows`` (payload column tuples) as open versions
        visible from ``valid_from`` — one batched statement."""
        self.db.execute_many(
            _OPEN_VERSION[table],
            [(*row, valid_from, OPEN_EPOCH) for row in rows],
            proc=proc,
        )

    def _close_versions(
        self, table: str, where: str, valid_to: int, keys, proc
    ) -> int:
        """Set ``valid_to`` on the versions matching ``where`` for each
        parameter tuple in ``keys`` (one batched statement): a flip closes
        predecessors at its epoch, a rollback reopens them.  Returns the
        matched-row count for the caller's fence."""
        return self.db.execute_many(
            f"UPDATE {table} SET valid_to = ? WHERE {where}",
            [(valid_to, *key) for key in keys],
            proc=proc,
        )

    def _drop_versions(self, table: str, where: str, args, proc) -> None:
        """Delete the versions matching ``where``: a reaped dead version,
        or the successors an uncommitted flip inserted."""
        self.db.execute(f"DELETE FROM {table} WHERE {where}", args, proc=proc)

    # -- run_table -------------------------------------------------------

    def next_runid(self, proc: Optional[Process] = None) -> int:
        """Allocate the next run id (MAX(runid)+1, starting at 1)."""
        return self._next_id("run_table", "runid", proc)

    def insert_run(
        self,
        runid: int,
        application: str,
        dimension: int,
        problem_size: int,
        num_timesteps: int,
        date_fields: Sequence[int] = (0, 0, 0, 0, 0),
        proc: Optional[Process] = None,
    ) -> None:
        """Record a run in run_table."""
        y, mo, d, h, mi = date_fields
        self.db.execute(
            "INSERT INTO run_table VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (runid, application, dimension, problem_size, num_timesteps, y, mo, d, h, mi),
            proc=proc,
        )

    def all_runs(
        self, proc: Optional[Process] = None
    ) -> List[Tuple[int, str, int, int, int]]:
        """Every run, oldest first: ``(runid, application, dimension,
        problem_size, num_timesteps)`` (a sorted walk of the ordered
        runid index — no scan, no sort)."""
        return self.db.execute(
            "SELECT runid, application, dimension, problem_size, "
            "num_timesteps FROM run_table ORDER BY runid",
            proc=proc,
        )

    # -- access_pattern_table ---------------------------------------------

    def register_dataset(
        self,
        runid: int,
        dataset: str,
        data_type: str,
        storage_order: str,
        global_size: int,
        basic_pattern: str = "IRREGULAR",
        proc: Optional[Process] = None,
    ) -> None:
        """Record one output dataset's access pattern."""
        self.db.execute(
            "INSERT INTO access_pattern_table VALUES (?, ?, ?, ?, ?, ?)",
            (runid, dataset, basic_pattern, data_type, storage_order, global_size),
            proc=proc,
        )

    def dataset_type_name(
        self, runid: int, dataset: str, proc: Optional[Process] = None
    ) -> Optional[str]:
        """Registered element-type name of one dataset (composite-index
        probe), or None if the dataset was never registered."""
        rows = self.db.execute(
            "SELECT data_type FROM access_pattern_table "
            "WHERE runid = ? AND dataset = ?",
            (runid, dataset),
            proc=proc,
        )
        return rows[0][0] if rows else None

    def datasets_for(
        self, runid: int, proc: Optional[Process] = None
    ) -> List[Tuple[str, str, str, str, int]]:
        """A run's datasets in registration order: ``(dataset,
        basic_pattern, data_type, storage_order, global_size)``."""
        return self.db.execute(
            "SELECT dataset, basic_pattern, data_type, storage_order, "
            "global_size FROM access_pattern_table WHERE runid = ?",
            (runid,),
            proc=proc,
        )

    def dataset_row(
        self, runid: int, dataset: str, proc: Optional[Process] = None
    ) -> Optional[Tuple[str, str, str, int]]:
        """``(basic_pattern, data_type, storage_order, global_size)`` of
        one dataset (composite-index probe), or None if the dataset was
        never registered."""
        rows = self.db.execute(
            "SELECT basic_pattern, data_type, storage_order, global_size "
            "FROM access_pattern_table WHERE runid = ? AND dataset = ?",
            (runid, dataset),
            proc=proc,
        )
        return rows[0] if rows else None

    # -- execution_table ---------------------------------------------------

    def record_execution(
        self,
        runid: int,
        dataset: str,
        timestep: int,
        file_name: str,
        file_offset: int,
        nbytes: int,
        proc: Optional[Process] = None,
        valid_from: int = 0,
    ) -> None:
        """Record where one (dataset, timestep) landed.

        Fresh appends keep the default ``valid_from=0``: a new instance
        is immediately visible to every snapshot, however early it was
        pinned.  Metadata flips pass their published epoch.
        """
        self._open_versions(
            "execution_table",
            [(runid, dataset, timestep, file_name, file_offset, nbytes)],
            valid_from, proc,
        )

    def lookup_execution_version(
        self,
        runid: int,
        dataset: str,
        timestep: int,
        epoch: Optional[int] = None,
        proc: Optional[Process] = None,
    ) -> Optional[Tuple[str, int, int, int]]:
        """(file_name, file_offset, nbytes, valid_from) of a written
        dataset instance, resolved against a pinned epoch (``epoch=None``:
        current visibility — still a single composite-index probe, the
        OPEN_EPOCH equality riding along as a verified conjunct).  Inside
        a flip's publish window two open versions can coexist; the newest
        ``valid_from`` wins — the reference epoch chunk maps and
        index-block cache keys resolve against."""
        visible, at = _visible(epoch)
        rows = self.db.execute(
            "SELECT file_name, file_offset, nbytes, valid_from "
            f"FROM execution_table WHERE {_INSTANCE} AND {visible}",
            (runid, dataset, timestep, *at),
            proc=proc,
        )
        return max(rows, key=lambda r: r[3]) if rows else None

    def max_offset_in_file(
        self, file_name: str, proc: Optional[Process] = None
    ) -> int:
        """Next append position in a packed (level 2/3) file."""
        rows = self.db.execute(
            "SELECT file_offset, nbytes FROM execution_table WHERE file_name = ? "
            "ORDER BY file_offset DESC LIMIT 1",
            (file_name,),
            proc=proc,
        )
        return rows[0][0] + rows[0][1] if rows else 0

    def executions_in_file(
        self,
        file_name: str,
        proc: Optional[Process] = None,
        dead: bool = False,
    ) -> List[Tuple[int, str, int, int, int, int, int]]:
        """Row versions living in one file, by ascending base offset (a
        sorted probe of the ``(file_name, file_offset)`` index):
        ``(runid, dataset, timestep, file_offset, nbytes, valid_from,
        valid_to)``.  By default the *current* instances (what a
        compaction plan packs and closes); ``dead=True`` lists the
        superseded versions still occupying bytes — the reaper's work
        list."""
        return self.db.execute(
            "SELECT runid, dataset, timestep, file_offset, nbytes, "
            "valid_from, valid_to FROM execution_table "
            f"WHERE file_name = ? AND valid_to {'<' if dead else '='} ? "
            "ORDER BY file_offset",
            (file_name, OPEN_EPOCH),
            proc=proc,
        )

    def timesteps_for(
        self,
        runid: int,
        dataset: str,
        epoch: Optional[int] = None,
        proc: Optional[Process] = None,
    ) -> List[int]:
        """Timesteps of a dataset with a row version visible at ``epoch``
        (``None``: current), ascending — a sorted probe of the ordered
        ``(runid, dataset, timestep)`` index.  A publish window can show
        two versions of one timestep; each is listed once."""
        visible, at = _visible(epoch)
        rows = self.db.execute(
            "SELECT timestep FROM execution_table "
            f"WHERE runid = ? AND dataset = ? AND {visible} "
            "ORDER BY timestep",
            (runid, dataset, *at),
            proc=proc,
        )
        return sorted({r[0] for r in rows})

    def files_with_dead_rows(
        self, proc: Optional[Process] = None
    ) -> List[str]:
        """Files holding superseded row versions (reap candidates)."""
        rows = self.db.execute(
            "SELECT file_name FROM execution_table WHERE valid_to < ?",
            (OPEN_EPOCH,),
            proc=proc,
        )
        return [f for (f,) in dict.fromkeys(rows)]

    def update_execution(
        self,
        runid: int,
        dataset: str,
        timestep: int,
        old_file_name: str,
        file_name: str,
        file_offset: int,
        nbytes: int,
        epoch: int,
        proc: Optional[Process] = None,
    ) -> None:
        """Repoint an execution record (reorganization moved the instance)
        by publishing a new version at ``epoch`` and closing the old one.

        The successor is inserted *first* so a concurrent current reader
        always sees at least one open version; the close then targets the
        old row by its (distinct) file name.  A zero-row close means the
        instance was concurrently repointed from under us — raised as
        :class:`SDMStateError` instead of silently dropping the flip.
        """
        self._open_versions(
            "execution_table",
            [(runid, dataset, timestep, file_name, file_offset, nbytes)],
            epoch, proc,
        )
        touched = self._close_versions(
            "execution_table",
            f"{_INSTANCE} AND file_name = ? AND valid_to = ?", epoch,
            [(runid, dataset, timestep, old_file_name, OPEN_EPOCH)], proc,
        )
        self._expect_rows(
            touched, 1,
            f"update_execution of ({runid}, {dataset!r}, {timestep}) in "
            f"{old_file_name!r}",
            "the instance was concurrently repointed",
        )

    # -- chunk_table ---------------------------------------------------------

    def record_chunks(
        self,
        runid: int,
        dataset: str,
        timestep: int,
        chunks: Sequence[ChunkRecord],
        proc: Optional[Process] = None,
        valid_from: int = 0,
    ) -> None:
        """Record every rank's chunk of a chunked dataset instance (one
        batched INSERT — this sits on the per-timestep write path)."""
        self._open_versions(
            "chunk_table",
            [
                (
                    runid, dataset, timestep, c.rank, c.gid_min, c.gid_max,
                    c.num_elements, c.gid_step, c.index_offset, c.data_offset,
                )
                for c in chunks
            ],
            valid_from, proc,
        )

    def chunks_for(
        self,
        runid: int,
        dataset: str,
        timestep: int,
        proc: Optional[Process] = None,
        at: Optional[int] = None,
    ) -> List[ChunkRecord]:
        """Chunk maps of a dataset instance, by ascending writer rank
        (empty for canonical instances).  Served as a sorted probe of the
        ordered ``(runid, dataset, timestep, rank)`` index.

        ``at=None`` resolves current visibility (open rows); a pinned or
        publish-window reader passes the reference epoch — the matched
        execution row's ``valid_from``.  Either way, when a publish window
        briefly exposes two complete version sets, the newest
        ``valid_from`` set wins (a flip always rewrites the full set, so
        the winner is complete)."""
        visible, args = _visible(at)
        rows = self.db.execute(
            "SELECT rank, gid_min, gid_max, num_elements, index_offset, "
            "data_offset, gid_step, valid_from FROM chunk_table "
            f"WHERE {_INSTANCE} AND {visible} ORDER BY rank",
            (runid, dataset, timestep, *args),
            proc=proc,
        )
        if not rows:
            return []
        newest = max(r[7] for r in rows)
        return [ChunkRecord(*r[:7]) for r in rows if r[7] == newest]

    def close_chunks(
        self,
        runid: int,
        dataset: str,
        timestep: int,
        epoch: int,
        proc: Optional[Process] = None,
    ) -> None:
        """Close an instance's open chunk maps at ``epoch`` (it became
        canonical, or a compaction rewrote them).  Pinned snapshots keep
        reading the closed version until it is reaped.  The
        ``valid_from < epoch`` conjunct spares successor rows the same
        publish just inserted at ``epoch``."""
        self._close_versions(
            "chunk_table",
            f"{_INSTANCE} AND valid_to = ? AND valid_from < ?", epoch,
            [(runid, dataset, timestep, OPEN_EPOCH, epoch)], proc,
        )

    def update_execution_offsets(
        self,
        updates: Sequence[Tuple[int, int, int, str, int, int]],
        file_name: str,
        epoch: int,
        proc: Optional[Process] = None,
    ) -> None:
        """Rebase instances a compaction pass moved, publishing the moves
        as new row versions at ``epoch``.

        ``updates`` rows are ``(file_offset, nbytes, runid, dataset,
        timestep, old_valid_from)``.  Successors are inserted first (one
        batched INSERT), then every old version is closed in one batched
        UPDATE whose matched-row count must equal the move count — a
        short count means a concurrent flip repointed a row under us and
        raises :class:`SDMStateError` instead of losing the update.
        """
        if not updates:
            return
        self._open_versions(
            "execution_table",
            [(r, d, t, file_name, off, n) for off, n, r, d, t, _vf in updates],
            epoch, proc,
        )
        touched = self._close_versions(
            "execution_table",
            f"{_INSTANCE} AND file_name = ? AND valid_from = ? "
            "AND valid_to = ?",
            epoch,
            [(r, d, t, file_name, vf, OPEN_EPOCH)
             for _off, _n, r, d, t, vf in updates],
            proc,
        )
        self._expect_rows(
            touched, len(updates),
            f"update_execution_offsets in {file_name!r}",
            "a concurrent flip repointed an instance under this compaction",
        )

    # -- extent_table --------------------------------------------------------

    def record_extent(
        self,
        file_name: str,
        file_offset: int,
        nbytes: int,
        proc: Optional[Process] = None,
    ) -> None:
        """Record a dead region of a chunked file (reorganization moved an
        interior instance out; compaction will reclaim it)."""
        self.db.execute(
            "INSERT INTO extent_table VALUES (?, ?, ?)",
            (file_name, file_offset, nbytes),
            proc=proc,
        )

    def extents_for(
        self, file_name: str, proc: Optional[Process] = None
    ) -> List[Tuple[int, int]]:
        """Free ``(offset, nbytes)`` extents of a file, ascending."""
        return self.db.execute(
            "SELECT file_offset, nbytes FROM extent_table "
            "WHERE file_name = ? ORDER BY file_offset",
            (file_name,),
            proc=proc,
        )

    def free_bytes_in(
        self, file_name: str, proc: Optional[Process] = None
    ) -> int:
        """Total dead bytes recorded for one file (0 when fully live)."""
        rows = self.db.execute(
            "SELECT SUM(nbytes) FROM extent_table WHERE file_name = ?",
            (file_name,),
            proc=proc,
        )
        return 0 if rows[0][0] is None else rows[0][0]

    def truncate_extents(
        self, file_name: str, above: int, proc: Optional[Process] = None
    ) -> None:
        """Forget extents at or above an offset (the append cursor
        retreated past them: the region is beyond end-of-data and will be
        reclaimed by ordinary appends)."""
        self.db.execute(
            "DELETE FROM extent_table "
            "WHERE file_name = ? AND file_offset >= ?",
            (file_name, above),
            proc=proc,
        )

    def clear_extents(
        self, file_name: str, proc: Optional[Process] = None
    ) -> None:
        """Forget every extent of a file (compaction reclaimed them all)."""
        self.db.execute(
            "DELETE FROM extent_table WHERE file_name = ?",
            (file_name,),
            proc=proc,
        )

    def _protected_index_ranges(
        self, file_name: str, proc: Optional[Process] = None
    ) -> List[Tuple[int, int]]:
        """Byte ranges of index blocks any surviving chunk-map version of
        this file may still resolve against.

        A reaped instance's region can strand a *shared* index block that
        later instances' chunk rows reference (``index_offset`` pointing
        backward), so an extent is not automatically clobber-safe.  Data
        bytes never have this problem — a row's data offsets lie inside
        its own execution region, and reap only frees regions no pin can
        see — but index references cross region boundaries.  Conservative
        by design: every chunk row of every instance recorded in the file
        (open or closed-but-unreaped) contributes its range.
        """
        keys = self.db.execute(
            "SELECT runid, dataset, timestep FROM execution_table "
            "WHERE file_name = ?",
            (file_name,),
            proc=proc,
        )
        ranges: List[Tuple[int, int]] = []
        for runid, dataset, timestep in dict.fromkeys(keys):
            rows = self.db.execute(
                "SELECT rank, gid_min, gid_max, num_elements, index_offset, "
                "data_offset, gid_step FROM chunk_table WHERE runid = ? AND "
                "dataset = ? AND timestep = ?",
                (runid, dataset, timestep),
                proc=proc,
            )
            for row in rows:
                block = ChunkRecord(*row).block
                if block is not None:
                    offset, n = block
                    ranges.append((offset, offset + n * CHUNK_INDEX_BYTES))
        return ranges

    def allocate_extent(
        self,
        file_name: str,
        need: int,
        proc: Optional[Process] = None,
    ) -> Optional[int]:
        """First-fit placement of ``need`` bytes into a free extent.

        Returns the base offset of the allocated region (the extent row
        is consumed; any remainder is re-recorded as a smaller extent), or
        None when no extent qualifies and the caller should append at the
        cursor.  An extent qualifies when it is large enough, the write
        would fill at least :data:`_MIN_EXTENT_FILL` of it, and the
        allocated prefix does not overlap an index block a surviving
        chunk-map version still references
        (:meth:`_protected_index_ranges`).

        Safety against pins comes for free: :meth:`reap_file` records an
        extent only for versions no pinned epoch can see, so extent bytes
        are never visible to any snapshot.
        """
        if need <= 0:
            return None
        protected = self._protected_index_ranges(file_name, proc)
        for off, nbytes in self.extents_for(file_name, proc):
            if nbytes < need or need < _MIN_EXTENT_FILL * nbytes:
                continue
            end = off + need
            if any(lo < end and hi > off for lo, hi in protected):
                continue
            self.db.execute(
                "DELETE FROM extent_table "
                "WHERE file_name = ? AND file_offset = ?",
                (file_name, off),
                proc=proc,
            )
            if nbytes > need:
                self.record_extent(file_name, end, nbytes - need, proc)
            return off
        return None

    # -- epoch_table / lease_table / pin_table -------------------------------

    def current_epoch(self, proc: Optional[Process] = None) -> int:
        """Newest epoch across all files — one below the next to allocate,
        0 before any flip.  This is what a reader pins at attach."""
        return self._next_id("epoch_table", "epoch", proc) - 1

    def begin_flip(
        self, file_name: str, proc: Optional[Process] = None
    ) -> int:
        """Open a metadata flip: allocate a globally-unique epoch and
        journal the intent against ``file_name``.

        The intent row is the flip's write-ahead record: until
        :meth:`commit_flip` turns it ``published``, a recovering lease
        stealer treats every row version touched at this epoch as
        uncommitted and rolls the flip back.  Rollback is keyed on the
        epoch number alone, so the allocation is insert-then-verify: a
        number shared with a concurrent other-file flip (same-file flips
        are serialized by the lease) is withdrawn and retried — recovery
        must never confuse two flips' row versions.
        """
        while True:
            epoch = self._next_id("epoch_table", "epoch", proc)
            self.db.execute(
                "INSERT INTO epoch_table VALUES (?, ?, ?)",
                (file_name, epoch, EPOCH_INTENT),
                proc=proc,
            )
            rows = self.db.execute(
                "SELECT COUNT(*) FROM epoch_table WHERE epoch = ?",
                (epoch,),
                proc=proc,
            )
            if rows[0][0] == 1:
                return epoch
            self.db.execute(
                "DELETE FROM epoch_table "
                "WHERE file_name = ? AND epoch = ?",
                (file_name, epoch),
                proc=proc,
            )

    def commit_flip(
        self, file_name: str, epoch: int, proc: Optional[Process] = None
    ) -> None:
        """Commit a flip: turn its intent record ``published``.

        This single count-checked UPDATE is the commit point — a crash
        before it rolls the whole flip back, a crash after it rolls the
        flip forward (the remaining reap is completed by recovery).  A
        zero-row update means recovery already rolled this flip back
        under a stolen lease; raised as :class:`SDMStateError` so the
        fenced-off publisher cannot continue as if it committed.
        """
        touched = self.db.execute_many(
            "UPDATE epoch_table SET state = ? "
            "WHERE file_name = ? AND epoch = ? AND state = ?",
            [(EPOCH_PUBLISHED, file_name, epoch, EPOCH_INTENT)],
            proc=proc,
        )
        self._expect_rows(
            touched, 1,
            f"commit_flip of the intent for ({file_name!r}, epoch {epoch})",
            "the flip was rolled back by recovery under a stolen lease",
        )

    def flip_intent(
        self, file_name: str, proc: Optional[Process] = None
    ) -> Optional[int]:
        """Epoch of the file's surviving intent record, or None.

        At most one can exist: intents are written under the file's
        exclusive lease and resolved before the lease changes hands.
        """
        rows = self.db.execute(
            "SELECT epoch FROM epoch_table "
            "WHERE file_name = ? AND state = ?",
            (file_name, EPOCH_INTENT),
            proc=proc,
        )
        return None if not rows else rows[0][0]

    def files_with_flip_intents(
        self, proc: Optional[Process] = None
    ) -> List[str]:
        """Files carrying an unresolved flip intent (recovery sweep)."""
        rows = self.db.execute(
            "SELECT file_name FROM epoch_table WHERE state = ?",
            (EPOCH_INTENT,),
            proc=proc,
        )
        return [f for (f,) in dict.fromkeys(rows)]

    def rollback_flip(
        self, file_name: str, epoch: int, proc: Optional[Process] = None
    ) -> None:
        """Withdraw an uncommitted flip: delete the successor row
        versions it inserted at ``epoch`` (reorganize successors live in
        a *different* file, hence no file_name conjunct — epochs are
        globally unique), reopen the predecessors it closed, and drop the
        intent record.  Leaves the metadata byte-identical to the
        pre-flip state; any data bytes the flip staged are unreferenced.
        """
        for table in VERSIONED_TABLES:
            self._drop_versions(table, "valid_from = ?", (epoch,), proc)
        for table in VERSIONED_TABLES:
            self._close_versions(
                table, "valid_to = ?", OPEN_EPOCH, [(epoch,)], proc
            )
        self.db.execute(
            "DELETE FROM epoch_table WHERE file_name = ? AND epoch = ?",
            (file_name, epoch),
            proc=proc,
        )

    def recover_file(
        self, file_name: str, proc: Optional[Process] = None
    ) -> Optional[str]:
        """Resolve whatever a dead lease holder left on one file, exactly
        one way: a surviving intent rolls the flip *back*
        (:meth:`rollback_flip`); otherwise any committed-but-unreaped
        residue rolls *forward* by finishing the reap.  Idempotent;
        returns ``"rolled_back"``, ``"rolled_forward"``, or None when
        there was nothing to resolve."""
        intent = self.flip_intent(file_name, proc)
        if intent is not None:
            self.rollback_flip(file_name, intent, proc)
            self.n_flips_rolled_back += 1
            return "rolled_back"
        if self.executions_in_file(file_name, proc, dead=True):
            # record_extents=False: recovery cannot know whether the
            # interrupted flip was a quiesced in-place compaction, whose
            # dead versions' old offsets overlap the slid-down live
            # layout — recording those as free extents would hand live
            # bytes to allocate_extent.  Forgoing the extent record only
            # defers space reuse to the next compaction pass.
            self.reap_file(file_name, proc, record_extents=False)
            self.n_flips_rolled_forward += 1
            return "rolled_forward"
        return None

    def file_epoch(
        self, file_name: str, proc: Optional[Process] = None
    ) -> int:
        """Newest epoch published against one file (0 if never flipped)."""
        rows = self.db.execute(
            "SELECT MAX(epoch) FROM epoch_table WHERE file_name = ?",
            (file_name,),
            proc=proc,
        )
        return 0 if rows[0][0] is None else rows[0][0]

    def prune_epochs(
        self, file_name: str, below: int, proc: Optional[Process] = None
    ) -> None:
        """Forget a file's epoch history older than ``below`` (every row
        version of those epochs has been reaped)."""
        self.db.execute(
            "DELETE FROM epoch_table WHERE file_name = ? AND epoch < ?",
            (file_name, below),
            proc=proc,
        )

    def lease_holder(
        self, file_name: str, proc: Optional[Process] = None
    ) -> Optional[str]:
        """Current lease holder of a file, or None."""
        rows = self.db.execute(
            "SELECT holder FROM lease_table WHERE file_name = ?",
            (file_name,),
            proc=proc,
        )
        return rows[0][0] if rows else None

    def _lease_expired(
        self, boot: int, heartbeat: float, ttl: float, now: Optional[float]
    ) -> bool:
        """True when a lease row's holder is presumed dead: its boot
        predates this database incarnation (its job ended without
        releasing — deterministic, no clock heuristics), or its
        heartbeat is a full TTL stale at ``now``."""
        if boot < self.db.boot_id:
            return True
        return now is not None and heartbeat + ttl <= now

    def try_acquire_lease(
        self,
        file_name: str,
        holder: str,
        proc: Optional[Process] = None,
        now: Optional[float] = None,
    ) -> bool:
        """Attempt to take the exclusive flip lease on one file.

        Insert-then-verify: a pre-check rejects an existing *live* lease,
        the optimistic insert is then re-counted, and on a photo-finish
        race (two holders inserted) *both* withdraw — symmetric fail-fast
        is the contract; the callers retry or surface SDMLeaseConflict.

        An existing lease whose holder is dead (:meth:`_lease_expired`)
        is not a conflict: the acquirer first resolves whatever the dead
        holder left mid-flip (:meth:`recover_file` — roll back or roll
        forward, never half), then steals the row and proceeds.  Pass the
        caller's virtual ``now`` to enable same-incarnation expiry;
        without it only cross-incarnation (boot) death is detected.
        """
        rows = self.db.execute(
            "SELECT holder, boot, heartbeat, ttl FROM lease_table "
            "WHERE file_name = ?",
            (file_name,),
            proc=proc,
        )
        if rows:
            dead_holder, boot, hb, row_ttl = rows[0]
            if not self._lease_expired(boot, hb, row_ttl, now):
                return False
            self.recover_file(file_name, proc)
            stolen = self.db.execute_many(
                "DELETE FROM lease_table "
                "WHERE file_name = ? AND holder = ?",
                [(file_name, dead_holder)],
                proc=proc,
            )
            if stolen != 1:
                # A concurrent acquirer recovered and stole it first.
                return False
            self.n_leases_stolen += 1
        t = 0.0 if now is None else float(now)
        self.db.execute(
            "INSERT INTO lease_table VALUES (?, ?, ?, ?, ?, ?)",
            (file_name, holder, self.db.boot_id, t, t, DEFAULT_LEASE_TTL),
            proc=proc,
        )
        rows = self.db.execute(
            "SELECT holder FROM lease_table WHERE file_name = ?",
            (file_name,),
            proc=proc,
        )
        if len(rows) > 1:
            self.release_lease(file_name, holder, proc)
            return False
        return True

    def release_lease(
        self, file_name: str, holder: str, proc: Optional[Process] = None
    ) -> None:
        """Drop one holder's lease on a file.

        Count-checked: releasing a lease this holder no longer owns
        (double release, or the lease was recovered and stolen while the
        holder was presumed dead) raises :class:`SDMStateError` instead
        of silently deleting nothing — the holder must not believe it
        still ended the critical section cleanly.
        """
        touched = self.db.execute_many(
            "DELETE FROM lease_table WHERE file_name = ? AND holder = ?",
            [(file_name, holder)],
            proc=proc,
        )
        self._expect_rows(
            touched, 1, f"release_lease by {holder!r} on {file_name!r}",
            "the lease was never held, already released, or stolen by "
            "recovery",
        )

    def heartbeat_lease(
        self,
        file_name: str,
        holder: str,
        now: float,
        proc: Optional[Process] = None,
    ) -> None:
        """Refresh a held lease's liveness stamp (one local UPDATE — no
        network traffic; flips call it before each publish step).

        Count-checked as a *fence*: a zero-row update means the lease
        expired and was stolen, so the presumed-dead holder stops before
        publishing over the thief's flip."""
        touched = self.db.execute_many(
            "UPDATE lease_table SET heartbeat = ? "
            "WHERE file_name = ? AND holder = ?",
            [(now, file_name, holder)],
            proc=proc,
        )
        self._expect_rows(
            touched, 1, f"heartbeat_lease by {holder!r} on {file_name!r}",
            "the lease expired and was stolen",
        )

    def lease_count(self, proc: Optional[Process] = None) -> int:
        """Outstanding leases (leak-audit helper)."""
        rows = self.db.execute(
            "SELECT COUNT(*) FROM lease_table", proc=proc
        )
        return rows[0][0]

    def all_leases(
        self, proc: Optional[Process] = None
    ) -> List[Tuple[str, str, int]]:
        """Every outstanding lease: ``(file_name, holder, boot)`` —
        shutdown leak audits and attach-time recovery sweeps."""
        return self.db.execute(
            "SELECT file_name, holder, boot FROM lease_table", proc=proc
        )

    def create_pin(
        self,
        client: str,
        epoch: int,
        proc: Optional[Process] = None,
        now: float = 0.0,
    ) -> int:
        """Pin a snapshot: row versions live at ``epoch`` stay readable
        (and unreaped) until :meth:`release_pin`.  Returns the pin id.
        ``now`` seeds the last-touched stamp the abandoned-pin reaper
        ages against.

        A pin id is never reissued within a job.  The abandoned-pin
        reaper may delete the highest pin while its holder still runs;
        ``MAX(pin_id)+1`` alone would hand that id to the next pin, and
        the stale holder's touch, advance and release — which match on
        ``pin_id`` — would land on it.  An accessor over a restored
        snapshot starts from ``MAX+1`` again: no holder outlives its
        job."""
        pin_id = max(self._next_id("pin_table", "pin_id", proc),
                     self._next_pin_id)
        self._next_pin_id = pin_id + 1
        self.db.execute(
            "INSERT INTO pin_table VALUES (?, ?, ?, ?, ?)",
            (pin_id, client, epoch, self.db.boot_id, now),
            proc=proc,
        )
        return pin_id

    def release_pin(
        self, pin_id: int, proc: Optional[Process] = None
    ) -> None:
        """Release a snapshot pin (the caller should then reap).

        Count-checked: a double release, or releasing a pin the
        abandoned-pin reaper already expired, raises
        :class:`SDMStateError` instead of silently deleting nothing."""
        touched = self.db.execute_many(
            "DELETE FROM pin_table WHERE pin_id = ?",
            [(pin_id,)],
            proc=proc,
        )
        self._expect_rows(
            touched, 1, f"release_pin of pin {pin_id}",
            "the pin was never created, already released, or expired by "
            "the abandoned-pin reaper",
        )

    def touch_pin(
        self, pin_id: int, now: float, proc: Optional[Process] = None
    ) -> None:
        """Refresh a pin's last-touched stamp (readers call this,
        throttled, on the read path so live pins never age out).
        Count-checked as a fence against reading through an
        already-reaped pin."""
        touched = self.db.execute_many(
            "UPDATE pin_table SET touched = ? WHERE pin_id = ?",
            [(now, pin_id)],
            proc=proc,
        )
        self._expect_rows(
            touched, 1, f"touch_pin of pin {pin_id}",
            "the pin expired and was reaped",
        )

    def expired_pins(
        self, now: float, proc: Optional[Process] = None
    ) -> List[Tuple[int, str, int]]:
        """Pins presumed abandoned: ``(pin_id, client, epoch)`` for every
        pin from a prior database incarnation, or untouched for a full
        :data:`DEFAULT_PIN_TTL` at ``now`` — the leak reaper's work list."""
        rows = self.db.execute(
            "SELECT pin_id, client, epoch, boot, touched FROM pin_table",
            proc=proc,
        )
        return [
            (pid, client, epoch)
            for pid, client, epoch, boot, touched in rows
            if boot < self.db.boot_id or touched + DEFAULT_PIN_TTL <= now
        ]

    def all_pins(
        self, proc: Optional[Process] = None
    ) -> List[Tuple[int, str, int]]:
        """Every outstanding pin: ``(pin_id, client, epoch)`` — shutdown
        leak audits and attach-time recovery sweeps."""
        return self.db.execute(
            "SELECT pin_id, client, epoch FROM pin_table", proc=proc
        )

    def advance_pin(
        self, pin_id: int, epoch: int, proc: Optional[Process] = None
    ) -> None:
        """Move a pin forward (a publisher reads its own writes);
        count-checked like :meth:`touch_pin`."""
        touched = self.db.execute_many(
            "UPDATE pin_table SET epoch = ? WHERE pin_id = ?",
            [(epoch, pin_id)],
            proc=proc,
        )
        self._expect_rows(
            touched, 1, f"advance_pin of pin {pin_id}",
            "the pin expired and was reaped",
        )

    def pin_count(self, proc: Optional[Process] = None) -> int:
        """Outstanding pins (quiesced-compaction precondition)."""
        rows = self.db.execute(
            "SELECT COUNT(*) FROM pin_table", proc=proc
        )
        return rows[0][0]

    def reap_file(
        self,
        file_name: str,
        proc: Optional[Process] = None,
        record_extents: bool = True,
    ) -> bool:
        """Garbage-collect superseded row versions of one file whose
        epochs no pin can still see, then account the freed bytes.

        For each reaped version below the surviving end-of-data the dead
        region becomes a free extent (compaction's work list); regions at
        or beyond it simply retreat the append cursor, and any extents
        stranded past the new cursor are forgotten — exactly the
        unversioned reorganize bookkeeping, which this reproduces
        verbatim when nothing is pinned.  Returns True when no dead
        versions remain (full reap).

        A dead version is reapable iff **no pinned epoch falls inside its
        validity interval** ``[valid_from, valid_to)`` — per-row
        precision, strictly finer than the old global min-pin floor: one
        long-lived pin at epoch P only protects versions actually visible
        at P, instead of freezing every file's reap at P.  Either way the
        file's reap watermark advances to the oldest surviving dead
        version (or the current epoch on a full reap) and epoch history
        below the watermark is pruned — the epoch log now truncates even
        while old pins persist."""
        pinned = [e for (e,) in self.db.execute(
            "SELECT epoch FROM pin_table", proc=proc
        )]
        dead = self.executions_in_file(file_name, proc, dead=True)
        reapable = [
            row for row in dead
            if not any(row[5] <= p < row[6] for p in pinned)
        ]
        if reapable:
            for r, d, t, _off, _n, _vf, vt in reapable:
                # The execution version by its file, then the chunk-map
                # version the same flip closed (chunk rows carry no file).
                self._drop_versions(
                    "execution_table",
                    f"{_INSTANCE} AND file_name = ? AND valid_to = ?",
                    (r, d, t, file_name, vt), proc,
                )
                self._drop_versions(
                    "chunk_table", f"{_INSTANCE} AND valid_to = ?",
                    (r, d, t, vt), proc,
                )
            new_end = self.max_offset_in_file(file_name, proc)
            if record_extents:
                for _r, _d, _t, off, nbytes, _vf, _vt in reapable:
                    if off < new_end:
                        self.record_extent(file_name, off, nbytes, proc)
            self.truncate_extents(file_name, new_end, proc)
        fully_reaped = len(reapable) == len(dead)
        if fully_reaped:
            watermark = self.file_epoch(file_name, proc)
        else:
            watermark = min(
                row[5] for row in dead if row not in reapable
            )
        self.set_reap_watermark(file_name, watermark, proc)
        self.prune_epochs(file_name, watermark, proc)
        return fully_reaped

    def reap_watermark(
        self, file_name: str, proc: Optional[Process] = None
    ) -> int:
        """A file's reap watermark: every row version of epochs below it
        has been reaped (0 before the first reap)."""
        rows = self.db.execute(
            "SELECT epoch FROM watermark_table WHERE file_name = ?",
            (file_name,),
            proc=proc,
        )
        return 0 if not rows else rows[0][0]

    def set_reap_watermark(
        self, file_name: str, epoch: int, proc: Optional[Process] = None
    ) -> None:
        """Advance a file's reap watermark (monotone upsert: a stale
        concurrent reaper can never move it backwards)."""
        if epoch <= self.reap_watermark(file_name, proc):
            return
        self.db.execute(
            "DELETE FROM watermark_table WHERE file_name = ?",
            (file_name,),
            proc=proc,
        )
        self.db.execute(
            "INSERT INTO watermark_table VALUES (?, ?)",
            (file_name, epoch),
            proc=proc,
        )

    # -- maintenance_table ---------------------------------------------------

    def next_maintenance_jobid(self, proc: Optional[Process] = None) -> int:
        """Allocate the next maintenance job id (MAX+1, starting at 1)."""
        return self._next_id("maintenance_table", "jobid", proc)

    def record_maintenance(
        self, rec: MaintenanceRecord, proc: Optional[Process] = None
    ) -> None:
        """Queue one background-maintenance job (the row *is* the pending
        work; it is deleted when the job completes)."""
        self.db.execute(
            "INSERT INTO maintenance_table "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                rec.jobid, rec.kind, rec.application, rec.organization,
                rec.group_id, rec.runid, rec.dataset, rec.timestep,
                rec.file_name, rec.data_type, rec.global_size,
            ),
            proc=proc,
        )

    def pending_maintenance(
        self, proc: Optional[Process] = None
    ) -> List[MaintenanceRecord]:
        """Every queued job, oldest first (sorted jobid-index walk) —
        what a restored database hands the next job's maintenance
        service."""
        rows = self.db.execute(
            "SELECT jobid, kind, application, organization, group_id, "
            "runid, dataset, timestep, file_name, data_type, global_size "
            "FROM maintenance_table ORDER BY jobid",
            proc=proc,
        )
        return [MaintenanceRecord(*row) for row in rows]

    def delete_maintenance(
        self, jobid: int, proc: Optional[Process] = None
    ) -> None:
        """Mark a maintenance job done by removing its queue row."""
        self.db.execute(
            "DELETE FROM maintenance_table WHERE jobid = ?",
            (jobid,),
            proc=proc,
        )

    # -- import_table --------------------------------------------------------

    def register_import(
        self,
        runid: int,
        imported_name: str,
        file_name: str,
        data_type: str,
        storage_order: str,
        partition: str,
        file_content: str,
        file_offset: int,
        num_elements: int,
        proc: Optional[Process] = None,
    ) -> None:
        """Record one imported array's description."""
        self.db.execute(
            "INSERT INTO import_table VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                runid, imported_name, file_name, data_type, storage_order,
                partition, file_content, file_offset, num_elements,
            ),
            proc=proc,
        )

    # -- index_table / index_history_table ------------------------------------

    def find_history(
        self,
        problem_size: int,
        num_procs: int,
        proc: Optional[Process] = None,
    ) -> Optional[HistoryRecord]:
        """History file registered for this (problem size, process count)."""
        rows = self.db.execute(
            "SELECT problem_size, num_procs, dimension, registered_file_name "
            "FROM index_table WHERE problem_size = ? AND num_procs = ?",
            (problem_size, num_procs),
            proc=proc,
        )
        return HistoryRecord(*rows[0]) if rows else None

    def register_history(
        self,
        record: HistoryRecord,
        ranks: Sequence[HistoryRankRecord],
        proc: Optional[Process] = None,
    ) -> None:
        """Register a history file and its per-rank slices."""
        self.db.execute(
            "INSERT INTO index_table VALUES (?, ?, ?, ?)",
            (record.problem_size, record.num_procs, record.dimension, record.file_name),
            proc=proc,
        )
        self.db.execute_many(
            "INSERT INTO index_history_table VALUES (?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    record.problem_size, record.num_procs, r.rank,
                    r.edge_count, r.node_count, r.edge_offset, r.node_offset,
                )
                for r in ranks
            ],
            proc=proc,
        )

    def history_rank(
        self,
        problem_size: int,
        num_procs: int,
        rank: int,
        proc: Optional[Process] = None,
    ) -> Optional[HistoryRankRecord]:
        """One rank's slice metadata of a registered history."""
        rows = self.db.execute(
            "SELECT rank, edge_count, node_count, edge_offset, node_offset "
            "FROM index_history_table "
            "WHERE problem_size = ? AND num_procs = ? AND rank = ?",
            (problem_size, num_procs, rank),
            proc=proc,
        )
        return HistoryRankRecord(*rows[0]) if rows else None
