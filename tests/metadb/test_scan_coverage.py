"""Which statements may walk a whole table.

Every filtered statement :class:`~repro.metadb.schema.SDMTables` issues
takes an index path in SQLite's plan (:meth:`Database.explain`) except
the ones in :data:`FULL_SCANS`: a recovery sweep, the reaper's candidate
list and a rollback keyed on the epoch alone — shapes no hot path issues
and no ``SDM_INDEXES`` declaration leads with.  The test drives every
public accessor, records each statement whose plan walks a table, and
requires the recorded set to be exactly that list, so a declaration
that stops covering a statement fails here instead of scanning
silently.
"""

from repro.metadb import Database, SDMTables
from repro.metadb.schema import (
    DEFAULT_LEASE_TTL,
    ChunkRecord,
    HistoryRankRecord,
    HistoryRecord,
    MaintenanceRecord,
)

FULL_SCANS = {
    # files_with_flip_intents: the attach-time recovery sweep.
    "SELECT file_name FROM epoch_table WHERE state = ?",
    # files_with_dead_rows: reap candidates across every file.
    "SELECT file_name FROM execution_table WHERE valid_to < ?",
    # rollback_flip: successors and predecessors by epoch, in any file.
    "DELETE FROM execution_table WHERE valid_from = ?",
    "DELETE FROM chunk_table WHERE valid_from = ?",
    "UPDATE execution_table SET valid_to = ? WHERE valid_to = ?",
    "UPDATE chunk_table SET valid_to = ? WHERE valid_to = ?",
}


def _walks_a_table(plan):
    """Whether SQLite's plan reads every row of a table: a ``SCAN`` step
    that is not an index walk (``SEARCH`` probes an index)."""
    return any(step.startswith("SCAN ") and " INDEX " not in step
               for step in plan)


def _spy(monkeypatch):
    """The SQL text of every filtered statement that full-scans (its
    :meth:`Database.explain` plan walks a table), and the name of every
    public :class:`SDMTables` method called.  An unfiltered statement
    reads every row by definition and is not counted."""
    scanned, called = set(), set()
    execute, execute_many = Database.execute, Database.execute_many

    def check(db, sql, params):
        if " WHERE " in sql and _walks_a_table(db.explain(sql, params)):
            scanned.add(sql)

    def executing(self, sql, params=(), proc=None):
        check(self, sql, params)
        return execute(self, sql, params, proc)

    def executing_many(self, sql, param_rows, proc=None):
        for params in param_rows[:1]:
            check(self, sql, params)
        return execute_many(self, sql, param_rows, proc)

    def recorded(name, method):
        def call(self, *args, **kwargs):
            called.add(name)
            return method(self, *args, **kwargs)
        return call

    monkeypatch.setattr(Database, "execute", executing)
    monkeypatch.setattr(Database, "execute_many", executing_many)
    for name, method in list(vars(SDMTables).items()):
        if not name.startswith("_") and callable(method):
            monkeypatch.setattr(SDMTables, name, recorded(name, method))
    return scanned, called


def _drive(t):
    """One run's metadata life: registration, chunked appends, a pinned
    reader, a committed reorganize, reaps, extent reuse, a compaction
    rolled forward, a withdrawn flip, a stolen lease, the job queue."""
    t.create_all()
    run = t.next_runid()
    t.insert_run(run, "app", 3, 100, 4)
    t.register_dataset(run, "p", "DOUBLE", "chunked", 32)
    assert t.dataset_type_name(run, "p") == "DOUBLE"
    assert t.all_runs() == [(run, "app", 3, 100, 4)]
    assert t.datasets_for(run) == [("p", "IRREGULAR", "DOUBLE", "chunked", 32)]
    assert t.dataset_row(run, "p") == ("IRREGULAR", "DOUBLE", "chunked", 32)
    t.register_import(run, "x", "x.dat", "DOUBLE", "canonical", "block",
                      "DATA", 0, 32)
    t.register_history(HistoryRecord(100, 2, 3, "h.dat"),
                       [HistoryRankRecord(r, 1, 1, r, r) for r in range(2)])
    assert t.find_history(100, 2).file_name == "h.dat"
    assert t.history_rank(100, 2, 1).rank == 1

    f = "grp.chunked"
    for step in range(4):
        t.record_execution(run, "p", step, f, step * 100, 100)
        t.record_chunks(run, "p", step, [
            ChunkRecord(k, 16 * k, 16 * k + 15, 16, step * 100 + 50 * k,
                        step * 100 + 50 * k)
            for k in range(2)
        ])
    assert t.lookup_execution_version(run, "p", 1)[:3] == (f, 100, 100)
    assert t.max_offset_in_file(f) == 400
    assert t.timesteps_for(run, "p") == [0, 1, 2, 3]

    before = t.current_epoch()
    pin = t.create_pin("reader", before, now=0.0)
    t.touch_pin(pin, 1.0)
    assert t.try_acquire_lease(f, "w", now=0.0)
    assert t.lease_holder(f) == "w"
    t.heartbeat_lease(f, "w", 1.0)
    epoch = t.begin_flip(f)
    t.update_execution(run, "p", 1, f, "grp.canonical", 0, 100, epoch)
    t.close_chunks(run, "p", 1, epoch)
    t.commit_flip(f, epoch)
    assert t.file_epoch(f) == epoch
    assert t.lookup_execution_version(run, "p", 1, epoch=before)[0] == f
    assert t.timesteps_for(run, "p", epoch=before) == [0, 1, 2, 3]
    assert len(t.chunks_for(run, "p", 1, at=before)) == 2
    assert t.files_with_dead_rows() == [f]
    assert not t.reap_file(f)  # the pin still sees the old version
    assert t.expired_pins(now=1.0) == []
    assert t.all_pins() == [(pin, "reader", before)]
    assert t.pin_count() == 1
    t.advance_pin(pin, epoch)
    t.release_pin(pin)
    assert t.reap_file(f) and t.reap_watermark(f) == epoch
    assert t.extents_for(f) == [(100, 100)]
    assert t.free_bytes_in(f) == 100
    assert t.allocate_extent(f, 60) == 100
    t.truncate_extents(f, 150)
    t.record_extent(f, 100, 60)
    t.clear_extents(f)

    epoch = t.begin_flip(f)
    t.update_execution_offsets([(100, 100, run, "p", 2, 0)], f, epoch)
    t.commit_flip(f, epoch)
    assert t.recover_file(f) == "rolled_forward"

    epoch = t.begin_flip(f)
    t.update_execution(run, "p", 3, f, "grp.canonical", 100, 100, epoch)
    assert t.flip_intent(f) == epoch
    assert t.files_with_flip_intents() == [f]
    t.rollback_flip(f, epoch)
    t.release_lease(f, "w")

    assert t.try_acquire_lease(f, "dead", now=0.0)
    t.begin_flip(f)
    assert t.try_acquire_lease(f, "thief", now=DEFAULT_LEASE_TTL)
    assert t.recover_file(f) is None
    assert t.all_leases() == [(f, "thief", 0)] and t.lease_count() == 1
    t.release_lease(f, "thief")
    assert t.recovery_stats()["leases_stolen"] == 1

    job = t.next_maintenance_jobid()
    t.record_maintenance(MaintenanceRecord(
        job, "compact", "app", 3, 0, run, "p", 0, f, "DOUBLE", 32))
    assert [rec.jobid for rec in t.pending_maintenance()] == [job]
    t.delete_maintenance(job)


def test_only_the_listed_statements_full_scan(monkeypatch):
    scanned, called = _spy(monkeypatch)
    tables = SDMTables(Database())
    _drive(tables)
    assert called == {
        name for name, method in vars(SDMTables).items()
        if not name.startswith("_") and callable(method)
    }
    assert scanned == FULL_SCANS
