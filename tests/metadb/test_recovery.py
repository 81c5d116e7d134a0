"""Recovery protocol over the metadata tables, host-side.

Exercises the crash-tolerance primitives without a simulator: flip
intent records and their exactly-one-way resolution, lease TTL and
boot-generation expiry with count-checked fencing, pin ageing, and the
per-row reap with its epoch-log pruning.  Boot-generation death is
modelled the way it happens for real — ``Database.loads(db.dump())``
starts the next incarnation, so every lease and pin stamped by the
previous one reads as dead."""

import json

import pytest

from repro.errors import SDMStateError
from repro.metadb import Database, SDMTables
from repro.metadb.schema import (
    DEFAULT_LEASE_TTL,
    DEFAULT_PIN_TTL,
    EPOCH_INTENT,
    EPOCH_PUBLISHED,
    OPEN_EPOCH,
)


@pytest.fixture()
def tables():
    db = Database()
    t = SDMTables(db)
    t.create_all()
    return t


def seeded(tables):
    """One written instance in grp.L3 (the flip protocols' minimal prey)."""
    tables.record_execution(1, "p", 0, "grp.L3", 0, 100)
    return tables


def reincarnate(tables):
    """Dump/restore: the next database incarnation, as between jobs."""
    t2 = SDMTables(Database.loads(tables.db.dump()))
    assert t2.db.boot_id == tables.db.boot_id + 1
    return t2


# ---------------------------------------------------------------------------
# Flip intents: begin / commit / rollback / recover
# ---------------------------------------------------------------------------


def test_begin_flip_journals_intent_and_commit_publishes(tables):
    e = tables.begin_flip("grp.L3")
    assert e == 1
    assert tables.flip_intent("grp.L3") == e
    assert tables.files_with_flip_intents() == ["grp.L3"]
    tables.commit_flip("grp.L3", e)
    assert tables.flip_intent("grp.L3") is None
    assert tables.files_with_flip_intents() == []
    assert tables.current_epoch() == e


def test_commit_of_rolled_back_flip_is_fenced(tables):
    e = tables.begin_flip("grp.L3")
    tables.rollback_flip("grp.L3", e)
    with pytest.raises(SDMStateError):
        tables.commit_flip("grp.L3", e)


def test_rollback_restores_metadata_byte_identical(tables):
    seeded(tables)
    before = tables.db.execute(
        "SELECT * FROM execution_table ORDER BY file_offset"
    )
    e = tables.begin_flip("grp.L3")
    # The flip repoints the instance into a successor file, closing the
    # predecessor at e — exactly reorganize's publish step.
    tables.update_execution(1, "p", 0, "grp.L3", "grp.L4", 0, 100, e)
    assert tables.lookup_execution_version(1, "p", 0)[0] == "grp.L4"
    tables.rollback_flip("grp.L3", e)
    after = tables.db.execute(
        "SELECT * FROM execution_table ORDER BY file_offset"
    )
    assert after == before
    assert tables.lookup_execution_version(1, "p", 0)[0] == "grp.L3"
    assert tables.flip_intent("grp.L3") is None


def test_recover_file_rolls_back_surviving_intent(tables):
    seeded(tables)
    e = tables.begin_flip("grp.L3")
    tables.update_execution(1, "p", 0, "grp.L3", "grp.L4", 0, 100, e)
    assert tables.recover_file("grp.L3") == "rolled_back"
    assert tables.n_flips_rolled_back == 1
    assert tables.lookup_execution_version(1, "p", 0)[0] == "grp.L3"
    # Idempotent: nothing left to resolve.
    assert tables.recover_file("grp.L3") is None


def test_recover_file_rolls_committed_flip_forward(tables):
    seeded(tables)
    e = tables.begin_flip("grp.L3")
    tables.update_execution(1, "p", 0, "grp.L3", "grp.L4", 0, 100, e)
    tables.commit_flip("grp.L3", e)
    # Crash after the commit point, before the reap: the dead
    # predecessor version is still on disk.
    assert tables.executions_in_file("grp.L3", dead=True)
    assert tables.recover_file("grp.L3") == "rolled_forward"
    assert tables.n_flips_rolled_forward == 1
    assert tables.executions_in_file("grp.L3", dead=True) == []
    assert tables.lookup_execution_version(1, "p", 0)[0] == "grp.L4"
    # record_extents=False: recovery never records free extents (the
    # dead offsets may overlap a quiesced compaction's live layout).
    assert tables.db.execute("SELECT * FROM extent_table") == []


def test_begin_flip_epochs_globally_unique_across_files(tables):
    ea = tables.begin_flip("a.L3")
    eb = tables.begin_flip("b.L3")
    assert ea != eb
    # Rollback keyed on epoch alone must therefore only touch its own
    # flip's rows.
    tables.record_execution(1, "p", 0, "a.L3", 0, 10, valid_from=ea)
    tables.record_execution(1, "q", 0, "b.L3", 0, 10, valid_from=eb)
    tables.rollback_flip("a.L3", ea)
    assert tables.lookup_execution_version(1, "p", 0) is None
    assert tables.lookup_execution_version(1, "q", 0) is not None


# ---------------------------------------------------------------------------
# Leases: TTL, heartbeat, boot expiry, fencing
# ---------------------------------------------------------------------------


def test_live_lease_conflicts_and_released_lease_frees(tables):
    assert tables.try_acquire_lease("f", "a", now=0.0)
    assert not tables.try_acquire_lease("f", "b", now=1.0)
    tables.release_lease("f", "a")
    assert tables.try_acquire_lease("f", "b", now=2.0)


def test_release_lease_count_checked(tables):
    assert tables.try_acquire_lease("f", "a", now=0.0)
    tables.release_lease("f", "a")
    with pytest.raises(SDMStateError):
        tables.release_lease("f", "a")


def test_ttl_expiry_allows_steal_and_fences_old_holder(tables):
    assert tables.try_acquire_lease("f", "a", now=0.0)
    # Within the TTL the lease holds.
    assert not tables.try_acquire_lease("f", "b", now=59.0)
    # A full TTL after the last heartbeat it is stealable.
    assert tables.try_acquire_lease("f", "b", now=60.0)
    assert tables.n_leases_stolen == 1
    assert tables.lease_holder("f") == "b"
    # The presumed-dead holder is fenced: both its liveness refresh and
    # its release hit zero rows.
    with pytest.raises(SDMStateError):
        tables.heartbeat_lease("f", "a", 61.0)
    with pytest.raises(SDMStateError):
        tables.release_lease("f", "a")


def test_heartbeat_extends_lease(tables):
    assert tables.try_acquire_lease("f", "a", now=0.0)
    tables.heartbeat_lease("f", "a", 50.0)
    assert not tables.try_acquire_lease("f", "b", now=100.0)
    assert tables.try_acquire_lease("f", "b", now=110.0)


def test_lease_expiry_is_default_lease_ttl_after_the_last_heartbeat(tables):
    # The row stores only the stamp; every lease ages by the constant.
    assert tables.try_acquire_lease("f", "a", now=100.0)
    tables.heartbeat_lease("f", "a", 130.0)
    assert not tables.try_acquire_lease(
        "f", "b", now=130.0 + DEFAULT_LEASE_TTL - 1.0)
    assert tables.try_acquire_lease("f", "b", now=130.0 + DEFAULT_LEASE_TTL)
    assert tables.lease_holder("f") == "b"


def test_without_a_clock_a_same_incarnation_lease_holds(tables):
    assert tables.try_acquire_lease("f", "a", now=0.0)
    # No ``now``: however stale the stamp, only boot death is detected.
    assert not tables.try_acquire_lease("f", "b")
    assert tables.n_leases_stolen == 0
    assert tables.lease_holder("f") == "a"


def test_boot_expiry_steals_without_clock(tables):
    seeded(tables)
    assert tables.try_acquire_lease("grp.L3", "a", now=0.0)
    t2 = reincarnate(tables)
    # No ``now`` passed: same-incarnation TTL expiry is off, but the
    # previous incarnation's holder is deterministically dead.
    assert t2.try_acquire_lease("grp.L3", "b")
    assert t2.n_leases_stolen == 1


def test_steal_mid_flip_rolls_back_and_fences_commit(tables):
    seeded(tables)
    assert tables.try_acquire_lease("grp.L3", "a", now=0.0)
    e = tables.begin_flip("grp.L3")
    tables.update_execution(1, "p", 0, "grp.L3", "grp.L4", 0, 100, e)
    # Holder goes silent; a thief acquires a full TTL later.  The steal
    # resolves the orphaned flip (rollback — never committed) first.
    assert tables.try_acquire_lease("grp.L3", "b", now=61.0)
    assert tables.n_flips_rolled_back == 1
    assert tables.lookup_execution_version(1, "p", 0)[0] == "grp.L3"
    # The original holder waking up cannot publish over the thief.
    with pytest.raises(SDMStateError):
        tables.commit_flip("grp.L3", e)


# ---------------------------------------------------------------------------
# Pins: ageing, fencing
# ---------------------------------------------------------------------------


def test_release_pin_count_checked(tables):
    pin = tables.create_pin("c", 0, now=0.0)
    tables.release_pin(pin)
    with pytest.raises(SDMStateError):
        tables.release_pin(pin)


def test_pins_expire_by_timeout_and_touch_refreshes(tables):
    pin = tables.create_pin("c", 0, now=0.0)
    assert tables.expired_pins(now=DEFAULT_PIN_TTL - 1.0) == []
    assert tables.expired_pins(now=DEFAULT_PIN_TTL) == [(pin, "c", 0)]
    tables.touch_pin(pin, DEFAULT_PIN_TTL)
    assert tables.expired_pins(now=2 * DEFAULT_PIN_TTL - 1.0) == []


def test_pins_expire_across_incarnations(tables):
    tables.create_pin("c", 0, now=0.0)
    t2 = reincarnate(tables)
    # Dead at now=0: boot generation, not clock, condemns it.
    assert t2.expired_pins(now=0.0) == [(1, "c", 0)]


def test_touch_of_reaped_pin_is_fenced(tables):
    pin = tables.create_pin("c", 0, now=0.0)
    tables.release_pin(pin)
    with pytest.raises(SDMStateError):
        tables.touch_pin(pin, 1.0)


def test_dump_with_a_pin_epoch_index_still_serves_every_pin_statement(
        tables):
    """Dumps written while ``SDM_INDEXES`` still declared ``pin_table
    (epoch)`` carry that index; restored, it is rebuilt and every pin
    statement runs as before."""
    tables.db.create_index("pin_table", ("epoch",))
    old = tables.create_pin("c", 0, now=0.0)
    assert ["epoch"] in [ix["columns"] for ix in
                         json.loads(tables.db.dump())["tables"]["pin_table"]
                         ["indexes"]]
    t2 = reincarnate(tables)
    assert t2.expired_pins(now=0.0) == [(old, "c", 0)]
    pin = t2.create_pin("d", 0, now=1.0)
    t2.touch_pin(pin, 2.0)
    t2.advance_pin(pin, 1)
    assert t2.all_pins() == [(old, "c", 0), (pin, "d", 1)]
    assert t2.pin_count() == 2
    t2.release_pin(old)
    assert t2.reap_file("grp.L3")  # its SELECT epoch FROM pin_table
    t2.release_pin(pin)
    assert t2.pin_count() == 0


def test_a_deleted_pin_id_is_never_reissued(tables):
    """Deleting the highest pin (what the reaper does at the TTL) leaves
    its id retired: the next pin takes a fresh one, so the stale holder's
    touch, advance and release all refuse and the new pin survives."""
    pin = tables.create_pin("c", 0, now=0.0)
    tables.release_pin(pin)
    new = tables.create_pin("c", 0, now=DEFAULT_PIN_TTL)
    assert new != pin
    for stale in (lambda: tables.touch_pin(pin, DEFAULT_PIN_TTL + 1),
                  lambda: tables.advance_pin(pin, 1),
                  lambda: tables.release_pin(pin)):
        with pytest.raises(SDMStateError):
            stale()
    assert tables.all_pins() == [(new, "c", 0)]


# ---------------------------------------------------------------------------
# Per-row reap and epoch-log pruning
# ---------------------------------------------------------------------------


def flip_closing(tables, timestep, new_offset, dataset="p"):
    """Publish a flip repointing one timestep of grp.L3 to grp.L4."""
    e = tables.begin_flip("grp.L3")
    tables.update_execution(
        1, dataset, timestep, "grp.L3", "grp.L4", new_offset, 100, e
    )
    tables.commit_flip("grp.L3", e)
    return e


def flip_in_place(tables, timestep, new_offset, valid_from):
    """Publish a compaction moving the version of one grp.L3 timestep
    opened at ``valid_from`` to ``new_offset`` in the same file."""
    e = tables.begin_flip("grp.L3")
    tables.update_execution_offsets(
        [(new_offset, 100, 1, "p", timestep, valid_from)], "grp.L3", e
    )
    tables.commit_flip("grp.L3", e)
    return e


def epochs_for_file(tables, file_name):
    rows = tables.db.execute(
        "SELECT epoch FROM epoch_table WHERE file_name = ? ORDER BY epoch",
        (file_name,),
    )
    return [int(e) for (e,) in rows]


def test_pin_interval_reap_is_per_row(tables):
    tables.record_execution(1, "p", 0, "grp.L3", 0, 100)
    tables.record_execution(1, "p", 1, "grp.L3", 100, 100)
    e1 = flip_closing(tables, 0, 0)        # row 0 dead over [0, e1)
    pin = tables.create_pin("c", tables.current_epoch(), now=0.0)
    e2 = flip_closing(tables, 1, 100)      # row 1 dead over [0, e2)
    # The pin sits at e1, inside row 1's [0, e2) interval but outside
    # row 0's [0, e1) — row 0 reaps, row 1 survives.  The old global
    # min-pin floor would have kept both.
    assert not tables.reap_file("grp.L3")
    dead = tables.executions_in_file("grp.L3", dead=True)
    assert [(d[2], d[5], d[6]) for d in dead] == [(1, 0, e2)]
    # Epoch history below the surviving row's valid_from (0) is pruned:
    # none of it.
    assert epochs_for_file(tables, "grp.L3") == [e1, e2]
    tables.release_pin(pin)
    assert tables.reap_file("grp.L3")
    assert tables.executions_in_file("grp.L3", dead=True) == []
    assert epochs_for_file(tables, "grp.L3") == [e2]


def test_full_reap_prunes_epoch_history(tables):
    tables.record_execution(1, "p", 0, "grp.L3", 0, 100)
    e1 = flip_closing(tables, 0, 0)
    assert epochs_for_file(tables, "grp.L3") == [e1]
    assert tables.reap_file("grp.L3")
    # Epochs strictly below the file's current epoch are forgotten; the
    # current epoch itself survives as the file's published frontier.
    assert epochs_for_file(tables, "grp.L3") == [e1]
    tables.record_execution(1, "q", 0, "grp.L3", 0, 100)
    e2 = flip_closing(tables, 0, 100, dataset="q")
    assert tables.reap_file("grp.L3")
    assert epochs_for_file(tables, "grp.L3") == [e2]


def test_partial_reaps_under_one_pin_prune_below_the_oldest_survivor(
    tables,
):
    tables.record_execution(1, "p", 0, "grp.L3", 0, 100)
    tables.record_execution(1, "p", 1, "grp.L3", 100, 100)
    e1 = flip_in_place(tables, 1, 300, 0)   # ts 1 dead over [0, e1)
    e2 = flip_in_place(tables, 0, 400, 0)   # ts 0 dead over [0, e2)
    pin = tables.create_pin("c", e2, now=0.0)
    e3 = flip_in_place(tables, 0, 500, e2)  # ts 0 dead over [e2, e3)

    def survivors():
        dead = tables.executions_in_file("grp.L3", dead=True)
        return [(d[2], d[5], d[6]) for d in dead]

    # The pin at e2 keeps only [e2, e3); the log keeps epochs >= e2.
    assert not tables.reap_file("grp.L3")
    assert survivors() == [(0, e2, e3)]
    assert epochs_for_file(tables, "grp.L3") == [e2, e3]
    # A second reaper under the same pin, after one more flip whose dead
    # version the pin cannot see, reaps that version and recomputes the
    # same bound: nothing older comes back, nothing newer goes.
    e4 = flip_in_place(tables, 0, 600, e3)  # ts 0 dead over [e3, e4)
    assert not tables.reap_file("grp.L3")
    assert survivors() == [(0, e2, e3)]
    assert epochs_for_file(tables, "grp.L3") == [e2, e3, e4]
    tables.release_pin(pin)
    assert tables.reap_file("grp.L3")
    assert survivors() == []
    assert epochs_for_file(tables, "grp.L3") == [e4]
