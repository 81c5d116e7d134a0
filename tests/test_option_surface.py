"""The option surface, pinned to literal lists.

Every independently settable value doubles the configurations tests and
benches must cover, so a new one should be a reviewed edit of this file
(with the two non-test callers that need different values named in the
PR) rather than a drive-by default argument.  ISSUE 14 sized the surface
to its callers; docs/tuning.md lists what became constants and why.
"""

import dataclasses
import inspect

from repro.core import SDM, sdm_services
from repro.core.catalog import SDMCatalog
from repro.core.datapath import IndexBlockCache
from repro.core.maintenance import MaintenanceService
from repro.core.policy import (
    MaintenancePolicy,
    PlannerCalibration,
    PolicyConfig,
)
from repro.metadb.schema import SDMTables
from repro.mpiio.hints import accepted_hints


def params(fn):
    return [p for p in inspect.signature(fn).parameters if p != "self"]


def test_policy_config_fields():
    assert [f.name for f in dataclasses.fields(PolicyConfig)] == [
        "planner", "coalesce", "maintenance", "planner_snapshot",
    ]


def test_accepted_hints():
    assert accepted_hints() == (
        "cb_buffer_size", "cb_nodes", "ds_buffer_size", "ds_threshold_gap",
        "coalesce_gap",
    )


def test_entry_point_parameters():
    assert params(SDM.__init__) == [
        "ctx", "application", "organization", "dimension", "problem_size",
        "num_timesteps", "io_hints", "storage_order", "reorganize_mode",
        "snapshot", "policy",
    ]
    assert params(SDMCatalog.attach) == ["ctx", "io_hints", "snapshot"]
    assert params(sdm_services) == ["seed_from", "maintenance"]


def test_tuning_values_are_constants_not_parameters():
    assert params(MaintenancePolicy.__init__) == []
    assert params(PlannerCalibration.__init__) == ["frozen"]
    assert params(IndexBlockCache.__init__) == []
    assert params(MaintenanceService.__init__) == [
        "sim", "machine", "fs", "db",
    ]
    assert params(SDMTables.try_acquire_lease) == [
        "file_name", "holder", "proc", "now",
    ]
    assert params(SDMTables.expired_pins) == ["now", "proc"]
