"""The option surface, pinned to literal lists.

Every independently settable value doubles the configurations tests and
benches must cover, so a new one should be a reviewed edit of this file
(with the two non-test callers that need different values named in the
PR) rather than a drive-by default argument.  ISSUE 14 sized the surface
to its callers; docs/tuning.md lists what became constants and why.
"""

import inspect

from repro.core import SDM, policy, sdm_services
from repro.core.catalog import SDMCatalog
from repro.core.datapath import DatapathHost, IndexBlockCache
from repro.core.maintenance import MaintenanceService
from repro.metadb.schema import SDMTables
from repro.mpiio.hints import accepted_hints


def params(fn):
    return [p for p in inspect.signature(fn).parameters if p != "self"]


def test_policy_config_fields():
    """The policy tier's whole configuration is one two-valued switch
    (``SDM(policy=None)`` means static): with the five hints below, six
    settable values."""
    assert (policy.STATIC, policy.ADAPTIVE) == ("static", "adaptive")
    assert policy.__all__ == [
        "STATIC", "ADAPTIVE", "ADAPTIVE_GAP", "MaintenancePolicy",
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
    assert params(DatapathHost.__init__) == [
        "comm", "application", "organization", "lease_holder",
        "maintenance", "hints",
    ]
    assert params(sdm_services) == ["seed_from"]


def test_tuning_values_are_constants_not_parameters():
    assert params(policy.MaintenancePolicy.__init__) == []
    assert params(IndexBlockCache.__init__) == []
    assert params(MaintenanceService.__init__) == [
        "sim", "machine", "fs", "db",
    ]
    assert params(SDMTables.try_acquire_lease) == [
        "file_name", "holder", "proc", "now",
    ]
    assert params(SDMTables.expired_pins) == ["now", "proc"]
