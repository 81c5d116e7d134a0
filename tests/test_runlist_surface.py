"""The run-list surface, pinned to literal lists.

ISSUE 15 collapsed five merges and five byte-index expansions into the
two kernels of ``repro.pfs.runlist``.  ``repro.mpiio.runs.__all__`` is
the list the e2e tracer wraps, so a uniform-width twin or a second merge
coming back shows up here as a reviewed edit, not as a quiet new name.
"""

from repro.mpiio import runs
from repro.pfs import runlist


def test_runlist_kernels():
    assert runlist.__all__ == ["coalesce_runs", "expand_runs"]


def test_mpiio_runs_names():
    assert runs.__all__ == [
        "ADAPTIVE_GAP", "COALESCE_WASTE", "adaptive_gap", "coalesce_runs",
        "expand_runs", "extract_runs", "resolve_gap",
    ]
    # Listed again, not wrapped: the same two functions.
    assert runs.coalesce_runs is runlist.coalesce_runs
    assert runs.expand_runs is runlist.expand_runs
