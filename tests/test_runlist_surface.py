"""The run-list surface, pinned to literal lists.

ISSUE 15 collapsed five merges and five byte-index expansions into the
two kernels of ``repro.pfs.runlist``; ISSUE 20 put the move pair on top
of the expansion (every ``buf[expand_runs(...)]`` site became one call).
``repro.mpiio.runs.__all__`` is the list the e2e tracer wraps, so a
uniform-width twin or a second merge coming back shows up here as a
reviewed edit, not as a quiet new name.
"""

from repro.mpiio import runs
from repro.pfs import runlist


def test_runlist_kernels():
    assert runlist.__all__ == [
        "coalesce_runs", "expand_runs", "gather_runs", "scatter_runs",
    ]


def test_mpiio_runs_names():
    assert runs.__all__ == [
        "ADAPTIVE_GAP", "COALESCE_WASTE", "adaptive_gap", "coalesce_runs",
        "expand_runs", "extract_runs", "gather_runs", "resolve_gap",
        "scatter_runs",
    ]
    # Listed again, not wrapped: the same four functions.
    for name in runlist.__all__:
        assert getattr(runs, name) is getattr(runlist, name)
