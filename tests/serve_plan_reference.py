"""The per-request loop ``FileSystem.serve_plan`` replaced, kept as its
oracle: the union runs planned afresh by ``controller_batches`` on every
call (no schedule kept), each batch of the plan one request — a walk of
one visit — whose bytes move between its own runs of the file and of
scratch as it ends.

Same signature as the method, so a test can swap it in
(``monkeypatch.setattr(FileSystem, "serve_plan", reference_serve_plan)``)
or call it beside it.  Used by ``tests/mpiio/test_twophase_walk.py`` and
``tests/simt/test_kernel_contract.py`` (``tests/`` is on ``sys.path``
through its ``conftest.py``).
"""

import numpy as np

from repro.pfs.runlist import gather_runs, scatter_runs
from repro.pfs.scheduler import controller_batches


def reference_serve_plan(self, proc, handle, offsets, lengths, max_bytes,
                         start, scratch=None):
    """``FileSystem.serve_plan``, one request per batch."""
    ctls, off, ln, bounds = controller_batches(
        handle.file.layout, offsets, lengths, max_bytes, start)
    write = scratch is not None
    start = np.cumsum(lengths) - lengths  # scratch start of each union run
    k = np.searchsorted(offsets, off, side="right") - 1
    at = start[k] + (off - offsets[k])
    out = None if write else np.empty(int(lengths.sum()), dtype=np.uint8)
    storage = self.machine.storage
    store = handle.file.store
    for ctl, a, b in zip(ctls.tolist(), bounds[:-1].tolist(),
                         bounds[1:].tolist()):
        b_off, b_len, b_at = off[a:b], ln[a:b], at[a:b]
        nbytes = int(b_len.sum())
        self._walk(proc, [(self.controllers[ctl], storage.stream_time(
            nbytes, write=write, runs=b - a))])
        if write:
            store.writev(b_off, b_len, gather_runs(scratch, b_at, b_len))
            handle.file.mtime = self.sim.now
            self.bytes_written += nbytes
        else:
            scatter_runs(out, b_at, b_len, store.readv(b_off, b_len))
            self.bytes_read += nbytes
            self.data_bytes_read += nbytes
        self.n_requests += 1
        self.runs_serviced += b - a
    return out
