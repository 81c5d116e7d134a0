"""MPI-IO on the simulated parallel file system.

The layer SDM actually calls: file views built from derived datatypes, and
independent vs. collective data operations with the classic ROMIO
optimizations:

* **File views** (:class:`~repro.mpiio.view.FileView`) — ``(displacement,
  etype, filetype)`` triples mapping a rank's linear data stream onto
  noncontiguous file regions (vectorized run-list expansion).
* **Data sieving** (:mod:`~repro.mpiio.sieving`) — independent noncontiguous
  access groups nearby runs into large covering requests (read-modify-write
  for writes) instead of issuing one tiny request per run.
* **Two-phase collective I/O** (:mod:`~repro.mpiio.twophase`) — ranks
  exchange data with a set of aggregator ranks that each own a contiguous
  slice of the file domain and issue few large requests; this is what turns
  64 ranks' interleaved 8-byte writes into controller-saturating streams.

Entry point is :class:`~repro.mpiio.file.File`, mirroring mpi4py's
``MPI.File``: ``File.open(comm, fs, name, amode)``, ``set_view``,
``write_at`` (independent), ``read_at_all/write_at_all`` (collective),
the explicit-run ``*_runs`` family the storage-order layer uses,
``close``.  There are no individual file pointers: every access
names its offset.
"""

from repro.mpiio.consts import (
    MODE_CREATE,
    MODE_EXCL,
    MODE_RDONLY,
    MODE_RDWR,
    MODE_WRONLY,
)
from repro.mpiio.view import FileView
from repro.mpiio.file import File

__all__ = [
    "File",
    "FileView",
    "MODE_RDONLY",
    "MODE_WRONLY",
    "MODE_RDWR",
    "MODE_CREATE",
    "MODE_EXCL",
]
