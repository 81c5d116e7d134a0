"""Simulated parallel file system (XFS-over-FibreChannel stand-in).

Two concerns, cleanly split:

* **Correctness** — :class:`~repro.pfs.blockstore.ByteStore` holds the real
  bytes of every file (growable flat buffer, vectorized scatter/gather), so
  everything SDM writes can be read back and checked against a reference.
* **Timing** — :class:`~repro.pfs.filesystem.FileSystem` charges virtual
  time: per-open/view/close/metadata costs, and data transfers that contend
  for a FIFO pool of ``n_controllers`` full-rate streams.  One sequential
  writer gets one controller's bandwidth; a 64-rank collective saturates the
  aggregate — the mechanism behind the paper's original-vs-SDM gap (Fig 7).

Files are flat byte namespaces (no directories): SDM names files like
``"fun3d/p.0012"`` and treats the name as opaque, as the paper does.
"""

from repro.pfs.blockstore import ByteStore
from repro.pfs.striping import StripeLayout
from repro.pfs.file import PFSFile, PFSHandle
from repro.pfs.filesystem import FileSystem

__all__ = [
    "ByteStore",
    "StripeLayout",
    "PFSFile",
    "PFSHandle",
    "FileSystem",
]
