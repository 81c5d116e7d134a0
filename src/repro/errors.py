"""Exception hierarchy for the :mod:`repro` package.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch at whatever granularity they need: a single subsystem
(``except MetaDBError``), or everything from this package
(``except ReproError``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------

class SimError(ReproError):
    """Base class for discrete-event simulation errors."""


class SimDeadlockError(SimError):
    """Raised when the simulator runs out of events while processes still block.

    This is the simulated analogue of an MPI deadlock: e.g. two ranks both
    posting a blocking receive with no matching send in flight.
    """


class SimProcessCrashed(SimError):
    """Raised by :meth:`Simulator.run` when a simulated process raised.

    The original traceback is chained as ``__cause__``.
    """


class SimParticipantLost(SimDeadlockError):
    """An injected fault killed a process its peers were rendezvousing with.

    Raised by :meth:`Simulator.run` in place of the generic
    :class:`SimDeadlockError` when the stall is *attributable*: at least
    one process was crashed by the simulator's
    :class:`~repro.simt.simulator.FaultPlan`, so the survivors are not
    deadlocked by their own collective pattern — they are waiting on a
    dead peer.  The message names the crashed processes and the fault
    points they died at, alongside the usual blocked-process report.
    """


# ---------------------------------------------------------------------------
# MPI layer
# ---------------------------------------------------------------------------

class MPIError(ReproError):
    """Base class for errors in the simulated MPI layer."""


class MPIInvalidRank(MPIError):
    """A rank argument was outside ``[0, size)``."""


class MPICollectiveMismatch(MPIError):
    """Ranks disagreed on the parameters of a collective operation."""


class SPMDVerificationError(MPICollectiveMismatch):
    """The ``SPMD_VERIFY`` runtime sanitizer detected divergence.

    Raised when ranks' collective signatures disagree at a rendezvous
    site (op kind, root, or allreduce/exscan dtype/count) or when the
    per-context collective sequences differ at job end.  The message
    carries both ranks' call sites.
    """


# ---------------------------------------------------------------------------
# Datatypes
# ---------------------------------------------------------------------------

class DatatypeError(ReproError):
    """Invalid construction or use of a derived datatype."""


# ---------------------------------------------------------------------------
# Parallel file system / MPI-IO
# ---------------------------------------------------------------------------

class PFSError(ReproError):
    """Base class for parallel-file-system errors."""


class FileNotFound(PFSError):
    """Named file does not exist in the PFS namespace."""


class FileExists(PFSError):
    """Exclusive create requested but the file already exists."""


class InvalidFileHandle(PFSError):
    """Operation on a closed or invalid file handle."""


class MPIIOError(PFSError):
    """Errors specific to the MPI-IO layer (views, modes, collective calls)."""


class AccessModeError(MPIIOError):
    """File opened without the access mode required by the operation."""


# ---------------------------------------------------------------------------
# Metadata database
# ---------------------------------------------------------------------------

class MetaDBError(ReproError):
    """A statement the metadata database refused (chained from the
    :mod:`sqlite3` error where SQLite refused it)."""


# ---------------------------------------------------------------------------
# Partitioning / meshes
# ---------------------------------------------------------------------------

class PartitionError(ReproError):
    """Invalid partitioning request or malformed partitioning vector."""


class MeshError(ReproError):
    """Malformed mesh or mesh-file error."""


# ---------------------------------------------------------------------------
# SDM core
# ---------------------------------------------------------------------------

class SDMError(ReproError):
    """Base class for errors raised by the SDM runtime itself."""


class SDMStateError(SDMError):
    """SDM API call sequence violated (e.g. write before set_attributes)."""


class SDMLeaseConflict(SDMStateError):
    """Two writers tried to flip the same file's metadata concurrently.

    Raised fail-fast by ``acquire_file_lease`` when a reorganize or
    compaction finds another client's lease on the file, instead of
    letting the second flip silently overwrite the first (lost update).
    """


class SDMUnknownDataset(SDMError):
    """A dataset name was not found in the active datalist/importlist."""


class SDMHistoryMismatch(SDMError):
    """A history file exists but cannot be used (different nprocs, etc.)."""
