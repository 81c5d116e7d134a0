"""Per-job I/O statistics reporting.

SDM's pitch includes letting users see what their I/O actually did.
:func:`io_report` summarizes a finished job's file-system activity —
bytes moved, request counts, opens, per-file sizes, and effective
bandwidths per phase — into a printable report that benchmarks and
examples share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.mpi.job import JobResult
from repro.pfs.filesystem import FileSystem

__all__ = ["IOReport", "io_report"]

MB = 1024.0 * 1024.0


@dataclass
class IOReport:
    """Aggregate I/O statistics of one job."""

    elapsed: float
    bytes_written: int
    bytes_read: int
    n_requests: int
    n_opens: int
    file_sizes: Dict[str, int]
    phase_bandwidth: Dict[str, float]
    """Effective MB/s per timed phase that moved data (write/read/import)."""

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            "I/O report",
            "----------",
            f"virtual time      : {self.elapsed:.4f} s",
            f"bytes written     : {self.bytes_written / MB:.2f} MB",
            f"bytes read        : {self.bytes_read / MB:.2f} MB",
            f"requests / opens  : {self.n_requests} / {self.n_opens}",
        ]
        for phase, bw in sorted(self.phase_bandwidth.items()):
            lines.append(f"{phase:<18}: {bw:.2f} MB/s effective")
        lines.append(f"files ({len(self.file_sizes)}):")
        for name, size in sorted(self.file_sizes.items()):
            lines.append(f"  {name:<40} {size / MB:8.3f} MB")
        return "\n".join(lines)


def io_report(job: JobResult, fs: Optional[FileSystem] = None) -> IOReport:
    """Build an :class:`IOReport` from a finished job.

    ``fs`` defaults to the job's ``"fs"`` service.  Phase bandwidths divide
    the direction's total bytes by the max-over-ranks phase time for the
    conventional phase names (``write``, ``read``, ``import``).
    """
    if fs is None:
        fs = job.services["fs"]
    phase_bw: Dict[str, float] = {}
    for phase, total in (
        ("write", fs.bytes_written),
        ("read", fs.bytes_read),
        ("import", fs.bytes_read),
    ):
        t = job.phase_max(phase)
        if t > 0 and total > 0:
            phase_bw[phase] = total / t / MB
    return IOReport(
        elapsed=job.elapsed,
        bytes_written=fs.bytes_written,
        bytes_read=fs.bytes_read,
        n_requests=fs.n_requests,
        n_opens=fs.n_opens,
        file_sizes={name: fs.lookup(name).size for name in fs.list_files()},
        phase_bandwidth=phase_bw,
    )
