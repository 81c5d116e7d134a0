"""Data sieving for independent noncontiguous I/O.

Instead of issuing one request per byte run (the naive path that makes
independent irregular I/O catastrophically slow), ROMIO groups nearby runs
and issues one large *covering* request per group:

* **reads** — read the covering extent once, copy out the wanted runs;
* **writes** — read-modify-write: read the covering extent, overlay the
  runs, write it back (two requests, but each is a streaming transfer).

Grouping policy: a run joins the current group while the hole separating it
from the previous run is at most ``ds_threshold_gap`` and the group span
stays within ``ds_buffer_size``.

Group boundaries are computed vectorized: the gap condition is a single
``np.diff``/``flatnonzero`` pass, and the span condition subdivides each
gap segment with one ``searchsorted`` per *emitted group* (run ends are
monotone for sorted non-overlapping runs), so the cost is O(runs) numpy
work plus O(groups) Python — not O(runs) Python.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.config import CollectiveIOModel
from repro.pfs.file import RD, PFSHandle
from repro.pfs.filesystem import FileSystem
from repro.pfs.runlist import gather_runs, scatter_runs
from repro.simt.process import Process

__all__ = ["sieve_groups", "independent_read", "independent_write"]


def sieve_groups(
    offsets: np.ndarray, lengths: np.ndarray, hints: CollectiveIOModel
) -> Iterator[Tuple[int, int]]:
    """Yield ``(start_run, end_run)`` index ranges forming sieving groups.

    Runs must be sorted ascending and non-overlapping (file views guarantee
    this).  Not :func:`repro.pfs.runlist.coalesce_runs`: a group is also
    cut where its *span* would outgrow ``ds_buffer_size`` (ROMIO's bounded
    sieving buffer), which a gap-only merge cannot express.
    """
    n = len(offsets)
    if n == 0:
        return
    ends = offsets + lengths
    # Gap cuts are position-independent: one vectorized pass finds every
    # hole wider than the threshold.
    gap_cuts = 1 + np.flatnonzero(
        offsets[1:] - ends[:-1] > hints.ds_threshold_gap
    )
    segment_bounds = np.concatenate(([0], gap_cuts, [n]))
    for s in range(len(segment_bounds) - 1):
        start, seg_end = int(segment_bounds[s]), int(segment_bounds[s + 1])
        # Span cuts within a gap segment: ends are monotone, so the last
        # run fitting the buffer from the group's start is one bisect.
        while start < seg_end:
            limit = int(offsets[start]) + hints.ds_buffer_size
            end = start + int(
                np.searchsorted(ends[start:seg_end], limit, side="right")
            )
            end = max(end, start + 1)  # an oversized run forms its own group
            yield start, min(end, seg_end)
            start = end


def _nonempty(
    offsets: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The runs that move bytes.  An empty run inside a sieving group
    would stretch the group's covering extent to reach it: read-modify-
    write would grow the file to its offset, and a read would fetch the
    hole before it; on the write-only fallback it would be a request of
    its own."""
    keep = lengths > 0
    if keep.all():
        return offsets, lengths
    return offsets[keep], lengths[keep]


def independent_read(
    fs: FileSystem,
    proc: Process,
    handle: PFSHandle,
    offsets: np.ndarray,
    lengths: np.ndarray,
    hints: CollectiveIOModel,
    kind: str = "data",
) -> np.ndarray:
    """Sieved independent read; returns the gathered bytes in run order.

    ``hints`` are the calling file's resolved hints (its per-open
    ``ds_*`` overrides included); ``kind`` feeds the file system's
    index/data traffic split.
    """
    fs.runs_submitted += len(offsets)
    offsets, lengths = _nonempty(offsets, lengths)
    total = int(lengths.sum())
    out = np.empty(total, dtype=np.uint8)
    out_pos = 0
    for lo, hi in sieve_groups(offsets, lengths, hints):
        grp_off = offsets[lo:hi]
        grp_len = lengths[lo:hi]
        span_start = int(grp_off[0])
        span_len = int(grp_off[-1] + grp_len[-1]) - span_start
        grp_bytes = int(grp_len.sum())
        data = fs.read(proc, handle, [span_start], [span_len], kind=kind)
        if span_len != grp_bytes:
            # Holey group: copy the wanted runs out of the covering extent.
            proc.hold(fs.machine.compute.copy_time(grp_bytes))
            data = gather_runs(data, grp_off - span_start, grp_len)
        out[out_pos : out_pos + grp_bytes] = data
        out_pos += grp_bytes
    return out


def independent_write(
    fs: FileSystem,
    proc: Process,
    handle: PFSHandle,
    offsets: np.ndarray,
    lengths: np.ndarray,
    data: np.ndarray,
    hints: CollectiveIOModel,
) -> int:
    """Sieved independent write; returns bytes of payload written.

    Requires read access for the read-modify-write path; on a write-only
    handle it falls back to one request per run (as ROMIO does when data
    sieving is impossible) — the catastrophically slow path the paper's
    collective I/O avoids.
    """
    fs.runs_submitted += len(offsets)
    data = np.asarray(data).reshape(-1).view(np.uint8)
    offsets, lengths = _nonempty(offsets, lengths)  # on both paths
    if not (handle.mode & RD):
        pos = 0
        for o, l in zip(offsets.tolist(), lengths.tolist()):
            fs.write(proc, handle, [o], [l], data[pos : pos + l])
            pos += l
        return pos
    data_pos = 0
    for lo, hi in sieve_groups(offsets, lengths, hints):
        grp_off = offsets[lo:hi]
        grp_len = lengths[lo:hi]
        span_start = int(grp_off[0])
        span_len = int(grp_off[-1] + grp_len[-1]) - span_start
        grp_bytes = int(grp_len.sum())
        chunk = data[data_pos : data_pos + grp_bytes]
        if span_len == grp_bytes:
            # Solid group: plain write, no read-modify-write needed.
            fs.write(proc, handle, [span_start], [span_len], chunk)
        else:
            # Read-modify-write the covering extent, under the file's write
            # lock — concurrent RMWs on interleaved data would otherwise
            # resurrect stale bytes (the race ROMIO prevents with fcntl).
            with fs.write_lock(handle.file.name).request(proc):
                cover = fs.read(proc, handle, [span_start], [span_len])
                proc.hold(fs.machine.compute.copy_time(grp_bytes))
                scatter_runs(cover, grp_off - span_start, grp_len, chunk)
                fs.write(proc, handle, [span_start], [span_len], cover)
        data_pos += grp_bytes
    return data_pos
