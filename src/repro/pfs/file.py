"""File objects and open handles in the simulated parallel FS."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import AccessModeError, InvalidFileHandle
from repro.pfs.blockstore import ByteStore
from repro.pfs.striping import StripeLayout

if TYPE_CHECKING:  # pragma: no cover
    from repro.pfs.filesystem import FileSystem

__all__ = ["PFSFile", "PFSHandle", "RD", "WR", "RDWR"]

RD = 0x1
"""Open-for-reading flag."""

WR = 0x2
"""Open-for-writing flag."""

RDWR = RD | WR
"""Read-write flag."""


class PFSFile:
    """One file: a name, real bytes, striping geometry, and timestamps."""

    def __init__(self, name: str, layout: StripeLayout, ctime: float) -> None:
        self.name = name
        self.layout = layout
        self.store = ByteStore()
        self.ctime = ctime
        self.mtime = ctime
        self.nlink = 1

    @property
    def size(self) -> int:
        """Current file size in bytes."""
        return self.store.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PFSFile {self.name!r} size={self.size}>"


class PFSHandle:
    """A process's open handle on a file.

    Carries the access mode; all data operations go through the owning
    :class:`~repro.pfs.filesystem.FileSystem` (which charges time), using
    this handle for permission checks.
    """

    def __init__(self, fs: "FileSystem", file: PFSFile, mode: int) -> None:
        self.fs = fs
        self.file = file
        self.mode = mode
        self.closed = False

    def check_open(self) -> None:
        """Raise if this handle was already closed."""
        if self.closed:
            raise InvalidFileHandle(f"handle on {self.file.name!r} is closed")

    def check_readable(self) -> None:
        """Raise unless opened for reading."""
        self.check_open()
        if not (self.mode & RD):
            raise AccessModeError(f"{self.file.name!r} not opened for reading")

    def check_writable(self) -> None:
        """Raise unless opened for writing."""
        self.check_open()
        if not (self.mode & WR):
            raise AccessModeError(f"{self.file.name!r} not opened for writing")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<PFSHandle {self.file.name!r} {state}>"
