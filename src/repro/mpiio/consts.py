"""MPI-IO access-mode flags."""

from __future__ import annotations

MODE_CREATE = 0x01
"""Create the file if it does not exist."""

MODE_RDONLY = 0x02
"""Read-only access."""

MODE_WRONLY = 0x04
"""Write-only access."""

MODE_RDWR = 0x08
"""Read-write access."""

MODE_EXCL = 0x40
"""Error if MODE_CREATE and the file already exists."""
