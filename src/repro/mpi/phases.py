"""Per-rank phase timing in virtual time.

The paper reports stacked costs ("index distri." vs "import" in Figure 5);
:class:`PhaseTimer` is how application code attributes virtual time to those
named phases::

    with ctx.phase("index_distri"):
        ...ring distribution...
    with ctx.phase("import"):
        ...collective reads...

Nested phases are allowed; time is charged to every open phase (the outer
phase's total includes the inner's, as a wall-clock profiler would report).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator

from repro.simt.process import Process

__all__ = ["PhaseTimer"]


class PhaseTimer:
    """Accumulates virtual-time totals under named phases for one rank."""

    def __init__(self, proc: Process) -> None:
        self.proc = proc
        self.totals: "OrderedDict[str, float]" = OrderedDict()
        self.counts: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute virtual time spent in the body to ``name``."""
        start = self.proc.now
        try:
            yield
        finally:
            elapsed = self.proc.now - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all phase totals."""
        return dict(self.totals)
