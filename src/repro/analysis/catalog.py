"""The catalog of collective entry points spmdlint knows about.

A *collective* here is any call that every rank of a communicator must
make, in the same program order, for the program to be correct: the
``Communicator`` collectives themselves, the ``File`` collective I/O
methods (two-phase open/read/write), the transport-level two-phase ops,
and the SDM-layer helpers that are documented "Collective" (they contain
collectives on every path, so a call site is collective-in-shape).

Matching is syntactic — by method/function name, with a receiver-text
guard for names too generic to match bare (``reduce`` must be called on
something communicator-ish, ``write`` on an ``sdm``-ish receiver) and a
blanket exclusion for numpy receivers (``np.maximum.reduce`` is not MPI).
The catalog also records the facts the taint pass and the runtime
verifier need: whether the call's *result* is identical on every rank
(``uniform_result`` — assigning from such a call launders rank taint),
which argument names the root, and whether the op's payload must have
the same shape on every rank (the reduce family).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["CollectiveSpec", "CATALOG", "match_call", "receiver_text"]


@dataclass(frozen=True)
class CollectiveSpec:
    """Static facts about one collective entry point."""

    op: str
    """Canonical op label (what findings and signatures report)."""

    uniform_result: bool = False
    """True when the call returns the same value on every rank (bcast,
    allreduce, allgather, barrier, and the bcast-fronted SDM helpers) —
    assignment from such a call *launders* rank taint."""

    root_arg: Optional[Tuple[int, str]] = None
    """(positional index, keyword name) of the root rank, if any."""

    uniform_shape: bool = False
    """True when all ranks must contribute payloads of identical
    dtype/count (the reduce family); the runtime verifier enforces it."""

    receivers: Optional[Tuple[str, ...]] = None
    """Receiver-text guard for generic names: ``"comm"`` matches a
    receiver named exactly ``comm`` or ending in ``.comm`` (likewise
    ``"sdm"``); an exact string such as ``"File"`` matches literally.
    None accepts any receiver (including bare-name calls)."""


_COMMISH = ("comm",)
_SDMISH = ("sdm",)

CATALOG: Dict[str, CollectiveSpec] = {
    # ------------------------------------------------- Communicator ----
    "barrier": CollectiveSpec("barrier", uniform_result=True),
    "bcast": CollectiveSpec("bcast", uniform_result=True, root_arg=(1, "root")),
    "reduce": CollectiveSpec(
        "reduce", root_arg=(2, "root"), uniform_shape=True, receivers=_COMMISH
    ),
    "allreduce": CollectiveSpec(
        "allreduce", uniform_result=True, uniform_shape=True
    ),
    "scan": CollectiveSpec("scan", uniform_shape=True, receivers=_COMMISH),
    "exscan": CollectiveSpec("exscan", uniform_shape=True),
    "gather": CollectiveSpec("gather", root_arg=(1, "root")),
    "allgather": CollectiveSpec("allgather", uniform_result=True),
    "scatter": CollectiveSpec("scatter", root_arg=(1, "root")),
    "alltoall": CollectiveSpec("alltoall"),
    "alltoallv": CollectiveSpec("alltoallv"),
    "ring_shift": CollectiveSpec("ring_shift"),
    "split": CollectiveSpec("split", receivers=_COMMISH),
    "dup": CollectiveSpec("dup", receivers=_COMMISH),
    # ------------------------------------------------- mpiio.File ------
    # Collective opens return matching per-rank handles on one shared
    # file: the *handle* is uniform in the sense the taint pass cares
    # about (all ranks' copies name the same collective context).
    "open": CollectiveSpec("File.open", uniform_result=True, receivers=("File",)),
    "read_at_all": CollectiveSpec("read_at_all"),
    "write_at_all": CollectiveSpec("write_at_all"),
    "read_all": CollectiveSpec("read_all"),
    "write_all": CollectiveSpec("write_all"),
    "read_runs_at_all": CollectiveSpec("read_runs_at_all"),
    "write_runs_at_all": CollectiveSpec("write_runs_at_all"),
    "_open_cached": CollectiveSpec("open_cached", uniform_result=True),
    "_close_cached": CollectiveSpec("close_cached", uniform_result=True),
    # ------------------------------------- two-phase transport ops -----
    "collective_read": CollectiveSpec("collective_read"),
    "collective_write": CollectiveSpec("collective_write"),
    # ------------------------------------------- SDM-layer helpers -----
    # Documented-collective functions: every rank reaches the same
    # collectives inside, so their *call sites* are collective-in-shape.
    "locate_instance": CollectiveSpec("locate_instance", uniform_result=True),
    "read_instance": CollectiveSpec("read_instance"),
    # Collective index-block acquisition: block→rank dealing over
    # alltoallv; every rank of the file's communicator must call it
    # (empty-wanted ranks participate with empty requests).
    "acquire_index_blocks": CollectiveSpec("acquire_index_blocks"),
    "execute_reorganize": CollectiveSpec("execute_reorganize"),
    "compact_chunked_file": CollectiveSpec(
        "compact_chunked_file", uniform_result=True
    ),
    # The flip lease is bcast-fronted: rank 0 runs the insert-then-verify
    # protocol and every rank symmetrically succeeds or raises
    # SDMLeaseConflict, so the call site is collective-in-shape and its
    # (None-or-raise) outcome is uniform.
    "acquire_file_lease": CollectiveSpec(
        "acquire_file_lease", uniform_result=True
    ),
    # The flip driver's commit half ends in an epoch bcast and a barrier;
    # it returns the broadcast epoch (receiver-guarded: the name is far
    # too generic bare).
    "publish": CollectiveSpec(
        "flip.publish", uniform_result=True, receivers=("fl",)
    ),
    "register_history_async": CollectiveSpec("register_history_async"),
    "try_load_history": CollectiveSpec("try_load_history"),
    "ring_partition_index": CollectiveSpec("ring_partition_index"),
    "_next_append_base": CollectiveSpec("next_append_base", uniform_result=True),
    # DatapathHost lifecycle: the pinned read (locate bcast, collective
    # read; returns this rank's elements) and the shutdown (close, audit
    # bcast, barrier; receiver-guarded: the name is generic bare).
    "read_pinned": CollectiveSpec("host.read_pinned"),
    "shutdown": CollectiveSpec(
        "host.shutdown", uniform_result=True, receivers=("self", "host")
    ),
    # SDM methods (receiver-guarded: the names are too generic bare).
    # ``write``/``reorganize``/``compact`` return the file name — the
    # same on every rank — so they launder taint; ``read`` returns this
    # rank's buffer and does not.
    "write": CollectiveSpec("sdm.write", uniform_result=True, receivers=_SDMISH),
    "read": CollectiveSpec("sdm.read", receivers=_SDMISH),
    "reorganize": CollectiveSpec(
        "sdm.reorganize", uniform_result=True, receivers=_SDMISH
    ),
    "compact": CollectiveSpec(
        "sdm.compact", uniform_result=True, receivers=_SDMISH
    ),
    "finalize": CollectiveSpec(
        "sdm.finalize", uniform_result=True, receivers=_SDMISH
    ),
    "set_attributes": CollectiveSpec(
        "sdm.set_attributes", uniform_result=True, receivers=_SDMISH
    ),
    "index_registry": CollectiveSpec("sdm.index_registry", receivers=_SDMISH),
    "import_index": CollectiveSpec(
        "sdm.import_index", uniform_result=False, receivers=_SDMISH
    ),
    "import_contiguous": CollectiveSpec("sdm.import_contiguous", receivers=_SDMISH),
    "import_irregular": CollectiveSpec("sdm.import_irregular", receivers=_SDMISH),
    "partition_index": CollectiveSpec("sdm.partition_index", receivers=_SDMISH),
    # SDMCatalog snapshot lifecycle (receiver-guarded: both names are far
    # too generic bare).  attach pins via a bcast — uniform handle;
    # release is barrier-backed.
    "attach": CollectiveSpec(
        "catalog.attach", uniform_result=True, receivers=("SDMCatalog",)
    ),
    "release": CollectiveSpec(
        "catalog.release", uniform_result=True, receivers=("catalog",)
    ),
}

_NUMPY_PREFIXES = ("np.", "numpy.")


def receiver_text(call: ast.Call) -> str:
    """Source text of the receiver (empty for bare-name calls)."""
    if isinstance(call.func, ast.Attribute):
        try:
            return ast.unparse(call.func.value)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return "<?>"
    return ""


def _receiver_ok(recv: str, guards: Optional[Tuple[str, ...]]) -> bool:
    if guards is None:
        return True
    for g in guards:
        if recv == g or recv.endswith("." + g):
            return True
    return False


def match_call(call: ast.Call) -> Optional[CollectiveSpec]:
    """The catalog entry a call matches, or None.

    Numpy-rooted receivers never match (``np.maximum.reduce`` etc.), and
    receiver-guarded names match only communicator-/SDM-ish receivers.
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        name = func.attr
        recv = receiver_text(call)
        if recv.startswith(_NUMPY_PREFIXES) or recv in ("np", "numpy"):
            return None
    elif isinstance(func, ast.Name):
        name = func.id
        recv = ""
    else:
        return None
    spec = CATALOG.get(name)
    if spec is None or not _receiver_ok(recv, spec.receivers):
        return None
    return spec
