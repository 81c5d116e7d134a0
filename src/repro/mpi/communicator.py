"""Per-rank communicator facade: point-to-point and collective operations.

Each simulated rank holds its own :class:`Communicator` bound to the shared
:class:`~repro.mpi.transport.Transport`.  Semantics follow MPI/mpi4py's
pickle-object layer: objects in, objects out, sizes inferred for timing.

Blocking sends model eager-protocol behaviour: the sender is charged the
full injection time (``latency + nbytes/bandwidth``) and the message lands in
the destination mailbox at that completion time.  ``isend`` charges the
sender nothing (NIC offload) but the request completes — and the data
arrives — at the same modelled time, with per-(src, dst) FIFO enforced.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.analysis.catalog import collective
from repro.analysis.verifier import call_site, payload_signature
from repro.errors import MPICollectiveMismatch, MPIInvalidRank
from repro.mpi.collectives import COMPUTE_FNS, CollectiveSite
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.mpi.nbytes import payload_nbytes
from repro.mpi.ops import SUM, ReduceOp
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.mpi.transport import Transport
from repro.simt.primitives import SimEvent
from repro.simt.process import Crashed, Process
from repro.simt.trace import CollectiveSignature

__all__ = ["Communicator"]


class Communicator:
    """One rank's handle on a communicator (the world, or a split/dup).

    ``group`` (when given) lists the member *world* ranks in group order;
    ``rank`` is then this process's index within the group.  All traffic is
    tagged with ``ctx_id``, so communicators are fully isolated from each
    other, as MPI requires.
    """

    def __init__(
        self,
        transport: Transport,
        rank: int,
        proc: Process,
        ctx_id: Any = 0,
        group: Optional[List[int]] = None,
    ) -> None:
        if group is None:
            transport.check_rank(rank)
        else:
            if not (0 <= rank < len(group)):
                raise MPIInvalidRank(
                    f"group rank {rank} outside [0, {len(group)})"
                )
        self.transport = transport
        self._rank = rank
        self.proc = proc
        self.ctx_id = ctx_id
        self._group = list(group) if group is not None else None
        self._op_seq = 0
        self._derive_seq = 0

    def _world(self, rank: int) -> int:
        """Translate a communicator rank to a world (mailbox) rank."""
        return rank if self._group is None else self._group[rank]

    def _check_rank(self, rank: int, *, wildcard_ok: bool = False) -> None:
        from repro.mpi.constants import ANY_SOURCE as _ANY

        if wildcard_ok and rank == _ANY:
            return
        if not (0 <= rank < self.size):
            raise MPIInvalidRank(f"rank {rank} outside [0, {self.size})")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank in ``[0, size)``."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        return len(self._group) if self._group is not None else self.transport.size

    @property
    def now(self) -> float:
        """Current virtual time (convenience passthrough)."""
        return self.proc.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator rank={self._rank}/{self.size}>"

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send."""
        if dest == PROC_NULL:
            return
        self._check_rank(dest)
        nbytes = payload_nbytes(obj)
        self.transport.inject(
            self._rank, self._world(dest), obj, tag, nbytes, ctx=self.ctx_id
        )
        self.proc.hold(self.transport.transfer_time(nbytes))

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; the request completes at delivery time."""
        event = SimEvent(self.proc.sim, name=f"isend->{dest}")
        if dest == PROC_NULL:
            event.set(None)
            return Request(event, "isend")
        self._check_rank(dest)
        nbytes = payload_nbytes(obj)
        self.transport.inject(
            self._rank, self._world(dest), obj, tag, nbytes,
            completion=event, ctx=self.ctx_id,
        )
        return Request(event, "isend")

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Blocking receive; wildcards allowed for source and tag."""
        if source == PROC_NULL:
            if status is not None:
                status.source, status.tag, status.nbytes = PROC_NULL, tag, 0
            return None
        self._check_rank(source, wildcard_ok=True)
        payload, st = self.transport.match_or_post(
            self.proc, self._world(self._rank), source, tag, ctx=self.ctx_id
        )
        if status is not None:
            status.source, status.tag, status.nbytes = st.source, st.tag, st.nbytes
        return payload

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; ``Request.wait`` returns the payload."""
        event = SimEvent(self.proc.sim, name=f"irecv<-{source}")
        if source == PROC_NULL:
            event.set(None)
            return Request(event, "irecv")
        self._check_rank(source, wildcard_ok=True)
        self.transport.post_event_recv(
            self._world(self._rank), source, tag, event, ctx=self.ctx_id
        )
        return Request(event, "irecv")

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Simultaneous send and receive (deadlock-free ring building block)."""
        req = self.isend(obj, dest, tag=sendtag)
        got = self.recv(source=source, tag=recvtag, status=status)
        req.wait(self.proc)
        return got

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe: Status if a matching message has arrived."""
        return self.transport.probe(
            self._world(self._rank), source, tag, ctx=self.ctx_id
        )

    @collective
    def ring_shift(self, obj: Any, displacement: int = 1, tag: int = 0) -> Any:
        """Pass ``obj`` to rank ``(rank+displacement) % size`` and receive from
        ``(rank-displacement) % size`` — the paper's ring-oriented exchange."""
        if self.size == 1:
            return obj
        dest = (self._rank + displacement) % self.size
        source = (self._rank - displacement) % self.size
        return self.sendrecv(obj, dest=dest, source=source, sendtag=tag, recvtag=tag)

    # ------------------------------------------------------------------
    # Collectives (rendezvous execution, modelled algorithm costs)
    # ------------------------------------------------------------------

    def _rendezvous(
        self,
        op: str,
        payload: Any,
        root: Optional[int] = None,
        reduce_op: Optional[ReduceOp] = None,
    ) -> Any:
        if getattr(self.proc, "crashed", False):
            # Cleanup code unwinding past an injected crash must not
            # join (and misalign) the survivors' collective sequence —
            # same containment as Process._park and Database._check_live.
            raise Crashed(
                f"crashed process {self.proc.name!r} cannot join "
                f"collective {op!r}"
            )
        size = self.size
        self._op_seq += 1
        verifier = self.transport.verifier
        if verifier is not None:
            dtype, count = payload_signature(payload)
            verifier.enter(
                CollectiveSignature(
                    op=op,
                    ctx=str(self.ctx_id),
                    seq=self._op_seq,
                    rank=self._rank,
                    root=root,
                    dtype=dtype,
                    count=count,
                    site=call_site(),
                ),
                self.proc.name,
                size,
                self.proc.now,
            )
        if size == 1:
            # Degenerate world: apply semantics directly, zero cost.
            site = CollectiveSite(op, 1)
            site.root, site.reduce_op = root or 0, reduce_op
            site.deposit(0, self.proc, payload, self.proc.now)
            results, _ = COMPUTE_FNS[op](site, self.transport.machine, 1)
            self.transport.record_collective(op, site.entries[0].nbytes)
            if verifier is not None:
                verifier.leave(self.proc.name)
            return results[0]
        key = (self.ctx_id, self._op_seq)
        site: CollectiveSite = self.transport.site(
            key, lambda: CollectiveSite(op, size)
        )
        if site.op != op:
            raise MPICollectiveMismatch(
                f"rank {self._rank} called {op!r} while others called {site.op!r}"
            )
        if root is not None:
            if site.root is None:
                site.root = root
            elif site.root != root:
                raise MPICollectiveMismatch(
                    f"collective {op!r}: ranks disagree on root "
                    f"({site.root} vs {root})"
                )
        if reduce_op is not None:
            site.reduce_op = reduce_op
        site.deposit(self._rank, self.proc, payload, self.proc.now)
        if site.complete:
            self.transport.record_collective(
                op, sum(e.nbytes for e in site.entries.values())
            )
            results, completions = COMPUTE_FNS[op](
                site, self.transport.machine, size
            )
            self.transport.drop_site(key)
            now = self.proc.sim.now
            for r, entry in site.entries.items():
                delay = max(completions[r] - now, 0.0)
                self.proc.sim.schedule_resume(entry.proc, delay=delay, value=results[r])
        result = self.proc.park(reason=f"coll:{op}")
        if verifier is not None:
            verifier.leave(self.proc.name)
        return result

    @collective(uniform_result=True)
    def barrier(self) -> None:
        """Block until every rank reaches the barrier."""
        self._rendezvous("barrier", None)

    @collective(uniform_result=True, root="root")
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; returns it on every rank."""
        self._check_rank(root)
        return self._rendezvous("bcast", obj if self._rank == root else None, root=root)

    @collective(root="root", uniform_shape=True, receivers=("comm",))
    def reduce(self, obj: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        """Combine contributions; the result lands only on ``root``."""
        self._check_rank(root)
        return self._rendezvous("reduce", obj, root=root, reduce_op=op)

    @collective(uniform_result=True, uniform_shape=True)
    def allreduce(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Combine contributions; the result lands on every rank."""
        return self._rendezvous("allreduce", obj, reduce_op=op)

    @collective(uniform_shape=True, receivers=("comm",))
    def scan(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Inclusive prefix reduction over ranks 0..self."""
        return self._rendezvous("scan", obj, reduce_op=op)

    @collective(uniform_shape=True)
    def exscan(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Exclusive prefix reduction: rank r gets the fold of ranks 0..r-1
        (``None`` on rank 0) — the idiom for computing file offsets from
        per-rank byte counts."""
        return self._rendezvous("exscan", obj, reduce_op=op)

    @collective(root="root")
    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Root receives ``[obj_0, ..., obj_{P-1}]``; others get ``None``."""
        self._check_rank(root)
        return self._rendezvous("gather", obj, root=root)

    @collective(uniform_result=True)
    def allgather(self, obj: Any) -> List[Any]:
        """Every rank receives ``[obj_0, ..., obj_{P-1}]``."""
        return self._rendezvous("allgather", obj)

    @collective(root="root")
    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        """Root provides one object per rank; each rank gets its own."""
        self._check_rank(root)
        return self._rendezvous(
            "scatter", objs if self._rank == root else None, root=root
        )

    @collective
    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        """Alias for :meth:`alltoallv` (object layer does not distinguish)."""
        return self.alltoallv(objs)

    @collective
    def alltoallv(self, objs: Sequence[Any]) -> List[Any]:
        """Personalized all-to-all: ``objs[d]`` goes to rank ``d``; returns
        the list of objects every rank sent to this one, indexed by source."""
        return self._rendezvous("alltoallv", list(objs))

    # ------------------------------------------------------------------
    # Communicator construction (split / dup)
    # ------------------------------------------------------------------

    @collective(receivers=("comm",))
    def split(self, color: Optional[int], key: int = 0) -> Optional["Communicator"]:
        """Partition this communicator by ``color`` (``MPI_Comm_split``).

        Ranks sharing a color form a new communicator, ordered by
        ``(key, old rank)``.  ``color=None`` (MPI_UNDEFINED) opts out and
        returns None.  Collective over this communicator.
        """
        self._derive_seq += 1
        infos = self.allgather((color, key, self._rank))
        if color is None:
            return None
        members = sorted(
            (k, r) for (c, k, r) in infos if c == color
        )
        group_world = [self._world(r) for (_k, r) in members]
        my_index = [r for (_k, r) in members].index(self._rank)
        new_ctx = (self.ctx_id, "split", self._derive_seq, color)
        return Communicator(
            self.transport, my_index, self.proc, ctx_id=new_ctx,
            group=group_world,
        )

    @collective(receivers=("comm",))
    def dup(self) -> "Communicator":
        """Duplicate this communicator with an isolated context
        (``MPI_Comm_dup``).  Collective."""
        self._derive_seq += 1
        self.barrier()
        new_ctx = (self.ctx_id, "dup", self._derive_seq)
        group = self._group if self._group is not None else list(
            range(self.transport.size)
        )
        return Communicator(
            self.transport, self._rank, self.proc, ctx_id=new_ctx, group=group
        )
