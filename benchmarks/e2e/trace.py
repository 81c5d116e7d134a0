"""Outside-in tracer: spans around the layers' public callables.

Nothing under ``src/`` knows about this file.  :meth:`Tracer.install`
replaces the public methods of each layer's classes (and a few module
functions, on every ``repro`` module that looks them up by name) with
wrappers that record a span; :meth:`Tracer.uninstall` puts the originals
back.  Layer names are the packages under ``src/repro``.

Two facts about the simulator shape the accounting:

* **Exactly one thread runs at a time.**  The tracer therefore keeps one
  "current thread" pointer that the switch wrappers hand over, instead of
  thread-local lookups, and wall time is attributed on the *active*
  timeline: the interval a thread spends inside ``Process.hold`` /
  ``Process.park`` (or the main thread inside ``Simulator.run``) is taken
  out of all its enclosing spans.  The gap between one thread entering
  ``hold``/``park`` and the next thread coming out of it — scheduler
  loop, event callbacks and the OS thread hand-off — is
  ``simt.switch_wall_s``.
* **Virtual time only passes while a process is parked**, so ``hold``,
  ``park`` and ``Resource.acquire`` are deliberately not spans: the
  virtual seconds they take stay in the self time of the span that
  parked, i.e. are charged to the layer that asked to wait.

A span's self time is its (active) duration minus that of its child spans.
Wall self times are summed over all threads; virtual self times are kept
per thread so they can be reported for the critical rank.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

LAYERS = ("simt", "mpi", "mpiio", "pfs", "metadb", "core", "apps")


class _ZeroClock:
    now = 0.0


class ThreadState:
    """Per-thread span stack and virtual self-time totals."""

    __slots__ = ("tid", "name", "clock", "parked", "stack", "virt",
                 "root_v1")

    def __init__(self, tid: int, name: str, clock: Any) -> None:
        self.tid = tid
        """Index into ``Tracer.threads``."""
        self.name = name
        """Process name (``rank3``, ``maint-w0``) or ``main``."""
        self.clock = clock
        """Anything with a ``now`` attribute: the thread's Simulator."""
        self.parked = 0.0
        self.stack: List[Any] = []
        """Flat frames: span id, child wall, child virtual."""
        self.virt: Dict[int, float] = {}
        self.root_v1 = 0.0
        """Virtual time at which the thread's root span ended."""


class Tracer:
    def __init__(self) -> None:
        self.ids: Dict[Tuple[str, str], int] = {}
        self.layer_of: List[str] = []
        self.name_of: List[str] = []
        self.wall: List[float] = []
        self.calls: List[int] = []
        self.records: List[float] = []
        """Seven numbers per finished span, in closing order: span id,
        thread index, parent span id (-1: none), wall t0, wall t1,
        virtual t0, virtual t1.  Flat, so that a hundred thousand spans
        add no objects for the garbage collector to walk."""
        self.main = ThreadState(0, "main", _ZeroClock())
        self.cur = self.main
        self.sched = self.main
        self.threads: List[ThreadState] = [self.main]
        self.switch_t0 = 0.0
        self.switch_wall = 0.0
        self.switches = 0
        self.parks = 0
        self.events = 0
        self.procs = 0
        self.resource_wait_virtual = 0.0
        self.pfs_queue_wait_virtual = 0.0
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------

    def span_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        sid = self.ids.get(key)
        if sid is None:
            sid = self.ids[key] = len(self.layer_of)
            self.layer_of.append(layer)
            self.name_of.append(name)
            self.wall.append(0.0)
            self.calls.append(0)
        return sid

    def _open(self, st: ThreadState, sid: int) -> Tuple[float, float, float]:
        st.stack += (sid, 0.0, 0.0)
        return st.parked, st.clock.now, perf_counter()

    def _close(self, st: ThreadState, sid: int, p0: float, v0: float,
               t0: float) -> float:
        t1 = perf_counter()
        v1 = st.clock.now
        stack = st.stack
        child_virtual = stack.pop()
        child_wall = stack.pop()
        stack.pop()
        active = (t1 - t0) - (st.parked - p0)
        virtual = v1 - v0
        self.wall[sid] += active - child_wall
        self.calls[sid] += 1
        virt = st.virt
        virt[sid] = virt.get(sid, 0.0) + virtual - child_virtual
        if stack:
            stack[-2] += active
            stack[-1] += virtual
            parent = stack[-3]
        else:
            parent = -1
        self.records += (sid, st.tid, parent, t0, t1, v0, v1)
        return v1

    def span(self, layer: str, name: str) -> "_Span":
        """Context manager for the few spans the workloads open by hand."""
        return _Span(self, self.span_id(layer, name))

    def main_clock(self, clock: Any) -> None:
        """Virtual clock of the main thread (metadb_catalog has no
        simulator; its clock-only process stands in)."""
        self.main.clock = clock

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------

    def _span_wrapper(self, fn: Callable, layer: str, name: str) -> Callable:
        tr = self
        sid = self.span_id(layer, name)
        _open, _close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tr.cur
            p0, v0, t0 = _open(st, sid)
            try:
                return fn(*args, **kwargs)
            finally:
                _close(st, sid, p0, v0, t0)

        return wrapper

    def _switch_wrapper(self, fn: Callable) -> Callable:
        """``Process.hold`` / ``Process.park``: this thread leaves the
        active timeline until the call returns."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tr.cur
            t0 = tr.switch_t0 = perf_counter()
            tr.cur = tr.sched
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.switch_wall += t1 - tr.switch_t0
                tr.switches += 1
                tr.parks += 1
                tr.cur = st
                st.parked += t1 - t0

        return wrapper

    def _run_wrapper(self, fn: Callable) -> Callable:
        """``Simulator.run``: the calling thread becomes the scheduler;
        everything until it returns belongs to the process threads or to
        the gaps between them."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tr.sched = tr.cur
            t0 = tr.switch_t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.switch_wall += t1 - tr.switch_t0
                tr.switches += 1
                tr.cur = st
                st.parked += t1 - t0

        return wrapper

    def _root_wrapper(self, fn: Callable) -> Callable:
        """Body of a spawned process: a new thread joins the timeline.
        Rank programs are the ``apps`` layer; every other process is a
        ``core`` background worker (maintenance, history writer)."""
        tr = self
        rank_sid = self.span_id("apps", "rank_program")
        worker_sid = self.span_id("core", "maintenance_worker")

        @functools.wraps(fn)
        def root(proc, *args, **kwargs):
            st = ThreadState(len(tr.threads), proc.name, proc.sim)
            tr.threads.append(st)
            sid = rank_sid if proc.name.startswith("rank") else worker_sid
            t = perf_counter()
            tr.switch_wall += t - tr.switch_t0
            tr.switches += 1
            tr.cur = st
            p0, v0, t0 = tr._open(st, sid)
            try:
                return fn(proc, *args, **kwargs)
            finally:
                st.root_v1 = tr._close(st, sid, p0, v0, t0)
                tr.switch_t0 = perf_counter()
                tr.cur = tr.sched

        return root

    def _spawn_wrapper(self, fn: Callable) -> Callable:
        tr = self
        spanned = self._span_wrapper(fn, "simt", "Simulator.spawn")

        @functools.wraps(fn)
        def wrapper(sim, target, *args, **kwargs):
            tr.procs += 1
            return spanned(sim, tr._root_wrapper(target), *args, **kwargs)

        return wrapper

    def _event_counter(self, fn: Callable) -> Callable:
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.events += 1
            return fn(*args, **kwargs)

        return wrapper

    def _acquire_wrapper(self, fn: Callable) -> Callable:
        """``Resource.acquire``: virtual seconds queued for a grant."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tr.cur
            v0 = st.clock.now
            try:
                return fn(*args, **kwargs)
            finally:
                waited = st.clock.now - v0
                if waited:
                    tr.resource_wait_virtual += waited
                    stack = st.stack
                    if stack and tr.layer_of[stack[-3]] == "pfs":
                        tr.pfs_queue_wait_virtual += waited

        return wrapper

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------

    def _set(self, owner: Any, attr: str, new: Any) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, types.FunctionType):
                self._set(cls, attr, self._span_wrapper(value, layer, name))
            elif isinstance(value, (classmethod, staticmethod)):
                wrapped = self._span_wrapper(value.__func__, layer, name)
                self._set(cls, attr, type(value)(wrapped))

    def _wrap_functions(self, layer: str, targets) -> None:
        """Patch module functions on every ``repro`` module that holds a
        reference to one (``from m import f`` binds a second name)."""
        wrappers = {}
        for module, names in targets:
            short = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(module, name)
                wrappers[fn] = self._span_wrapper(fn, layer,
                                                  f"{short}.{name}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) \
                        and value in wrappers:
                    self._set(mod, name, wrappers[value])

    def install(self) -> None:
        from repro.core.api import SDM
        from repro.core.catalog import SDMCatalog
        from repro.core.history import HistoryRegistration
        from repro.metadb.engine import Database
        from repro.metadb.schema import SDMTables
        from repro.mpi.communicator import Communicator
        from repro.mpi.request import Request
        from repro.mpiio import runs, sieving, twophase
        from repro.mpiio.file import File
        from repro.pfs.filesystem import FileSystem
        from repro.simt.primitives import Resource
        from repro.simt.process import Process
        from repro.simt.simulator import Simulator

        if self._patched:
            raise RuntimeError("tracer already installed")
        sim = vars(Simulator)
        self._set(Simulator, "spawn", self._spawn_wrapper(sim["spawn"]))
        self._set(Simulator, "run", self._run_wrapper(sim["run"]))
        for attr in ("schedule_resume", "call_at"):
            self._set(Simulator, attr, self._event_counter(sim[attr]))
        for attr in ("hold", "park"):
            self._set(Process, attr,
                      self._switch_wrapper(vars(Process)[attr]))
        self._set(Resource, "acquire",
                  self._acquire_wrapper(vars(Resource)["acquire"]))
        for cls in (Communicator, Request):
            self._wrap_class(cls, "mpi")
        self._wrap_class(File, "mpiio")
        self._wrap_functions("mpiio", (
            (twophase, ("collective_write", "collective_read")),
            (sieving, ("independent_read", "independent_write")),
            (runs, [n for n in runs.__all__ if n.islower()]),
        ))
        self._wrap_class(FileSystem, "pfs")
        self._wrap_class(Database, "metadb")
        self._wrap_class(SDMTables, "metadb")
        for cls in (SDM, SDMCatalog, HistoryRegistration):
            self._wrap_class(cls, "core")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading the results
    # ------------------------------------------------------------------

    def wall_by_name(self) -> Dict[str, float]:
        """Span name -> wall self seconds."""
        return dict(zip(self.name_of, self.wall))

    def layer_wall(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, layer in enumerate(self.layer_of):
            if layer in out:
                out[layer] += self.wall[sid]
        out["simt"] += self.switch_wall
        return out

    def layer_calls(self) -> Dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for sid, layer in enumerate(self.layer_of):
            if layer in out:
                out[layer] += self.calls[sid]
        return out

    def layer_virtual(self, st: ThreadState) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, seconds in st.virt.items():
            layer = self.layer_of[sid]
            if layer in out:
                out[layer] += seconds
        return out

    def chrome_trace(self, path: str) -> None:
        """Dump the spans as Chrome-trace / Perfetto "complete" events."""
        events = []
        jobs: Dict[int, int] = {}
        rec = self.records
        for i in range(0, len(rec), 7):
            sid, tid, parent, t0, t1, v0, v1 = rec[i:i + 7]
            st = self.threads[tid]
            events.append({
                "name": self.name_of[sid], "cat": self.layer_of[sid],
                "ph": "X", "tid": st.name,
                "pid": jobs.setdefault(id(st.clock), len(jobs)),
                "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {
                    "parent": self.name_of[parent] if parent >= 0 else None,
                    "virtual_t0": v0, "virtual_t1": v1,
                },
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)


class _Span:
    __slots__ = ("tr", "sid", "st", "saved")

    def __init__(self, tr: Tracer, sid: int) -> None:
        self.tr = tr
        self.sid = sid

    def __enter__(self) -> None:
        self.st = self.tr.cur
        self.saved = self.tr._open(self.st, self.sid)

    def __exit__(self, *exc) -> None:
        self.tr._close(self.st, self.sid, *self.saved)
