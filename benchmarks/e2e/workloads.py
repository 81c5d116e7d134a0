"""The four closed-loop workloads of the end-to-end benchmark.

Closed loop: one client process drives P simulated ranks; the next job
starts only when the previous one has returned.  Every workload has the
same three steps, kept apart so that each lands on its own clock:

* ``setup(seed, size)`` builds the inputs from the seed (mesh, partition
  vector, map arrays, schema) — reported as ``setup_s``;
* ``body(inputs, tr)`` is what ``wall_s`` times: every ``mpirun`` of the
  workload plus the snapshot between jobs.  ``tr`` is the tracer (or the
  no-op :class:`NullTracer`): the body only opens the few spans that no
  wrapped method covers (``mpirun`` itself, ``snapshot_services``);
* ``check(inputs, run)`` compares the program's outputs with values
  recomputed on the host, outside both clocks.

The program under test only ever sees the generated inputs, never the seed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.apps.fun3d.driver import Fun3dRunConfig, run_fun3d_sdm
from repro.apps.rt.driver import RTRunConfig, run_rt_sdm
from repro.apps.rt.model import evolve_interface, triangle_field_from_nodes
from repro.bench.figures import PAPER
from repro.bench.harness import scaled_machine
from repro.config import origin2000
from repro.core import (
    CANONICAL,
    CHUNKED,
    SDM,
    Organization,
    sdm_services,
    snapshot_services,
)
from repro.core.catalog import SDMCatalog
from repro.dtypes import DOUBLE
from repro.mesh import fun3d_like_problem, install_mesh_file, rt_like_problem
from repro.metadb import Database
from repro.metadb.schema import ChunkRecord, SDMTables
from repro.mpi import mpirun
from repro.partition import Graph, multilevel_kway
from repro.simt import Simulator

MB = 1024.0 * 1024.0
MESH_FILE = "uns3d.msh"


class NullTracer:
    """What the body sees when tracing is off: spans cost one call."""

    def span(self, layer: str, name: str):
        return nullcontext()

    def main_clock(self, clock: Any) -> None:
        pass

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


@dataclass
class Run:
    """What one execution of a workload body leaves behind."""

    jobs: List[Any] = field(default_factory=list)
    transports: List[Any] = field(default_factory=list)
    dbs: List[Database] = field(default_factory=list)
    """Every Database instance the body used (a job seeded from a
    snapshot gets a fresh instance, so counters never double count)."""
    virtual_s: float = 0.0
    user_bytes_written: float = 0.0
    user_bytes_read: float = 0.0
    """Every byte the application asked to read, imports included."""
    read_phase_bytes: float = 0.0
    """The part of it read inside the ``read`` phase (Figs 6/7 axis)."""
    live_bytes: float = 0.0
    """User bytes still readable when the workload ends (space_amp base)."""
    scale: float = 1.0
    """Paper size / our size: virtual bandwidths are reported against
    paper-scale bytes, as in Figs 6 and 7."""
    phases: Dict[str, float] = field(default_factory=dict)
    """Critical-path virtual seconds of the paper's named phases."""
    host_phases: Dict[str, float] = field(default_factory=dict)
    """Host seconds of the workload's own phases (metadb_catalog)."""
    outputs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Checks:
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Workload:
    name: str
    setup: Callable[[int, str], Dict[str, Any]]
    body: Callable[[Dict[str, Any], Any], Run]
    check: Callable[[Dict[str, Any], Run, Checks], None]
    expected_layers: Tuple[str, ...] = (
        "simt", "mpi", "mpiio", "pfs", "metadb", "core", "apps")
    """Layers whose wrappers must be hit on this workload (a traced rep
    fails when one of them records zero calls)."""


def _launch(tr, run: Run, program, nprocs: int, machine, services):
    """One ``mpirun``, with the job's transport kept for its counters."""
    transports: List[Any] = []

    def rank_main(ctx):
        if ctx.rank == 0:
            transports.append(ctx.comm.transport)
        return program(ctx)

    with tr.span("mpi", "mpirun"):
        job = mpirun(rank_main, nprocs, machine=machine, services=services)
    run.jobs.append(job)
    run.transports.append(transports[0])
    run.dbs.append(job.services["db"])
    run.virtual_s += job.elapsed
    return job


def _snapshot(tr, job):
    with tr.span("core", "snapshot_services"):
        return snapshot_services(job)


def _file_bytes(fs, skip=()) -> int:
    return sum(fs.lookup(n).size for n in fs.list_files() if n not in skip)


def _audit_clean(checks: Checks, job, label: str) -> None:
    """Leak audit on a finished job's database: the rows ``SDM.stats()``
    counts at finalize, read straight from the tables."""
    tables = SDMTables(job.services["db"])
    checks.expect(tables.lease_count() == 0, f"{label}: leases left")
    checks.expect(tables.pin_count() == 0, f"{label}: pins left")
    checks.expect(tables.pending_maintenance() == [],
                  f"{label}: maintenance rows left")
    maint = job.services["maint"].stats()
    for key in ("leases_stolen", "flips_rolled_back",
                "flips_rolled_forward", "pins_expired"):
        checks.expect(maint[key] == 0, f"{label}: {key}={maint[key]}")


@contextmanager
def _timed(timers: Dict[str, float], key: str) -> Iterator[None]:
    """Add the body's host seconds to ``timers[key]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timers[key] = timers.get(key, 0.0) + time.perf_counter() - t0


def permutation_maps(nprocs: int, n: int, seed: int) -> List[np.ndarray]:
    """Sorted slices of one seeded permutation: irregular, disjoint,
    covering maps, so every chunk carries a real index block."""
    perm = np.random.default_rng(seed).permutation(n)
    bounds = np.linspace(0, n, nprocs + 1).astype(np.int64)
    return [
        np.sort(perm[bounds[r]:bounds[r + 1]]).astype(np.int64)
        for r in range(nprocs)
    ]


# ---------------------------------------------------------------------------
# fun3d_e2e — the paper's headline flow (Figs 5 and 6)
# ---------------------------------------------------------------------------

_FUN3D_SIZE = {
    "full": dict(nprocs=32, cells=16, timesteps=4),
    "tiny": dict(nprocs=4, cells=4, timesteps=2),
}


def _fun3d_setup(seed: int, size: str) -> Dict[str, Any]:
    p = _FUN3D_SIZE[size]
    timers: Dict[str, float] = {}
    with _timed(timers, "mesh"):
        problem = fun3d_like_problem(p["cells"], seed=seed)
        graph = Graph.from_edges(
            problem.mesh.n_nodes, problem.mesh.edge1, problem.mesh.edge2
        )
    with _timed(timers, "partition"):
        part = multilevel_kway(graph, p["nprocs"], seed=seed)
    scale = PAPER["fun3d_edges"] / problem.mesh.n_edges
    return dict(
        p, problem=problem, part=part, scale=scale,
        machine=scaled_machine(origin2000(), scale), timers=timers,
    )


def _fun3d_services(problem, seed_from=None):
    base = sdm_services(seed_from=seed_from)

    def factory(sim, machine):
        services = base(sim, machine)
        if not services["fs"].exists(MESH_FILE):
            install_mesh_file(
                services["fs"], MESH_FILE,
                problem.mesh.edge1, problem.mesh.edge2,
                problem.edge_arrays, problem.node_arrays,
            )
        return services

    return factory


def _fun3d_body(inp: Dict[str, Any], tr) -> Run:
    problem, part = inp["problem"], inp["part"]
    run = Run(scale=inp["scale"])
    cold_cfg = Fun3dRunConfig(
        organization=Organization.LEVEL_2, timesteps=inp["timesteps"],
        checkpoint_every=1, register_history=True, wait_history=True,
        read_back=True,
    )
    # Fig 5's "sdm_with_history" configuration: import + index
    # distribution only, no checkpoint.
    warm_cfg = Fun3dRunConfig(
        timesteps=1, checkpoint_every=2, register_history=True
    )
    cold = _launch(
        tr, run, lambda ctx: run_fun3d_sdm(ctx, problem, part, cold_cfg),
        inp["nprocs"], inp["machine"], _fun3d_services(problem),
    )
    snap = _snapshot(tr, cold)
    warm = _launch(
        tr, run, lambda ctx: run_fun3d_sdm(ctx, problem, part, warm_cfg),
        inp["nprocs"], inp["machine"],
        _fun3d_services(problem, seed_from=snap),
    )
    written = float(sum(r.bytes_written for r in cold.values))
    run.user_bytes_written = written
    run.user_bytes_read = written + 2.0 * problem.import_bytes
    run.read_phase_bytes = written
    run.live_bytes = written
    run.phases = {
        "write": cold.phase_max("write"),
        "read": cold.phase_max("read"),
        "import": cold.phase_max("import") + cold.phase_max("index_distri"),
        "import_warm": (
            warm.phase_max("import") + warm.phase_max("index_distri")
        ),
    }
    run.outputs = {
        "stored_bytes": _file_bytes(warm.services["fs"], skip=(MESH_FILE,)),
    }
    return run


def _fun3d_check(inp: Dict[str, Any], run: Run, checks: Checks) -> None:
    cold, warm = run.jobs
    for rank, (c, w) in enumerate(zip(cold.values, warm.values)):
        checks.expect(not c.used_history, f"cold rank {rank} used history")
        checks.expect(w.used_history, f"warm rank {rank} missed history")
        # r = p - q, s = p / 2, res = 5 x p: the five datasets read back
        # sum to 7.5 x the written p.
        checks.expect(
            bool(np.isclose(c.read_checksum, 7.5 * c.checksum,
                            rtol=1e-9, atol=1e-9)),
            f"cold rank {rank} read-back checksum",
        )
    _audit_clean(checks, cold, "cold")
    _audit_clean(checks, warm, "warm")


# ---------------------------------------------------------------------------
# rt_lifecycle — chunked appends, background upkeep, catalog post-processing
# ---------------------------------------------------------------------------

_RT_SIZE = {
    "full": dict(nprocs=16, post_nprocs=8, cells=16, timesteps=10),
    "tiny": dict(nprocs=4, post_nprocs=2, cells=4, timesteps=2),
}
_RT_DATASETS = ("node_data", "triangle_data")


def _rt_setup(seed: int, size: str) -> Dict[str, Any]:
    p = _RT_SIZE[size]
    timers: Dict[str, float] = {}
    with _timed(timers, "mesh"):
        problem = rt_like_problem(p["cells"], seed=seed)
        graph = Graph.from_edges(
            problem.mesh.n_nodes, problem.mesh.edge1, problem.mesh.edge2
        )
    with _timed(timers, "partition"):
        part = multilevel_kway(graph, p["nprocs"], seed=seed)
    sizes = {"node_data": problem.mesh.n_nodes,
             "triangle_data": problem.n_triangles}
    maps = {
        name: permutation_maps(p["post_nprocs"], n, seed + i)
        for i, (name, n) in enumerate(sizes.items())
    }
    scale = PAPER["rt_nodes"] / problem.mesh.n_nodes
    return dict(
        p, problem=problem, part=part, maps=maps, scale=scale,
        machine=scaled_machine(origin2000(), scale), timers=timers,
    )


def _rt_body(inp: Dict[str, Any], tr) -> Run:
    problem, part, maps = inp["problem"], inp["part"], inp["maps"]
    run = Run(scale=inp["scale"])
    cfg = RTRunConfig(
        organization=Organization.LEVEL_2, timesteps=inp["timesteps"],
        storage_order=CHUNKED, reorganize_after=True,
        reorganize_mode="background", compact_after=True,
    )
    sim_job = _launch(
        tr, run, lambda ctx: run_rt_sdm(ctx, problem, part, cfg),
        inp["nprocs"], inp["machine"], sdm_services(),
    )
    snap = _snapshot(tr, sim_job)

    def post(ctx):
        catalog = SDMCatalog.attach(ctx)
        runid = catalog.runs()[-1].runid
        found = {}
        for rec in catalog.datasets(runid):
            mine = maps[rec.name][ctx.rank]
            for t in catalog.timesteps(runid, rec.name):
                with ctx.phase("read"):
                    found[rec.name, t] = catalog.read_slice(
                        runid, rec.name, t, mine
                    )
        catalog.release()
        return found

    post_job = _launch(
        tr, run, post, inp["post_nprocs"], inp["machine"],
        sdm_services(seed_from=snap),
    )
    written = float(sum(r.bytes_written for r in sim_job.values))
    run.user_bytes_written = written
    run.user_bytes_read = float(sum(
        v.nbytes for found in post_job.values for v in found.values()
    ))
    run.read_phase_bytes = run.user_bytes_read
    run.live_bytes = written
    run.phases = {
        "write": sim_job.phase_max("write"),
        "read": post_job.phase_max("read"),
        "reorganize": sim_job.phase_max("reorganize"),
    }
    run.outputs = {"stored_bytes": _file_bytes(post_job.services["fs"])}
    return run


def _rt_check(inp: Dict[str, Any], run: Run, checks: Checks) -> None:
    problem, maps = inp["problem"], inp["maps"]
    sim_job, post_job = run.jobs
    dt = RTRunConfig().dt
    for t in range(inp["timesteps"]):
        amplitudes = evolve_interface(problem.mesh.coords, (t + 1) * dt)
        expected = {
            "node_data": amplitudes,
            "triangle_data": triangle_field_from_nodes(
                amplitudes, problem.triangle_nodes
            ),
        }
        for name in _RT_DATASETS:
            for rank, found in enumerate(post_job.values):
                got = found.get((name, t))
                checks.expect(
                    got is not None and np.array_equal(
                        got, expected[name][maps[name][rank]]
                    ),
                    f"slice {name} t={t} rank {rank}",
                )
    _audit_clean(checks, sim_job, "simulation")
    _audit_clean(checks, post_job, "post-processing")


# ---------------------------------------------------------------------------
# bulk_datapath — few events, large arrays: numpy in mpiio/core/pfs
# ---------------------------------------------------------------------------

_BULK_SIZE = {
    "full": dict(nprocs=4, elements=1_000_000, steps=3),
    "tiny": dict(nprocs=2, elements=20_000, steps=3),
}


def _bulk_setup(seed: int, size: str) -> Dict[str, Any]:
    p = _BULK_SIZE[size]
    timers: Dict[str, float] = {}
    with _timed(timers, "maps"):
        maps = permutation_maps(p["nprocs"], p["elements"], seed)
        values = np.random.default_rng(seed + 1).standard_normal(
            p["elements"]
        )
    return dict(p, maps=maps, values=values, machine=origin2000(),
                timers=timers)


def _bulk_body(inp: Dict[str, Any], tr) -> Run:
    maps, values, steps = inp["maps"], inp["values"], inp["steps"]
    n = inp["elements"]
    run = Run()

    def group(sdm, mine):
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "d", mine)
        return handle

    def program(ctx):
        mine = maps[ctx.rank]
        local = values[mine]
        equal = []

        def read_all(sdm, handle, label):
            for t in range(steps):
                back = np.empty(len(mine))
                with ctx.phase("read"):
                    sdm.read(handle, "d", t, back)
                equal.append((label, t, np.array_equal(back, local + t)))

        sdm = SDM(ctx, "bulkc", organization=Organization.LEVEL_2,
                  storage_order=CANONICAL, policy="static")
        handle = group(sdm, mine)
        for t in range(steps):
            with ctx.phase("write"):
                sdm.write(handle, "d", t, local + t)
        read_all(sdm, handle, "canonical")
        sdm.finalize(handle)

        sdm = SDM(ctx, "bulkk", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED, policy="static")
        handle = group(sdm, mine)
        for t in range(steps):
            with ctx.phase("write"):
                fname = sdm.write(handle, "d", t, local + t)
        with ctx.phase("reorganize"):
            for t in range(steps - 1):
                sdm.reorganize(handle, "d", t, mode="sync")
        # Cold: no index block survives from the writes; warm: the
        # rank-local cache now holds them.
        sdm.invalidate_chunked_caches(fname)
        read_all(sdm, handle, "chunked-cold")
        read_all(sdm, handle, "chunked-warm")
        sdm.finalize(handle)
        return equal

    job = _launch(tr, run, program, inp["nprocs"], inp["machine"],
                  sdm_services())
    instance = n * 8.0
    run.user_bytes_written = 2 * steps * instance
    run.user_bytes_read = run.read_phase_bytes = 3 * steps * instance
    run.live_bytes = 2 * steps * instance
    run.phases = {name: job.phase_max(name)
                  for name in ("write", "read", "reorganize")}
    run.outputs = {"stored_bytes": _file_bytes(job.services["fs"])}
    return run


def _bulk_check(inp: Dict[str, Any], run: Run, checks: Checks) -> None:
    (job,) = run.jobs
    for rank, equal in enumerate(job.values):
        checks.expect(len(equal) == 3 * inp["steps"],
                      f"rank {rank} read count")
        for label, t, ok in equal:
            checks.expect(ok, f"rank {rank} {label} t={t} read-back")
    _audit_clean(checks, job, "bulk")


# ---------------------------------------------------------------------------
# metadb_catalog — no simulator: parse / plan / execute / index upkeep
# ---------------------------------------------------------------------------

_META_SIZE = {
    "full": dict(runs=10, datasets=4, timesteps=100, ranks=16,
                 lookups=8_000, chunk_lookups=2_000, flips=25,
                 sample=1_000),
    "tiny": dict(runs=2, datasets=2, timesteps=20, ranks=4,
                 lookups=100, chunk_lookups=50, flips=10, sample=50),
}
_META_NBYTES = 8 * 1024
_CHUNK_EVERY = 10


class ClockOnlyProcess:
    """The ``proc`` this workload hands to metadb: ``hold`` advances a
    private clock and nothing else, so the database charges its modelled
    statement cost (``DatabaseModel.statement_time``) with no simulator
    event and no thread switch.  ``now`` is then the MySQL service time
    one client issuing these statements back to back would wait."""

    name = "metadb-client"
    crashed = False

    def __init__(self) -> None:
        self.now = 0.0

    def hold(self, dt: float) -> None:
        self.now += dt


def _meta_file(run: int, dataset: int, reorganized: bool = False) -> str:
    return f"run{run}.d{dataset}{'.reorg' if reorganized else ''}.dat"


def _meta_setup(seed: int, size: str) -> Dict[str, Any]:
    p = _META_SIZE[size]
    timers: Dict[str, float] = {}
    with _timed(timers, "maps"):
        rng = np.random.default_rng(seed)
        shape = (p["runs"], p["datasets"], p["timesteps"])
        n = int(np.prod(shape))

        def keys(count):
            return [
                tuple(int(v) for v in np.unravel_index(i, shape))
                for i in rng.integers(0, n, size=count)
            ]

        plan = dict(
            lookups=keys(p["lookups"]),
            chunk_lookups=keys(p["chunk_lookups"]),
            flips=[
                tuple(int(v) for v in np.unravel_index(i, shape))
                for i in rng.choice(n, size=p["flips"], replace=False)
            ],
            sample=keys(p["sample"]),
        )
    return dict(p, plan=plan, machine=origin2000(), timers=timers)


def _meta_insert(tables: SDMTables, inp: Dict[str, Any], clock) -> None:
    tables.create_all(proc=clock)
    share = _META_NBYTES // inp["ranks"]
    for r in range(inp["runs"]):
        runid = r + 1
        tables.insert_run(runid, "catalog", 3, 0, inp["timesteps"],
                          proc=clock)
        for t in range(inp["timesteps"]):
            for d in range(inp["datasets"]):
                fname = _meta_file(r, d)
                offset = tables.max_offset_in_file(fname, proc=clock)
                tables.record_execution(
                    runid, f"d{d}", t, fname, offset, _META_NBYTES,
                    proc=clock,
                )
                if t % _CHUNK_EVERY == 0:
                    tables.record_chunks(runid, f"d{d}", t, [
                        ChunkRecord(k, k * 128, k * 128 + 127, 128,
                                    offset + k * share, offset + k * share)
                        for k in range(inp["ranks"])
                    ], proc=clock)


def _meta_flip(tables: SDMTables, key: Tuple[int, int, int], clock) -> None:
    """One whole metadata flip, as reorganization publishes it."""
    r, d, t = key
    old, new = _meta_file(r, d), _meta_file(r, d, reorganized=True)
    holder = "bench:flip"
    if not tables.try_acquire_lease(old, holder, proc=clock, now=clock.now):
        raise RuntimeError(f"lease on {old} refused")
    epoch = tables.begin_flip(old, proc=clock)
    tables.update_execution(
        r + 1, f"d{d}", t, old, new,
        tables.max_offset_in_file(new, proc=clock), _META_NBYTES, epoch,
        proc=clock,
    )
    tables.commit_flip(old, epoch, proc=clock)
    tables.reap_file(old, proc=clock)
    tables.release_lease(old, holder, proc=clock)


def _meta_body(inp: Dict[str, Any], tr) -> Run:
    plan = inp["plan"]
    run = Run()
    clock = ClockOnlyProcess()
    tr.main_clock(clock)
    # The simulator is never run: it only gives the database's
    # connection pool something to hang its (never contended) queue on.
    db = Database(Simulator(), inp["machine"])
    tables = SDMTables(db)
    host = run.host_phases
    # No rank program here: this function is the application.
    with tr.span("apps", "catalog_client"):
        with _timed(host, "insert"):
            _meta_insert(tables, inp, clock)
        with _timed(host, "lookup"):
            epoch = tables.current_epoch(proc=clock)
            found = [
                tables.lookup_execution_version(
                    r + 1, f"d{d}", t, epoch=epoch if i % 2 else None,
                    proc=clock,
                )
                for i, (r, d, t) in enumerate(plan["lookups"])
            ]
            chunk_counts = [
                len(tables.chunks_for(r + 1, f"d{d}", t, proc=clock))
                for r, d, t in plan["chunk_lookups"]
            ]
        with _timed(host, "flip"):
            for key in plan["flips"]:
                _meta_flip(tables, key, clock)
        restored = Database.loads(db.dump())
        with _timed(host, "lookup"):
            again = SDMTables(restored)
            sample = [
                again.lookup_execution_version(r + 1, f"d{d}", t)
                for r, d, t in plan["sample"]
            ]
    run.dbs = [db, restored]
    run.virtual_s = clock.now
    run.outputs = dict(found=found, chunk_counts=chunk_counts,
                       sample=sample, tables=again)
    return run


def _meta_check(inp: Dict[str, Any], run: Run, checks: Checks) -> None:
    plan, out = inp["plan"], run.outputs
    for (r, d, t), row in zip(plan["lookups"], out["found"]):
        # Rows were appended in timestep order, one file per (run, dataset).
        checks.expect(
            row == (_meta_file(r, d), t * _META_NBYTES, _META_NBYTES, 0),
            f"lookup run {r} d{d} t={t}",
        )
    for (r, d, t), count in zip(plan["chunk_lookups"], out["chunk_counts"]):
        want = inp["ranks"] if t % _CHUNK_EVERY == 0 else 0
        checks.expect(count == want, f"chunks_for run {r} d{d} t={t}")
    flipped = {key: i for i, key in enumerate(plan["flips"])}
    per_file: Dict[Tuple[int, int], int] = {}
    new_offset = {}
    for r, d, t in plan["flips"]:
        k = per_file.get((r, d), 0)
        new_offset[r, d, t] = k * _META_NBYTES
        per_file[r, d] = k + 1
    for key, row in zip(plan["sample"], out["sample"]):
        r, d, t = key
        if key in flipped:
            ok = row is not None and row[:3] == (
                _meta_file(r, d, reorganized=True), new_offset[key],
                _META_NBYTES,
            ) and row[3] > 0
        else:
            ok = row == (_meta_file(r, d), t * _META_NBYTES,
                         _META_NBYTES, 0)
        checks.expect(ok, f"restored lookup run {r} d{d} t={t}")
    tables = out["tables"]
    checks.expect(tables.lease_count() == 0, "leases left after flips")
    checks.expect(
        tables.db.execute("SELECT COUNT(*) FROM epoch_table WHERE state = ?",
                          ("intent",))[0][0] == 0,
        "flip intents left",
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("fun3d_e2e", _fun3d_setup, _fun3d_body, _fun3d_check),
        Workload("rt_lifecycle", _rt_setup, _rt_body, _rt_check),
        Workload("bulk_datapath", _bulk_setup, _bulk_body, _bulk_check),
        Workload("metadb_catalog", _meta_setup, _meta_body, _meta_check,
                 ("metadb", "apps")),
    )
}
