"""Turn one execution of a workload body into named metric values.

``end_to_end`` needs only the :class:`~workloads.Run`; ``per_layer`` also
reads the tracer that was installed around the body.  Names and units are
declared in ``BENCHMARK.json``; the glossary is in ``README.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from trace import LAYERS, Tracer
from workloads import MB, Checks, Run, Workload


def end_to_end(run: Run, wall_s: float, setup_s: float) -> Dict[str, float]:
    return {"wall_s": wall_s, "virtual_s": run.virtual_s, "setup_s": setup_s}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _sum_stats(stats: List[Dict[str, Any]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for snap in stats:
        for key, value in snap.items():
            if isinstance(value, dict):
                value = sum(value.values())
            out[key] = out.get(key, 0) + value
    return out


def virtual_attribution(run: Run, tr: Tracer) -> Dict[str, float]:
    """Per-layer virtual self seconds on the critical rank of each job
    (the main thread for a workload without a simulator), plus
    ``tail``: virtual seconds a job kept running on background workers
    after its last rank had left.  Layers and tail sum to ``virtual_s``.
    """
    out = tr.layer_virtual(tr.main)
    out["tail"] = 0.0
    out["drain"] = 0.0
    drain = tr.ids.get(("core", "SDM.drain_maintenance"))
    for job in run.jobs:
        ranks = [st for st in tr.threads
                 if st.clock is job.sim and st.name.startswith("rank")]
        critical = max(ranks, key=lambda st: st.root_v1)
        for layer, seconds in tr.layer_virtual(critical).items():
            out[layer] += seconds
        out["tail"] += job.elapsed - critical.root_v1
        out["drain"] += critical.virt.get(drain, 0.0)
    return out


def per_layer(
    workload: Workload, inp: Dict[str, Any], run: Run, tr: Tracer,
    traced_wall_s: float, checks: Checks,
) -> Dict[str, float]:
    wall = tr.layer_wall()
    calls = tr.layer_calls()
    calls["simt"] += tr.parks
    virtual = virtual_attribution(run, tr)
    spans = tr.wall_by_name()

    def self_s(*prefixes: str) -> float:
        return sum(w for name, w in spans.items()
                   if name.startswith(prefixes))

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.wall_self_s"] = wall[layer]
        m[f"{layer}.virtual_self_s"] = virtual[layer]

    m["simt.switch_wall_s"] = tr.switch_wall
    m["simt.switches"] = tr.switches
    m["simt.switch_us"] = 1e6 * _ratio(tr.switch_wall, tr.switches)
    m["simt.events"] = tr.events
    m["simt.procs"] = tr.procs
    m["simt.resource_wait_virtual_s"] = tr.resource_wait_virtual

    net = _sum_stats([t.stats() for t in run.transports])
    m["mpi.p2p_messages"] = net.get("n_p2p_messages", 0)
    m["mpi.p2p_bytes"] = net.get("p2p_bytes", 0)
    m["mpi.coll_calls"] = net.get("coll_counts", 0)
    m["mpi.coll_bytes"] = net.get("coll_bytes", 0)

    fs = _sum_stats([job.services["fs"].stats() for job in run.jobs])
    m["mpiio.twophase_wall_self_s"] = self_s("twophase.")
    m["mpiio.sieving_wall_self_s"] = self_s("sieving.")
    m["mpiio.runs_wall_self_s"] = self_s("runs.")
    m["mpiio.runs_submitted"] = fs.get("runs_submitted", 0)
    m["mpiio.runs_serviced"] = fs.get("runs_serviced", 0)
    m["mpiio.coalesce_ratio"] = _ratio(
        fs.get("runs_submitted", 0), fs.get("runs_serviced", 0)
    )

    m["pfs.queue_wait_virtual_s"] = tr.pfs_queue_wait_virtual
    m["pfs.requests"] = fs.get("n_requests", 0)
    m["pfs.opens"] = fs.get("n_opens", 0)
    m["pfs.bytes_written"] = fs.get("bytes_written", 0)
    m["pfs.bytes_read"] = fs.get("bytes_read", 0)
    m["pfs.index_bytes_read"] = fs.get("index_bytes_read", 0)
    m["pfs.write_amp"] = _ratio(fs.get("bytes_written", 0),
                                run.user_bytes_written)
    m["pfs.read_amp"] = _ratio(fs.get("bytes_read", 0), run.user_bytes_read)
    m["pfs.space_amp"] = _ratio(run.outputs.get("stored_bytes", 0),
                                run.live_bytes)

    statements = sum(db.n_statements for db in run.dbs)
    examined = sum(db.n_rows_examined for db in run.dbs)
    m["metadb.statements"] = statements
    m["metadb.stmt_us"] = 1e6 * _ratio(wall["metadb"], statements)
    m["metadb.rows_examined"] = examined
    m["metadb.rows_per_stmt"] = _ratio(examined, statements)
    m["metadb.hash_paths"] = sum(db.n_hash_paths for db in run.dbs)
    m["metadb.slice_paths"] = sum(db.n_slice_paths for db in run.dbs)
    m["metadb.agg_probes"] = sum(db.n_agg_probes for db in run.dbs)
    for phase in ("insert", "lookup", "flip"):
        m[f"metadb.{phase}_wall_s"] = run.host_phases.get(phase, 0.0)
    m["metadb.dump_wall_s"] = self_s("Database.dump")
    m["metadb.loads_wall_s"] = self_s("Database.loads")

    m["core.write_wall_self_s"] = self_s("SDM.write")
    m["core.read_wall_self_s"] = self_s("SDM.read")
    m["core.reorganize_wall_self_s"] = self_s("SDM.reorganize",
                                              "SDM.compact")
    m["core.import_wall_self_s"] = self_s(
        "SDM.import_", "SDM.make_importlist", "SDM.release_importlist"
    )
    m["core.index_distri_wall_self_s"] = self_s(
        "SDM.partition_", "SDM.index_registry", "HistoryRegistration."
    )
    m["core.catalog_wall_self_s"] = self_s("SDMCatalog.")
    m["core.maint_wall_self_s"] = self_s("maintenance_worker")
    maint = _sum_stats([job.services["maint"].stats() for job in run.jobs])
    m["core.maint_enqueued"] = maint.get("enqueued", 0)
    m["core.maint_executed"] = maint.get("executed", 0)
    m["core.maint_bytes_reclaimed"] = maint.get("bytes_reclaimed", 0)
    m["core.maint_drain_virtual_s"] = virtual["tail"] + virtual["drain"]

    scaled = run.scale / MB
    m["apps.write_mbps_virtual"] = _ratio(
        run.user_bytes_written * scaled, run.phases.get("write", 0.0)
    )
    m["apps.read_mbps_virtual"] = _ratio(
        run.read_phase_bytes * scaled, run.phases.get("read", 0.0)
    )
    m["apps.import_virtual_s"] = run.phases.get("import", 0.0)
    m["apps.import_warm_virtual_s"] = run.phases.get("import_warm", 0.0)
    m["apps.reorganize_virtual_s"] = run.phases.get("reorganize", 0.0)
    m["partition.wall_s"] = inp["timers"].get("partition", 0.0)
    m["mesh.wall_s"] = (inp["timers"].get("mesh", 0.0)
                        + inp["timers"].get("maps", 0.0))

    unattributed = traced_wall_s - sum(wall.values())
    m["bench.unattributed_wall_s"] = unattributed

    # Harness health: these feed failed/attempted like any output check.
    for layer in workload.expected_layers:
        checks.expect(calls[layer] > 0, f"no {layer} wrapper was hit")
    checks.expect(
        abs(unattributed) <= 0.05 * traced_wall_s,
        f"unattributed {unattributed:.4f}s of {traced_wall_s:.4f}s traced",
    )
    total = sum(virtual[layer] for layer in LAYERS) + virtual["tail"]
    checks.expect(
        abs(total - run.virtual_s) <= 1e-9 * max(run.virtual_s, 1.0),
        f"virtual attribution {total!r} != virtual_s {run.virtual_s!r}",
    )
    return m
