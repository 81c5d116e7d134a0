"""Post-processing a finished run: the visualization-support workflow.

The paper's future work plans SDM support for visualization applications —
tools that start *after* the simulation, with nothing but the metadata
database, and pull out the data they need.  This example:

1. runs the RT template for several steps (the "simulation job");
2. starts a *separate* post-processing job against the snapshotted file
   system + database, which uses :class:`SDMCatalog` to discover what
   exists and to rehydrate the run's data group (``load_group``) — no
   file names or sizes in the code;
3. splits its ranks into two working groups with ``comm.split`` (node-field
   analysts vs triangle-field analysts), each reading its datasets
   collectively and computing per-step statistics;
4. hands every rank the whole last node field (``read_global``, the
   visualization front end's read) and checks it against the analysts';
5. prints the interface growth curve and an I/O report.

Run:  python examples/postprocess_visualization.py
"""

import numpy as np

from repro.apps.rt import RTRunConfig, run_rt_sdm
from repro.bench.iostats import io_report
from repro.core import Organization, sdm_services, snapshot_services
from repro.core.catalog import SDMCatalog
from repro.mesh import rt_like_problem
from repro.mpi import mpirun
from repro.partition import Graph, multilevel_kway

SIM_PROCS = 8
POST_PROCS = 4
CELLS = 8
TIMESTEPS = 5


def main():
    # ---------------------------------------------------- simulation job --
    problem = rt_like_problem(CELLS)
    g = Graph.from_edges(
        problem.mesh.n_nodes, problem.mesh.edge1, problem.mesh.edge2
    )
    part = multilevel_kway(g, SIM_PROCS, seed=2)

    print(f"simulation: RT on {SIM_PROCS} ranks, {TIMESTEPS} steps...")
    sim_job = mpirun(
        lambda ctx: run_rt_sdm(
            ctx, problem, part,
            RTRunConfig(organization=Organization.LEVEL_2, timesteps=TIMESTEPS),
        ),
        SIM_PROCS, services=sdm_services(),
    )
    snap = snapshot_services(sim_job)
    print(f"  wrote {sum(r.bytes_written for r in sim_job.values) / 2**20:.2f} "
          f"MB; snapshot carries {len(snap.files)} files + the database\n")

    # ------------------------------------------------ post-processing job --
    def post(ctx):
        catalog = SDMCatalog.attach(ctx)
        runs = catalog.runs()
        run = runs[-1]
        datasets = catalog.load_group(run.runid).datasets
        # Two analyst groups: even ranks take nodes, odd ranks triangles.
        role = ctx.rank % 2
        team = ctx.comm.split(color=role, key=ctx.rank)
        name = "node_data" if role == 0 else "triangle_data"
        rec = datasets[name]
        steps = catalog.timesteps(run.runid, name)
        stats = []
        for t in steps:
            # Each team reads its dataset collectively (block split).
            base = rec.global_size // team.size
            counts = [base + (1 if r < rec.global_size % team.size else 0)
                      for r in range(team.size)]
            start = sum(counts[: team.rank])
            mine = np.arange(start, start + counts[team.rank], dtype=np.int64)
            # Swap in the team communicator for the collective read.
            saved = ctx.comm
            ctx.comm = team
            try:
                vals = catalog.read_slice(run.runid, name, t, mine)
            finally:
                ctx.comm = saved
            local_max = float(np.abs(vals).max()) if len(vals) else 0.0
            stats.append(team.allreduce(local_max, op=lambda a, b: max(a, b)))
        # The front end's view: the whole last node field on every rank.
        last = catalog.timesteps(run.runid, "node_data")[-1]
        whole = catalog.read_global(run.runid, "node_data", last)
        assert len(whole) == datasets["node_data"].global_size
        catalog.release()
        return role, name, steps, stats, float(np.abs(whole).max())

    print(f"post-processing: {POST_PROCS} ranks discover and read the run "
          f"through the catalog...")
    post_job = mpirun(post, POST_PROCS, services=sdm_services(seed_from=snap))

    role0 = next(v for v in post_job.values if v[0] == 0)
    role1 = next(v for v in post_job.values if v[0] == 1)
    print("\n  interface growth (max |amplitude| per checkpoint):")
    print(f"  {'step':>6} {'node field':>12} {'triangle field':>15}")
    for i, t in enumerate(role0[2]):
        print(f"  {t:>6} {role0[3][i]:>12.5f} {role1[3][i]:>15.5f}")
    assert all(v[4] == role0[3][-1] for v in post_job.values)
    print(f"  the whole last node field (read_global) on every rank peaks "
          f"at {role0[4]:.5f}, as the analysts found")
    growth = role0[3][-1] / role0[3][0]
    assert growth > 1.5, "instability should grow"
    print(f"\n  amplitude grew {growth:.1f}x over the run "
          f"(Rayleigh-Taylor growth, as written by the simulation)")

    print("\npost-processing I/O report:")
    report = io_report(post_job)
    for line in report.render().splitlines():
        print(f"  {line}")


if __name__ == "__main__":
    main()
