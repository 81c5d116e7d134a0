"""Golden corpus for the spmdlint rules.

Each rule gets at least one minimal true-positive snippet and one
false-positive-avoidance snippet drawn from this codebase's real idioms
(rank-0-computes-then-broadcasts, literal field lists, collective file
handles).  Suppression and baseline behavior are exercised on the same
snippets.
"""

import textwrap

import pytest

from repro.analysis import lint_source
from repro.analysis.findings import load_baseline, save_baseline


def findings_in(src, path="snippet.py", baseline=None):
    return lint_source(textwrap.dedent(src), path, baseline=baseline)


def rules_of(result):
    return [f.rule for f in result.findings]


# ---------------------------------------------------------------------------
# SPMD001 rank-branch
# ---------------------------------------------------------------------------


def test_rank_branch_true_positive():
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                comm.barrier()
        """
    )
    assert rules_of(res) == ["rank-branch"]
    f = res.findings[0]
    assert f.code == "SPMD001"
    assert f.op == "barrier"
    assert "rank-dependent branch" in f.message


def test_rank_branch_matched_on_both_arms_is_clean():
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                data = comm.bcast(build(), root=0)
            else:
                data = comm.bcast(None, root=0)
            return data
        """
    )
    assert rules_of(res) == []


def test_rank_zero_computes_then_broadcasts_is_clean():
    # THE idiom of this codebase: only rank 0 computes, everyone bcasts.
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            plan = None
            if comm.rank == 0:
                plan = expensive_plan()
            plan = comm.bcast(plan, root=0)
            comm.barrier()
            return plan
        """
    )
    assert rules_of(res) == []


def test_laundered_guard_is_clean():
    # A value that went through bcast/allreduce is rank-uniform:
    # branching on it afterwards is safe.
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            n = len(my_chunk(comm.rank))
            n = comm.allreduce(n)
            if n > 0:
                comm.barrier()
        """
    )
    assert rules_of(res) == []


def test_implicit_flow_through_rank_guarded_assignment():
    # ``flag`` differs across ranks even though no rank value flows
    # into it directly.
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            flag = False
            if comm.rank == 0:
                flag = True
            if flag:
                comm.barrier()
        """
    )
    assert rules_of(res) == ["rank-branch"]


# ---------------------------------------------------------------------------
# SPMD002 rank-loop
# ---------------------------------------------------------------------------


def test_rank_loop_true_positive():
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            for _ in range(comm.rank):
                comm.barrier()
        """
    )
    assert rules_of(res) == ["rank-loop"]
    assert res.findings[0].code == "SPMD002"


def test_uniform_trip_count_is_clean():
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            steps = comm.bcast(compute_steps(), root=0)
            for _ in range(steps):
                comm.barrier()
        """
    )
    assert rules_of(res) == []


def test_literal_field_list_with_rank_data_is_clean():
    # The fun3d/rt writer idiom: the *elements* are per-rank arrays but
    # the trip count is the literal list length — identical everywhere.
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            mine = my_slice(comm.rank)
            fields = [("p", mine), ("q", mine * 2.0)]
            for name, values in fields:
                write_shared(name, values)
                comm.barrier()
        """
    )
    assert rules_of(res) == []


# ---------------------------------------------------------------------------
# SPMD003 early-exit
# ---------------------------------------------------------------------------


def test_early_return_true_positive():
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                return None
            comm.barrier()
        """
    )
    assert "early-exit" in rules_of(res)
    f = [f for f in res.findings if f.rule == "early-exit"][0]
    assert f.code == "SPMD003"
    assert "barrier" in f.message


def test_rank_guarded_raise_true_positive():
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0 and bad_input():
                raise ValueError("bad input")
            return comm.allgather(1)
        """
    )
    assert "early-exit" in rules_of(res)


def test_uniform_exit_is_clean():
    # Every rank raises or none does: the guard is laundered.
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            errors = comm.allreduce(count_local_errors())
            if errors:
                raise ValueError(f"{errors} errors")
            comm.barrier()
        """
    )
    assert rules_of(res) == []


def test_exit_in_both_arms_is_clean():
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                return "root"
            else:
                return "leaf"
        """
    )
    assert rules_of(res) == []


def test_collective_in_sibling_arm_is_not_on_continuation():
    # Regression shape from core/api.py: a guarded raise in ONE arm,
    # the collective in the OTHER arm — nothing follows the raise.
    res = findings_in(
        """
        def program(ctx, chunk):
            comm = ctx.comm
            ok = comm.allreduce(1)
            if chunk is None:
                local = comm.gather(0)
                if local is None:
                    raise RuntimeError("no history")
            else:
                local = comm.allgather(chunk)
            return local
        """
    )
    assert "early-exit" not in rules_of(res)


# ---------------------------------------------------------------------------
# SPMD004 comm-mismatch
# ---------------------------------------------------------------------------


def test_same_ops_different_communicators_true_positive():
    res = findings_in(
        """
        def program(ctx, world, row):
            if ctx.comm.rank == 0:
                world.barrier()
            else:
                row.barrier()
        """
    )
    assert rules_of(res) == ["comm-mismatch"]
    assert res.findings[0].code == "SPMD004"
    assert "different communicators" in res.findings[0].message


def test_rank_dependent_root_true_positive():
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            return comm.bcast(1, root=comm.rank)
        """
    )
    assert rules_of(res) == ["comm-mismatch"]
    assert "root" in res.findings[0].message


def test_rank_indexed_communicator_true_positive():
    res = findings_in(
        """
        def program(ctx, comms):
            picked = comms[ctx.comm.rank]
            picked.barrier()
        """
    )
    assert rules_of(res) == ["comm-mismatch"]


def test_constant_root_and_shared_comm_are_clean():
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            parts = comm.gather(local_sum(), root=0)
            return comm.bcast(parts, root=0)
        """
    )
    assert rules_of(res) == []


def test_collective_file_handle_is_uniform():
    # Handles from a collective open name one shared context; calling
    # collective I/O through them is not a mismatch.
    res = findings_in(
        """
        def program(sdm, buf):
            f = sdm._open_cached("data.dat", 3)
            f.read_at_all(0, buf)
            sdm._close_cached("data.dat")
        """
    )
    assert rules_of(res) == []


def test_rank_guarded_host_lifecycle_true_positive():
    # A datapath host's pinned read and shutdown are collective: issued
    # on rank 0 alone they leave the other ranks in the bcast/barrier.
    res = findings_in(
        """
        class Client(DatapathHost):
            def finalize(self):
                if self.comm.rank == 0:
                    self.shutdown()

            def peek(self, view):
                out = None
                if self.comm.rank == 0:
                    out = self.read_pinned(1, "d", 0, DOUBLE, view)
                return out
        """
    )
    assert rules_of(res) == ["rank-branch", "rank-branch"]
    assert [f.op for f in res.findings] == [
        "host.shutdown", "host.read_pinned",
    ]


def test_generic_shutdown_receiver_is_not_a_collective():
    res = findings_in(
        """
        def program(ctx, pool):
            if ctx.comm.rank == 0:
                pool.shutdown()
        """
    )
    assert rules_of(res) == []


@pytest.mark.parametrize(
    "call, op",
    [
        ("catalog.read_slice(1, 'd', 0, mine)", "catalog.read_slice"),
        ("f.close()", "close"),
        ("self.pin.take(comm)", "pin.take"),
        ("SDM_write(sdm, group, 'p', 0, buf)", "SDM_write"),
    ],
)
def test_rank_guarded_documented_collective_true_positive(call, op):
    # Each of these says "Collective" in its docstring and carries a
    # declaration at its definition.
    res = findings_in(
        f"""
        def program(self, comm, catalog, f, sdm, group, mine, buf):
            if comm.rank == 0:
                {call}
        """
    )
    assert rules_of(res) == ["rank-branch"]
    assert res.findings[0].op == op


def test_numpy_take_is_not_a_collective():
    res = findings_in(
        """
        def program(ctx, elems, idx):
            if ctx.comm.rank == 0:
                elems = elems.take(idx)
            return elems
        """
    )
    assert rules_of(res) == []


def test_numpy_reduce_is_not_a_collective():
    # No collective is named reduce any more; split is, behind its
    # receiver guard, and numpy defines it too.
    res = findings_in(
        """
        def program(ctx, values):
            if ctx.comm.rank == 0:
                return np.maximum.reduce(np.split(values, 2))
            return None
        """
    )
    assert rules_of(res) == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

_GUARDED = """
def program(ctx):
    comm = ctx.comm
    if comm.rank == 0:{trailer}
        comm.barrier()
"""


def test_justified_suppression_is_honored():
    src = _GUARDED.format(
        trailer="  # spmdlint: ok(rank-branch) exercised by a matching job elsewhere"
    )
    res = findings_in(src)
    assert res.findings == []
    assert [f.rule for f in res.suppressed] == ["rank-branch"]


def test_suppression_without_reason_is_rejected():
    src = _GUARDED.format(trailer="  # spmdlint: ok(rank-branch)")
    res = findings_in(src)
    rules = rules_of(res)
    assert "rank-branch" in rules  # the finding still stands
    assert "bad-suppression" in rules  # and the empty reason is flagged


def test_suppression_for_wrong_rule_does_not_apply():
    src = _GUARDED.format(
        trailer="  # spmdlint: ok(rank-loop) wrong rule entirely"
    )
    res = findings_in(src)
    assert rules_of(res) == ["rank-branch"]
    assert res.suppressed == []


def test_suppression_on_line_above_statement():
    res = findings_in(
        """
        def program(ctx):
            comm = ctx.comm
            # spmdlint: ok(rank-branch) peer collective issued by the service tier
            if comm.rank == 0:
                comm.barrier()
        """
    )
    assert res.findings == []
    assert len(res.suppressed) == 1


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def test_baseline_roundtrip_masks_known_findings(tmp_path):
    src = _GUARDED.format(trailer="")
    first = findings_in(src)
    assert len(first.findings) == 1

    baseline_file = tmp_path / "spmdlint.baseline"
    save_baseline(str(baseline_file), first.findings)
    baseline = load_baseline(str(baseline_file))
    assert baseline  # one fingerprint recorded

    second = findings_in(src, baseline=baseline)
    assert second.findings == []
    assert [f.rule for f in second.baselined] == ["rank-branch"]


def test_baseline_does_not_mask_new_instances(tmp_path):
    src = _GUARDED.format(trailer="")
    first = findings_in(src)
    baseline_file = tmp_path / "spmdlint.baseline"
    save_baseline(str(baseline_file), first.findings)
    baseline = load_baseline(str(baseline_file))

    # Same fingerprint shape appearing twice: one is baselined, the
    # second is new and must fail.
    doubled = """
def program(ctx):
    comm = ctx.comm
    if comm.rank == 0:
        comm.barrier()
    if comm.rank == 1:
        comm.barrier()
"""
    res = findings_in(doubled, baseline=baseline)
    assert len(res.baselined) == 1
    assert len(res.findings) == 1


def test_missing_baseline_file_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "absent")) == {}
