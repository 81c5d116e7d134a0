"""The striping-aware scheduler: one vectorized plan for all controllers.

Three layers of evidence: (i) the per-controller loop the plan replaced,
kept here as the oracle; (ii) the invariants callers rely on, stated
directly; (iii) a contract on counts — how many run-list kernel calls one
plan makes does not depend on how many controllers or batches it has.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs import StripeLayout, scheduler
from repro.pfs.runlist import coalesce_runs
from repro.pfs.scheduler import controller_batches, split_runs_by_stripe


def _batches(layout, offsets, lengths, max_bytes, start=0):
    """The flat plan as a list of ``(controller, offsets, lengths)``."""
    ctls, off, ln, bounds = controller_batches(
        layout, np.asarray(offsets, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64), max_bytes, start,
    )
    assert len(bounds) == len(ctls) + 1 and bounds[0] == 0
    assert bounds[-1] == len(off) == len(ln)
    assert (np.diff(bounds) > 0).all()  # no empty batch
    return [
        (int(c), off[a:b].tolist(), ln[a:b].tolist())
        for c, a, b in zip(ctls, bounds[:-1], bounds[1:])
    ]


# ---------------------------------------------------------------------------
# (i) the oracle: one controller at a time, a union1d walk per controller
# ---------------------------------------------------------------------------

def _oracle_size_batches(offsets, lengths, max_bytes):
    keep = lengths > 0
    offsets, lengths = offsets[keep], lengths[keep]
    if len(offsets) == 0:
        return []
    cum = np.cumsum(lengths, dtype=np.int64)
    total = int(cum[-1])
    run_start = cum - lengths
    cuts = np.arange(max_bytes, total, max_bytes, dtype=np.int64)
    piece_start = np.union1d(run_start, cuts)
    piece_len = np.diff(np.concatenate((piece_start, [total])))
    run_idx = np.searchsorted(cum, piece_start, side="right")
    piece_off = offsets[run_idx] + (piece_start - run_start[run_idx])
    splits = np.searchsorted(piece_start, cuts)
    bounds = np.concatenate(([0], splits, [len(piece_start)]))
    return [
        (piece_off[a:b], piece_len[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]


def _oracle_controller_batches(layout, offsets, lengths, max_bytes, start):
    poff, plen, pctl = split_runs_by_stripe(layout, offsets, lengths)
    queues = []
    for ctl in range(layout.n_controllers):
        sel = pctl == ctl
        co, cl = coalesce_runs(poff[sel], plen[sel])
        queues.append([
            (ctl, bo.tolist(), bl.tolist())
            for bo, bl in _oracle_size_batches(co, cl, max_bytes)
        ])
    out = []
    n = layout.n_controllers
    for round_ in range(max((len(q) for q in queues), default=0)):
        for c in range(n):
            q = queues[(start + c) % n]
            if round_ < len(q):
                out.append(q[round_])
    return out


def _runs(spec):
    """Sorted non-overlapping runs from ``(hole, length)`` pairs."""
    offsets, lengths, cursor = [], [], 0
    for hole, ln in spec:
        cursor += hole
        offsets.append(cursor)
        lengths.append(ln)
        cursor += ln
    return (np.array(offsets, dtype=np.int64),
            np.array(lengths, dtype=np.int64))


run_specs = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 150)),
    min_size=0, max_size=25,
)


@settings(max_examples=400, deadline=None)
@given(run_specs, st.integers(1, 40), st.integers(1, 12),
       st.integers(1, 300), st.integers(0, 11))
def test_plan_matches_per_controller_oracle(spec, stripe, n, cap, start):
    """Same batches — controller, offsets, lengths — in the same order as
    the per-controller loop, zero-length runs and empty input included."""
    layout = StripeLayout(stripe_size=stripe, n_controllers=n)
    off, ln = _runs(spec)
    want = _oracle_controller_batches(layout, off, ln, cap, start % n)
    assert _batches(layout, off, ln, cap, start % n) == want


def test_run_spanning_two_controller_rounds_matches_oracle():
    layout = StripeLayout(stripe_size=8, n_controllers=3)
    off, ln = _runs([(5, 8 * 3 * 2 + 11), (3, 0), (2, 40)])
    for cap in (1, 7, 8, 20, 1000):
        for start in range(3):
            assert _batches(layout, off, ln, cap, start) == \
                _oracle_controller_batches(layout, off, ln, cap, start)


def test_empty_input_is_an_empty_plan():
    layout = StripeLayout(stripe_size=16, n_controllers=4)
    assert _batches(layout, [], [], 64) == []
    assert _batches(layout, [3, 9], [0, 0], 64) == []


def test_input_arrays_are_not_modified():
    layout = StripeLayout(stripe_size=10, n_controllers=2)
    off, ln = _runs([(0, 35), (5, 4)])
    off0, ln0 = off.copy(), ln.copy()
    _batches(layout, off, ln, 12)
    assert off.tolist() == off0.tolist() and ln.tolist() == ln0.tolist()


# ---------------------------------------------------------------------------
# (ii) the invariants, stated directly
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(run_specs, st.integers(1, 40), st.integers(1, 12),
       st.integers(1, 300), st.integers(0, 11))
def test_plan_invariants(spec, stripe, n, cap, start):
    layout = StripeLayout(stripe_size=stripe, n_controllers=n)
    off, ln = _runs(spec)
    start %= n
    plan = _batches(layout, off, ln, cap, start)
    covered = []
    for ctl, boff, blen in plan:
        assert 0 < sum(blen) <= cap
        for o, l in zip(boff, blen):
            assert l > 0
            # one controller: both ends of the run in stripes it owns
            assert layout.controller_of(o) == ctl
            assert layout.controller_of(o + l - 1) == ctl
            covered.extend(range(o, o + l))
    want = [b for o, l in zip(off.tolist(), ln.tolist())
            for b in range(o, o + l)]
    # every input byte exactly once
    assert sorted(covered) == want
    # a controller's batches are full to capacity except its last
    for ctl in range(n):
        sizes = [sum(bl) for c, _, bl in plan if c == ctl]
        assert all(s == cap for s in sizes[:-1])
    if len({c for c, _, _ in plan}) == n:
        # staggered aggregators open on distinct queues
        assert [c for c, _, _ in plan[:n]] == \
            [(start + i) % n for i in range(n)]


def test_staggered_starts_open_on_distinct_controllers():
    layout = StripeLayout(stripe_size=4, n_controllers=5)
    off, ln = _runs([(0, 200)])
    firsts = [_batches(layout, off, ln, 6, start=r)[0][0] for r in range(5)]
    assert firsts == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# (iii) contract on counts: kernel calls per plan are O(1)
# ---------------------------------------------------------------------------

def _kernel_calls(monkeypatch, layout, off, ln, cap):
    calls = {"coalesce_runs": 0, "expand_runs": 0}

    def counting(name):
        fn = getattr(scheduler, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        for name in calls:
            m.setattr(scheduler, name, counting(name))
        nbatches = len(_batches(layout, off, ln, cap))
    return nbatches, calls


def test_kernel_calls_independent_of_controller_count(monkeypatch):
    """One merge and one expansion per cut that splits — at 2 controllers
    and at 16 (the loop it replaced made one merge per controller and one
    walk per batch)."""
    off, ln = _runs([(3, 700), (5, 90), (0, 0), (40, 333)])
    seen = []
    for n in (2, 16):
        layout = StripeLayout(stripe_size=10, n_controllers=n)
        nbatches, calls = _kernel_calls(monkeypatch, layout, off, ln, 25)
        assert nbatches > 2 * n
        seen.append(calls)
    assert seen[0] == seen[1] == {"coalesce_runs": 1, "expand_runs": 2}


def test_kernel_calls_independent_of_batch_count(monkeypatch):
    """Forty whole-stripe runs on one controller: 1 batch or 40, the same
    kernel calls (no run crosses a stripe or a batch boundary, so neither
    cut expands anything)."""
    layout = StripeLayout(stripe_size=10, n_controllers=2)
    off, ln = _runs([(0, 10)] + [(10, 10)] * 39)
    seen = {}
    for cap in (10_000, 10):
        nbatches, calls = _kernel_calls(monkeypatch, layout, off, ln, cap)
        seen[nbatches] = calls
    assert seen == {
        1: {"coalesce_runs": 1, "expand_runs": 0},
        40: {"coalesce_runs": 1, "expand_runs": 0},
    }


def test_kernel_calls_bounded_when_every_cut_splits(monkeypatch):
    layout = StripeLayout(stripe_size=10, n_controllers=1)
    off, ln = _runs([(0, 400)])
    for cap, want in ((400, 1), (10, 40)):
        nbatches, calls = _kernel_calls(monkeypatch, layout, off, ln, cap)
        assert nbatches == want
        assert calls["coalesce_runs"] == 1
        assert calls["expand_runs"] == (1 if want == 1 else 2)


# ---------------------------------------------------------------------------
# split_runs_by_stripe: the stripe cut on its own
# ---------------------------------------------------------------------------

def test_stripe_cut_pieces_and_controllers():
    layout = StripeLayout(stripe_size=10, n_controllers=3)
    off, ln, ctl = split_runs_by_stripe(layout, [5, 40], [20, 3])
    assert off.tolist() == [5, 10, 20, 40]
    assert ln.tolist() == [5, 10, 5, 3]
    assert ctl.tolist() == [0, 1, 2, 1]


def test_stripe_cut_without_crossing_returns_runs_unchanged():
    layout = StripeLayout(stripe_size=10, n_controllers=3)
    off, ln, ctl = split_runs_by_stripe(layout, [0, 12, 25], [10, 0, 5])
    assert off.tolist() == [0, 25] and ln.tolist() == [10, 5]
    assert ctl.tolist() == [0, 2]
