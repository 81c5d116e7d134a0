"""Property: chunked-read resolution agrees with a plain per-gid oracle.

``_chunk_positions`` turns a rank's sorted wanted gids into absolute file
positions against every chunk map of one instance.  The oracle states the
overlap rule the slow, obvious way: a dict ``gid -> position`` filled chunk
by chunk in ascending writer rank, so a later (higher) writer's entry
replaces an earlier one — what the two-phase exchange does to overlapping
writes.  Layouts mix arithmetic chunks (stride 1 and stride > 1), indexed
chunks, ghost overlaps across ranks and empty chunks; wanted sets are a
rank's own map, a foreign share, 1-50 sparse gids, every gid, repeated
gids, gids no chunk holds, and sets whose spread (range over size) sits
exactly at ``_TABLE_MAX_SPREAD`` and one gid past it.

Two paths resolve, chosen by that spread.  Up to the cut, one position
table over the wanted range takes every chunk's hits
(``_table_positions``); above it, each indexed chunk probes the smaller
of two in-range slices into the larger — the chunk's gids inside the
wanted range, or the wanted gids inside the chunk's range
(``_probe_positions``).  A spy names the path every draw took; the test
requires draws on the table path (with stride > 1 chunks and ghost
overlaps among them), on both probe sides, and at and one past the cut,
and holds the table to at most cut x wanted entries.  ``PINNED`` cases,
run as ``@example``s too, pin one draw to each path.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import resolve as datapath
from repro.core.resolve import _TABLE_MAX_SPREAD as CUT
from repro.core.resolve import _chunk_positions
from repro.metadb.schema import CHUNK_INDEX_BYTES, ChunkRecord

WANTED_KINDS = ("own", "foreign", "sparse", "all", "repeated", "absent",
                "at_cut", "past_cut")


def _layout(n, specs, esize):
    """Chunk records and index blocks for ``specs`` (one ``(kind, gids)``
    per rank), laid out back to back as a chunked write places them."""
    chunks, blocks, cursor = [], {}, 0
    for rank, (kind, gids) in enumerate(specs):
        count = len(gids)
        if kind == "empty" or count == 0:
            chunks.append(ChunkRecord(rank, 0, -1, 0, cursor, cursor))
            continue
        if kind == "indexed":
            data = cursor + count * CHUNK_INDEX_BYTES
            ch = ChunkRecord(rank, int(gids[0]), int(gids[-1]), count,
                             cursor, data)
            blocks[ch.block] = gids
        else:
            step = int(gids[1] - gids[0]) if count > 1 else 1
            data = cursor
            ch = ChunkRecord(rank, int(gids[0]), int(gids[-1]), count,
                             cursor, data, gid_step=step)
        chunks.append(ch)
        cursor = data + count * esize
    return chunks, blocks


def _chunk_gids(ch, blocks):
    if ch.num_elements == 0:
        return np.empty(0, dtype=np.int64)
    if ch.block is not None:
        return blocks[ch.block]
    return np.arange(ch.gid_min, ch.gid_max + 1, ch.gid_step, dtype=np.int64)


def oracle(chunks, blocks, esize, wanted):
    where = {}
    for ch in sorted(chunks, key=lambda c: c.rank):
        for k, g in enumerate(_chunk_gids(ch, blocks)):
            where[int(g)] = ch.data_offset + k * esize
    return np.array([where.get(int(g), -1) for g in wanted], dtype=np.int64)


def probe_sides(chunks, blocks, wanted):
    """For each indexed chunk the wanted range touches, which in-range
    slice is the smaller: ``"block"`` (the chunk's gids inside the wanted
    range, at most as many as the wanted gids inside the chunk's range)
    or ``"wanted"``."""
    sides = []
    u = np.unique(wanted)
    if len(u) == 0:
        return sides
    for ch in chunks:
        if ch.block is None or ch.gid_max < u[0] or ch.gid_min > u[-1]:
            continue
        gids = blocks[ch.block]
        in_block = int(((gids >= u[0]) & (gids <= u[-1])).sum())
        in_wanted = int(((u >= ch.gid_min) & (u <= ch.gid_max)).sum())
        sides.append("block" if in_block <= in_wanted else "wanted")
    return sides


def table_features(chunks, blocks, wanted):
    """What a table-path draw put in its table: ``"strided"`` for an
    arithmetic chunk of stride > 1 with a gid in the wanted range,
    ``"ghost"`` for a gid in that range held by two chunks."""
    lo, hi = int(wanted.min()), int(wanted.max())
    held, found = [], set()
    for ch in chunks:
        gids = _chunk_gids(ch, blocks)
        gids = gids[(gids >= lo) & (gids <= hi)]
        if len(gids) and ch.block is None and ch.gid_step > 1:
            found.add("strided")
        held.append(gids)
    held = np.concatenate(held) if held else np.empty(0, dtype=np.int64)
    if len(np.unique(held)) < len(held):
        found.add("ghost")
    return found


@pytest.fixture()
def paths(monkeypatch):
    """Spy on the two resolution paths: returns the list of ``(path,
    table entries)`` calls, ``path`` ``"table"`` or ``"probe"``.  A table
    call records the length of every ``np.full`` it allocates."""
    calls = []
    table, probe = datapath._table_positions, datapath._probe_positions

    def spied_table(live, blocks, esize, wanted):
        sizes = []
        full = np.full

        def counted_full(shape, *args, **kwargs):
            sizes.append(shape)
            return full(shape, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "full", counted_full)
            out = table(live, blocks, esize, wanted)
        calls.append(("table", sizes))
        return out

    def spied_probe(*args):
        calls.append(("probe", None))
        return probe(*args)

    monkeypatch.setattr(datapath, "_table_positions", spied_table)
    monkeypatch.setattr(datapath, "_probe_positions", spied_probe)
    return calls


@st.composite
def chunk_specs(draw, n):
    """One rank's chunk over ``[0, n)``: arithmetic (stride 1 or > 1),
    indexed (a random subset, so ranks' maps overlap — ghosts) or
    empty."""
    kind = draw(st.sampled_from(
        ("dense", "strided", "indexed", "indexed", "empty")))
    if kind == "empty":
        return kind, np.empty(0, dtype=np.int64)
    if kind == "indexed":
        seed = draw(st.integers(0, 2**20))
        density = draw(st.sampled_from((0.1, 0.5, 0.9, 1.0)))
        rng = np.random.default_rng(seed)
        gids = np.flatnonzero(rng.random(n) < density).astype(np.int64)
        if len(gids) == 0:
            gids = np.array([draw(st.integers(0, n - 1))], dtype=np.int64)
        return kind, gids
    step = 1 if kind == "dense" else draw(st.integers(2, 5))
    first = draw(st.integers(0, n - 1))
    count = draw(st.integers(1, max(1, (n - 1 - first) // step + 1)))
    return "arithmetic", first + step * np.arange(count, dtype=np.int64)


@st.composite
def cases(draw):
    """``(global size, chunk specs in rank order, element size, wanted
    kind, seed)``."""
    n = draw(st.integers(1, 400))
    specs = draw(st.lists(chunk_specs(n), min_size=0, max_size=5))
    esize = draw(st.sampled_from((4, 8)))
    kind = draw(st.sampled_from(WANTED_KINDS))
    seed = draw(st.integers(0, 2**20))
    return n, specs, esize, kind, seed


def _wanted(n, specs, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "own":
        owned = [g for k, g in specs if len(g)]
        return owned[seed % len(owned)] if owned else np.empty(0, np.int64)
    if kind == "foreign":
        lo = int(rng.integers(0, n))
        return np.arange(lo, int(rng.integers(lo, n)) + 1, dtype=np.int64)
    if kind == "sparse":
        k = int(rng.integers(1, 51))
        return np.sort(rng.integers(0, n, k)).astype(np.int64)
    if kind == "all":
        return np.arange(n, dtype=np.int64)
    if kind == "repeated":
        base = np.sort(rng.choice(n, min(n, 20), replace=False))
        return np.sort(np.repeat(base, rng.integers(1, 4, len(base))))
    if kind in ("at_cut", "past_cut"):
        # k gids spanning exactly CUT * k (one more past the cut); the
        # top ones may lie above every chunk
        k = int(rng.integers(2, max(2, n // CUT) + 1))
        span = CUT * k + (kind == "past_cut")
        lo = int(rng.integers(0, max(1, n - span + 1)))
        inner = rng.choice(np.arange(lo + 1, lo + span - 1), k - 2,
                           replace=False)
        return np.sort(np.concatenate(([lo, lo + span - 1], inner))).astype(
            np.int64)
    # absent: gids above every chunk, some mixed with held ones
    above = n + np.arange(int(rng.integers(1, 10)), dtype=np.int64)
    held = np.sort(rng.integers(0, n, int(rng.integers(0, 5))))
    return np.sort(np.concatenate([held, above])).astype(np.int64)


def _run(case, calls):
    """Resolve ``case`` against the oracle; returns the draw's labels."""
    n, specs, esize, kind, seed = case
    chunks, blocks = _layout(n, specs, esize)
    wanted = _wanted(n, specs, kind, seed)
    shuffled = list(reversed(chunks))  # input order must not matter
    del calls[:]
    got = _chunk_positions(shuffled, blocks, esize, wanted)
    np.testing.assert_array_equal(got, oracle(chunks, blocks, esize, wanted))
    assert len(calls) <= 1, calls
    labels = {kind}
    if not calls:  # no live chunk: nothing to resolve against
        return labels
    path, sizes = calls[0]
    labels.add(path)
    # The cut decides: at it the table, one gid past it the probe.
    assert kind != "at_cut" or path == "table"
    assert kind != "past_cut" or path == "probe"
    unique = len(np.unique(wanted))
    if path == "table":
        # The table is the wanted range and never outgrows the cut.
        span = int(wanted[-1]) - int(wanted[0]) + 1
        assert sizes == [span] and span <= CUT * unique, (sizes, unique)
        labels |= {f"table:{f}" for f in table_features(chunks, blocks,
                                                        wanted)}
    else:
        labels |= {f"probe:{side}"
                   for side in probe_sides(chunks, blocks, wanted)}
    return labels


# One draw pinned to each path: (case, the labels it must carry).
PINNED = (
    # A rank's own map out of one whole indexed chunk, spread 2: table.
    ((64, [("indexed", np.arange(0, 64, 2, dtype=np.int64))], 8, "own", 0),
     {"table"}),
    # Every gid under a stride-3 chunk and an overlapping indexed one
    # (ghosts on 0, 3, ..., 48): table, later writer winning.
    ((64, [("arithmetic", np.arange(0, 64, 3, dtype=np.int64)),
           ("indexed", np.arange(0, 50, dtype=np.int64))], 4, "all", 0),
     {"table", "table:strided", "table:ghost"}),
    # A stride-3 chunk stepping over the whole wanted range (4, 5): table,
    # nothing assigned from it.
    ((12, [("arithmetic", np.arange(0, 12, 3, dtype=np.int64)),
           ("indexed", np.array([4, 5], dtype=np.int64))], 8, "own", 1),
     {"table"}),
    # Every 20th gid against a chunk as sparse and one sparser: spread 19,
    # probe, each block's slice the smaller.
    ((400, [("indexed", np.arange(0, 400, 20, dtype=np.int64)),
            ("indexed", np.array([0, 399], dtype=np.int64))], 8, "own", 0),
     {"probe", "probe:block"}),
    # Three wanted gids out of a big indexed chunk: probe, wanted side.
    ((400, [("indexed", np.arange(400, dtype=np.int64))], 8, "sparse", 3),
     {"probe", "probe:wanted"}),
    # Spread exactly at the cut, then one gid past it.
    ((400, [("indexed", np.arange(400, dtype=np.int64))], 8, "at_cut", 1),
     {"table"}),
    ((400, [("indexed", np.arange(400, dtype=np.int64))], 8, "past_cut", 1),
     {"probe"}),
)


def _with_pinned(test):
    for case, _ in reversed(PINNED):
        test = example(case)(test)
    return test


@pytest.mark.parametrize("case, labels", PINNED)
def test_pinned_draws_take_their_path(paths, case, labels):
    assert labels <= _run(case, paths)


def test_chunk_positions_match_the_overlap_oracle(paths):
    seen = Counter()

    @settings(max_examples=300, deadline=None)
    @given(cases())
    @_with_pinned
    def check(case):
        seen.update(_run(case, paths))

    check()
    for label in ("table", "table:strided", "table:ghost", "probe",
                  "probe:block", "probe:wanted", *WANTED_KINDS):
        assert seen[label] > 0, (label, seen)
