"""Property: chunked-read resolution agrees with a plain per-gid oracle.

``_chunk_positions`` turns a rank's sorted wanted gids into absolute file
positions against every chunk map of one instance.  The oracle states the
overlap rule the slow, obvious way: a dict ``gid -> position`` filled chunk
by chunk in ascending writer rank, so a later (higher) writer's entry
replaces an earlier one — what the two-phase exchange does to overlapping
writes.  Layouts mix arithmetic chunks (stride 1 and stride > 1), indexed
chunks, ghost overlaps across ranks and empty chunks; wanted sets are a
rank's own map, a foreign share, 1-50 sparse gids, every gid, repeated
gids and gids no chunk holds.

An indexed chunk is resolved by probing the smaller of two in-range
slices into the larger: the chunk's gids inside the wanted range, or the
wanted gids inside the chunk's range.  The drawn layouts reach both
sides, and the test counts the slice sizes to prove it.
"""

from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.datapath import _chunk_positions
from repro.metadb.schema import CHUNK_INDEX_BYTES, ChunkRecord

WANTED_KINDS = ("own", "foreign", "sparse", "all", "repeated", "absent")


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
    """``(chunk specs in rank order, element size, wanted kind, seed,
    global size)``."""
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
    # absent: gids above every chunk, some mixed with held ones
    above = n + np.arange(int(rng.integers(1, 10)), dtype=np.int64)
    held = np.sort(rng.integers(0, n, int(rng.integers(0, 5))))
    return np.sort(np.concatenate([held, above])).astype(np.int64)


def test_chunk_positions_match_the_overlap_oracle():
    seen = Counter()

    @settings(max_examples=300, deadline=None)
    @given(cases())
    # A rank's own map out of one whole indexed chunk: block side.
    @example((64, [("indexed", np.arange(0, 64, 2, dtype=np.int64))], 8,
              "own", 0))
    # Three wanted gids out of a big indexed chunk: wanted side.
    @example((400, [("indexed", np.arange(400, dtype=np.int64))], 8,
              "sparse", 3))
    def check(case):
        n, specs, esize, kind, seed = case
        chunks, blocks = _layout(n, specs, esize)
        wanted = _wanted(n, specs, kind, seed)
        shuffled = list(reversed(chunks))  # input order must not matter
        got = _chunk_positions(shuffled, blocks, esize, wanted)
        np.testing.assert_array_equal(
            got, oracle(chunks, blocks, esize, wanted))
        seen.update(probe_sides(chunks, blocks, wanted))
        seen[kind] += 1

    check()
    assert seen["block"] > 0 and seen["wanted"] > 0, seen
    assert all(seen[k] > 0 for k in WANTED_KINDS), seen
