"""The run list's move pair, ``gather_runs`` / ``scatter_runs``.

Oracle: one slice copy per run, in run order.  The kernels pick one of
three copies from the run list alone (slice loop, byte index, word
index); every test here holds whichever they picked to the oracle, and
the contract tests at the bottom pin *which* one on counts — index
entries materialised through ``expand_runs`` — never on a clock.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import fast_test
from repro.dtypes import FLOAT64, Contiguous
from repro.mpi import mpirun
from repro.mpiio import MODE_CREATE, MODE_RDWR, File, twophase
from repro.pfs import FileSystem, runlist
from repro.pfs.runlist import gather_runs, scatter_runs


def _i64(values):
    return np.array(values, dtype=np.int64)


def oracle_gather(buf, offsets, lengths):
    parts = [buf[o:o + l] for o, l in zip(offsets.tolist(), lengths.tolist())]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)


def oracle_scatter(buf, offsets, lengths, data):
    pos = 0
    for o, l in zip(offsets.tolist(), lengths.tolist()):
        buf[o:o + l] = data[pos:pos + l]  # in run order: later run wins
        pos += l


@pytest.fixture
def index_entries(monkeypatch):
    """Length of every index the move kernels materialise from here on."""
    seen = []
    real = runlist.expand_runs

    def spy(offsets, lengths):
        index = real(offsets, lengths)
        seen.append(len(index))
        return index

    monkeypatch.setattr(runlist, "expand_runs", spy)
    return seen


# ---------------------------------------------------------------------------
# (i) equal to the slice loop, whatever the path
# ---------------------------------------------------------------------------

@st.composite
def move_cases(draw):
    """Run lists in a unit of 1-16 bytes on both sides of every path cut:
    0-60 runs (the slice cut is 16), runs of a few bytes to several
    hundred (total on both sides of the word cut, mean run on both sides
    of the long-run cut), zero-length runs, unsorted and overlapping
    offsets; the buffer's base and ``data``'s base displaced by odd bytes
    and the buffer's length not a multiple of the word."""
    unit = draw(st.sampled_from([1, 2, 4, 8, 16]))
    n = draw(st.integers(0, 60))
    longest = draw(st.sampled_from([3, 40, 200, 700])) // min(unit, 4) + 1
    ln = draw(st.lists(st.integers(0, longest), min_size=n, max_size=n))
    reach = sum(ln) + 4
    off = draw(st.lists(st.integers(0, reach), min_size=n, max_size=n))
    if draw(st.booleans()):
        off.sort()
    off, ln = _i64(off) * unit, _i64(ln) * unit
    nbuf = int((off + ln).max(initial=0)) + draw(st.integers(0, 7))
    return (off, ln, nbuf, draw(st.sampled_from([0, 1, 3])),
            draw(st.sampled_from([0, 1, 5])), draw(st.integers(0, 2**31)))


@settings(max_examples=300, deadline=None)
@given(move_cases())
def test_move_kernels_equal_the_slice_loop_property(case):
    off, ln, nbuf, base, data_base, seed = case
    rng = np.random.default_rng(seed)
    big = rng.integers(0, 256, base + nbuf, dtype=np.uint8)
    buf = big[base:]  # base not word-aligned when base is odd
    before, in_front = buf.copy(), big[:base].copy()

    got = gather_runs(buf, off, ln)
    assert got.dtype == np.uint8 and got.ndim == 1
    assert got.tolist() == oracle_gather(before, off, ln).tolist()
    assert buf.tolist() == before.tolist()  # a gather writes nothing

    total = int(ln.sum())
    data = rng.integers(0, 256, data_base + total, dtype=np.uint8)[data_base:]
    want = before.copy()
    oracle_scatter(want, off, ln, data)
    scatter_runs(buf, off, ln, data)
    assert buf.tolist() == want.tolist()
    assert big[:base].tolist() == in_front.tolist()


def _strided(n, nbytes, unit, first=0):
    """``n`` runs of ``nbytes`` at ``first`` plus multiples of ``unit``,
    descending, the second half laid one unit off the first half (partial
    overlaps: the later run wins)."""
    half = n // 2 + 1
    stride = -(-(3 * nbytes // 2) // unit) * unit
    i = np.arange(n, dtype=np.int64)
    off = first + (i % half) * stride + (i // half) * unit
    return off[::-1].copy(), np.full(n, nbytes, dtype=np.int64)


# (label, offsets, lengths, index entries the kernels may materialise
# per call: None = slice loop, else total bytes // word)
_PATHS = [
    ("one run", *_strided(1, 4000, 8), None),
    ("16 short runs: slice loop", *_strided(16, 40, 8), None),
    ("40 runs of 512 B: slice loop", *_strided(40, 512, 8), None),
    ("17 short runs under the word cut: byte index",
     *_strided(17, 40, 8), 1),
    ("64 DOUBLE-aligned runs: 8-byte words", *_strided(64, 64, 8), 8),
    ("16-byte units still move as 8-byte words", *_strided(64, 64, 16), 8),
    ("aligned to 4 only", *_strided(64, 68, 4, first=4), 4),
    ("aligned to 2 only", *_strided(64, 66, 2, first=2), 2),
    ("one odd header offset: byte index", *_strided(64, 64, 8, first=3), 1),
    ("one odd length: byte index",
     _strided(64, 64, 8)[0], np.r_[_strided(64, 64, 8)[1][:-1], 65], 1),
]


@pytest.mark.parametrize("label, off, ln, word", _PATHS,
                         ids=[p[0] for p in _PATHS])
def test_each_path_is_taken_and_equals_the_slice_loop(
        index_entries, label, off, ln, word):
    rng = np.random.default_rng(7)
    total = int(ln.sum())
    want_entries = [] if word is None else [total // word]
    for base in (0, 3):  # aligned base, odd base
        buf = rng.integers(0, 256, base + int((off + ln).max()) + 5,
                           dtype=np.uint8)[base:]
        before = buf.copy()
        del index_entries[:]
        got = gather_runs(buf, off, ln)
        assert index_entries == want_entries
        assert got.tolist() == oracle_gather(before, off, ln).tolist()

        data = rng.integers(0, 256, total + 1, dtype=np.uint8)[1:]
        want = before.copy()
        oracle_scatter(want, off, ln, data)
        del index_entries[:]
        scatter_runs(buf, off, ln, data)
        assert index_entries == want_entries
        assert buf.tolist() == want.tolist()


def test_empty_run_list_and_all_empty_runs():
    buf = np.arange(32, dtype=np.uint8)
    none = np.empty(0, dtype=np.int64)
    assert gather_runs(buf, none, none).tolist() == []
    scatter_runs(buf, none, none, np.empty(0, dtype=np.uint8))
    # empty runs may point anywhere, past the end of the buffer included
    off, ln = _i64([4, 10_000] * 20), np.zeros(40, dtype=np.int64)
    assert gather_runs(buf, off, ln).tolist() == []
    scatter_runs(buf, off, ln, np.empty(0, dtype=np.uint8))
    assert buf.tolist() == list(range(32))


# ---------------------------------------------------------------------------
# (ii) a gather is a copy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label, off, ln, word", _PATHS,
                         ids=[p[0] for p in _PATHS])
def test_gather_returns_a_fresh_array(label, off, ln, word):
    buf = np.zeros(int((off + ln).max()) + 8, dtype=np.uint8)
    out = gather_runs(buf, off, ln)
    assert not np.shares_memory(out, buf)
    out[:] = 0xFF  # writable, and the buffer does not see it
    assert not buf.any()


# ---------------------------------------------------------------------------
# (iii) contract on counts: index entries per collective
# ---------------------------------------------------------------------------

PER_RANK = 8192  # 4 ranks x 8192 DOUBLEs = 4 stripes = one per aggregator


def _interleaved_roundtrip(disp):
    """4 ranks write then read ``PER_RANK`` one-element DOUBLE runs each,
    element-interleaved (rank r owns r, r+4, ...), through a view
    displaced by ``disp`` bytes.  Returns what each rank read back."""
    def program(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "il.dat", MODE_CREATE | MODE_RDWR)
        ft = Contiguous(1, FLOAT64).with_extent(8 * ctx.size)
        f.set_view(disp=disp + 8 * ctx.rank, etype=FLOAT64, filetype=ft)
        mine = np.arange(PER_RANK, dtype=np.float64) * ctx.size + ctx.rank
        f.write_at_all(0, mine)
        back = np.empty(PER_RANK, dtype=np.float64)
        f.read_at_all(0, back)
        f.close()
        return back

    return mpirun(program, 4, machine=fast_test(),
                  services=lambda sim, machine: {"fs": FileSystem(sim, machine)})


def _check_roundtrip(job, disp):
    for rank, back in enumerate(job.values):
        assert back.tolist() == (np.arange(PER_RANK) * 4.0 + rank).tolist()
    whole = job.services["fs"].lookup("il.dat").store.read(
        disp, 4 * PER_RANK * 8).view(np.float64)
    assert whole.tolist() == np.arange(4 * PER_RANK).tolist()


@pytest.fixture
def aggregations(monkeypatch):
    """``(bytes, union runs)`` of every aggregation, as it is made."""
    made = []
    init = twophase._Aggregation.__init__

    def counting(self, entries):
        init(self, entries)
        made.append((self.nbytes, len(self.offsets)))

    monkeypatch.setattr(twophase._Aggregation, "__init__", counting)
    return made


def test_collective_of_double_runs_indexes_elements_not_bytes(
        index_entries, aggregations):
    """An aggregation of ``n`` one-element DOUBLE runs materialises one
    ``n``-entry index — one entry per element — and nothing else: the
    interleaved segments are dense, so the same index moves their bytes
    in or out of scratch and marks the union they cover (one solid run,
    no sort).  The byte index took ``8 n`` for the segments and ``8 n``
    again for the batches; the move between scratch and file, one union
    run in one ``writev`` / ``readv``, materialises none."""
    job = _interleaved_roundtrip(disp=0)
    _check_roundtrip(job, 0)
    # 4 aggregators x (write + read), one stripe of the file each
    assert aggregations == [(PER_RANK * 8, 1)] * 8
    # one index per aggregation and nothing else: not per batch, not in
    # the byte store, not for the union, not in the (lossless) read's
    # extraction
    assert index_entries == [PER_RANK] * 8


def test_collective_through_an_odd_displacement_falls_back_to_bytes(
        index_entries, aggregations):
    """One odd byte in front of the data: the file domains' bounds are
    stripe-aligned, so each cuts an element into a 1- and a 7-byte piece
    and no aggregation's segments share a width above one byte (their
    offsets, taken from the span's start, all would).  Each aggregation
    still materialises exactly one index — one entry per byte, which also
    gives its union, one solid run — and the calls read back the same."""
    job = _interleaved_roundtrip(disp=1)
    _check_roundtrip(job, 1)
    nbytes = [n for n, _ in aggregations]
    assert sum(nbytes) == 2 * 4 * PER_RANK * 8
    assert [runs for _, runs in aggregations] == [1] * 8
    assert index_entries == nbytes
