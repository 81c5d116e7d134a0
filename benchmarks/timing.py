"""Time two or more callables against each other, host speed cancelled
out.

A shared VM's speed swings by several times between minutes, so a ratio
guard or an ablation cell that times one side and then the other can
pass or fail with no code change.  The helpers here take the samples in
alternating rounds — one sample of every callable per round — so a
change in the host's speed hits every side of a round alike, and hold
the median of the per-round ratios, which one slow sample moves by one
rank.  Every sample runs with the garbage collector off (``timeit``'s
default): a collection landing in a sample of a few milliseconds swung
single cells by 2x.

Used by the five in-process ratio guards (``perfcheck_kernels.py``,
``perfcheck_plans.py``, ``perfcheck_aggregation.py``,
``perfcheck_partition.py``, ``perfcheck_switch.py``) and by
``bench_ablation_metadb.py``.
"""

import statistics
import timeit


def samples_us(fns, seconds=0.02, repeat=11):
    """``repeat`` samples, microseconds per call, of each of ``fns``,
    taken in alternating rounds.

    Each callable is called once first, which also sets its calls per
    sample: enough to fill ``seconds`` (at least one; ``seconds=0`` makes
    every sample one call).  A callable may change state between calls
    (a ``DELETE`` of the next row): the samples are its 2nd to
    ``repeat + 1``-th calls at one call per sample.
    """
    timers = [timeit.Timer(fn) for fn in fns]
    numbers = [max(1, int(seconds / max(t.timeit(1), 1e-7))) for t in timers]
    out = [[] for _ in fns]
    for _ in range(repeat):
        for samples, timer, number in zip(out, timers, numbers):
            samples.append(timer.timeit(number) / number * 1e6)
    return out


def compare(a_us, b_us):
    """Best microseconds of two alternated sample lists and the median of
    their per-round ratio (``a`` over ``b``): one slow sample on either
    side moves the median by one rank, not the ratio of two minima."""
    ratio = statistics.median(a / b for a, b in zip(a_us, b_us))
    return min(a_us), min(b_us), ratio
