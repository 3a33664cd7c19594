"""The host's speed, measured next to every timed interval.

On a shared host the same code runs up to 2x slower for seconds to minutes at
a time, because other tenants contend for the physical cores; the process's
CPU time slows with its wall time, so CPU time does not help.  The benchmark
therefore times a fixed pure-Python pass, which uses no tautloop code, right
before and right after every timed interval, and scales the interval's
seconds by ``NOMINAL_S`` over the mean pass time on the two sides.  A scaled
time reads as seconds on a host where one pass takes ``NOMINAL_S``.

A slower program moves the scaled time by the same share as the raw one,
because the pass does not depend on the program.  The raw times are printed
and recorded beside the scaled ones.
"""

from __future__ import annotations

import gc
import os
import time

# one pass on an idle 2-vCPU Xeon VM
NOMINAL_S = 0.03
# share of a timed interval's length spent timing passes after it
DUTY = 0.15


_NAMES = tuple(f"v{i}" for i in range(12))
_EDGES = tuple(frozenset((_NAMES[i], _NAMES[(i * 5 + 3) % 12])) for i in range(12))


def reference_pass(n: int = 3000) -> int:
    """Operations of the kind the program spends its time on, written anew
    here: symbols split from strings, frozenset edges, a dict of indices,
    commutation bit masks and free reduction on a list of signed letters.

    Of the passes tried (a BFS on free-group words with dicts of tuples, a
    larger BFS, random access to a large dict, sorting small objects, and
    this one), this one tracked the workloads' slowdowns most closely.
    """
    total = 0
    for k in range(n):
        index = {v: i + 1 for i, v in enumerate(_NAMES)}
        comm = [0] * (len(_NAMES) + 1)
        for e in _EDGES:
            u, v = sorted(e)
            comm[index[u]] |= 1 << index[v]
            comm[index[v]] |= 1 << index[u]
        _, x, y = f"e:{_NAMES[k % 12]}:{_NAMES[(k * 7) % 12]}".split(":")
        nf: list[int] = []
        for c in (index[x], -index[y], index[y], -index[x], k % 12 + 1, -(k % 5 + 1)):
            if nf and nf[-1] == -c:
                nf.pop()
            elif nf and (comm[abs(c)] >> abs(nf[-1])) & 1:
                nf.insert(len(nf) - 1, c)
            else:
                nf.append(c)
        total += len(tuple(nf))
    return total


def pass_s(interval_s: float = 0.0) -> float:
    """Mean seconds of the reference passes timed after an interval.

    Passes are repeated until they fill ``DUTY`` of the interval (one pass at
    least), so a long interval gets as long a sample of the host's speed.
    """
    gc.collect()
    passes = 0
    start = time.perf_counter()
    while True:
        reference_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= DUTY * interval_s:
            return elapsed / passes


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU.

    The vCPUs of a shared host slow down independently, so passes timed on
    one CPU say little about code that ran on another.  The highest CPU
    allowed is taken, since the first one usually also serves interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to seconds at the nominal speed."""
    return NOMINAL_S / ((before + after) / 2)
