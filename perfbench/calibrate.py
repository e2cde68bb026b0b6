"""Correction of wall time for the speed of the machine during a run.

On a shared host the same Python code runs up to 1.7 times slower for
stretches of seconds to minutes, whatever the code, and process CPU
time slows with it, so it is not steal time that CPU time would leave
out.  A run therefore times a fixed pure-Python kernel, shaped like the
solver's tree sweeps, every ``INTERVAL_S`` seconds of wall time, and
scales the wall seconds of each stretch of work (one pass, one setup)
by ``REFERENCE_S`` over the mean kernel time during it: the seconds the
work would have taken at the speed at which the kernel takes
``REFERENCE_S``.  The kernel is timed from a ``SIGALRM`` handler, so
that timings fall inside operations of several seconds too, which a
speed change in the middle of such an operation needs; the benchmark's
operations need no hook for it.  The kernel uses nothing of rbmaf, so a
change to the package cannot move it; its own time is taken out of the
measured time, and raw wall seconds are printed next to the scaled
ones.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# Kernel seconds at the reference speed, about the mean on a 2-vCPU
# x86-64 virtual machine running CPython 3.11.
REFERENCE_S = 0.002

# Wall seconds between two kernel timings.
INTERVAL_S = 0.25


def _random_tree(n_leaves, seed):
    """Child arrays of a random rooted binary tree whose children have
    smaller ids than their parent, and a fixed set of cut edges."""
    rng = random.Random(seed)
    n = 2 * n_leaves - 1
    left = [-1] * n
    right = [-1] * n
    pool = list(range(n_leaves))
    node = n_leaves
    while len(pool) > 1:
        left[node] = pool.pop(rng.randrange(len(pool)))
        right[node] = pool.pop(rng.randrange(len(pool)))
        pool.append(node)
        node += 1
    return left, right, [rng.random() < 0.05 for _ in range(n)]


_LEFT, _RIGHT, _CUT = _random_tree(1024, 1)


def _kernel(rounds=6):
    # Shaped like the solver's annotation sweeps: bottom-up passes over
    # child arrays with cut tests, list writes and a small dict.
    left, right, cut = _LEFT, _RIGHT, _CUT
    n = len(left)
    acc = 0
    for _ in range(rounds):
        live = [0] * n
        seen = {}
        for v in range(n):
            lv = left[v]
            if lv < 0:
                live[v] = 1
                continue
            rv = right[v]
            t = 0 if cut[lv] else live[lv]
            if not cut[rv]:
                t += live[rv]
            live[v] = t
            if t > 3:
                seen[v & 255] = seen.get(t & 255, 0) + 1
        acc += live[-1] + len(seen)
    return acc


def kernel_seconds():
    """Fastest of three kernel runs, in wall seconds."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class SpeedProbe:
    """Kernel timings taken every ``INTERVAL_S`` while the probe is
    entered as a context manager; one probe at a time.

    Time work with :meth:`clock`, which leaves out the kernel's own
    time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._sample()

    def _sample(self, *signal_args):
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self):
        """Wall seconds, less the time spent in the kernel so far."""
        return time.perf_counter() - self.spent

    def factor(self, since=0):
        """Multiplier from wall seconds to seconds at the reference speed.

        Uses the kernel timings from index ``since`` on, together with
        the one just before, so a stretch of work with no timing of its
        own takes the latest one.
        """
        return REFERENCE_S / statistics.fmean(self.samples[max(since - 1, 0):])
