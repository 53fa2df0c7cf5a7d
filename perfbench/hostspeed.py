"""Correction of section times for contention on a shared host.

On a shared host the speed of this process's CPU changes in episodes.  On
the machine this benchmark was tuned on, a diagram product took ~8.5 µs or
~17 µs, in episodes lasting from one second to well over ten, with CPU time
tracking wall time (contention, not stolen time).  A 20 s section's wall
time then mostly measures how much of it fell into slow episodes: the
interquartile range of ten `table` runs was 23% of their median.

HostSpeed interrupts the process every INTERVAL_S (SIGALRM, handled in the
main thread between bytecodes, so the workload is paused meanwhile) and
times `probe`, a fixed piece of pure-Python work like the package's own:
union-find over small set partitions, tuples, dicts and a sort.  The
`clock` it builds from them leaves the probes' own time out and scales
each stretch between two probes by REF_PROBE_S over their mean duration.
A section timed on that clock gives its time at the speed where the probe
takes REF_PROBE_S: seconds at the fast speed of the tuning machine.  It
counts work in units of the probe, so it moves with the program's cost and
not with the host's load.  A reference taken from each run's own probes
instead (their 10th percentile) left twice the spread, because runs that
fall wholly into a slow episode then have a slow reference.
"""

from __future__ import annotations

import bisect
import random
import signal
from time import perf_counter

INTERVAL_S = 0.1
# The probe's duration at the fast speed of the machine named in README.md.
REF_PROBE_S = 0.0013

_rng = random.Random(0)
_POINTS = 24
_PARTITIONS = [[_rng.randrange(8) for _ in range(_POINTS)] for _ in range(16)]


def probe():
    """Join 48 pairs of fixed set partitions by union-find."""
    total = 0
    for a in _PARTITIONS:
        for b in _PARTITIONS[:3]:
            parent = list(range(2 * _POINTS))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            first = {}
            for offset, labels in ((0, a), (_POINTS // 2, b)):
                for i, lab in enumerate(labels):
                    j = first.setdefault((offset, lab), i + offset)
                    parent[find(i + offset)] = find(j)
            groups = {}
            for p in range(2 * _POINTS):
                groups.setdefault(find(p), []).append(p)
            total += len(tuple(sorted(tuple(g) for g in groups.values())))
    return total


class HostSpeed:
    """Samples host speed with `probe` from start() until stop()."""

    def __init__(self):
        self.samples = []  # (start, duration) of each probe

    def _handler(self, signum, frame):
        start = perf_counter()
        probe()
        self.samples.append((start, perf_counter() - start))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self):
        """The corrected clock: a map from perf_counter times to seconds at
        the reference speed.  Only differences of its values mean anything.

        It stands still during each probe.  Between probes it runs at
        REF_PROBE_S over the mean duration of the probes on either side;
        before the first and after the last, at the rate of that probe.
        Without probes it is perf_counter time.
        """
        samples = sorted(self.samples)
        if not samples:
            return lambda t: t
        starts = [a for a, _ in samples]
        rates = ([REF_PROBE_S / samples[0][1]]
                 + [REF_PROBE_S / ((d0 + d1) / 2)
                    for (_, d0), (_, d1) in zip(samples, samples[1:])]
                 + [REF_PROBE_S / samples[-1][1]])
        at_probe = [0.0]  # corrected time during probe i
        for i in range(1, len(samples)):
            a0, d0 = samples[i - 1]
            at_probe.append(at_probe[-1] + (starts[i] - (a0 + d0)) * rates[i])

        def corrected(t):
            i = bisect.bisect_right(starts, t)
            if i == 0:
                return at_probe[0] - (starts[0] - t) * rates[0]
            a, d = samples[i - 1]
            return at_probe[i - 1] + max(0.0, t - (a + d)) * rates[i]

        return corrected
