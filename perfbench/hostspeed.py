"""Host-speed sampling, to take other tenants' load out of wall times.

On a shared machine other tenants slow every instruction stream of this
process, by up to 1.7x, for seconds to minutes at a time: raw wall
times of one build differ by a third between runs.  While passes run,
an interval timer interrupts the process every ``PROBE_EVERY_S`` and
times a fixed pure-Python search that never touches weakcross.  Probe time
is taken out of every measured interval, and the interval is multiplied
by ``REF_S`` over the mean probe time around it.  The result is seconds
at the host speed at which the probe takes ``REF_S``; on the tuning host
this cut the spread (IQR over median) of one 2 s search, repeated for
100 s, from 24% to 5%.

The handler runs in the main thread between bytecodes, so the process
stays single-threaded.  It needs about 35 stack frames; a probe that
would reach the recursion limit is dropped rather than raise into the
interrupted program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_EVERY_S = 0.02
# A fixed include/exclude search over these 30 masks, PROBE_REPEATS times.
# Under other tenants' load its time tracks that of the searches (log-log
# slope 1.02 on the tuning host) and, less closely, of short verification
# commands (0.80); a tight integer loop tracked them worse (0.97, 0.69).
PROBE_MASKS = tuple(((i * 2654435761) >> 5) & 0xFFFF for i in range(30))
PROBE_REPEATS = 4
# Probe time on a quiet host of the tuning machine (Intel Xeon, Python 3.11).
REF_S = 0.0004
# Probes on each side of an interval that join the ones inside it.
NEIGHBOURS = 6


def largest_disjoint(masks, i=0, union=0, size=0) -> int:
    """Largest pairwise-disjoint subfamily of ``masks[i:]`` avoiding ``union``.

    Plain recursion that allocates no garbage-collected object, so a
    probe never triggers a collection of the program's objects.
    Independent of weakcross: a change to the package never changes it.
    """
    if i == len(masks):
        return size
    best = largest_disjoint(masks, i + 1, union, size)
    if masks[i] & union == 0:
        best = max(best, largest_disjoint(masks, i + 1, union | masks[i], size + 1))
    return best


class HostSpeed:
    """Probe log; while entered, a timer adds a probe every PROBE_EVERY_S."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.prefix: list[float] = [0.0]
        self._previous = None
        largest_disjoint(PROBE_MASKS)  # warm up: the first call runs cold

    def probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        try:
            for _ in range(PROBE_REPEATS):
                largest_disjoint(PROBE_MASKS)
        except RecursionError:
            return  # the interrupted code is near the limit: drop this sample
        duration = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        self.prefix.append(self.prefix[-1] + duration)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()
        return False

    def _span(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)

    def net(self, start: float, end: float) -> float:
        """Wall time of [start, end] minus the probes run inside it."""
        i, j = self._span(start, end)
        return end - start - (self.prefix[j] - self.prefix[i])

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean probe time in and around [start, end].

        The slowest and fastest sixth of those probes are left out, so
        one probe stalled by something else does not skew the interval.
        """
        i, j = self._span(start, end)
        window = sorted(self.durations[max(0, i - NEIGHBOURS):j + NEIGHBOURS])
        cut = len(window) // 6
        return REF_S / statistics.mean(window[cut:len(window) - cut])

    def median_probe(self) -> float:
        return statistics.median(self.durations)
