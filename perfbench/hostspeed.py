"""Host speed, sampled with a fixed probe, and times scaled to a reference.

The benchmark shares a few cores of a host with other tenants.  Their load
slows the whole machine by up to about 2x for stretches of seconds to
minutes; the process stays on its CPU (steal is about zero and CPU time
equals wall time), so it cannot see the slowdown in its own clocks.  A fixed
pure-Python loop slows with it.  ``Sampler`` times that loop every
``INTERVAL_S`` of wall time from a signal handler in the measured process
itself, so the samples interleave with the work on the same CPU.  A stretch
of work, less the probes inside it, times the mean speed the samples around
it show, is its time at the reference speed, at which the loop takes
``PROBE_REF_S``.

The loop builds a small dict keyed by tuples with complex values: the mix of
allocation, hashing and complex arithmetic of the program's state
propagation.  Scaled by it, the times of one repeated point no longer rise
with the host's slowdown; scaled by a plain integer loop they kept about a
quarter of it (in log scale).  Dense BLAS work, as in the oracle, follows the
loop less closely.  The probe does not call the program, so a change to the
program moves the scaled times by as much as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

PROBE_ITERATIONS = 2500
# Time of the probe loop on a quiet 2-core Intel Xeon VM (Python 3.11.7):
# at that speed a scaled time reads as wall-clock seconds.
PROBE_REF_S = 0.0012
INTERVAL_S = 0.05
# Samples this close to a stretch of work also count for its speed, so that a
# stretch shorter than the interval has some.
WINDOW_S = 0.25


def probe() -> float:
    """Seconds one run of the fixed pure-Python probe loop takes."""
    start = time.perf_counter()
    acc: dict[tuple[int, ...], complex] = {}
    for i in range(PROBE_ITERATIONS):
        key = (i & 7, (i >> 3) & 7, i % 11, 0)
        acc[key] = acc.get(key, 0j) + complex(i, 1) * 0.5
    return time.perf_counter() - start


class Sampler:
    """Runs ``probe()`` every ``INTERVAL_S`` of wall time while active."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, probe()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def probe_seconds(self, start: float, end: float) -> float:
        """Time the probes that began in [start, end) took."""
        return sum(t for s, t in self.samples if start <= s < end)

    def without_probes(self, spans: list[tuple]) -> list[tuple]:
        """Tracer spans ``(name, start, end, ...)`` on a clock that stops
        while a probe runs, so no span's time includes a probe."""
        ends = [start + t for start, t in self.samples]
        before = [0.0, *itertools.accumulate(t for _, t in self.samples)]

        def clock(t: float) -> float:
            return t - before[bisect.bisect_right(ends, t)]

        return [(name, clock(start), clock(end), *rest)
                for name, start, end, *rest in spans]

    def to_reference(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` spent in [start, end), less its probes, at reference speed."""
        near = [t for s, t in self.samples
                if start - WINDOW_S <= s < end + WINDOW_S]
        if not near:  # the handler waited for a long call into C
            middle = (start + end) / 2
            near = [min(self.samples, key=lambda st: abs(st[0] - middle),
                        default=(middle, probe()))[1]]
        speed = statistics.fmean(PROBE_REF_S / t for t in near)
        return (seconds - self.probe_seconds(start, end)) * speed
