"""Machine-speed probe: a fixed pure-Python computation, timed while a pass runs.

On a shared host a vCPU alternates between fast and slow phases lasting a
few seconds (on the reference machine a fixed loop ran 1.6x slower in a
slow phase, switching independently on each of the two vCPUs), so raw pass
times of the same code spread by up to 50% between runs.  The
probe runs in the measured process itself: a timer signal interrupts the
pass every INTERVAL seconds and times one probe; the mean probe time over
the pass tracks the speed of the core the pass actually ran on.  Timings
are reported as seconds at reference speed: raw seconds scaled by
REFERENCE_PROBE_S / mean probe seconds.  The mean drops the highest and
lowest tenth of the samples: a probe that a garbage collection or a page
fault lands in reads several times too slow.

The probe shares no code with gradedhh, so a change to the library cannot
move it.  It mixes what the library spends its time on: Fraction
arithmetic, dict updates, tuple building and small function calls.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.1
WARM_PROBES = 10
MIN_SAMPLES = 5
# Probe time on an uncontended vCPU of the reference machine (Xeon, KVM,
# Python 3.11).  It only fixes the scale of the reported seconds.
REFERENCE_PROBE_S = 0.0013


def _eliminate(n):
    rows = [{j: Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3)
             for j in range(n) if (i + j) % 3}
            for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in rows if r.get(col)), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = 1 / pivot[col]
        for r in rows:
            f = r.get(col)
            if f:
                for c, v in pivot.items():
                    nv = r.get(c, Fraction(0)) - f * inv * v
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
        rank += 1
    return rank


def probe() -> float:
    """Seconds taken by one fixed unit of interpreter work."""
    t0 = time.perf_counter()
    _eliminate(10)
    return time.perf_counter() - t0


class Sampler:
    """Times one probe every INTERVAL seconds of wall time while running."""

    def __init__(self):
        self.samples = []
        self.previous = None

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def warm(self):
        """Probe WARM_PROBES times in a row, so short runs still get samples."""
        self.samples.extend(probe() for _ in range(WARM_PROBES))

    def __enter__(self):
        self.warm()
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False

    def speed(self, first=0, last=None) -> float:
        """Factor turning raw seconds into seconds at reference speed.

        first:last selects the samples taken while one request ran; with
        fewer than MIN_SAMPLES of them, every sample of the pass is used.
        """
        ordered = sorted(self.samples[first:last])
        if len(ordered) < MIN_SAMPLES:
            ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return REFERENCE_PROBE_S / statistics.fmean(ordered[cut:len(ordered) - cut])
