"""Converts wall time into reference seconds on a host whose speed drifts.

On a small shared box the same Python code runs up to twice as fast or as
slow from one stretch of seconds to the next, as neighbours come and go on
the same physical core.  Raw wall times of identical work then spread by
30% between runs, which no regression bound can absorb.

While a ``SpeedProbe`` is active, an interval timer interrupts the run every
``PERIOD`` seconds and times one fixed calibration chunk (pure Python dict
and int work, the same kind of work fedquant's jet arithmetic does; no
fedquant code).  ``seconds(t0, t1)`` then takes a measured interval, removes
the probe's own chunks from it, and scales each piece between chunks by
``REF_CHUNK_S`` over the median chunk time around that piece.  The result
is the time the work would have taken on a host where one chunk takes
``REF_CHUNK_S``: it changes when fedquant does more or less work, not when
the host changes speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD = 0.05          # seconds between calibration chunks (~2% overhead)
HALF_WINDOW = 6        # chunks on each side that set the local speed
REF_CHUNK_S = 1.0e-3   # chunk time that defines one reference second


def calibration_chunk():
    acc = {}
    for i in range(2500):
        key = (i % 61, i % 17)
        acc[key] = acc.get(key, 0) + i * 12345678901
    return acc


class SpeedProbe:
    """``with SpeedProbe() as probe:`` ... ``probe.seconds(t0, t1)``."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        calibration_chunk()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _local_chunk(self, k):
        """Median chunk time over the samples around sample ``k``."""
        lo = max(0, k - HALF_WINDOW)
        return statistics.median(self.durations[lo:k + HALF_WINDOW + 1])

    def seconds(self, t0, t1):
        """Reference seconds of the work done in wall interval [t0, t1].

        The interval is cut at the probe's chunks, which are dropped; each
        piece is scaled by the chunk time measured around it, so speed
        changes inside a long interval are followed.
        """
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        total, piece_start = 0.0, t0
        for k in range(i, j):
            total += (self.starts[k] - piece_start) / self._local_chunk(k)
            piece_start = self.starts[k] + self.durations[k]
        last = min(j, len(self.starts) - 1)
        total += (t1 - piece_start) / self._local_chunk(last)
        return total * REF_CHUNK_S

    def chunk_median(self):
        return statistics.median(self.durations)
