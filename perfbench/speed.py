"""Reference probe that tracks the host's current CPU speed.

On a shared host the speed of one core swings with the neighbours' load:
on the shared 2-core VM the benchmark was tuned on, this fixed pure-Python
kernel took anywhere from 7.5 to 14 ms within minutes.  Raw wall times
of the workloads swing with it, far beyond any useful regression bound.

So every timed region is bracketed by probes of a fixed kernel, and the
benchmark reports *reference seconds*: wall seconds scaled by
``REFERENCE_S / probe``, i.e. the time the region would have taken had
the probe run in ``REFERENCE_S``.  The kernel is benchmark code that no
change to ``lnbalance`` can touch, and it exercises what the workloads do
most (heap-driven shortest paths over tuples and dicts, float sorting).
Raw wall seconds are kept in the result file next to reference seconds.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

# The probe's time on an uncontended core of that 2-core VM (Python 3.11);
# reference seconds equal wall seconds there.
REFERENCE_S = 0.0075
PROBE_REPEATS = 3

_NODES = 400
_rng = random.Random(20191220)
_ADJ = {u: [(_rng.randrange(_NODES), _rng.randrange(1, 100)) for _ in range(6)] for u in range(_NODES)}
_FLOATS = [_rng.random() for _ in range(2000)]


def _kernel() -> int:
    reached = 0
    for source in range(0, _NODES, 50):
        best = {source: (0, (source,))}
        heap = [(0, (source,))]
        while heap:
            dist, path = heapq.heappop(heap)
            u = path[-1]
            if best[u][0] != dist:
                continue
            for v, w in _ADJ[u]:
                cand = (dist + w, path + (v,))
                if v not in best or cand < best[v]:
                    best[v] = cand
                    heapq.heappush(heap, cand)
        reached += len(best)
    return reached + len(sorted(_FLOATS))


def probe() -> float:
    """Median of PROBE_REPEATS timings of the kernel, in seconds."""
    timings = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _kernel()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


class Timed:
    """Wall time of a region and the probe around it.

    ``with Timed() as t: ...`` then ``t.wall_s`` is raw seconds and
    ``t.ref_s`` reference seconds: raw times ``t.scale``, set by the mean
    of the probes taken right before and right after the region.
    """

    def __enter__(self):
        self.probe_before = probe()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._start
        self.probe_s = (self.probe_before + probe()) / 2
        self.scale = REFERENCE_S / self.probe_s
        self.ref_s = self.wall_s * self.scale
        return False
