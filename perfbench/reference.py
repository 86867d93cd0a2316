"""Host speed references, so that times taken at different hours compare.

On a shared host the speed of one core drifts by up to 2x over minutes: the
same report, in one process, can take 5.9 s and then 8.5 s, and a pure Python
loop slows with it. A median within one run cannot remove drift
between runs, so the benchmark scales each time by the host's speed over the
same stretch, measured with work that is not the program's:

    pass:   scaled = wall * (REFERENCE_UNIT_S / mean unit time) ** SENSITIVITY
    set-up: scaled = wall * REFERENCE_IMPORT_S / (median wall seconds of an import probe)

A scaled time is the time the same work would take on a host that runs one
unit of `work` in `REFERENCE_UNIT_S` and the import probe in
`REFERENCE_IMPORT_S`. Both constants are round figures near what a shared
2-core x86_64 host (Python 3.11, numpy 2.4, one BLAS thread) measured.

The program slows more than the unit when the host slows: over 40 runs of
the four workloads on that host, the log of a run's unscaled pass time fell
on a line against the log of its unit time with slope 1.19 to 1.48 across
workloads (correlation 0.92 to 0.98). Against each part of the unit alone,
and against a larger cache-missing table or a memory-bound gather, the slope
was above 1 as well. So the unit's speed ratio is raised to `SENSITIVITY`,
the rounded common slope. The unit time is the thread CPU seconds of one
unit, and its mean is taken over the units sampled during the pass.

`Sampler` measures the unit during a pass. A wall-clock interval timer
interrupts the main thread every `INTERVAL_S` and the signal handler runs one
unit. The unit is timed with the thread's CPU clock, so time slices that the
program's own threads or processes take from it do not slow it; slower
execution from other tenants on the core does. The handler's wall time is
left out of the measured interval. The unit touches no state of the program:
it uses its own arrays and no shared random generator.

A set-up probe spends its time starting an interpreter and importing modules,
which drifts differently from the unit, so set-up times are scaled by
`IMPORT_PROBE`: a fresh interpreter that imports numpy and json, run right
after each set-up probe.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_UNIT_S = 0.0040
REFERENCE_IMPORT_S = 0.15
SENSITIVITY = 1.3
INTERVAL_S = 0.15
# prints the wall clock once its imports are done
IMPORT_PROBE = ("-c", "import time, json, numpy; print(repr(time.time()))")

_RNG = np.random.default_rng(20211023)
_SYM = _RNG.standard_normal((24, 24))
_SYM = _SYM + _SYM.T
_MAT = _RNG.standard_normal((48, 48))
_STACK = _RNG.standard_normal((16, 12, 12))
_VECTORS = _RNG.standard_normal((15, 24)) + 1j * _RNG.standard_normal((15, 24))
_CHASE = 2000
_table: dict = {}
_order: list = []
_cursor = 0


def _chase_table() -> tuple:
    """A few MB of Python objects read in a shuffled order, so that lookups
    miss the caches the way the program's large dicts and lists do. Built on
    first use, so that importing this module costs the set-up time nothing."""
    if not _table:
        keys = [(i % 97, i // 97) for i in range(16000)]
        _table.update((k, complex(*k)) for k in keys)
        _order.extend(keys[i] for i in np.random.default_rng(7).permutation(len(keys)))
    return _table, _order


def work() -> float:
    """One unit of work shaped like a report. Returns a checksum so that
    none of it is optimised away. The parts are, in turn: an interpreted loop
    over floats, lists and dicts; lookups that miss the caches; sets, dicts
    and sorts of tuples with complex values; Gram-Schmidt on short complex
    vectors; small dense eigensolves, a product and a batched contraction."""
    global _cursor
    table, order = _chase_table()
    acc = 0.0
    seen = {}
    column = [0.5] * 64
    for i in range(3000):
        x = column[i & 63] * 1.000001 + i
        column[i & 63] = x - i
        seen[i % 61] = x
        acc += x * 1e-9
    total = 0j
    for k in order[_cursor : _cursor + _CHASE]:
        total += table[k]
    _cursor = (_cursor + _CHASE) % (len(order) - _CHASE)
    for m in range(25):
        omega = {(k,) for k in range(m % 17)}
        coeffs = {(k,): complex(k, 1) for k in range(17)}
        outside = {k: c for k, c in coeffs.items() if k not in omega}
        norm_sq = sum(abs(c) ** 2 for _, c in sorted(outside.items()))
        total += sum(coeffs[k] * np.conj(c) for k, c in sorted(outside.items())) / norm_sq
    cols = []
    for j in range(_VECTORS.shape[1]):
        w = _VECTORS[:, j].copy()
        for q in cols:
            w -= q * np.vdot(q, w)
        cols.append(w / float(np.linalg.norm(w)))
    for _ in range(6):
        w, v = np.linalg.eigh(_SYM)
        acc += float(w[0]) + float(v[0, 0])
    acc += float((_MAT @ _MAT)[0, 0])
    acc += float(np.einsum("gij,gjk->ik", _STACK, _STACK)[0, 0])
    return acc + abs(total) + abs(cols[-1][0]) + len(seen)


def unit_s() -> float:
    """Thread CPU seconds of one unit, run now."""
    t0 = time.thread_time()
    work()
    return time.thread_time() - t0


class Sampler:
    """Times one unit every `INTERVAL_S` of wall time between `start` and `stop`.

    `paused_s` and `paused_cpu_s` are the wall and process CPU time spent in
    the handler, to subtract from any interval measured around the sampled
    code.
    """

    def __init__(self) -> None:
        self.units: list = []
        self.paused_s = 0.0
        self.paused_cpu_s = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            self.units.append(unit_s())
        finally:
            self.paused_s += time.perf_counter() - t0
            self.paused_cpu_s += time.process_time() - cpu0
            self._busy = False

    def start(self) -> None:
        self.units, self.paused_s, self.paused_cpu_s = [], 0.0, 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        # a pass shorter than one interval still gets a sample
        self.units.append(unit_s())

    def scale(self) -> float:
        """Factor that turns this interval's wall seconds into reference seconds.

        The mean, not the median, of the unit times: the samples are spread
        evenly over wall time, so their mean follows the host's throughput
        over the interval, short slow spells included, as the program feels it.
        """
        return (REFERENCE_UNIT_S / statistics.fmean(self.units)) ** SENSITIVITY
