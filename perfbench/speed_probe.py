"""A probe of the machine's speed, timed inside the measured commands.

The host this benchmark runs on is shared.  The same geocount command can
take a third longer for seconds or minutes at a time, in wall and CPU time
alike (steal time stays near zero), because of load from outside the
process.  ``SpeedProbe`` measures that speed where and when the commands
run: while armed, a SIGALRM every ``interval_s`` seconds runs one pass of a
fixed computation on the main thread, between two bytecodes of whatever
geocount is doing, and times it.  The work mixes what geocount spends its
time on -- an interpreter loop over small numpy arrays, a sparse LU solve
and a dense symmetric eigensolve -- and uses no geocount code, so a change
to geocount cannot move it.  The passes' own time is taken out of the
commands' time, and dividing by the mean pass cancels the speed of the
moment.

A signal that arrives during a long C call (a large eigensolve, say) is
handled when the call returns, so long calls get fewer passes but are
still bracketed by them.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# One pass takes 0.012-0.019 s on one core of an Intel Xeon (2 vCPUs, one
# BLAS thread), in the host's fast and slow states; a pass every 0.25 s
# takes 5-8% of the commands' wall time.
INTERVAL_S = 0.25
LOOP_STEPS = 300
VECTOR_N = 256
SPARSE_N = 5000
SPARSE_SOLVES = 10
DENSE_N = 200


class SpeedProbe:
    """Context manager: while active, time one reference pass per interval.

    ``passes`` holds (wall, cpu) seconds of each pass; ``spent_wall`` and
    ``spent_cpu`` add up all the time the handler took, to be taken out of
    the time of whatever it interrupted.  ``error`` holds the repr of an
    exception a pass raised: the handler never lets one escape into the
    interrupted code, where an ``except`` clause could mistake it for its own.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        rng = np.random.default_rng(20240917)
        self.interval_s = interval_s
        self._x0 = rng.standard_normal(VECTOR_N)
        dense = rng.standard_normal((DENSE_N, DENSE_N))
        self._dense = dense + dense.T
        off = -np.ones(SPARSE_N - 1)
        self._sparse = scipy.sparse.diags(
            [off, 4.0 + rng.random(SPARSE_N), off], [-1, 0, 1], format="csc")
        self._rhs = np.ones(SPARSE_N)
        self.passes: list = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self.error = None
        self._busy = False
        self._previous = None
        self.work()  # warm caches and lazy imports before the first timing

    def work(self) -> float:
        x = self._x0
        for _ in range(LOOP_STEPS):
            y = np.sin(x) + 0.25 * np.roll(x, 1) - 0.25 * np.roll(x, -1)
            x = y / (1.0 + np.linalg.norm(y))
        lu = scipy.sparse.linalg.splu(self._sparse)
        for _ in range(SPARSE_SOLVES):
            x = x + lu.solve(self._rhs)[:VECTOR_N]
        return float(x[0] + np.linalg.eigvalsh(self._dense)[0])

    def _handler(self, signum, frame):
        if self._busy:  # a signal that arrived while a pass ran
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            self.work()
            w1, c1 = time.perf_counter(), time.process_time()
            self.passes.append((w1 - w0, c1 - c0))
        except Exception as exc:  # noqa: BLE001 - must not reach geocount
            self.error = repr(exc)
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
