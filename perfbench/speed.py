"""How fast the machine runs right now, sampled while a request runs.

On a shared virtual machine the same deterministic request can take 0.75 s
in one second and 1.2 s a few seconds later: the vCPU's speed changes with
the load of the host, and whole minutes can be fast or slow.  A pass's raw
time therefore measures the host as much as qwk.

The sampler times a fixed calibration snippet (small numpy eigendecompositions
and products, and a pure-Python loop, as in qwk's own hot paths) in the main
thread every ``PERIOD_S`` of wall time, from a SIGALRM handler.  Python runs
the handler between bytecodes of the main thread, so it lands inside the
request on the CPU the request runs on.  The snippet is timed with the
thread's CPU clock, so time spent waiting for the GIL while ``verify
--jobs 2`` runs worker threads does not count as slowness.

``Sampler.stop`` returns the request's time at the reference speed: its
wall time without the handler's own cost, times the mean ratio of
``REF_CAL_S`` (the snippet's CPU time on the reference machine) to the
snippet's CPU time in each sample.  The samples cost about 1% of a
request's time: ``ref_seconds`` leaves that cost out, the raw ``seconds``
include it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# About the snippet's CPU time on a 2-vCPU Intel Xeon virtual machine
# (2.0 GHz nominal); there the speeds sampled range from about 0.7 to 1.2.
REF_CAL_S = 0.55e-3

_MATRIX = np.random.default_rng(0).random((4, 4))
_MATRIX = _MATRIX + _MATRIX.T


def calibrate() -> float:
    """CPU seconds of one run of the fixed calibration snippet."""
    t0 = time.thread_time()
    for _ in range(20):
        np.linalg.eigh(_MATRIX)
        _MATRIX @ _MATRIX
    x = 0
    for k in range(1500):
        x += k * k
    return time.thread_time() - t0


class Sampler:
    """Speed samples over one request; start() and stop() bracket it."""

    def __init__(self):
        self._samples: list[float] = []
        self._cost = 0.0
        self._t0 = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(calibrate())
        self._cost += time.perf_counter() - t0

    def start(self) -> None:
        self._samples = [calibrate()]
        self._cost = 0.0
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()

    def stop(self) -> dict:
        seconds = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._samples.append(calibrate())
        speed = statistics.fmean(REF_CAL_S / c for c in self._samples)
        return {"seconds": seconds, "sampler_s": self._cost,
                "speed": speed, "samples": len(self._samples),
                "ref_seconds": (seconds - self._cost) * speed}
