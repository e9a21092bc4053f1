"""Machine-speed probes timed next to every measured call.

On shared 2-vCPU hosts the speed of the same code drifts by up to 2.5x over
periods of a few seconds (CPU time drifts with wall time, so it is not
steal).  A fixed loop of the same nature as the call, timed before, during
and after it, tracks that drift: the call's time divided by the probe's
time repeats within a few percent where the raw time does not.  Reported
times are therefore "reference seconds": measured seconds times
REFERENCE[kind] / (probe seconds around the call), i.e. the time the call
would take when the probe runs at its reference speed.

The probes use only numpy and Python and never call the program, so a
change to the program cannot move them.
"""

from __future__ import annotations

import resource
import signal
import time

import numpy as np

#: Probe times (s) at the reference speed, near the fastest quartile of
#: probes on a 2-vCPU Xeon KVM guest, Python 3.11, numpy 2.4, OpenBLAS 0.3.31
#: on two threads.  They only set the scale of the reported times.
REFERENCE = {"python": 0.0015, "blas": 0.0015}
#: Seconds between probes while a call runs, and probes right before and
#: after it (enough to steady the many calls that last only milliseconds).
INTERVAL = 0.1
EDGE_SAMPLES = 3


class Probe:
    """A fixed ~1.5 ms calibration loop; ``kind`` matches what dominates a call.

    ``python``: interpreter-bound small-array numpy and dict work, like the
    string algebra and the adjoint sweeps.  ``blas``: complex matmuls on the
    configured BLAS threads, like the dense verification layer.
    """

    def __init__(self, kind: str) -> None:
        if kind not in REFERENCE:
            raise ValueError(f"unknown probe kind {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(12345)
        self._v = rng.standard_normal(128)
        self._ia = rng.integers(0, 128, 48)
        self._ib = rng.integers(0, 128, 48)
        self._m = (rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))) / 20.0

    def _python(self) -> None:
        v, ia, ib = self._v, self._ia, self._ib
        table: dict[int, int] = {}
        for k in range(500):
            v[ib] = 0.999 * v[ib] + 0.001 * v[ia]
            table[(k * 2654435761) & 1023] = k ^ (k >> 3)

    def _blas(self) -> None:
        a = self._m
        for _ in range(2):
            a = a @ self._m

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self._python() if self.kind == "python" else self._blas()
        return time.perf_counter() - t0


def cpu() -> float:
    """CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Speedometer:
    """Samples a probe before, during (every INTERVAL s, by SIGALRM) and after a call.

    The handler runs between bytecodes of the main thread, so inside one
    long numpy call the next sample waits until the call returns.  ``call``
    returns the result, the call's wall and CPU time with the in-call probe
    time taken out, and the factor that turns them into reference seconds:
    REFERENCE * mean(1 / probe time), the mean speed over the call.
    """

    def __init__(self) -> None:
        self.probes = {kind: Probe(kind) for kind in REFERENCE}
        self.probe = self.probes["python"]
        self._samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self._samples.append(self.probe.seconds())

    def call(self, kind: str, fn, *args):
        self.probe = self.probes[kind]
        self._samples = [self.probe.seconds() for _ in range(EDGE_SAMPLES)]
        before = len(self._samples)
        previous = signal.signal(signal.SIGALRM, self._tick)
        c0, t0 = cpu(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall, cpu_s = time.perf_counter() - t0, cpu() - c0
            signal.signal(signal.SIGALRM, previous)
        inside = sum(self._samples[before:])
        self._samples.extend(self.probe.seconds() for _ in range(EDGE_SAMPLES))
        speed = sum(1.0 / p for p in self._samples) / len(self._samples)
        return out, wall - inside, cpu_s - inside, REFERENCE[kind] * speed
