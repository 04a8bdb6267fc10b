"""A gauge of the machine's current speed: a small, fixed batch of reference work.

The CPU speed of a shared host drifts.  With the same code and the same
inputs, one repetition of a workload can take 1.6 s for minutes and then
2.5 s, and within a repetition the speed changes from one second to the
next.  So the benchmark times this batch while a repetition runs, a few
times a second from a timer signal (:class:`Gauge`), and between set-up
probes (:func:`seconds`).  A wall time divided by the mean batch time over
the same interval, times :data:`REFERENCE_S`, is the wall time in seconds
at the reference speed, and most of the drift cancels (see GLOSSARY.md).

The batch never calls hjsing, so a change to the library cannot move it.
It mixes the kinds of work the library does, each in a fixed amount:
interpreted Python, a batched Newton solve with a Thomas sweep on one or
two paths (call overhead) and on 180 paths (array arithmetic), and passes
over 2 MB arrays (memory traffic beyond a core's L2 cache).  Each part
takes about a quarter of the batch.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# about the batch's median time on the machine the benchmark was introduced
# on (2 vCPUs of an Intel Xeon at 2.1 GHz, where it took 9 to 13 ms)
REFERENCE_S = 0.011

# seconds between two batches timed by a Gauge; each takes ~5% of the time
GAUGE_INTERVAL_S = 0.25


def _thomas(lower, diag, upper, rhs):
    P, M = diag.shape
    cp = np.empty((P, M - 1))
    dp = np.empty((P, M))
    inv = 1.0 / diag[:, 0]
    cp[:, 0] = upper[:, 0] * inv
    dp[:, 0] = rhs[:, 0] * inv
    for k in range(1, M):
        inv = 1.0 / (diag[:, k] - lower[:, k - 1] * cp[:, k - 1])
        if k < M - 1:
            cp[:, k] = upper[:, k] * inv
        dp[:, k] = (rhs[:, k] - lower[:, k - 1] * dp[:, k - 1]) * inv
    out = np.empty((P, M))
    out[:, -1] = dp[:, -1]
    for k in range(M - 2, -1, -1):
        out[:, k] = dp[:, k] - cp[:, k] * out[:, k + 1]
    return out


def _newton_paths(P: int, N: int = 16, iters: int = 8) -> float:
    """Newton steps on the discrete action of L = v^2/2 + cos x for P paths."""
    dt = 1.0 / N
    frac = np.linspace(0.0, 1.0, N + 1)[None, :]
    starts = np.linspace(-1.0, 1.0, P)[:, None]
    W = starts * (1 - frac) + (starts + 0.5) * frac
    a = np.full((P, N), 1.0 / dt)
    diag = a[:, :-1] + a[:, 1:]
    off = -a[:, 1:-1]
    act = np.zeros(P)
    for _ in range(iters):
        m = 0.5 * (W[:, 1:] + W[:, :-1])
        v = np.diff(W, axis=1) / dt
        lx = -np.sin(m)
        g = dt * (0.5 * lx[:, :-1] + v[:, :-1] / dt) + dt * (0.5 * lx[:, 1:] - v[:, 1:] / dt)
        W[:, 1:-1] -= _thomas(off, diag, off, g)
        act = (0.5 * v ** 2 + np.cos(m)).sum(axis=1) * dt
    return float(act.sum())


def _batch() -> float:
    s = 0.0
    for i in range(16_000):                           # interpreted Python
        s += math.sin(i * 1e-3) * (i % 7)
    s += _newton_paths(1) + _newton_paths(2)          # call overhead
    s += _newton_paths(180)                           # array arithmetic
    a = np.arange(250_000, dtype=float)               # memory traffic
    b = np.empty_like(a)
    for _ in range(6):
        np.multiply(a, 1.5, out=b)
        b += 2.0
        s += float(b.sum())
    return s


def seconds(batches: int = 20) -> float:
    """Mean wall time of one batch over ``batches`` batches run back to back."""
    t0 = time.perf_counter()
    for _ in range(batches):
        _batch()
    return (time.perf_counter() - t0) / batches


class Gauge:
    """Times one batch every GAUGE_INTERVAL_S seconds while the block runs.

    The batches run in a SIGALRM handler, so in the main thread between
    two bytecodes of whatever the block is doing.  ``batch_s`` is the mean
    batch time (one batch timed on the spot if the block was too short
    for a single tick), and ``busy_s`` the total time spent in batches,
    which belongs to the gauge, not to the block.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _batch()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def busy_s(self) -> float:
        return sum(self.samples)

    @property
    def batch_s(self) -> float:
        if not self.samples:
            return seconds(1)
        return self.busy_s / len(self.samples)
