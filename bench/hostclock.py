"""Job times scaled to a fixed host speed, measured against a reference kernel.

The benchmark runs on a shared host whose speed drifts: stretches of seconds
to minutes in which all work, pure Python and numpy alike, takes 1.2 to 1.6
times as long, and CPU time moves with wall time. Taking the fastest of many
repetitions cannot remove a slow stretch that outlasts a run.

A :class:`HostClock` therefore times a fixed reference kernel four times a
second while timed regions run (a ``SIGALRM`` timer, so no name of the
program is patched), and at each region boundary. A region's scaled time is
its wall time, less the kernel's own time, times
``REFERENCE_S / mean kernel time`` over the kernel runs inside the region
or within ``WINDOW_S`` of it. It reads as seconds on a host where the kernel
takes ``REFERENCE_S``. The kernel mixes the kinds of work the program does: a
sparse-dense product as in propagation, dense layers, many small numpy
operations as on the autodiff tape, an ``np.add.at`` scatter, a top-K
partition, and a pure-Python string parse.
"""
from __future__ import annotations

import contextlib
import signal
import time

import numpy as np
import scipy.sparse as sp

# The kernel's time on a 2-core Xeon VM at 2.1 GHz (Python 3.11, numpy 2.4,
# OpenBLAS on one thread) in its fast state; any fixed value would do.
REFERENCE_S = 0.010
TICK_S = 0.25
WINDOW_S = 0.75     # kernel runs this close to a region scale it


class _Kernel:
    def __init__(self):
        rng = np.random.default_rng(20210819)
        n, dim = 3000, 32
        self.adj = sp.random(n, n, density=0.005, format="csr", random_state=rng)
        self.x = rng.standard_normal((n, dim))
        self.w = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        self.small = rng.standard_normal((2, 64, 16))
        self.rows = rng.integers(0, n, 4096)
        self.grad = rng.standard_normal((4096, dim))
        self.lines = [f"u{u}\ti{v}\t{r}\t{t}" for u, v, r, t in
                      rng.integers(0, 5000, (2500, 4)).tolist()]

    def __call__(self) -> float:
        start = time.perf_counter()
        h = self.x
        for _ in range(2):                   # propagation
            h = self.adj @ h
        for _ in range(3):                   # dense layers
            h = np.tanh(h @ self.w)
        a, b = self.small                    # per-op overhead of a small tape
        for _ in range(300):
            a = np.tanh(a * 0.5 + b)
        acc = np.zeros_like(self.x)          # gradient scatter
        np.add.at(acc, self.rows, self.grad)
        np.argpartition(-(h[:100] @ h.T), 20, axis=1)    # top-K
        totals = {}                          # parsing
        for line in self.lines:
            user, item, rating, stamp = line.split("\t")
            totals[user] = totals.get(user, 0) + int(rating)
        return time.perf_counter() - start


class HostClock:
    """Records named regions of time, split by :meth:`lap`, and scales them.

    With ``reference=False`` it runs no kernel and scaled time is wall time;
    the traced run uses it so that spans hold the program's time only.
    """

    def __init__(self, reference: bool = True):
        self._kernel = _Kernel() if reference else None
        if self._kernel:
            self._kernel()                   # warm the caches and allocator
        self.samples = []                    # (start, end, kernel time) per kernel run
        self.regions = []                    # (name, begin, end)
        self._last = None                    # when the open region began

    def _sample(self) -> None:
        start = time.perf_counter()
        dur = self._kernel()
        self.samples.append((start, start + dur, dur))

    def _tick(self, signum, frame):
        self._sample()

    def kernel_s(self, begin: float, end: float) -> float:
        """Wall time the kernel took between ``begin`` and ``end``."""
        return sum(e - s for s, e, _ in self.samples if begin <= s and e <= end)

    def lap(self, name: str | None = None) -> None:
        """Close the region since the previous lap and record it as ``name``.

        The first call only opens a region; a region named None is dropped
        (benchmark work between two timed regions).
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now = time.perf_counter()
            if name is not None and self._last is not None:
                self.regions.append((name, self._last, now))
            if self._kernel:
                self._sample()
            self._last = time.perf_counter()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def record(self, name: str, begin: float, end: float) -> None:
        """Record a region that does not end at a lap."""
        self.regions.append((name, begin, end))

    def factor(self, begin: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time within WINDOW_S of the region."""
        if not self._kernel:
            return 1.0
        near = [dur for s, e, dur in self.samples
                if begin - WINDOW_S <= s and e <= end + WINDOW_S]
        return REFERENCE_S / float(np.mean(near))

    def scaled_parts(self) -> dict:
        """Each name's total scaled time over the recorded regions, then forget them.

        A few more kernel runs first give the last region samples after it.
        """
        if self._kernel:
            for _ in range(3):
                self._sample()
        parts = {}
        for name, begin, end in self.regions:
            raw = end - begin - self.kernel_s(begin, end)
            parts[name] = parts.get(name, 0.0) + raw * self.factor(begin, end)
        self.regions = []
        return parts

    @contextlib.contextmanager
    def ticking(self):
        """Time the kernel about every TICK_S seconds inside the block."""
        if not self._kernel:
            yield self
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
