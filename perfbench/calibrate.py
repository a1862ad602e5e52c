"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on shared hosts whose CPU speed moves with their other
tenants: by a tenth from one second to the next, and by up to a third over
minutes. The kernel slows down with the host as the workloads do. Timing it
during each timed step and dividing the step's time by the host's slowdown
leaves the program's own speed, in seconds of the reference host.

The kernel is the benchmark's own code and never calls aukit, so a change to
aukit cannot move it. It mixes four kinds of work: small-array numpy calls
dispatched from a Python loop (a narrow MLP step), a 2-D GEMM at the wide
model's size, parsing CSV text into floats, and plain interpreted Python.
One run takes about 10 ms.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

# typical seconds of one kernel run on the reference host (a shared 2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6, OpenBLAS with one thread)
REFERENCE_S = 0.010
# seconds between two kernel runs inside a step
INTERVAL_S = 0.25
# kernel runs before and after a step that cannot be sampled from inside
BURST = 20


def _inputs():
    rng = np.random.default_rng(12345)
    return {
        "x": rng.standard_normal((64, 64)),
        "w1": rng.standard_normal((64, 32)) * 0.1,
        "w2": rng.standard_normal((32, 7)) * 0.1,
        "big_x": rng.standard_normal((64, 1024)),
        "big_w": rng.standard_normal((1024, 128)) * 0.03,
        # GEMM outputs, allocated once so that a kernel run landing at the
        # workload's memory peak adds nothing to peak_rss_mb
        "y": np.empty((64, 128)),
        "grad_w": np.empty((1024, 128)),
        "grad_x": np.empty((64, 1024)),
        "lines": [
            ",".join(f"{v:.3f}" for v in row)
            for row in rng.uniform(0, 5, size=(240, 40))
        ],
    }


def _kernel(d):
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    total = 0.0
    x, w1, w2 = d["x"], d["w1"], d["w2"]
    for _ in range(60):
        h = np.maximum(x @ w1, 0.0)
        z = h @ w2
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = h.T @ (p - 1.0 / 7)
        total += float(g.sum())
    for _ in range(2):
        y = np.matmul(d["big_x"], d["big_w"], out=d["y"])
        np.maximum(y, 0.0, out=y)
        total += float(np.matmul(d["big_x"].T, y, out=d["grad_w"]).sum())
        total += float(np.matmul(y, d["big_w"].T, out=d["grad_x"]).sum())
    rows = [[float(v) for v in ln.split(",")] for ln in d["lines"]]
    total += float(np.asarray(rows).sum())
    count = 0
    for i in range(25000):
        count += i * i % 7
    return total + count


class Calibrator:
    """Runs the kernel next to the timed steps of a run and keeps its times.

    `during(fn)` runs fn in this process with a timer signal that runs the
    kernel every INTERVAL_S, so the kernel samples the host while the step
    runs; the kernel's own time is taken out of the step's. `around(fn)`, for
    a step that runs elsewhere (a child process) or must not be interrupted
    (a traced pass), runs BURST kernels right before and right after it.
    Both return fn's result, its wall time in seconds and the host's
    slowdown: the mean kernel time over REFERENCE_S.
    """

    def __init__(self):
        self._data = _inputs()
        # the untimed first call warms the kernel up
        self._checksum = _kernel(self._data)
        self.seconds = []
        self.slowdowns = []
        self._results = []
        self._stolen = 0.0
        # the timer is armed only inside during(); the handler stays, so a
        # tick that lands just after it is disarmed still finds it
        signal.signal(signal.SIGALRM, self._tick)

    def _measure(self):
        start = perf_counter()
        self._results.append(_kernel(self._data))
        self.seconds.append(perf_counter() - start)

    def _tick(self, signum, frame):
        start = perf_counter()
        self._measure()
        self._stolen += perf_counter() - start

    def _slowdown(self, first):
        # a signal handler must not raise into aukit, so check afterwards
        if any(r != self._checksum for r in self._results):
            raise SystemExit("perfbench: calibration kernel gave another result")
        self._results.clear()
        slowdown = statistics.mean(self.seconds[first:]) / REFERENCE_S
        self.slowdowns.append(slowdown)
        return slowdown

    def during(self, fn):
        first = len(self.seconds)
        self._measure()
        self._stolen = 0.0
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - start - self._stolen
        return result, wall, self._slowdown(first)

    def around(self, fn):
        first = len(self.seconds)
        for _ in range(BURST):
            self._measure()
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start
        for _ in range(BURST):
            self._measure()
        return result, wall, self._slowdown(first)
