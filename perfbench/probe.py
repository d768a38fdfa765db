"""Host-speed probe: a fixed reference kernel run beside each timed repeat.

The benchmark runs on a few CPUs of a shared host.  There the same
protocol run takes anywhere from 1x to ~2x as long from one minute to
the next, and its user CPU time moves with its wall time: the CPUs
themselves run slower, so no statistic over one run's repeats can take
it out.  A kernel that stays fixed slows down with them, if it runs on
the same CPUs at the same moments and is the same kind of code: Python
loops over small numpy arrays, as the protocol's model fits are.  A
small synthetic kernel (tight loops, one 64 x 64 matmul) did not track
the slowdown; this one does.

:class:`Probe` forks one process per CPU the run uses, pinned to that
CPU.  Each runs :func:`kernel` (a tiny CART fit written here, so no
change to the program can move it) every :data:`INTERVAL_S` seconds and
records when each iteration started and the CPU time it took.  The
scheduler interleaves the probe with the repeat at millisecond grain, so
the probe's mean CPU time per iteration over a repeat's interval is the
host's speed during that repeat.  :meth:`Probe.window` returns it, with
the CPU time the probe took from each CPU, which the repeat's wall time
includes.  Dividing by it gives times at the reference speed
(:data:`REF_ITER_S` per iteration).
"""

from __future__ import annotations

import os
import pickle
import signal
import statistics
import time

import numpy as np

#: the kernel's CPU time per iteration at the reference speed; chosen
#: near its time on the 2.1 GHz Xeon vCPUs the benchmark was tuned on,
#: so reference seconds read roughly as seconds there
REF_ITER_S = 0.004
#: pause between iterations: the probe takes about a tenth of its CPU
INTERVAL_S = 0.04


def _best_split(X: np.ndarray, y: np.ndarray):
    """Gini-best threshold over all columns, as ``(impurity, column, threshold)``."""
    best = (np.inf, -1, 0.0)
    n = len(y)
    counts = np.arange(1, n)
    for column in range(X.shape[1]):
        order = np.argsort(X[:, column], kind="stable")
        xs, ys = X[order, column], y[order]
        left = np.cumsum(ys)[:-1]
        p_left = left / counts
        p_right = (ys.sum() - left) / (n - counts)
        impurity = counts * p_left * (1 - p_left) + (n - counts) * p_right * (1 - p_right)
        impurity = np.where(xs[1:] != xs[:-1], impurity, np.inf)
        i = int(np.argmin(impurity))
        if impurity[i] < best[0]:
            best = (float(impurity[i]), column, (xs[i] + xs[i + 1]) / 2)
    return best


def _grow(X: np.ndarray, y: np.ndarray, depth: int) -> dict:
    if depth == 0 or len(y) < 4 or y.min() == y.max():
        return {"leaf": float(y.mean())}
    impurity, column, threshold = _best_split(X, y)
    if not np.isfinite(impurity):
        return {"leaf": float(y.mean())}
    mask = X[:, column] <= threshold
    return {
        "column": column,
        "threshold": threshold,
        "left": _grow(X[mask], y[mask], depth - 1),
        "right": _grow(X[~mask], y[~mask], depth - 1),
    }


def kernel_inputs() -> tuple[np.ndarray, np.ndarray]:
    """The kernel's fixed inputs: 90 rows, 6 dense and 24 binary columns."""
    rng = np.random.default_rng(20240601)
    X = (rng.random((90, 30)) > 0.7).astype(float)
    X[:, :6] = rng.random((90, 6))
    y = (rng.random(90) > 0.5).astype(float)
    return X, y


def kernel(X: np.ndarray, y: np.ndarray) -> dict:
    """One probe iteration: a depth-3 CART fit."""
    return _grow(X, y, 3)


def _probe_main(cpu: int, out_fd: int) -> None:
    """Body of one probe process: iterate until SIGTERM, then report."""
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    os.sched_setaffinity(0, {cpu})
    X, y = kernel_inputs()
    samples = []
    while not stopped:
        start = time.perf_counter()
        cpu_before = time.thread_time()
        kernel(X, y)
        samples.append((start, time.thread_time() - cpu_before))
        time.sleep(INTERVAL_S)
    with os.fdopen(out_fd, "wb") as out:
        out.write(pickle.dumps(samples))


class Probe:
    """One probe process per CPU in ``cpus`` while the ``with`` block runs.

    The samples are read when the block ends; query them with
    :meth:`window` and :meth:`mean_iter_s` afterwards.
    """

    def __init__(self, cpus) -> None:
        self.cpus = sorted(cpus)
        self.samples: list[list[tuple[float, float]]] = []
        self._children: list[tuple[int, int]] = []

    def __enter__(self) -> "Probe":
        try:
            for cpu in self.cpus:
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        os.close(read_fd)
                        _probe_main(cpu, write_fd)
                        status = 0
                    finally:
                        os._exit(status)
                os.close(write_fd)
                self._children.append((pid, read_fd))
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        """Stop every probe, wait for it and keep its samples."""
        for pid, _ in self._children:
            os.kill(pid, signal.SIGTERM)
        for pid, read_fd in self._children:
            with os.fdopen(read_fd, "rb") as pipe:
                payload = pipe.read()
            os.waitpid(pid, 0)
            self.samples.append(pickle.loads(payload) if payload else [])
        self._children = []

    def window(self, start: float, end: float) -> tuple[float, float]:
        """``(mean CPU s per iteration, probe CPU s per CPU)`` in ``[start, end]``.

        Times are ``time.perf_counter()`` values, which on Linux share
        one clock across processes.
        """
        inside = [cpu_s for per_cpu in self.samples for t, cpu_s in per_cpu if start <= t <= end]
        if not inside:
            raise RuntimeError(f"no probe iteration ran in [{start}, {end}]")
        return statistics.fmean(inside), sum(inside) / len(self.cpus)

    def mean_iter_s(self) -> float:
        """Mean CPU s per iteration over the probe's whole life."""
        return statistics.fmean(cpu_s for per_cpu in self.samples for _, cpu_s in per_cpu)
