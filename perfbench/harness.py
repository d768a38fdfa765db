"""Measurement harness: forked repeats, medians, digests, attribution, stamp.

Every repeat of a workload runs in a freshly forked child of the
benchmark process (the way ``benchmarks/common.measure_peak_rss``
measures memory), so repeats share no heap, caches or wrappers, and the
child's own ``getrusage`` gives the repeat's CPU time, worker processes
included, and ``/proc/self/status`` its peak RSS growth.  The benchmark
process itself only builds inputs and collects results.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np

from . import tracer as tracing
from . import workloads

#: the program counters read through ``observing()``, as
#: metric -> (useful outcomes, other attempts); the ratio is useful / all
COUNTER_RATIOS = {
    "cleaning.detection_cache.hit_ratio": (
        "cleaning.detection_cache.hits",
        "cleaning.detection_cache.misses",
    ),
    "runner.eval_memo.hit_ratio": ("runner.eval_memo.hits", "runner.eval_memo.misses"),
    "tuning.fold_workspace.reuse_ratio": (
        "tuning.fold_workspace.reuses",
        "tuning.fold_workspace.builds",
    ),
}


def run_forked(fn, *args) -> dict:
    """``fn(*args)`` (a picklable dict) computed in a forked child.

    The child leads its own process group, which is killed after it is
    reaped, so no worker it started can outlive the repeat.  A child
    that raises or dies yields ``{"error": ...}``.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.setpgid(0, 0)
            os.close(read_fd)
            try:
                result = fn(*args)
            except Exception:
                result = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(result))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    if status != 0 or not payload:
        return {"error": f"repeat child failed (wait status {status})"}
    return pickle.loads(payload)


def _status_kib(field: str) -> int:
    """A ``kB`` field of ``/proc/self/status`` (``VmRSS``, ``VmHWM``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def _reset_peak_kib() -> int:
    """Reset this process's RSS high-water mark; return its RSS now, in KiB.

    A forked process starts with its parent's RSS and high-water mark;
    after the reset, ``VmHWM`` minus the returned figure is the growth
    over what the process inherited.
    """
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")
    return _status_kib("VmRSS")


class _WorkerPeaks:
    """Peak RSS growth of every worker forked while it is alive.

    Each ``multiprocessing`` worker resets its high-water mark right
    after the fork and, at exit, writes its growth in KiB to
    ``<out_dir>/<pid>.kib`` from a finalizer.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        out_dir.mkdir()
        # weakly held by multiprocessing: active while this object lives
        mp_util.register_after_fork(self, _WorkerPeaks._after_fork)

    def _after_fork(self) -> None:
        baseline = _reset_peak_kib()
        path = self.out_dir / f"{os.getpid()}.kib"
        mp_util.Finalize(
            None,
            lambda: path.write_text(str(_status_kib("VmHWM") - baseline)),
            exitpriority=10,
        )

    def total_kib(self) -> int:
        return sum(int(path.read_text()) for path in self.out_dir.glob("*.kib"))


def _cpu_s() -> float:
    """User+sys CPU of this process and its reaped children, in seconds."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def untraced_repeat(inputs: workloads.Inputs, out_dir: Path) -> dict:
    """One timed protocol run with tracing off (runs in the forked child).

    ``peak_rss_mb`` is the run's peak RSS growth over what this process
    held at its start, plus every pool worker's growth over what it
    inherited at fork.
    """
    worker_peaks = _WorkerPeaks(out_dir / "rss")
    baseline_kib = _reset_peak_kib()
    cpu_before = _cpu_s()
    start = time.perf_counter()
    outcome = workloads.execute(inputs, out_dir)
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu_before
    growth_kib = _status_kib("VmHWM") - baseline_kib + worker_peaks.total_kib()
    return {
        "start": start,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": growth_kib / 1024.0,
        "digest": hashlib.sha256(outcome.output).hexdigest(),
        "failed_units": outcome.failed_units,
    }


def traced_repeat(inputs: workloads.Inputs, out_dir: Path) -> dict:
    """One protocol run under the tracer and ``observing()``."""
    from repro.core import ObservabilityConfig, observing

    dump_dir = out_dir / "spans"
    dump_dir.mkdir()
    tracer = tracing.Tracer(dump_dir)
    with observing(ObservabilityConfig(enabled=True)) as collector:
        with tracer:
            start = time.perf_counter()
            outcome = workloads.execute(inputs, out_dir)
            wall = time.perf_counter() - start
        counters = dict(collector.counters)
    return {
        "wall_s": wall,
        "digest": hashlib.sha256(outcome.output).hexdigest(),
        "failed_units": outcome.failed_units,
        "retries": outcome.retries,
        "totals": tracer.totals,
        "outer_s": tracer.outer_s,
        "workers": tracing.read_worker_totals(dump_dir),
        "counters": counters,
        "leftover_wrappers": tracing.installed_wrappers(),
    }


def attribute(rep: dict, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced repeat.

    Sequential runs account the traced wall time; pooled runs account
    ``jobs x wall`` worker-seconds, with every worker's layer time
    summed.  ``core.runner.self_s`` is the accounted time no layer span
    covers, so the layer self times plus it equal the accounted time.
    """
    wall = rep["wall_s"]
    merged = tracing.merge_totals([rep["totals"], *rep["workers"]])
    workers = max(1, jobs)
    accounted = wall * workers
    layer_s = sum(entry[0] for entry in merged.values())
    busy_s = (
        sum(entry[0] for part in rep["workers"] for entry in part.values())
        if jobs > 1
        else layer_s
    )
    metrics: dict[str, float] = {}
    for family in tracing.FAMILIES:
        self_s, calls = merged.get(family, (0.0, 0))
        metrics[f"{family}.self_s"] = self_s
        if family not in ("core.persist", "core.queries"):
            metrics[f"{family}.calls"] = calls
    metrics["core.runner.self_s"] = accounted - layer_s
    metrics["core.executor.busy_ratio"] = busy_s / accounted
    metrics["core.supervisor.retries"] = rep["retries"]
    counters = rep["counters"]
    for name, (useful, other) in COUNTER_RATIOS.items():
        hits = counters.get(useful, 0)
        total = hits + counters.get(other, 0)
        metrics[name] = hits / total if total else 0.0
    metrics["trace.wall_s"] = wall
    return metrics


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".calls", ".retries")):
        return "count"
    return "ratio"


def repeat(fn, seconds: float, min_reps: int) -> list:
    """Call ``fn()`` until the next call would overrun ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(fn())
        elapsed = time.perf_counter() - start
        if len(results) >= min_reps and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# environment stamp


def _git_sha(root: Path) -> str | None:
    """HEAD of ``root/.git`` read from disk, or ``None`` outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> tuple[str | None, int | None]:
    """OpenBLAS version and its runtime thread count (``None`` if unknown)."""
    import ctypes

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        version = None
    threads = None
    try:
        with open("/proc/self/maps") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libraries = set()
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
        if threads is not None:
            break
    return version, threads


def environment(root: Path, inputs: workloads.Inputs, nproc: int, cpus: list) -> dict:
    import scipy

    version, threads = _blas()
    workload = inputs.workload
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": version,
        "blas_threads": threads,
        "blas_thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": nproc,
        "run_cpus": cpus,
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
        "workload": workload.name,
        "workload_seed": inputs.seed,
        "rows": inputs.dataset.dirty.n_rows,
        "splits": workload.splits,
        "cv_folds": workload.cv_folds,
        "jobs": workload.jobs,
        "granularity": workload.granularity,
        "cells": inputs.cells,
        "config_fingerprint": inputs.config.fingerprint(),
        "argv": sys.argv[1:],
    }


def write_json_line(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
