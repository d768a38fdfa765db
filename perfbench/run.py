"""End-to-end CleanML protocol benchmark with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload wide-outliers --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
``wall_s`` (study start to persisted result), ``cells_per_s``,
``cpu_s`` (parent plus workers), ``peak_rss_mb`` (peak RSS growth of
the fresh forked child each repeat runs in, plus each worker's growth
over what it inherited at fork) as medians over the repeats
that fit in ``--seconds``, and ``setup_s``, the median time to build the
workload's inputs.  The three times are in reference seconds: the run
shares its CPUs with a host-speed probe (``probe.py``), and each time
is scaled by the probe's speed while it was measured, so a host that
runs slower for a while does not read as a slower program.  The raw
wall times are in the environment stamp.  ``--trace 1`` alternates
untraced and traced repeats, without the probe, and prints the
per-layer metrics of the traced ones (see ``tracer.py`` and
``harness.attribute``) plus ``trace.overhead``.

Every repeat's output (the persisted study JSON plus the Q1-Q5 answers)
is hashed.  At the default seed each digest must equal the one recorded
in ``golden.json``; at any other seed all repeats of the run must agree.  A mismatch or a failed repeat
makes the run incorrect and counts its cells as failed.

The last stdout line is the JSON result ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is the environment stamp.
``--record-golden`` rewrites ``golden.json`` for the workload (seed 0).
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per process, set before numpy loads so pool
# workers inherit it and total threads stay within the cores
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0
#: set-up timings taken before the first and before every timed repeat
SETUP_REPEATS = 5


def _import_program():
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as error:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}")
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not this checkout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    from perfbench import harness, probe, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    setup_times = []

    def timed_setup(times: int) -> workloads.Inputs:
        for _ in range(times):
            # start each timing from an empty collector: otherwise garbage
            # left by earlier set-ups and repeats decides whether a
            # collection lands inside it, which doubles some timings
            gc.collect()
            start = time.perf_counter()
            built = workloads.setup(workload, args.seed)
            setup_times.append(time.perf_counter() - start)
        return built

    def fresh_dir() -> Path:
        path = scratch / str(next(counter))
        path.mkdir()
        return path

    def measure() -> list:
        if args.trace:
            order = itertools.count()

            def pair():
                # alternate which side runs first
                sides = [harness.untraced_repeat, harness.traced_repeat]
                if next(order) % 2:
                    sides.reverse()
                out = {fn.__name__: harness.run_forked(fn, inputs, fresh_dir()) for fn in sides}
                return out["untraced_repeat"], out["traced_repeat"]

            return harness.repeat(pair, args.seconds, min_reps=1)
        # set-up is re-timed between repeats, so its median samples
        # the whole run rather than one moment of it
        return harness.repeat(
            lambda: harness.run_forked(
                harness.untraced_repeat, timed_setup(SETUP_REPEATS), fresh_dir()
            ),
            args.seconds,
            min_reps=3,
        )

    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    counter = itertools.count()
    sampling = contextlib.nullcontext()
    available = sorted(os.sched_getaffinity(0))
    cpus = available
    if not args.trace:
        # the run's processes share their CPUs with the host-speed probe,
        # one probe per CPU: the first CPU only, or one per pool worker
        cpus = available[: max(1, min(workload.jobs, len(available)))]
        os.sched_setaffinity(0, cpus)
        sampling = host = probe.Probe(cpus)
    with sampling:
        inputs = timed_setup(SETUP_REPEATS)
        scratch.mkdir(parents=True)
        try:
            measured = measure()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                scratch.parent.rmdir()
            except OSError:
                pass
    if args.trace:
        plain = [p[0] for p in measured]
        traced = [p[1] for p in measured]
        reps = plain + traced
    else:
        reps = measured

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if args.record_golden:
        if args.seed != DEFAULT_SEED or "error" in reps[0]:
            sys.exit("perfbench: record goldens from a clean run at the default seed")
        golden[workload.name] = reps[0]["digest"]
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    if args.seed == DEFAULT_SEED:
        expected = golden.get(workload.name)
    else:
        expected = next((rep["digest"] for rep in reps if "error" not in rep), None)

    # a repeat that errored, quarantined a unit, produced other bytes or
    # was traced incompletely fails all of its cells
    failed = 0
    for rep in reps:
        if "error" in rep:
            problem = rep["error"]
        elif rep["digest"] != expected:
            problem = f"output digest {rep['digest']} != expected {expected}"
        elif rep["failed_units"]:
            problem = f"{rep['failed_units']} units quarantined"
        elif rep.get("leftover_wrappers"):
            problem = f"wrappers left installed: {rep['leftover_wrappers']}"
        elif workload.jobs > 1 and rep.get("workers") == []:
            # e.g. a spawn/forkserver pool, whose workers do not inherit the wrappers
            problem = "no pool worker reported its span totals"
        else:
            continue
        print(f"perfbench: {problem}", file=sys.stderr)
        failed += inputs.cells
    ok = [rep for rep in reps if "error" not in rep]

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        good_traced = [rep for rep in traced if "error" not in rep]
        good_plain = [rep for rep in plain if "error" not in rep]
        if good_traced and good_plain:
            layers = [harness.attribute(rep, workload.jobs) for rep in good_traced]
            for name in layers[0]:
                metrics[name] = (harness.median(m[name] for m in layers), harness.unit_of(name))
            untraced_wall = harness.median(rep["wall_s"] for rep in good_plain)
            metrics["trace.overhead"] = (metrics["trace.wall_s"][0] / untraced_wall - 1.0, "ratio")
    elif ok:
        # times at the reference speed: each repeat's wall (less what the
        # probe took from its CPUs) and CPU time, scaled by the probe's
        # speed over that repeat
        for rep in ok:
            iter_s, probe_cpu_s = host.window(rep["start"], rep["start"] + rep["wall_s"])
            rep["probe_iter_s"] = iter_s
            rep["ref_wall_s"] = (rep["wall_s"] - probe_cpu_s) * probe.REF_ITER_S / iter_s
            rep["ref_cpu_s"] = rep["cpu_s"] * probe.REF_ITER_S / iter_s
        wall = harness.median(rep["ref_wall_s"] for rep in ok)
        setup_s = harness.median(setup_times) * probe.REF_ITER_S / host.mean_iter_s()
        metrics = {
            "wall_s": (wall, "s"),
            "cells_per_s": (inputs.cells / wall, "cells/s"),
            "cpu_s": (harness.median(rep["ref_cpu_s"] for rep in ok), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (harness.median(rep["peak_rss_mb"] for rep in ok), "MiB"),
        }

    harness.write_json_line(
        {
            "env": harness.environment(ROOT, inputs, nproc=len(available), cpus=cpus),
            "repeats": len(reps),
            "repeat_wall_s": [rep.get("wall_s") for rep in reps],
            "repeat_probe_iter_s": [rep.get("probe_iter_s") for rep in reps],
        }
    )
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<40} {value:>14.6f} {unit}", file=sys.stderr)
    harness.write_json_line(
        {
            "correct": failed == 0 and bool(metrics),
            "attempted": len(reps) * inputs.cells,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
