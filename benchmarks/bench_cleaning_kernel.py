"""Benchmark — detection cache of the cleaning kernel (ISSUE 3 evidence).

Times one fixed detection-heavy study three ways on a single core:

* **naive** — ``kernel_disabled()``: the full pre-kernel reference path
  (private per-method detector fits, per-model encoder fits, no
  evaluation memo, per-row reference transforms);
* **no detection cache** — ``detection_cache_disabled()``: the PR 2
  split kernel on, but every cleaning method fits and applies a private
  detector, isolating exactly what detector sharing buys;
* **kernel** — everything on: one detector fit + one detection per
  ``(detector fingerprint, table)`` per split.

All three runs (plus a kernel run at ``n_jobs=2``) must produce **bit
identical** ``RawExperiment``s — that is the cache's correctness
contract and the invariant CI enforces.  A second gate,
``zeroer_features_bit_identical``, compares ZeroER's vectorized pair
featurizer byte for byte against its per-pair reference loop on every
Restaurant x duplicates training table of the study.  Results land in
``BENCH_cleaning_kernel.json`` at the repository root.

The study composition deliberately stresses detection: the full Table 2
outlier grid on Credit (the isolation forest is fitted for the Mean /
Median / Mode / HoloClean repairs — 4 fits naive, 1 cached — and SD/IQR
likewise share threshold fits), plus the duplicate grid on Restaurant
(ZeroER's blocked pair featurization dominates; its ``fit_detect``
byproduct hands the training detection to the cache for free).  A
single cheap model keeps training time from masking the detection work.

Run directly (``python benchmarks/bench_cleaning_kernel.py``) or under
pytest; ``--tiny`` shrinks rows/splits for the CI smoke, which fails
the step if ``results_bit_identical`` or
``zeroer_features_bit_identical`` ever goes false.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cleaning import DUPLICATES, OUTLIERS, PairFeaturizer
from repro.cleaning.zeroer import candidate_pairs
from repro.core import (
    CleanMLStudy,
    StudyConfig,
    derive_seed,
    detection_cache_disabled,
    kernel_disabled,
)
from repro.datasets import load_dataset
from repro.table import train_test_split

KERNEL_CONFIG = StudyConfig(
    n_splits=4,
    cv_folds=2,
    seed=7,
    models=("naive_bayes",),
)

TINY_CONFIG = StudyConfig(
    n_splits=2,
    cv_folds=2,
    seed=7,
    models=("naive_bayes",),
)

N_ROWS = 300
TINY_ROWS = 150

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_cleaning_kernel.json"


def build_study(config: StudyConfig, n_rows: int = N_ROWS) -> CleanMLStudy:
    """Outliers x duplicates grid — registry methods, nothing hand-picked."""
    study = CleanMLStudy(config)
    study.add(load_dataset("Credit", seed=0, n_rows=n_rows), OUTLIERS)
    study.add(load_dataset("Restaurant", seed=0, n_rows=n_rows), DUPLICATES)
    return study


def zeroer_features_identical(config: StudyConfig, n_rows: int) -> bool:
    """Vectorized vs reference ZeroER features on the study's train tables.

    Rebuilds each split's Restaurant x duplicates training table exactly
    as the runner does and compares the feature-matrix bytes of
    :meth:`PairFeaturizer.features` and its per-pair reference loop.
    """
    dataset = load_dataset("Restaurant", seed=0, n_rows=n_rows)
    for split in range(config.n_splits):
        seed = derive_seed(config.seed, dataset.name, DUPLICATES, split)
        train, _ = train_test_split(
            dataset.dirty, test_ratio=config.test_ratio, seed=seed
        )
        featurizer = PairFeaturizer().fit(train)
        pairs = candidate_pairs(train, featurizer.categorical)
        fast = featurizer.features(train, pairs)
        reference = featurizer._features_reference(train, pairs)
        if fast.tobytes() != reference.tobytes():
            return False
    return True


def run_cleaning_bench(tiny: bool = False) -> dict:
    config = TINY_CONFIG if tiny else KERNEL_CONFIG
    n_rows = TINY_ROWS if tiny else N_ROWS
    n_tasks = 2 * config.n_splits  # two blocks
    repeats = 1 if tiny else 3

    # warm caches (imports, dataset generation code paths) off the clock
    build_study(config, n_rows).run()

    # best-of-N wall times, interleaved so bursty interference spreads
    # across all three paths instead of landing on one side wholesale
    naive_seconds = nocache_seconds = kernel_seconds = float("inf")
    for _ in range(repeats):
        with kernel_disabled():
            naive = build_study(config, n_rows)
            start = time.perf_counter()
            naive.run(n_jobs=1)
            naive_seconds = min(naive_seconds, time.perf_counter() - start)

        with detection_cache_disabled():
            nocache = build_study(config, n_rows)
            start = time.perf_counter()
            nocache.run(n_jobs=1)
            nocache_seconds = min(nocache_seconds, time.perf_counter() - start)

        kernel = build_study(config, n_rows)
        start = time.perf_counter()
        kernel.run(n_jobs=1)
        kernel_seconds = min(kernel_seconds, time.perf_counter() - start)

    parallel = build_study(config, n_rows)
    parallel.run(n_jobs=2)

    return {
        "benchmark": "cleaning_kernel",
        "study": (
            f"Credit x outliers (12 Table 2 methods) + Restaurant x "
            f"duplicates (2 methods), {n_rows} rows, {config.n_splits} "
            f"splits, models {list(config.models)}"
        ),
        "n_tasks": n_tasks,
        "naive_seconds": round(naive_seconds, 3),
        "no_detection_cache_seconds": round(nocache_seconds, 3),
        "kernel_seconds": round(kernel_seconds, 3),
        "speedup": round(naive_seconds / kernel_seconds, 2),
        "detection_cache_speedup": round(nocache_seconds / kernel_seconds, 2),
        "tasks_per_second": {
            "naive": round(n_tasks / naive_seconds, 2),
            "no_detection_cache": round(n_tasks / nocache_seconds, 2),
            "kernel": round(n_tasks / kernel_seconds, 2),
        },
        "results_bit_identical": bool(
            naive.raw_experiments == kernel.raw_experiments
            and nocache.raw_experiments == kernel.raw_experiments
        ),
        "parallel_bit_identical": bool(
            parallel.raw_experiments == kernel.raw_experiments
        ),
        "zeroer_features_bit_identical": zeroer_features_identical(config, n_rows),
    }


def publish_report(report: dict) -> None:
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(
        "\n".join(
            [
                "Cleaning kernel (detection cache) on " + report["study"],
                f"  naive:          {report['naive_seconds']:>7.3f}s  "
                f"({report['tasks_per_second']['naive']:.2f} tasks/s)",
                f"  no detn cache:  {report['no_detection_cache_seconds']:>7.3f}s  "
                f"({report['tasks_per_second']['no_detection_cache']:.2f} tasks/s)",
                f"  kernel:         {report['kernel_seconds']:>7.3f}s  "
                f"({report['tasks_per_second']['kernel']:.2f} tasks/s)",
                f"  speedup: {report['speedup']:.2f}x vs naive, "
                f"{report['detection_cache_speedup']:.2f}x from the "
                f"detection cache alone",
                f"  bit-identical: {report['results_bit_identical']}, "
                f"n_jobs=2 identical: {report['parallel_bit_identical']}, "
                f"ZeroER features identical: "
                f"{report['zeroer_features_bit_identical']}",
                f"[written to {OUTPUT_PATH}]",
            ]
        )
    )


def check_report(report: dict) -> None:
    """The invariants CI enforces — identity, never raw speed."""
    assert report["results_bit_identical"], (
        "detection-cache run diverged from the naive reference path"
    )
    assert report["parallel_bit_identical"], (
        "n_jobs=2 cleaning-kernel run diverged from n_jobs=1"
    )
    assert report["zeroer_features_bit_identical"], (
        "vectorized ZeroER features diverged from the per-pair reference"
    )


def test_cleaning_kernel(benchmark):
    from .common import once

    report = once(benchmark, run_cleaning_bench)
    publish_report(report)
    check_report(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small configuration for the CI smoke (identity checks only)",
    )
    args = parser.parse_args(argv)
    report = run_cleaning_bench(tiny=args.tiny)
    publish_report(report)
    check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
