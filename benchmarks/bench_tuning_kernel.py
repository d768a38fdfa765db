"""Benchmark — fold-major tuning kernel (ISSUE 4 acceptance evidence).

Times a **search-heavy** study (``search_iters=5``, 5-fold CV, KNN +
naive Bayes + decision tree — the §IV-A protocol at full tuning
strength) on a single core, once on the candidate-major reference path
(``kernel_disabled()``) and once through the fold-major kernel, and
asserts the runs produce **bit identical** ``RawExperiment``s — as must
a kernel run at ``n_jobs=2`` and a reference run at ``n_jobs=2`` (the
acceptance criterion that ``kernel_disabled()`` reproduces identical
output at both job counts).

The headline number is the **tuning-path throughput**: a micro-benchmark
times ``RandomSearch.fit`` itself per model on the study's encoded
training table, fold-major versus candidate-major, asserting identical
``best_params_`` / ``best_score_``.  KNN dominates the gain (one
distance matrix per fold instead of one per candidate), naive Bayes
amortizes its class statistics, the decision tree shares root argsorts —
together they are the "candidates+1 x folds full fits" redundancy the
kernel exists to remove.  Everything lands in
``BENCH_tuning_kernel.json`` at the repository root.

A third gate, ``split_kernel_bit_identical``, covers the tree split
search on its own: decision_tree, random_forest, adaboost and xgboost
are fitted on the encoded wide Airbnb matrix through the column-plan
split kernel (the forest through its lockstep engine) and under
``kernel_disabled()`` (the per-feature reference loop), and their
``predict_proba`` bytes must match.  Airbnb's columns are mostly
two-valued, so ``split_kernel_dense_bit_identical`` repeats the check
on encoded Credit, whose columns are dense and take the sorted path.

``paper_scale_forest`` fits ``RandomForestClassifier(n_estimators=50,
max_depth=8)`` on encoded Airbnb at 1,000 rows (the paper's width) on
both paths.  Byte equality of its ``predict_proba`` is a gate; the fit
seconds and tracemalloc peaks are single runs, recorded so that a
regression at paper scale shows up in the report.

Run directly (``python benchmarks/bench_tuning_kernel.py``) or under
pytest; ``--tiny`` shrinks splits/rows/search for the CI smoke, which
fails the step if any bit-identity gate ever goes false.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig, kernel_disabled
from repro.datasets import load_dataset
from repro.ml import RandomForestClassifier, RandomSearch, make_model, search_space
from repro.table import FeatureEncoder, LabelEncoder

SEARCH_MODELS = ("knn", "naive_bayes", "decision_tree")

#: the tree learners whose split search the column-plan kernel serves
SPLIT_MODELS = ("decision_tree", "random_forest", "adaboost", "xgboost")

KERNEL_CONFIG = StudyConfig(
    n_splits=3,
    cv_folds=5,
    search_iters=5,
    seed=7,
    models=SEARCH_MODELS,
)

TINY_CONFIG = StudyConfig(
    n_splits=2,
    cv_folds=3,
    search_iters=2,
    seed=7,
    models=SEARCH_MODELS,
)

N_ROWS = 420
TINY_ROWS = 150

#: rows of the paper-scale forest fit (encoded Airbnb is ~1,000 columns wide)
PAPER_ROWS = 1000
TINY_PAPER_ROWS = 300

METHODS = (
    ("SD", "mean"),
    ("IQR", "median"),
)

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_tuning_kernel.json"


def build_study(config: StudyConfig, n_rows: int = N_ROWS) -> CleanMLStudy:
    study = CleanMLStudy(config)
    study.add(
        load_dataset("Airbnb", seed=0, n_rows=n_rows),
        OUTLIERS,
        methods=[OutlierCleaning(d, r) for d, r in METHODS],
    )
    return study


def encoded_dataset(name: str, n_rows: int):
    """(X, y) of a registry dataset's dirty table under the study encoders.

    For Airbnb, the study dataset, the matrix shape (wide one-hot
    vocabulary included) is exactly what the study's tuning loop and
    tree fits see.
    """
    dataset = load_dataset(name, seed=0, n_rows=n_rows)
    table = dataset.dirty
    X = FeatureEncoder().fit_transform(table.features_table())
    y = LabelEncoder().fit(
        table.column(table.schema.label).unique()
    ).transform(table.labels)
    return X, y


def split_kernel_identity(dataset_name: str, n_rows: int, gate: str) -> dict:
    """Tree fits through the split kernel vs the reference loop.

    Each model is fitted once per path on the dataset's encoded matrix;
    the ``gate`` is byte equality of the fitted models' ``predict_proba``.
    The fit seconds are single runs, recorded for context only.
    """
    X, y = encoded_dataset(dataset_name, n_rows)
    per_model: dict[str, dict] = {}
    for name in SPLIT_MODELS:
        start = time.perf_counter()
        kernel = make_model(name, seed=3).fit(X, y).predict_proba(X)
        kernel_seconds = time.perf_counter() - start
        with kernel_disabled():
            start = time.perf_counter()
            reference = make_model(name, seed=3).fit(X, y).predict_proba(X)
            reference_seconds = time.perf_counter() - start
        per_model[name] = {
            "reference_seconds": round(reference_seconds, 4),
            "kernel_seconds": round(kernel_seconds, 4),
            "proba_identical": kernel.tobytes() == reference.tobytes(),
        }
    return {
        "matrix": f"{X.shape[0]}x{X.shape[1]} encoded ({dataset_name} dirty)",
        "per_model": per_model,
        gate: all(entry["proba_identical"] for entry in per_model.values()),
    }


def paper_scale_forest(n_rows: int) -> dict:
    """The 50-tree forest on paper-width Airbnb, both paths.

    Byte equality of ``predict_proba`` is the gate.  Seconds and
    tracemalloc peaks come from single fits: the timed fit runs with
    tracing off, and a second, traced fit measures the peak.
    """
    X, y = encoded_dataset("Airbnb", n_rows)

    def measure() -> tuple[float, float, bytes]:
        def fit():
            return RandomForestClassifier(
                n_estimators=50, max_depth=8, random_state=0
            ).fit(X, y)

        start = time.perf_counter()
        proba = fit().predict_proba(X).tobytes()
        seconds = time.perf_counter() - start
        tracemalloc.start()
        try:
            fit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return seconds, peak / 2**20, proba

    kernel_seconds, kernel_peak, kernel = measure()
    with kernel_disabled():
        reference_seconds, reference_peak, reference = measure()
    return {
        "matrix": f"{X.shape[0]}x{X.shape[1]} encoded (Airbnb dirty)",
        "model": "RandomForestClassifier(n_estimators=50, max_depth=8, random_state=0)",
        "reference_seconds": round(reference_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "reference_peak_mb": round(reference_peak, 2),
        "kernel_peak_mb": round(kernel_peak, 2),
        "proba_identical": kernel == reference,
    }


def time_tuning(config: StudyConfig, n_rows: int, repeats: int = 3) -> dict:
    """Micro-benchmark: ``RandomSearch.fit`` per model, both paths.

    Uses the study's own encoders on the study dataset's dirty table.
    Asserts fold-major and candidate-major searches agree on
    ``best_params_``/``best_score_``.
    """
    X, y = encoded_dataset("Airbnb", n_rows)

    def build_search(name: str, fold_major: bool) -> RandomSearch:
        return RandomSearch(
            make_model(name, seed=3),
            search_space(name),
            n_iter=config.search_iters,
            n_folds=config.cv_folds,
            seed=42,
            fold_major=fold_major,
        )

    per_model: dict[str, dict] = {}
    identical = True
    total_naive = total_kernel = 0.0
    for name in SEARCH_MODELS:
        naive_seconds = kernel_seconds = float("inf")
        for _ in range(repeats):
            # the naive arm is the full pre-kernel tuning path:
            # candidate-major cloning AND the per-feature reference
            # split search (kernel_disabled flips both)
            with kernel_disabled():
                start = time.perf_counter()
                naive = build_search(name, fold_major=False).fit(X, y)
                naive_seconds = min(naive_seconds, time.perf_counter() - start)

            start = time.perf_counter()
            kernel = build_search(name, fold_major=True).fit(X, y)
            kernel_seconds = min(kernel_seconds, time.perf_counter() - start)
        identical = identical and (
            naive.best_params_ == kernel.best_params_
            and naive.best_score_ == kernel.best_score_
        )
        total_naive += naive_seconds
        total_kernel += kernel_seconds
        per_model[name] = {
            "naive_seconds": round(naive_seconds, 4),
            "kernel_seconds": round(kernel_seconds, 4),
            "speedup": round(naive_seconds / kernel_seconds, 2),
        }
    return {
        "matrix": f"{X.shape[0]}x{X.shape[1]} encoded (Airbnb dirty)",
        "candidates": config.search_iters + 1,
        "cv_folds": config.cv_folds,
        "per_model": per_model,
        "naive_seconds": round(total_naive, 4),
        "kernel_seconds": round(total_kernel, 4),
        "speedup": round(total_naive / total_kernel, 2),
        "searches_per_second": {
            "naive": round(len(SEARCH_MODELS) / total_naive, 2),
            "kernel": round(len(SEARCH_MODELS) / total_kernel, 2),
        },
        "tuning_bit_identical": bool(identical),
    }


def run_tuning_bench(tiny: bool = False) -> dict:
    config = TINY_CONFIG if tiny else KERNEL_CONFIG
    n_rows = TINY_ROWS if tiny else N_ROWS
    n_tasks = config.n_splits  # one block
    repeats = 1 if tiny else 3

    # warm caches (imports, dataset generation code paths) off the clock
    build_study(config, n_rows).run()

    # best-of-N wall times, interleaved so bursty interference spreads
    # across both paths instead of landing on one side wholesale
    naive_seconds = kernel_seconds = float("inf")
    for _ in range(repeats):
        with kernel_disabled():
            naive = build_study(config, n_rows)
            start = time.perf_counter()
            naive.run(n_jobs=1)
            naive_seconds = min(naive_seconds, time.perf_counter() - start)

        kernel = build_study(config, n_rows)
        start = time.perf_counter()
        kernel.run(n_jobs=1)
        kernel_seconds = min(kernel_seconds, time.perf_counter() - start)

    parallel = build_study(config, n_rows)
    parallel.run(n_jobs=2)
    with kernel_disabled():
        naive_parallel = build_study(config, n_rows)
        naive_parallel.run(n_jobs=2)

    return {
        "benchmark": "tuning_kernel",
        "study": (
            f"Airbnb x outliers, {n_rows} rows, {config.n_splits} splits, "
            f"models {'+'.join(config.models)}, {len(METHODS)} methods, "
            f"search_iters {config.search_iters}, cv_folds {config.cv_folds}"
        ),
        "n_tasks": n_tasks,
        "naive_seconds": round(naive_seconds, 3),
        "kernel_seconds": round(kernel_seconds, 3),
        "speedup": round(naive_seconds / kernel_seconds, 2),
        "tasks_per_second": {
            "naive": round(n_tasks / naive_seconds, 2),
            "kernel": round(n_tasks / kernel_seconds, 2),
        },
        "tuning_search": time_tuning(config, n_rows, repeats=max(repeats, 2)),
        "split_kernel": split_kernel_identity(
            "Airbnb", n_rows, "split_kernel_bit_identical"
        ),
        "split_kernel_dense": split_kernel_identity(
            "Credit", n_rows, "split_kernel_dense_bit_identical"
        ),
        "paper_scale_forest": paper_scale_forest(
            TINY_PAPER_ROWS if tiny else PAPER_ROWS
        ),
        "results_bit_identical": bool(
            naive.raw_experiments == kernel.raw_experiments
        ),
        "parallel_bit_identical": bool(
            parallel.raw_experiments == kernel.raw_experiments
        ),
        "reference_parallel_bit_identical": bool(
            naive_parallel.raw_experiments == naive.raw_experiments
        ),
    }


def publish_report(report: dict) -> None:
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    tuning = report["tuning_search"]
    paper = report["paper_scale_forest"]
    per_model = "  ".join(
        f"{name}: {entry['speedup']:.2f}x"
        for name, entry in tuning["per_model"].items()
    )
    print(
        "\n".join(
            [
                "Fold-major tuning kernel on " + report["study"],
                f"  study naive:  {report['naive_seconds']:>7.3f}s  "
                f"({report['tasks_per_second']['naive']:.2f} tasks/s)",
                f"  study kernel: {report['kernel_seconds']:>7.3f}s  "
                f"({report['tasks_per_second']['kernel']:.2f} tasks/s)",
                f"  study speedup: {report['speedup']:.2f}x  "
                f"(bit-identical: {report['results_bit_identical']}, "
                f"kernel n_jobs=2: {report['parallel_bit_identical']}, "
                f"reference n_jobs=2: "
                f"{report['reference_parallel_bit_identical']})",
                f"  tuning path: {tuning['speedup']:.2f}x on "
                f"{tuning['matrix']} ({per_model}; "
                f"bit-identical: {tuning['tuning_bit_identical']})",
                f"  split kernel on {report['split_kernel']['matrix']} "
                f"({'+'.join(SPLIT_MODELS)}; bit-identical: "
                f"{report['split_kernel']['split_kernel_bit_identical']})",
                f"  dense split kernel on "
                f"{report['split_kernel_dense']['matrix']} (bit-identical: "
                f"{report['split_kernel_dense']['split_kernel_dense_bit_identical']})",
                f"  paper-scale forest on {paper['matrix']}: "
                f"{paper['reference_seconds']:.2f}s -> {paper['kernel_seconds']:.2f}s, "
                f"peak {paper['reference_peak_mb']:.1f} -> "
                f"{paper['kernel_peak_mb']:.1f} MB "
                f"(bit-identical: {paper['proba_identical']})",
                f"[written to {OUTPUT_PATH}]",
            ]
        )
    )


def check_report(report: dict) -> None:
    """The invariants CI enforces — identity, never raw speed."""
    assert report["results_bit_identical"], (
        "fold-major kernel run diverged from the reference path"
    )
    assert report["parallel_bit_identical"], (
        "n_jobs=2 kernel run diverged from n_jobs=1"
    )
    assert report["reference_parallel_bit_identical"], (
        "kernel_disabled() n_jobs=2 run diverged from n_jobs=1"
    )
    assert report["tuning_search"]["tuning_bit_identical"], (
        "fold-major RandomSearch diverged from the candidate-major search"
    )
    assert report["split_kernel"]["split_kernel_bit_identical"], (
        "tree split kernel diverged from the reference split search"
    )
    assert report["split_kernel_dense"]["split_kernel_dense_bit_identical"], (
        "tree split kernel diverged from the reference on dense columns"
    )
    assert report["paper_scale_forest"]["proba_identical"], (
        "paper-scale forest diverged from the reference split search"
    )


def test_tuning_kernel(benchmark):
    from .common import once

    report = once(benchmark, run_tuning_bench)
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
    report = run_tuning_bench(tiny=args.tiny)
    publish_report(report)
    check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
