"""The benchmark's fixed paper-protocol workloads.

Each workload is one end-to-end run of the CleanML protocol through the
public API (``CleanMLStudy.run`` -> statistics pass -> Q1-Q5 ->
``save_study``), at a size chosen so a run measures many repeats:

``wide-outliers``
    Airbnb x outliers, the full Table 2 outlier grid (SD/IQR/IF x
    Mean/Median/Mode/HoloClean), all 7 models, 1 job, ``split``
    granularity.  The encoded matrix has ~100 columns, 97% of them binary
    one-hots, against the narrow workload's 8 dense ones.
``narrow-outliers-pool``
    Credit x outliers (8 dense encoded columns), the same grid and
    models, 2 worker processes at ``cell`` granularity: the executor and
    supervisor do real work (pickling, workspace rebuilds, scheduling).
``mixed-airbnb``
    The Table 17 mixed-error study (``run_mixed_study``) on Airbnb
    (missing values + outliers + duplicates) with Table 17's method
    subsets and its 3 models, 1 job: every Cartesian combination refits
    its detectors (ZeroER among them) and every model fits its own
    encoder, so the cleaning and table layers carry most of the time.

The model overrides (``LIGHT_MODELS``) and the Table 17 method subsets
and models are copied here from ``benchmarks/common.py`` and
``benchmarks/bench_table17_mixed.py`` rather than imported, so an edit
to those benches cannot silently change what this benchmark measures.

A workload's inputs derive from the seed alone: ``setup(seed)`` loads
the dataset and builds the method list, and ``execute(inputs, out)``
runs the protocol and returns the bytes whose sha256 is the run's
output digest.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import repro.core as core
from repro.cleaning import (
    DUPLICATES,
    MISSING_VALUES,
    OUTLIERS,
    ImputationCleaning,
    KeyCollisionCleaning,
    OutlierCleaning,
    ZeroERCleaning,
)
from repro.cleaning.registry import methods_for
from repro.datasets import load_dataset

#: lighter ensembles, as in ``benchmarks/common.py`` (LIGHT_MODELS)
LIGHT_MODELS = {
    "random_forest": {"n_estimators": 10, "max_depth": 6},
    "xgboost": {"n_estimators": 8, "max_depth": 2},
    "adaboost": {"n_estimators": 10},
    "decision_tree": {"max_depth": 6},
    "logistic_regression": {"max_iter": 150},
}

#: Table 17's reduced per-type method spaces (``METHOD_SUBSETS`` in
#: ``benchmarks/bench_table17_mixed.py``) for Airbnb's three error types
MIXED_METHODS = {
    MISSING_VALUES: lambda: [
        ImputationCleaning("mean", "mode"),
        ImputationCleaning("median", "dummy"),
    ],
    OUTLIERS: lambda: [
        OutlierCleaning("SD", "mean"),
        OutlierCleaning("IQR", "median"),
    ],
    DUPLICATES: lambda: [KeyCollisionCleaning(), ZeroERCleaning()],
}
#: Table 17's models (``TINY_CONFIG`` in ``benchmarks/common.py``)
MIXED_MODELS = ("logistic_regression", "decision_tree", "naive_bayes")


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    rows: int
    splits: int
    cv_folds: int
    jobs: int = 1
    granularity: str = "split"
    #: run the Table 17 mixed-error study instead of the outlier protocol
    mixed: bool = False

    def config(self, seed: int) -> core.StudyConfig:
        config = core.StudyConfig(
            n_splits=self.splits,
            cv_folds=self.cv_folds,
            seed=seed,
            model_overrides=LIGHT_MODELS,
            n_jobs=self.jobs,
            granularity=self.granularity,
        )
        if self.mixed:
            config = replace(config, models=MIXED_MODELS)
        return config


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("wide-outliers", "Airbnb", rows=90, splits=3, cv_folds=2),
        Workload(
            "narrow-outliers-pool",
            "Credit",
            rows=200,
            splits=3,
            cv_folds=2,
            jobs=2,
            granularity="cell",
        ),
        Workload("mixed-airbnb", "Airbnb", rows=150, splits=3, cv_folds=2, mixed=True),
    )
}


@dataclass
class Inputs:
    """Everything a run needs, built by :func:`setup` before timing."""

    workload: Workload
    seed: int
    config: core.StudyConfig
    dataset: object
    #: the outlier methods, or for a mixed study the methods per error type
    methods: list | dict
    #: experiment cells one run completes (split x method or combo x model)
    cells: int = 0


def setup(workload: Workload, seed: int) -> Inputs:
    """Load the dataset and build the method list for one run."""
    config = workload.config(seed)
    dataset = load_dataset(workload.dataset, seed=seed, n_rows=workload.rows)
    if workload.mixed:
        methods = {kind: make() for kind, make in MIXED_METHODS.items()}
        sizes = [len(group) for group in methods.values()]
        # every combination, then every single-type method
        per_split = math.prod(sizes) + sum(sizes)
    else:
        methods = methods_for(
            OUTLIERS, include_advanced=config.include_advanced_cleaning, random_state=seed
        )
        per_split = len(methods)
    cells = workload.splits * per_split * len(config.models)
    return Inputs(workload, seed, config, dataset, methods, cells=cells)


@dataclass
class Outcome:
    """What one protocol run produced, beyond its output bytes."""

    output: bytes
    failed_units: int = 0
    retries: int = 0


def execute(inputs: Inputs, out_dir: Path) -> Outcome:
    """Run the workload's protocol once, from study start to persisted result.

    A mixed study persists nothing; its output is a canonical
    serialization of its ``MixedComparison`` rows.
    """
    workload = inputs.workload
    if workload.mixed:
        rows = core.run_mixed_study(inputs.dataset, inputs.config, methods_by_type=inputs.methods)
        return Outcome(json.dumps([asdict(row) for row in rows], sort_keys=True, default=str).encode())
    study = core.CleanMLStudy(inputs.config)
    study.add(inputs.dataset, OUTLIERS, methods=inputs.methods)
    database = study.run(n_jobs=workload.jobs, granularity=workload.granularity)
    answers = {
        level: core.all_queries(database[level], OUTLIERS)
        for level in ("R1", "R2", "R3")
    }
    path = out_dir / "study.json"
    core.save_study(study, path)
    manifest = study.failure_manifest
    output = path.read_bytes() + json.dumps(answers, sort_keys=True).encode()
    return Outcome(
        output,
        failed_units=len(manifest.failures) + len(manifest.dropped_blocks),
        retries=manifest.stats.get("retries", 0),
    )
