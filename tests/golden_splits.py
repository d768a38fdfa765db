"""Golden fingerprints of whole split results of the §IV-A protocol.

A split's :class:`~repro.core.runner.SplitResult` — every R1/R2/R3
metric pair one train/test split yields — is the unit the executor
schedules, checkpoints and merges.  This module pins those results
byte for byte: each golden case is one (dataset, error type, method
list, config) block, and for splits 0 and 1 we record the SHA-256 of
``json.dumps(split_result_to_dict(run.run_split(split)), sort_keys=True)``
with the split kernel on and under :func:`~repro.core.kernel_disabled`.

The matrix covers every error type on a small registry dataset with
the full registry method grid, one explicit method list in which two
distinct methods share a (detection, repair) label (so R1/R2 keys carry
two pairs per split), and one ``search_iters > 0`` config.  The model
pool is decision tree, random forest, naive Bayes and KNN: none of
their hashed metrics passes through BLAS or a SIMD ``exp``, so the
digests do not depend on the numeric library build.

``tests/golden_splits.json`` was generated before the split protocol
was collapsed onto one implementation (cells run in order on one
``SplitWorkspace``), so a passing suite means "bit-identical to the
two-implementation code".  Regenerate only when a deliberate behavior
change is being made::

    PYTHONPATH=src python tests/golden_splits.py

``test_golden_splits.py`` replays every case in both modes against
these digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cleaning import (
    DUPLICATES,
    ERROR_TYPES,
    INCONSISTENCIES,
    MISLABELS,
    MISSING_VALUES,
    OUTLIERS,
    OutlierCleaning,
)
from repro.core import ErrorTypeRun, StudyConfig, kernel_disabled
from repro.core.persistence import split_result_to_dict
from repro.datasets import load_dataset

GOLDEN_PATH = Path(__file__).parent / "golden_splits.json"

#: rows per golden dataset — small enough to keep the full registry
#: grids (ZeroER, HoloClean, confident learning included) cheap
N_ROWS = 90
SEED = 0
SPLITS = (0, 1)

#: models whose metrics never pass through BLAS or a SIMD ``exp``
MODELS = ("decision_tree", "random_forest", "naive_bayes", "knn")

BASE = StudyConfig(
    n_splits=len(SPLITS),
    cv_folds=2,
    models=MODELS,
    seed=SEED,
    model_overrides={"random_forest": {"n_estimators": 5}},
)

SEARCHED = StudyConfig(
    n_splits=len(SPLITS),
    cv_folds=3,
    search_iters=2,
    models=MODELS,
    seed=SEED,
    model_overrides={"random_forest": {"n_estimators": 5}},
)

#: one small registry dataset per error type
REGISTRY_DATASETS = {
    MISSING_VALUES: "Titanic",
    OUTLIERS: "Sensor",
    DUPLICATES: "Restaurant",
    INCONSISTENCIES: "Company",
    MISLABELS: "Clothing",
}


def shared_label_methods():
    """Two distinct isolation-forest methods that share ``IF/mean``."""
    return [
        OutlierCleaning("IF", "mean", random_state=0),
        OutlierCleaning("SD", "median"),
        OutlierCleaning("IF", "mean", random_state=1),
    ]


def golden_cases() -> dict:
    """Case name -> (dataset name, error type, methods factory, config)."""
    cases = {
        f"registry/{error_type}/{name}": (name, error_type, None, BASE)
        for error_type, name in REGISTRY_DATASETS.items()
    }
    assert set(REGISTRY_DATASETS) == set(ERROR_TYPES)
    cases["shared-label/outliers/Sensor"] = (
        "Sensor", OUTLIERS, shared_label_methods, BASE,
    )
    cases["searched/outliers/Sensor"] = (
        "Sensor",
        OUTLIERS,
        lambda: [OutlierCleaning("SD", "mean"), OutlierCleaning("IQR", "median")],
        SEARCHED,
    )
    return cases


def build_run(case: str) -> ErrorTypeRun:
    dataset_name, error_type, methods, config = golden_cases()[case]
    dataset = load_dataset(dataset_name, seed=SEED, n_rows=N_ROWS)
    return ErrorTypeRun(
        dataset,
        error_type,
        config,
        methods=methods() if methods is not None else None,
    )


def split_digest(run: ErrorTypeRun, split: int) -> str:
    """SHA-256 of one split result's canonical JSON form."""
    text = json.dumps(split_result_to_dict(run.run_split(split)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def case_digests(case: str, reference: bool) -> list[str]:
    """Digests of every golden split of one case, in one kernel mode."""
    run = build_run(case)
    if reference:
        with kernel_disabled():
            return [split_digest(run, split) for split in SPLITS]
    return [split_digest(run, split) for split in SPLITS]


def generate() -> dict:
    out: dict = {
        "n_rows": N_ROWS,
        "seed": SEED,
        "splits": list(SPLITS),
        "models": list(MODELS),
        "cases": {},
    }
    for case in golden_cases():
        out["cases"][case] = {
            "kernel": case_digests(case, reference=False),
            "reference": case_digests(case, reference=True),
        }
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> int:
    golden = generate()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    n_digests = sum(
        len(digests)
        for case in golden["cases"].values()
        for digests in case.values()
    )
    print(f"wrote {n_digests} split digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
