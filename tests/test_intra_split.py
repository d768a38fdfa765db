"""Determinism stress suite for the two-level scheduler (ISSUE 5).

The executor's contract extends to sub-split scheduling: every
``(n_jobs, granularity)`` pair must produce **byte-identical** persisted
JSON — cell and fold sub-units derive their seeds from structural keys
(split index, method name, model name), never execution order, and the
cell reducer sorts by (split, method, model, fold) before accumulating.
These tests pin that contract across the full matrix, pin the sub-unit
seed enumeration against collisions (mirroring the split-level pin),
and prove the granularity-aware caches — the per-workspace
``DetectionCache`` and evaluation memo — cannot change results whether
a split's cells run batched in one worker or scattered across many.
"""

import pytest

from repro.cleaning import MISSING_VALUES, OUTLIERS, ImputationCleaning, OutlierCleaning
from repro.core import (
    CleanMLStudy,
    ErrorTypeRun,
    SplitWorkspace,
    StudyConfig,
    merge_cell_results,
    save_experiments,
)
from repro.core.runner import DIRTY_ROLE, derive_seed
from repro.datasets import load_dataset

N_JOBS = (1, 2, 4)
GRANULARITIES = ("split", "cell", "fold")

FAST = StudyConfig(
    n_splits=2,
    cv_folds=2,
    models=("logistic_regression", "naive_bayes"),
    seed=7,
)

SEARCHED = StudyConfig(
    n_splits=2,
    cv_folds=3,
    search_iters=2,
    models=("knn", "naive_bayes"),
    seed=7,
)


def make_study(config=FAST):
    """Two small blocks: a two-method outlier grid and an imputation."""
    study = CleanMLStudy(config)
    study.add(
        load_dataset("Sensor", seed=0, n_rows=140),
        OUTLIERS,
        methods=[OutlierCleaning("SD", "mean"), OutlierCleaning("IQR", "mean")],
    )
    study.add(
        load_dataset("Titanic", seed=0, n_rows=140),
        MISSING_VALUES,
        methods=[ImputationCleaning("mean", "mode")],
    )
    return study


def persisted_bytes(study, tmp_path, label):
    path = tmp_path / f"{label}.json"
    save_experiments(study.raw_experiments, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The n_jobs=1, granularity=split run everything is pinned against."""
    study = make_study()
    study.run(n_jobs=1, granularity="split")
    tmp_path = tmp_path_factory.mktemp("reference")
    return persisted_bytes(study, tmp_path, "reference"), study.raw_experiments


class TestDeterminismMatrix:
    """Byte-identical output at every (n_jobs, granularity) combination."""

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("n_jobs", N_JOBS)
    def test_persisted_json_is_byte_identical(
        self, n_jobs, granularity, reference, tmp_path
    ):
        study = make_study()
        study.run(n_jobs=n_jobs, granularity=granularity)
        assert study.raw_experiments == reference[1]
        label = f"{granularity}-{n_jobs}"
        assert persisted_bytes(study, tmp_path, label) == reference[0]

    def test_searched_study_fold_granularity(self):
        """The fold wave (real candidates, two-wave scheduling) is invisible."""
        split = make_study(SEARCHED)
        split.run(n_jobs=1, granularity="split")
        for granularity in ("cell", "fold"):
            sub = make_study(SEARCHED)
            sub.run(n_jobs=2, granularity=granularity)
            assert sub.raw_experiments == split.raw_experiments

    def test_config_granularity_is_honored(self, reference):
        study = make_study(
            StudyConfig(
                n_splits=2,
                cv_folds=2,
                models=("logistic_regression", "naive_bayes"),
                seed=7,
                granularity="cell",
            )
        )
        study.run(n_jobs=2)
        assert study.raw_experiments == reference[1]

    def test_granularity_never_affects_equality_or_fingerprint(self):
        cell = StudyConfig(granularity="cell")
        split = StudyConfig(granularity="split")
        assert cell == split
        assert cell.fingerprint() == split.fingerprint()

    def test_invalid_granularity_rejected(self):
        with pytest.raises(ValueError):
            StudyConfig(granularity="block")
        with pytest.raises(ValueError):
            make_study().run(n_jobs=1, granularity="model")


def make_method_free_study():
    """A block with no cleaning methods next to an ordinary one."""
    study = CleanMLStudy(FAST)
    study.add(load_dataset("Sensor", seed=0, n_rows=140), OUTLIERS, methods=[])
    study.add(
        load_dataset("Titanic", seed=0, n_rows=140),
        MISSING_VALUES,
        methods=[ImputationCleaning("mean", "mode")],
    )
    return study


@pytest.fixture(scope="module")
def method_free_reference(tmp_path_factory):
    study = make_method_free_study()
    study.run(n_jobs=1, granularity="split")
    assert study.raw_experiments
    assert all(
        experiment.dataset == "Titanic" for experiment in study.raw_experiments
    )
    return persisted_bytes(study, tmp_path_factory.mktemp("free"), "reference")


class TestMethodFreeBlocks:
    """A block with an empty method list runs, and yields nothing, anywhere."""

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("n_jobs", (1, 2))
    def test_persisted_json_is_identical(
        self, n_jobs, granularity, method_free_reference, tmp_path
    ):
        study = make_method_free_study()
        study.run(n_jobs=n_jobs, granularity=granularity)
        assert persisted_bytes(study, tmp_path, "run") == method_free_reference


class TestSubUnitSeeds:
    """Sub-unit seed inputs are collision-free over the full paper grid.

    Mirrors the split-level pin in ``test_core_executor.py``: a cell
    sub-unit draws from the (seed, dataset, role, model, split) space and
    a fold sub-unit from the same space (fold slices come from the one
    plan the cell's search derives), so the enumeration covers every
    derive_seed input any sub-unit can form — plus the split-seed inputs
    — and asserts the 31-bit seeds are distinct.
    """

    def test_sub_unit_seed_inputs_collide_nowhere(self):
        from repro.cleaning.base import ERROR_TYPES, MISLABELS
        from repro.cleaning.registry import methods_for
        from repro.datasets.inject import MISLABEL_STRATEGIES
        from repro.datasets.registry import (
            MISLABEL_INJECTION_DATASETS,
            expected_datasets,
        )
        from repro.ml.registry import MODEL_NAMES

        seed, n_splits = 0, 20
        inputs = set()
        for error_type in ERROR_TYPES:
            if error_type == MISLABELS:
                names = ["Clothing"] + [
                    f"{base}_{strategy}"
                    for base in MISLABEL_INJECTION_DATASETS
                    for strategy in MISLABEL_STRATEGIES
                ]
            else:
                names = list(expected_datasets(error_type))
            for name in names:
                methods = methods_for(
                    error_type, include_advanced=True, random_state=seed
                )
                # the role strings cells and fold sub-units derive with
                roles = ["dirty"] + [f"clean:{m.name}" for m in methods]
                for split in range(n_splits):
                    inputs.add((seed, name, error_type, split))
                    for model in MODEL_NAMES:
                        for role in roles:
                            inputs.add((seed, name, role, model, split))

        assert len(inputs) > 20_000
        seeds = {derive_seed(*parts) for parts in inputs}
        assert len(seeds) == len(inputs)

    def test_workspace_role_names_match_enumeration(self):
        """The workspace derives exactly the enumerated role strings."""
        study = make_study()
        block = study._queue[0]
        run = ErrorTypeRun(
            block.dataset, block.error_type, FAST, methods=list(block.methods)
        )
        workspace = SplitWorkspace(run, split=0)
        assert workspace.role_name(DIRTY_ROLE) == "dirty"
        assert workspace.role_name(0) == f"clean:{block.methods[0].name}"
        assert workspace.role_name(1) == f"clean:{block.methods[1].name}"


def run_block_cells(workspace_for, run, config, n_methods):
    """All of split 0's cells through caller-provided workspaces."""
    cells = []
    for index in range(n_methods):
        for model in config.models:
            cells.append(workspace_for(index, model).cell(index, model))
    return cells


class TestCacheSemantics:
    """Batched and scattered cells agree; only cache *hits* may differ."""

    def build_run(self):
        study = make_study()
        block = study._queue[0]  # Sensor x outliers, two methods
        return (
            ErrorTypeRun(
                block.dataset, block.error_type, FAST, methods=list(block.methods)
            ),
            len(block.methods),
        )

    def test_scattered_cells_match_batched_cells(self):
        """One shared workspace == a fresh workspace per cell, bit for bit.

        The scattered arm rebuilds the DetectionCache, the evaluation
        memo, encodings, and the dirty-side models from scratch for
        every cell — the worst possible scatter of a split across
        workers — and must still produce identical CellResults, because
        every cached value is a pure function of the task key.
        """
        run, n_methods = self.build_run()
        shared = SplitWorkspace(run, split=0)
        batched = run_block_cells(
            lambda index, model: shared, run, FAST, n_methods
        )
        scattered = run_block_cells(
            lambda index, model: SplitWorkspace(run, split=0),
            run,
            FAST,
            n_methods,
        )
        assert batched == scattered

    def test_detection_cache_hits_differ_but_outputs_do_not(self):
        run, n_methods = self.build_run()
        shared = SplitWorkspace(run, split=0)
        run_block_cells(lambda index, model: shared, run, FAST, n_methods)

        fresh_hits = []
        results = []
        for index in range(n_methods):
            for model in FAST.models:
                workspace = SplitWorkspace(run, split=0)
                results.append(workspace.cell(index, model))
                fresh_hits.append(workspace.dcache.hits)
        # the batched workspace shares detector fits across its whole
        # method iteration; each scattered workspace starts cold
        assert shared.dcache.hits > max(fresh_hits)
        rebuilt = SplitWorkspace(run, split=0)
        assert results == run_block_cells(
            lambda index, model: rebuilt, run, FAST, n_methods
        )

    def test_cells_reduce_to_the_split_result(self):
        """Scattered cells, reduced in reverse order, == run_split.

        ``run_split`` runs the cells in order on one shared workspace;
        here every cell gets a fresh workspace and the reducer sees them
        last-first, so agreement needs both the scatter invariance and
        the reducer's order independence.
        """
        run, n_methods = self.build_run()
        cells = run_block_cells(
            lambda index, model: SplitWorkspace(run, split=1),
            run,
            FAST,
            n_methods,
        )
        reduced = merge_cell_results(
            OUTLIERS, FAST.models, n_methods, cells[::-1]
        )
        assert reduced == run.run_split(1)

    def test_release_method_drops_the_methods_state(self):
        run, n_methods = self.build_run()
        workspace = SplitWorkspace(run, split=0)
        for index in range(n_methods):
            for model in FAST.models:
                workspace.cell(index, model)
            workspace.fold_scores(index, FAST.models[0], 0)
        clean_test = workspace.clean_test(0)
        assert id(clean_test) in workspace.dirty_source._eval_cache
        assert workspace.memo._entries

        workspace.release_method(0)
        assert 0 not in workspace._method_data
        assert 0 not in workspace._clean_tests
        assert 0 not in workspace._role_encodings
        assert not any(index == 0 for index, _ in workspace._clean_models)
        assert id(clean_test) not in workspace.dirty_source._eval_cache
        assert id(clean_test) not in workspace.label_cache
        assert workspace.memo._entries == {}
        # the other method and the dirty side are untouched
        assert 1 in workspace._method_data
        assert set(workspace._dirty_models) == set(FAST.models)

    def test_reducer_handles_a_method_free_split(self):
        empty = merge_cell_results(OUTLIERS, FAST.models, 0, [], split=3)
        assert empty.split == 3
        assert empty.r1 == empty.r2 == empty.r3 == {}
        with pytest.raises(ValueError, match="span multiple splits"):
            merge_cell_results(OUTLIERS, FAST.models, 0, [])

    def test_reducer_rejects_cells_of_another_split(self):
        run, n_methods = self.build_run()
        workspace = SplitWorkspace(run, split=0)
        cells = run_block_cells(
            lambda index, model: workspace, run, FAST, n_methods
        )
        assert merge_cell_results(
            OUTLIERS, FAST.models, n_methods, cells, split=0
        ) == merge_cell_results(OUTLIERS, FAST.models, n_methods, cells)
        with pytest.raises(ValueError, match="span multiple splits"):
            merge_cell_results(
                OUTLIERS, FAST.models, n_methods, cells, split=1
            )

    def test_reducer_rejects_incomplete_and_duplicate_cells(self):
        run, n_methods = self.build_run()
        workspace = SplitWorkspace(run, split=0)
        cells = run_block_cells(
            lambda index, model: workspace, run, FAST, n_methods
        )
        with pytest.raises(ValueError, match="missing cells"):
            merge_cell_results(OUTLIERS, FAST.models, n_methods, cells[:-1])
        with pytest.raises(ValueError, match="duplicate cell"):
            merge_cell_results(
                OUTLIERS, FAST.models, n_methods, cells + [cells[0]]
            )
        other = SplitWorkspace(run, split=1)
        stray = other.cell(0, FAST.models[0])
        with pytest.raises(ValueError, match="span multiple splits"):
            merge_cell_results(
                OUTLIERS, FAST.models, n_methods, cells + [stray]
            )

    def test_fold_scores_match_in_process_validation(self):
        """Fold sub-unit payloads reduce to the cell's exact val score."""
        from repro.core.runner import (
            cell_candidates,
            resolve_fold_scores,
        )

        run, n_methods = self.build_run()
        workspace = SplitWorkspace(run, split=0)
        for role in (DIRTY_ROLE, 0):
            for model in FAST.models:
                parts = {
                    slot: workspace.fold_scores(role, model, slot)
                    for slot in range(FAST.cv_folds)
                }
                seed = derive_seed(
                    FAST.seed,
                    run.dataset.name,
                    workspace.role_name(role),
                    model,
                    0,
                )
                params, val = resolve_fold_scores(
                    cell_candidates(FAST, model, seed), parts
                )
                assert params == {}
                if role == DIRTY_ROLE:
                    trained = workspace.dirty_model(model)
                else:
                    trained = workspace.clean_model(role, model)
                assert val == trained.val_score
