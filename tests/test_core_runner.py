"""Tests for the experiment runner and study orchestration.

These are integration tests over a deliberately small configuration:
three fast models, two splits, tiny datasets — enough to exercise every
code path without making the suite slow.
"""

import pytest

from repro.cleaning import MISSING_VALUES, OUTLIERS, ImputationCleaning
from repro.core import (
    CleanMLStudy,
    ErrorTypeRun,
    Scenario,
    StudyConfig,
    relation_sizes,
    render_error_type_report,
    render_summary_table,
    scenarios_for,
)
from repro.datasets import load_dataset

FAST = StudyConfig(
    n_splits=3,
    cv_folds=2,
    models=("logistic_regression", "knn", "naive_bayes"),
    seed=7,
)


@pytest.fixture(scope="module")
def sensor_study():
    """One shared study run (module-scoped: runs take seconds)."""
    study = CleanMLStudy(FAST)
    study.add(load_dataset("Sensor", seed=0, n_rows=220), OUTLIERS)
    database = study.run()
    return study, database


class TestScenarios:
    def test_missing_values_bd_only(self):
        assert scenarios_for(MISSING_VALUES) == (Scenario.BD,)
        assert scenarios_for(OUTLIERS) == (Scenario.BD, Scenario.CD)


class TestStudyConfigModels:
    """The model pool is validated once, before any granularity runs it."""

    def test_empty_model_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one model"):
            StudyConfig(models=())

    @pytest.mark.parametrize("granularity", ("split", "cell"))
    def test_repeated_model_rejected(self, granularity):
        # a repeat used to finish at split granularity and die at cell
        # granularity; the config now refuses it whatever the granularity
        with pytest.raises(ValueError, match="distinct"):
            StudyConfig(
                models=("naive_bayes", "naive_bayes"), granularity=granularity
            )


class TestErrorTypeRun:
    def test_rejects_mismatched_error_type(self):
        dataset = load_dataset("Sensor", seed=0, n_rows=220)
        with pytest.raises(ValueError):
            ErrorTypeRun(dataset, MISSING_VALUES, FAST)

    def test_row_counts(self, sensor_study):
        _, database = sensor_study
        # 12 outlier methods x 3 models x 2 scenarios
        assert len(database["R1"]) == 72
        # 12 methods x 2 scenarios
        assert len(database["R2"]) == 24
        # 2 scenarios
        assert len(database["R3"]) == 2

    def test_pair_counts_match_splits(self, sensor_study):
        study, _ = sensor_study
        for experiment in study.raw_experiments:
            assert len(experiment.pairs) == FAST.n_splits

    def test_metrics_are_probabilities(self, sensor_study):
        study, _ = sensor_study
        for experiment in study.raw_experiments:
            for pair in experiment.pairs:
                assert 0.0 <= pair.before <= 1.0
                assert 0.0 <= pair.after <= 1.0

    def test_r1_levels_have_model_names(self, sensor_study):
        _, database = sensor_study
        for row in database["R1"]:
            assert row.ml_model in FAST.models
        for row in database["R2"]:
            assert row.ml_model is None
        for row in database["R3"]:
            assert row.detection is None and row.ml_model is None

    def test_rows_carry_statistics(self, sensor_study):
        _, database = sensor_study
        for row in database["R1"]:
            assert row.test is not None
            assert 0.0 <= row.test.p_two_sided <= 1.0


class TestMissingValueSemantics:
    def test_missing_values_only_bd_rows(self):
        config = StudyConfig(
            n_splits=2, cv_folds=2, models=("logistic_regression",), seed=1
        )
        study = CleanMLStudy(config)
        dataset = load_dataset("Titanic", seed=0, n_rows=200)
        methods = [
            ImputationCleaning("mean", "mode"),
            ImputationCleaning("median", "dummy"),
        ]
        study.add(dataset, MISSING_VALUES, methods=methods)
        database = study.run()
        scenarios = {row.scenario for row in database["R1"]}
        assert scenarios == {Scenario.BD}
        assert len(database["R1"]) == 2  # 2 methods x 1 model x BD


class TestStudyRebuild:
    def test_rebuild_with_other_procedure_keeps_raw(self, sensor_study):
        study, database = sensor_study
        relaxed = study.build_database(procedure="none")
        assert len(relaxed["R1"]) == len(database["R1"])
        # raw alpha rejects at least as many as BY
        strict_s = database["R1"].distribution()["all"]["S"]
        relaxed_s = relaxed["R1"].distribution()["all"]["S"]
        assert relaxed_s <= strict_s

    def test_reporting_helpers(self, sensor_study):
        _, database = sensor_study
        report = render_error_type_report(database, OUTLIERS)
        assert "Q1 on R1" in report and "Q5" in report
        summary = render_summary_table(database)
        assert "outliers" in summary
        sizes = relation_sizes(database)
        assert sizes["R1"] == 72

    def test_invalid_error_type_rejected(self):
        study = CleanMLStudy(FAST)
        with pytest.raises(ValueError):
            study.add(load_dataset("Sensor", seed=0, n_rows=220), "typos")


class TestDeterminism:
    def test_same_config_same_database(self):
        config = StudyConfig(
            n_splits=2, cv_folds=2, models=("logistic_regression",), seed=3
        )
        results = []
        for _ in range(2):
            study = CleanMLStudy(config)
            dataset = load_dataset("Sensor", seed=0, n_rows=200)
            methods = [
                m for m in __import__("repro.cleaning", fromlist=["methods_for"])
                .methods_for(OUTLIERS, include_advanced=False)
                if m.detection == "SD"
            ]
            study.add(dataset, OUTLIERS, methods=methods)
            database = study.run()
            results.append(
                [
                    (row.mean_before, row.mean_after)
                    for row in database["R1"]
                ]
            )
        assert results[0] == results[1]
