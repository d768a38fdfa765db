"""Tests of the benchmark harness itself, on a tiny protocol workload."""

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import harness, probe, workloads  # noqa: E402
from perfbench import tracer as tracing  # noqa: E402

TINY = workloads.Workload("tiny", "Credit", rows=60, splits=2, cv_folds=2)
MODELS = ("decision_tree", "random_forest", "adaboost", "xgboost")
N_METHODS = 2


def tiny_inputs(workload=TINY):
    inputs = workloads.setup(workload, seed=0)
    inputs.config = dataclasses.replace(inputs.config, models=MODELS)
    inputs.methods = inputs.methods[:N_METHODS]
    inputs.cells = workload.splits * N_METHODS * len(MODELS)
    return inputs


@pytest.fixture(scope="module")
def sequential(tmp_path_factory):
    inputs = tiny_inputs()
    plain = harness.untraced_repeat(inputs, tmp_path_factory.mktemp("plain"))
    traced = harness.traced_repeat(inputs, tmp_path_factory.mktemp("traced"))
    return plain, traced


def test_self_times_and_runner_sum_to_traced_wall(sequential):
    _, traced = sequential
    # every span lands in a reported family, so no time escapes the metrics
    assert set(traced["totals"]) <= set(tracing.FAMILIES)
    metrics = harness.attribute(traced, jobs=1)
    layer_self = [metrics[f"{family}.self_s"] for family in tracing.FAMILIES]
    assert all(value >= 0.0 for value in layer_self)
    assert metrics["core.runner.self_s"] >= 0.0
    assert sum(layer_self) + metrics["core.runner.self_s"] == pytest.approx(
        traced["wall_s"], rel=1e-9
    )
    # self times are durations minus children: they must add up to the
    # time the outermost spans covered, independently accumulated, and
    # that time lies within the traced wall
    assert sum(entry[0] for entry in traced["totals"].values()) == pytest.approx(
        traced["outer_s"], rel=1e-9
    )
    assert traced["outer_s"] <= traced["wall_s"]
    assert metrics["core.executor.busy_ratio"] == pytest.approx(
        1.0 - metrics["core.runner.self_s"] / traced["wall_s"]
    )


def test_nested_ensemble_fits_charged_to_outer_model(tmp_path):
    from repro.ml.registry import make_model

    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] > 0).astype(np.int64)
    with tracing.Tracer(tmp_path) as tracer:
        for name in ("random_forest", "adaboost", "xgboost"):
            make_model(name, seed=0).fit(X, y)
    assert tracer.totals["ml.fit.random_forest"][1] == 1
    assert tracer.totals["ml.fit.adaboost"][1] == 1
    assert tracer.totals["ml.fit.xgboost"][1] == 1
    assert "ml.fit.decision_tree" not in tracer.totals
    # the ensembles' inner predicts are fit time, not ml.predict calls
    assert "ml.predict" not in tracer.totals


def test_legacy_cleaning_counts_only_outside_detector_x_repair(tmp_path):
    from repro.cleaning import (
        CompositeCleaning,
        ImputationCleaning,
        KNNImputationCleaning,
        OutlierCleaning,
    )
    from repro.datasets import load_dataset

    train = load_dataset("Credit", seed=0, n_rows=60).dirty
    composite = CompositeCleaning(
        [ImputationCleaning("mean", "mode"), OutlierCleaning("SD", "mean")]
    )
    with tracing.Tracer(tmp_path) as tracer:
        composite.fit(train)
    # the two stage detectors, not the composite around them
    assert tracer.totals["cleaning.detect_fit"][1] == 2
    with tracing.Tracer(tmp_path) as tracer:
        KNNImputationCleaning().fit(train)
    assert tracer.totals["cleaning.detect_fit"][1] == 1


def test_workload_fit_counts_are_the_runner_requests(sequential):
    _, traced = sequential
    metrics = harness.attribute(traced, jobs=1)
    # per split: the dirty model plus one per method, each CV fold plus a refit
    expected = TINY.splits * (N_METHODS + 1) * (TINY.cv_folds + 1)
    for name in MODELS:
        assert metrics[f"ml.fit.{name}.calls"] == expected
    assert metrics["table.split.calls"] == TINY.splits


def test_wrappers_fully_removed_afterwards(tmp_path):
    import repro.core as core
    import repro.ml.model_selection as model_selection
    from repro.ml.tree import DecisionTreeClassifier

    originals = {
        "save_study": core.save_study,
        "cross_val_score": model_selection.cross_val_score,
        "tree_fit": DecisionTreeClassifier.__dict__["fit"],
    }
    assert tracing.installed_wrappers() == []
    with pytest.raises(RuntimeError):
        with tracing.Tracer(tmp_path):
            assert core.save_study is not originals["save_study"]
            assert len(tracing.installed_wrappers()) > 50
            raise RuntimeError("escape mid-run")
    assert tracing.installed_wrappers() == []
    assert core.save_study is originals["save_study"]
    assert model_selection.cross_val_score is originals["cross_val_score"]
    assert DecisionTreeClassifier.__dict__["fit"] is originals["tree_fit"]


def test_traced_and_untraced_digests_equal(sequential):
    plain, traced = sequential
    assert traced["leftover_wrappers"] == []
    assert traced["digest"] == plain["digest"]


def test_pooled_tracing_sums_worker_layer_time(tmp_path):
    pooled = dataclasses.replace(TINY, jobs=2, granularity="cell")
    inputs = tiny_inputs(pooled)
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = harness.run_forked(harness.untraced_repeat, inputs, tmp_path / "plain")
    traced = harness.run_forked(harness.traced_repeat, inputs, tmp_path / "traced")
    assert "error" not in plain and "error" not in traced
    assert traced["digest"] == plain["digest"]
    assert plain["peak_rss_mb"] > 0.0
    assert traced["workers"], "no worker reported its span totals"
    metrics = harness.attribute(traced, jobs=2)
    assert metrics["ml.fit.xgboost.calls"] >= TINY.splits * (N_METHODS + 1) * (TINY.cv_folds + 1)
    assert 0.0 < metrics["core.executor.busy_ratio"] <= 1.0


def _touch_mib(mib):
    block = np.ones(mib * 2**20 // 8)
    return float(block.sum())


def test_worker_peaks_count_growth_not_inherited_memory(tmp_path):
    import multiprocessing

    inherited = np.ones(64 * 2**20 // 8)  # shared by every forked worker
    peaks = harness._WorkerPeaks(tmp_path / "rss")
    workers = [
        multiprocessing.get_context("fork").Process(target=_touch_mib, args=(16,))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert len(list((tmp_path / "rss").glob("*.kib"))) == 2
    # both workers' 16 MiB, none of the 64 MiB they inherited
    assert 32 * 1024 <= peaks.total_kib() < 48 * 1024
    assert inherited[0] == 1.0


def test_probe_samples_its_cpu_and_is_reaped():
    import os
    import time

    cpu = min(os.sched_getaffinity(0))
    start = time.perf_counter()
    with probe.Probe([cpu]) as host:
        pids = [pid for pid, _ in host._children]
        time.sleep(0.3)
    end = time.perf_counter()
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    (samples,) = host.samples
    assert len(samples) >= 3
    iter_s, probe_cpu_s = host.window(start, end)
    assert iter_s == pytest.approx(sum(cpu_s for _, cpu_s in samples) / len(samples))
    assert probe_cpu_s == pytest.approx(iter_s * len(samples))
    assert host.mean_iter_s() == pytest.approx(iter_s)
    with pytest.raises(RuntimeError):
        host.window(end + 1.0, end + 2.0)


def test_mixed_study_traced_and_untraced_digests_equal(tmp_path):
    mixed = workloads.Workload("tiny-mixed", "Airbnb", rows=40, splits=2, cv_folds=2, mixed=True)
    inputs = workloads.setup(mixed, seed=0)
    inputs.methods = {kind: methods[:1] for kind, methods in inputs.methods.items()}
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = harness.untraced_repeat(inputs, tmp_path / "plain")
    traced = harness.traced_repeat(inputs, tmp_path / "traced")
    assert traced["digest"] == plain["digest"]
    assert not traced["leftover_wrappers"]
    metrics = harness.attribute(traced, jobs=1)
    assert metrics["cleaning.detect_fit.calls"] > 0
    assert metrics["ml.fit.naive_bayes.calls"] > 0
