"""Tests for the fold-major tuning kernel (ISSUE 4).

The kernel's contract mirrors the split/cleaning kernels': shared fold
slices, per-model ``FoldWorkspace``s (KNN distance matrix, naive Bayes
class statistics, CART root argsorts) and the fold-major candidate loop
must be **invisible in the output** — identical ``best_params_`` /
``best_score_`` / test scores against the candidate-major reference
path for every registry model, and bit-identical predictions from every
workspace against a from-scratch refit.  The satellites ride along:
the degenerate ``n_folds < 2`` path no longer mutates the caller's
model, cached fold plans are read-only, and KNN's vectorized vote is
pinned against its per-class loop reference.
"""

import numpy as np
import pytest

from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig, kernel_disabled
from repro.datasets import load_dataset
from repro.ml import (
    MODEL_NAMES,
    AdaBoostClassifier,
    DecisionTreeClassifier,
    FoldPlanData,
    GaussianNB,
    KNeighborsClassifier,
    LogisticRegression,
    RandomForestClassifier,
    RandomSearch,
    XGBoostClassifier,
    cross_val_score,
    kfold_plan,
    make_model,
    search_space,
    tuning_kernel_disabled,
    tuning_kernel_enabled,
)
from repro.ml.base import one_hot
from repro.ml.knn import _proba_from_distances, _vote, _vote_reference
from repro.ml.naive_bayes import _ClassStatistics
from repro.ml.tree import _ColumnPlan, _gini, _Lockstep
from repro.table import FeatureEncoder, LabelEncoder
from tests.conftest import make_blobs, make_xor

PARITY_DATASETS = ("Sensor", "Titanic")


def encoded_dataset(name: str, n_rows: int = 140):
    """(X, y) of a registry dataset's dirty table under the study encoders."""
    dataset = load_dataset(name, seed=0, n_rows=n_rows)
    table = dataset.dirty
    X = FeatureEncoder().fit_transform(table.features_table())
    y = LabelEncoder().fit(
        table.column(table.schema.label).unique()
    ).transform(table.labels)
    return X, y


class TestSearchParity:
    """Kernel-on vs kernel-off tuning, for every registry model."""

    @pytest.mark.parametrize("dataset_name", PARITY_DATASETS)
    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_registry_search_parity(self, model_name, dataset_name):
        X, y = encoded_dataset(dataset_name)
        cut = int(0.7 * len(y))
        X_train, y_train = X[:cut], y[:cut]
        X_test, y_test = X[cut:], y[cut:]

        def run_search():
            return RandomSearch(
                make_model(model_name, seed=3),
                search_space(model_name),
                n_iter=2,
                n_folds=3,
                seed=17,
            ).fit(X_train, y_train)

        assert tuning_kernel_enabled()
        kernel = run_search()
        with tuning_kernel_disabled():
            assert not tuning_kernel_enabled()
            reference = run_search()

        assert kernel.best_params_ == reference.best_params_
        assert kernel.best_score_ == reference.best_score_
        assert len(y_test) > 0
        assert np.array_equal(kernel.predict(X_test), reference.predict(X_test))

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_cross_val_score_parity(self, model_name):
        X, y = make_blobs(n_per_class=30, n_classes=3, seed=2)
        kernel = cross_val_score(make_model(model_name, seed=5), X, y, n_folds=4, seed=9)
        with tuning_kernel_disabled():
            reference = cross_val_score(
                make_model(model_name, seed=5), X, y, n_folds=4, seed=9
            )
        assert kernel == reference

    def test_explicit_fold_major_override_beats_switch(self):
        X, y = make_blobs(seed=3)
        with tuning_kernel_disabled():
            forced = RandomSearch(
                KNeighborsClassifier(),
                search_space("knn"),
                n_iter=2,
                n_folds=3,
                seed=1,
                fold_major=True,
            ).fit(X, y)
        default = RandomSearch(
            KNeighborsClassifier(),
            search_space("knn"),
            n_iter=2,
            n_folds=3,
            seed=1,
        ).fit(X, y)
        assert forced.best_params_ == default.best_params_
        assert forced.best_score_ == default.best_score_


class TestFoldWorkspaces:
    """Each workspace's predictions == a from-scratch refit, bit for bit."""

    def fold(self, seed=0):
        X, y = make_blobs(n_per_class=40, n_classes=3, seed=seed)
        folds = kfold_plan(len(y), 3, seed=7)
        return FoldPlanData(X, y, folds).folds[0]

    def assert_workspace_matches_refit(self, prototype, candidates, fold=None):
        fold = fold or self.fold()
        workspace = fold.workspace_for(prototype)
        assert workspace is not None
        for params in candidates:
            shared = workspace.predict_val(prototype.clone(**params))
            refit = prototype.clone(**params)
            refit.fit(fold.X_train, fold.y_train)
            assert np.array_equal(shared, refit.predict(fold.X_val)), params

    def test_knn_workspace_all_candidates(self):
        self.assert_workspace_matches_refit(
            KNeighborsClassifier(),
            [
                {"n_neighbors": k, "weights": w}
                for k in (1, 3, 5, 7, 11, 15, 500)  # 500 > n_train: cap path
                for w in ("uniform", "distance")
            ],
        )

    def test_naive_bayes_workspace_all_candidates(self):
        self.assert_workspace_matches_refit(
            GaussianNB(),
            [{"var_smoothing": v} for v in (1e-10, 1e-9, 1e-6, 1e-2)],
        )

    def test_naive_bayes_apply_statistics_equals_fit(self):
        X, y = make_blobs(n_per_class=25, n_classes=4, seed=4)
        y = y.copy()
        y[y == 3] = 0  # leave class 3 empty: the -inf prior path
        stats = _ClassStatistics(X, y, 4)
        for smoothing in (1e-10, 1e-9, 1e-5):
            from_stats = GaussianNB(var_smoothing=smoothing)._apply_statistics(stats)
            # a plain fit observes only the 3 populated classes; its
            # arrays must coincide with the widened statistics' prefix
            fitted = GaussianNB(var_smoothing=smoothing).fit(X, y)
            assert np.array_equal(from_stats.theta_[:3], fitted.theta_[:3])
            assert np.array_equal(from_stats.var_[:3], fitted.var_[:3])
            assert np.array_equal(
                from_stats.class_log_prior_[:3], fitted.class_log_prior_[:3]
            )
            assert np.isneginf(from_stats.class_log_prior_[3])
            assert np.all(from_stats.var_[3] == 1.0)

    def test_decision_tree_workspace_all_candidates(self):
        self.assert_workspace_matches_refit(
            DecisionTreeClassifier(random_state=5),
            [
                {"max_depth": d, "min_samples_leaf": leaf}
                for d in (1, 3, 8, None)
                for leaf in (1, 5)
            ]
            # feature-subsampled candidates take the real-refit fallback
            + [{"max_depth": 4, "max_features": 2}],
        )

    def test_depth_limited_routing_equals_bounded_fit(self):
        X, y = make_xor(n=200, seed=7)
        deep = DecisionTreeClassifier(max_depth=None, random_state=0).fit(X, y)
        for depth in (0, 1, 2, 4, 9):
            bounded = DecisionTreeClassifier(max_depth=depth, random_state=0).fit(X, y)
            assert np.array_equal(
                deep.predict_proba(X, depth_limit=depth),
                bounded.predict_proba(X),
            ), depth

    def test_adaboost_workspace_all_candidates(self):
        self.assert_workspace_matches_refit(
            AdaBoostClassifier(n_estimators=12, random_state=5),
            [
                {"n_estimators": n, "max_depth": d, "learning_rate": rate}
                for n in (5, 12)
                for d in (1, 2)
                for rate in (0.5, 1.0)
            ],
        )

    def test_random_forest_has_no_workspace(self):
        # the lockstep engine sorts nothing per node, so there is no
        # candidate-invariant work to share; TestSearchParity covers the
        # forest's fold-major search on the plain shared fold slices
        fold = self.fold()
        forest = RandomForestClassifier(n_estimators=8, random_state=5)
        assert fold.workspace_for(forest) is None

    def test_xgboost_workspace_all_candidates(self):
        self.assert_workspace_matches_refit(
            XGBoostClassifier(n_estimators=6, random_state=5),
            [
                {"n_estimators": n, "max_depth": d, "learning_rate": rate}
                for n in (3, 6)
                for d in (2, 4)
                for rate in (0.1, 0.3)
            ],
        )

    def test_xgboost_subsampled_candidate_ignores_cache(self):
        # a candidate that subsamples rows must not consume the shared
        # full-matrix argsorts — its per-round row sets differ
        self.assert_workspace_matches_refit(
            XGBoostClassifier(n_estimators=4, random_state=5),
            [{"subsample": 0.8}, {"subsample": 1.0}],
        )

    def test_logistic_regression_has_no_workspace(self):
        fold = self.fold()
        assert fold.workspace_for(LogisticRegression()) is None
        # models without a workspace still fit fine on the shared slices
        model = LogisticRegression()
        model.fit(fold.X_train, fold.y_train)
        assert model.predict(fold.X_val).shape == fold.y_val.shape


class TestRootSortCache:
    """Shared root argsorts are invisible in the fitted trees."""

    def test_tree_fit_with_cache_is_bit_identical(self):
        X, y = make_xor(n=150, seed=3)
        cache: dict = {}
        cached_a = DecisionTreeClassifier(max_depth=4, random_state=0).fit(
            X, y, root_sort_cache=cache
        )
        assert cache  # the first fit filled it
        cached_b = DecisionTreeClassifier(max_depth=8, random_state=0).fit(
            X, y, root_sort_cache=cache
        )
        plain_a = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        plain_b = DecisionTreeClassifier(max_depth=8, random_state=0).fit(X, y)
        assert np.array_equal(cached_a.predict_proba(X), plain_a.predict_proba(X))
        assert np.array_equal(cached_b.predict_proba(X), plain_b.predict_proba(X))
        assert cached_b.depth() == plain_b.depth()
        assert cached_b.n_leaves() == plain_b.n_leaves()

    def test_cache_does_not_leak_through_fitted_tree(self):
        X, y = make_xor(n=80, seed=1)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y, root_sort_cache={})
        assert tree._root_sort_cache is None

    def test_cached_orders_are_read_only(self):
        X, y = make_xor(n=80, seed=2)
        cache: dict = {}
        DecisionTreeClassifier(max_depth=3).fit(X, y, root_sort_cache=cache)
        order = next(iter(cache.values()))
        with pytest.raises(ValueError):
            order[0] = 0

    def test_adaboost_shared_cache_is_bit_identical(self):
        X, y = make_xor(n=150, seed=4)
        cache: dict = {}
        cached = AdaBoostClassifier(n_estimators=10, random_state=2).fit(
            X, y, root_sort_cache=cache
        )
        plain = AdaBoostClassifier(n_estimators=10, random_state=2).fit(X, y)
        assert np.array_equal(cached.predict_proba(X), plain.predict_proba(X))


def assert_same_tree(a, b):
    """Node-for-node structural equality of two fitted CART trees."""
    stack = [(a._root, b._root)]
    while stack:
        left, right = stack.pop()
        assert left.feature == right.feature
        assert left.threshold == right.threshold
        assert np.array_equal(left.proba, right.proba)
        if left.feature is not None:
            stack.append((left.left, right.left))
            stack.append((left.right, right.right))


class TestVectorizedSplitIsTheReference:
    """The broadcast split search == the per-feature loop, bit for bit."""

    def fit_pair(self, X, y, sample_weight=None, **params):
        vectorized = DecisionTreeClassifier(**params)
        assert DecisionTreeClassifier.vectorized_split
        vectorized.fit(X, y, sample_weight=sample_weight)
        reference = DecisionTreeClassifier(**params)
        DecisionTreeClassifier.vectorized_split = False
        try:
            reference.fit(X, y, sample_weight=sample_weight)
        finally:
            DecisionTreeClassifier.vectorized_split = True
        return vectorized, reference

    @pytest.mark.parametrize("dataset_name", PARITY_DATASETS)
    def test_registry_tables_with_one_hot_ties(self, dataset_name):
        X, y = encoded_dataset(dataset_name)
        for params in (
            {"max_depth": 4},
            {"max_depth": None, "min_samples_leaf": 2},
        ):
            vectorized, reference = self.fit_pair(X, y, **params)
            assert_same_tree(vectorized, reference)
            assert np.array_equal(
                vectorized.predict_proba(X), reference.predict_proba(X)
            )

    def test_noisy_numeric_with_sample_weights(self):
        X, y = make_xor(n=250, seed=5)
        rng = np.random.default_rng(0)
        weights = rng.random(len(y))
        weights[::7] = 0.0  # zero-weight rows exercise the safe-gini path
        vectorized, reference = self.fit_pair(
            X, y, sample_weight=weights, max_depth=None
        )
        assert_same_tree(vectorized, reference)

    def test_feature_subsampling_draws_identically(self):
        X, y = make_blobs(n_per_class=50, n_classes=3, n_features=8, seed=6)
        vectorized, reference = self.fit_pair(
            X, y, max_depth=6, max_features=3, random_state=11
        )
        assert_same_tree(vectorized, reference)

    def test_ensembles_follow_the_switch(self):
        X, y = make_xor(n=150, seed=6)
        fast = AdaBoostClassifier(n_estimators=8, random_state=3).fit(X, y)
        forest_fast = RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y)
        DecisionTreeClassifier.vectorized_split = False
        try:
            slow = AdaBoostClassifier(n_estimators=8, random_state=3).fit(X, y)
            forest_slow = RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y)
        finally:
            DecisionTreeClassifier.vectorized_split = True
        assert np.array_equal(fast.predict_proba(X), slow.predict_proba(X))
        assert np.array_equal(
            forest_fast.predict_proba(X), forest_slow.predict_proba(X)
        )

    def test_kernel_disabled_flips_the_switch(self):
        assert DecisionTreeClassifier.vectorized_split
        with kernel_disabled():
            assert not DecisionTreeClassifier.vectorized_split
        assert DecisionTreeClassifier.vectorized_split

    def test_feature_chunking_is_invisible(self, monkeypatch):
        # shrink the block budget so a wide table needs many chunks
        import repro.ml.tree as tree_module

        X, y = encoded_dataset("Titanic")
        one_block = DecisionTreeClassifier(max_depth=5).fit(X, y)
        monkeypatch.setattr(tree_module, "_SPLIT_BLOCK_ELEMENTS", 64)
        chunked = DecisionTreeClassifier(max_depth=5).fit(X, y)
        assert_same_tree(chunked, one_block)


class TestFoldPlanDataSharing:
    def test_fold_slices_are_read_only(self):
        X, y = make_blobs(seed=6)
        plan = FoldPlanData(X, y, kfold_plan(len(y), 3, seed=2))
        for fold in plan.folds:
            for array in (fold.X_train, fold.y_train, fold.X_val, fold.y_val):
                assert not array.flags.writeable
        with pytest.raises(ValueError):
            plan.folds[0].X_train[0, 0] = 0.0

    def test_fold_slices_match_fancy_indexing(self):
        X, y = make_blobs(seed=6)
        folds = kfold_plan(len(y), 4, seed=3)
        plan = FoldPlanData(X, y, folds)
        for fold, (train_idx, val_idx) in zip(plan.folds, folds):
            assert np.array_equal(fold.X_train, X[train_idx])
            assert np.array_equal(fold.y_val, y[val_idx])

    def test_cached_kfold_plan_is_read_only(self):
        for train_idx, val_idx in kfold_plan(60, 5, seed=11):
            assert not train_idx.flags.writeable
            assert not val_idx.flags.writeable
        with pytest.raises(ValueError):
            kfold_plan(60, 5, seed=11)[0][0][0] = 0

    def test_unseeded_plan_stays_writable(self):
        # seed=None bypasses the cache, so freezing is not required
        train_idx, _ = kfold_plan(30, 3, seed=None)[0]
        train_idx[0] = train_idx[0]  # must not raise


class TestDegenerateFoldPath:
    def test_single_fold_does_not_mutate_caller_model(self):
        X, y = make_blobs(n_per_class=3, seed=8)
        model = KNeighborsClassifier(n_neighbors=1)
        score = cross_val_score(model, X, y, n_folds=1, seed=0)
        assert 0.0 <= score <= 1.0
        assert not hasattr(model, "n_classes_")  # still unfitted
        with pytest.raises(AttributeError):
            model.predict(X)

    def test_single_fold_score_matches_clone_refit(self):
        X, y = make_blobs(n_per_class=10, seed=9)
        model = DecisionTreeClassifier(max_depth=3, random_state=1)
        score = cross_val_score(model, X, y, n_folds=1, seed=0)
        probe = model.clone().fit(X, y)
        assert score == float(np.mean(probe.predict(X) == y))


class TestKNNVote:
    def test_vote_matches_reference_on_adversarial_weights(self):
        # k >= 8 crosses numpy's pairwise-summation block size — the
        # regime where a flat np.add.at scatter provably diverges
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(3, 90))
            k = int(rng.integers(1, 17))
            n_classes = int(rng.integers(2, 6))
            labels = rng.integers(0, n_classes, size=(n, k))
            weights = 1.0 / (rng.random((n, k)) + 1e-9)
            assert np.array_equal(
                _vote(weights, labels, n_classes),
                _vote_reference(weights, labels, n_classes),
            )

    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    @pytest.mark.parametrize("k", [1, 3, 5, 7, 11, 15])
    def test_predict_proba_matches_loop_reference(self, k, weights):
        X, y = make_blobs(n_per_class=30, n_classes=3, seed=10)
        model = KNeighborsClassifier(n_neighbors=k, weights=weights).fit(X, y)
        query = X[::3] + 0.01
        fast = model.predict_proba(query)

        distances = model._pairwise_sq_distances(query)
        capped = min(k, len(X))
        neighbor_idx = np.argpartition(distances, capped - 1, axis=1)[:, :capped]
        neighbor_labels = model._y[neighbor_idx]
        if weights == "uniform":
            vote_weights = np.ones_like(neighbor_labels, dtype=np.float64)
        else:
            rows = np.arange(len(query))[:, None]
            neighbor_dist = np.sqrt(
                np.maximum(distances[rows, neighbor_idx], 0.0)
            )
            vote_weights = 1.0 / (neighbor_dist + 1e-9)
        reference = _vote_reference(vote_weights, neighbor_labels, model.n_classes_)
        totals = reference.sum(axis=1, keepdims=True)
        reference = reference / np.where(totals == 0.0, 1.0, totals)

        assert fast.dtype == reference.dtype
        assert np.array_equal(fast, reference)

    def test_proba_from_distances_is_the_predict_path(self):
        X, y = make_blobs(n_per_class=20, seed=11)
        model = KNeighborsClassifier(n_neighbors=7, weights="distance").fit(X, y)
        distances = model._pairwise_sq_distances(X)
        assert np.array_equal(
            model.predict_proba(X),
            _proba_from_distances(distances, model._y, model.n_classes_, 7, "distance"),
        )


class TestStudyParity:
    """End to end: a searched study is bit-identical kernel on/off."""

    CONFIG = StudyConfig(
        n_splits=2,
        cv_folds=3,
        search_iters=2,
        models=("knn", "naive_bayes", "decision_tree"),
        seed=7,
    )

    def make_study(self):
        study = CleanMLStudy(self.CONFIG)
        study.add(
            load_dataset("Sensor", seed=0, n_rows=120),
            OUTLIERS,
            methods=[OutlierCleaning("SD", "mean")],
        )
        return study

    def test_searched_study_bit_identical(self):
        kernel = self.make_study()
        kernel.run(n_jobs=1)
        with kernel_disabled():
            reference = self.make_study()
            reference.run(n_jobs=1)
        assert kernel.raw_experiments == reference.raw_experiments


class TestVectorizedGBTSplitIsTheReference:
    """XGBoost's broadcast split search == its per-feature loop, bit for bit.

    The same discipline as the CART builder's vectorized search: every
    regression-tree node of every boosting round and class must carry
    the identical (feature, threshold, leaf value), so the additive
    scores — and hence predictions — are bit-identical.
    """

    def fit_pair(self, X, y, **params):
        from repro.ml.gbt import _GradientTree

        base = {"n_estimators": 4, "max_depth": 3, "random_state": 0}
        base.update(params)
        vectorized = XGBoostClassifier(**base)
        assert _GradientTree.vectorized_split
        vectorized.fit(X, y)
        reference = XGBoostClassifier(**base)
        _GradientTree.vectorized_split = False
        try:
            reference.fit(X, y)
        finally:
            _GradientTree.vectorized_split = True
        return vectorized, reference

    @staticmethod
    def assert_same_gradient_trees(a, b):
        """Node-for-node equality of every (round, class) regression tree."""
        assert len(a.trees_) == len(b.trees_)
        for round_a, round_b in zip(a.trees_, b.trees_):
            assert len(round_a) == len(round_b)
            for tree_a, tree_b in zip(round_a, round_b):
                stack = [(tree_a._root, tree_b._root)]
                while stack:
                    left, right = stack.pop()
                    assert left.feature == right.feature
                    assert left.threshold == right.threshold
                    assert left.value == right.value
                    if left.feature is not None:
                        stack.append((left.left, right.left))
                        stack.append((left.right, right.right))

    @pytest.mark.parametrize("dataset_name", PARITY_DATASETS)
    def test_registry_tables_per_node(self, dataset_name):
        X, y = encoded_dataset(dataset_name)
        vectorized, reference = self.fit_pair(X, y)
        self.assert_same_gradient_trees(vectorized, reference)
        assert np.array_equal(
            vectorized.decision_function(X), reference.decision_function(X)
        )

    def test_regularizer_knobs_per_node(self):
        X, y = make_blobs(n_per_class=30, n_classes=3, seed=5)
        vectorized, reference = self.fit_pair(
            X, y, gamma=0.05, min_child_weight=0.3, reg_lambda=0.5
        )
        self.assert_same_gradient_trees(vectorized, reference)

    def test_tied_and_constant_features_per_node(self):
        rng = np.random.default_rng(11)
        # one-hot-like ties, a constant column, and duplicated values —
        # the argmax tie-break territory
        X = np.column_stack(
            [
                rng.integers(0, 2, 80).astype(float),
                np.zeros(80),
                rng.integers(0, 3, 80).astype(float),
                np.repeat(rng.normal(size=8), 10),
            ]
        )
        y = rng.integers(0, 2, 80)
        vectorized, reference = self.fit_pair(X, y, max_depth=4)
        self.assert_same_gradient_trees(vectorized, reference)

    def test_direct_split_parity_with_shared_root_cache(self):
        from repro.ml.gbt import _GradientTree

        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 5))
        X[:, 2] = np.round(X[:, 2])  # heavy ties
        grad = rng.normal(size=60)
        hess = rng.uniform(0.01, 1.0, size=60)
        tree = _GradientTree(
            max_depth=3, reg_lambda=1.0, gamma=0.0, min_child_weight=1e-3
        )
        for cache in (None, {}):
            sort_cache = dict(cache) if cache is not None else None
            vectorized = tree._best_split_vectorized(
                X, grad, hess, float(grad.sum()), float(hess.sum()), sort_cache
            )
            sort_cache = dict(cache) if cache is not None else None
            reference = tree._best_split_reference(
                X, grad, hess, float(grad.sum()), float(hess.sum()), sort_cache
            )
            assert vectorized == reference

    def test_kernel_disabled_flips_the_switch(self):
        from repro.ml.gbt import _GradientTree

        assert _GradientTree.vectorized_split
        with kernel_disabled():
            assert not _GradientTree.vectorized_split
        assert _GradientTree.vectorized_split


def adversarial_matrix(n=90, seed=0):
    """Columns built to hit every branch of the column-plan split kernel.

    Two-valued 0/1 one-hots and their exact duplicates (tied gains),
    standardized one-hots (two values, neither 0 nor 1), a {-0.0, 0.0,
    1.0} column (signed zeros are one value), columns constant at the
    root, a column whose two values sit within ``_EPS`` (never
    splittable), a copy of the first one-hot that goes constant in both
    of its children, three-valued and continuous columns, and a column
    holding NaN.
    """
    rng = np.random.default_rng(seed)
    one_hot_a = rng.integers(0, 2, n).astype(float)
    one_hot_b = (rng.random(n) < 0.2).astype(float)
    standardized = (one_hot_b - one_hot_b.mean()) / one_hot_b.std()
    signed_zero = np.where(rng.random(n) < 0.5, 1.0, 0.0)
    signed_zero[::3] = -0.0
    with_nan = rng.normal(size=n)
    with_nan[::11] = np.nan
    columns = [
        one_hot_a,
        one_hot_a.copy(),
        standardized,
        signed_zero,
        np.zeros(n),
        np.full(n, 5.0),
        np.where(rng.random(n) < 0.5, 1.0, 1.0 + 1e-13),
        one_hot_a * 3.0 - 1.0,
        rng.integers(0, 3, n).astype(float),
        np.round(rng.normal(size=n), 1),
        with_nan,
        one_hot_b,
    ]
    X = np.column_stack(columns)
    y = (one_hot_a.astype(int) ^ (rng.random(n) < 0.25)).astype(int)
    y[one_hot_b == 1] = 2
    return X, y


class TestColumnPlanKernelPerNode:
    """Adversarial per-node parity of the column-plan kernel.

    Every node a kernel fit searches is also handed to
    ``_best_split_reference`` (rewinding the per-node rng so both see
    the same feature draws), and the two must choose the identical
    ``(feature, threshold)`` — a stronger check than comparing finished
    trees, which a coincidentally equal later split could mask.  Nodes
    the lockstep engine searches are replayed from its ``_search`` seam
    on each node's own rows; there the node's class counts and Gini
    must also equal the ones the recursion computes.
    """

    @staticmethod
    def check_every_cart_node(monkeypatch, fit):
        searched: list[int] = []
        kernel_split = DecisionTreeClassifier._best_split

        def checked(self, X, wy, sort_cache, counts, impurity):
            state = self._rng.bit_generator.state
            expected = self._best_split_reference(X, wy)
            self._rng.bit_generator.state = state
            chosen = kernel_split(self, X, wy, sort_cache, counts, impurity)
            assert chosen == expected
            searched.append(len(X))
            return chosen

        kernel_search = _Lockstep._search

        def checked_step(self, step):
            # one node per tree per step, so each tree's state before
            # the step is the state before its node's draw
            before = [entry.tree._rng.bit_generator.state for entry in step]
            chosen = kernel_search(self, step)
            for entry, state, split in zip(step, before, chosen):
                rng = entry.tree._rng
                after = rng.bit_generator.state
                rng.bit_generator.state = state
                wy = one_hot(self.y[entry.rows], self.n_classes)
                expected = entry.tree._best_split_reference(self.X[entry.rows], wy)
                assert rng.bit_generator.state == after
                assert split == expected
                counts = wy.sum(axis=0)
                assert entry.counts.tobytes() == counts.tobytes()
                assert entry.impurity == _gini(counts)
                searched.append(len(entry.rows))
            return chosen

        monkeypatch.setattr(DecisionTreeClassifier, "_best_split", checked)
        monkeypatch.setattr(_Lockstep, "_search", checked_step)
        fit()
        assert searched, "no node was searched"
        return searched

    @staticmethod
    def check_every_gbt_node(monkeypatch, fit):
        from repro.ml.gbt import _GradientTree

        searched: list[int] = []
        kernel_split = _GradientTree._best_split

        def checked(self, X, grad, hess, grad_sum, hess_sum, sort_cache=None):
            expected = self._best_split_reference(X, grad, hess, grad_sum, hess_sum)
            chosen = kernel_split(self, X, grad, hess, grad_sum, hess_sum, sort_cache)
            assert chosen == expected
            searched.append(len(X))
            return chosen

        monkeypatch.setattr(_GradientTree, "_best_split", checked)
        fit()
        assert searched, "no node was searched"
        return searched

    @pytest.mark.parametrize("leaf", (1, 2, 5))
    def test_cart_adversarial_columns(self, monkeypatch, leaf):
        X, y = adversarial_matrix()
        searched = self.check_every_cart_node(
            monkeypatch,
            lambda: DecisionTreeClassifier(
                max_depth=None, min_samples_leaf=leaf
            ).fit(X, y, root_sort_cache={}),
        )
        # deep enough that two-valued columns turn constant in nodes
        assert len(searched) > 5

    @pytest.mark.parametrize("leaf", (2, 3, 4))
    def test_min_samples_leaf_at_the_two_valued_boundary(self, leaf):
        # column 0 has exactly 3 lo rows and separates them perfectly;
        # column 1 has exactly n - 3 lo rows; both are legal only while
        # min_samples_leaf <= 3, so the reference's choice flips there
        n = 24
        rng = np.random.default_rng(leaf)
        first = np.ones(n)
        first[[4, 9, 17]] = 0.0
        second = np.zeros(n)
        second[[2, 11, 20]] = 7.5
        X = np.column_stack([first, second, rng.normal(size=n)])
        y = np.zeros(n, dtype=int)
        y[[4, 9, 17]] = 1
        y[[2, 11, 20]] = 2
        wy = one_hot(y, 3)
        tree = DecisionTreeClassifier(min_samples_leaf=leaf, random_state=0)
        tree._rng = np.random.default_rng(0)
        expected = tree._best_split_reference(X, wy)
        assert tree._best_split_vectorized(X, wy) == expected
        if leaf <= 3:
            assert expected[0] in (0, 1)
        else:
            assert expected is None or expected[0] == 2

    def test_adaboost_non_integer_and_zero_weights(self, monkeypatch):
        X, y = adversarial_matrix(seed=1)
        rng = np.random.default_rng(4)
        weights = rng.random(len(y)) * 3.7
        weights[::5] = 0.0
        self.check_every_cart_node(
            monkeypatch,
            lambda: DecisionTreeClassifier(max_depth=None).fit(
                X, y, sample_weight=weights
            ),
        )
        self.check_every_cart_node(
            monkeypatch,
            lambda: AdaBoostClassifier(n_estimators=12, random_state=5).fit(X, y),
        )

    @pytest.mark.parametrize("max_features", (3, "sqrt"))
    def test_random_forest_feature_subsampling(self, monkeypatch, max_features):
        X, y = adversarial_matrix(seed=2)
        self.check_every_cart_node(
            monkeypatch,
            lambda: RandomForestClassifier(
                n_estimators=6, max_depth=None, max_features=max_features,
                random_state=9,
            ).fit(X, y),
        )

    @staticmethod
    def reference_forest(X, y, **params):
        """Forest fitted tree by tree through the reference split search."""
        with kernel_disabled():
            return RandomForestClassifier(**params).fit(X, y)

    @staticmethod
    def assert_same_forest(a, b):
        assert len(a.estimators_) == len(b.estimators_)
        for left, right in zip(a.estimators_, b.estimators_):
            assert_same_tree(left, right)

    @pytest.mark.parametrize("n_classes", (3, 4, 9))
    @pytest.mark.parametrize("max_features", (None, 3, "sqrt"))
    def test_lockstep_forest_classes_and_feature_draws(
        self, monkeypatch, max_features, n_classes
    ):
        # nine classes take numpy's unrolled pairwise sum over the class
        # axis; the NaN column of the adversarial matrix rides along
        X, y = adversarial_matrix(seed=n_classes)
        rng = np.random.default_rng(n_classes)
        y = (y + rng.integers(0, n_classes, len(y))) % n_classes
        params = dict(
            n_estimators=5, max_depth=None, max_features=max_features,
            random_state=n_classes,
        )
        fitted = []
        searched = self.check_every_cart_node(
            monkeypatch,
            lambda: fitted.append(RandomForestClassifier(**params).fit(X, y)),
        )
        assert len(searched) > 20
        self.assert_same_forest(fitted[0], self.reference_forest(X, y, **params))

    def test_lockstep_nan_column_and_duplicate_rows(self, monkeypatch):
        # every row appears twice in X and bootstraps repeat rows again;
        # one column is mostly NaN, so NaN ranks dominate its lanes
        X, y = adversarial_matrix(n=45, seed=6)
        mostly_nan = np.full(len(X), np.nan)
        mostly_nan[::4] = np.arange(len(X))[::4] % 3
        X = np.vstack([np.column_stack([X, mostly_nan])] * 2)
        y = np.concatenate([y, y])
        params = dict(n_estimators=6, max_depth=None, max_features=4, random_state=4)
        fitted = []
        self.check_every_cart_node(
            monkeypatch,
            lambda: fitted.append(RandomForestClassifier(**params).fit(X, y)),
        )
        self.assert_same_forest(fitted[0], self.reference_forest(X, y, **params))

    @pytest.mark.parametrize("leaf", (2, 3, 4))
    def test_lockstep_min_samples_leaf_at_the_two_valued_boundary(
        self, monkeypatch, leaf
    ):
        # the matrix of test_min_samples_leaf_at_the_two_valued_boundary,
        # grown on all of its rows (no bootstrap) through the engine
        n = 24
        rng = np.random.default_rng(leaf)
        first = np.ones(n)
        first[[4, 9, 17]] = 0.0
        second = np.zeros(n)
        second[[2, 11, 20]] = 7.5
        X = np.column_stack([first, second, rng.normal(size=n)])
        y = np.zeros(n, dtype=int)
        y[[4, 9, 17]] = 1
        y[[2, 11, 20]] = 2
        params = dict(max_depth=None, min_samples_leaf=leaf, random_state=0)
        engine_tree = DecisionTreeClassifier(**params)

        def grow():
            _Lockstep(X, y, 3).grow([engine_tree], [np.arange(n)])

        searched = self.check_every_cart_node(monkeypatch, grow)
        with kernel_disabled():
            reference = DecisionTreeClassifier(**params).fit(X, y)
        assert_same_tree(engine_tree, reference)
        assert searched[0] == n
        forest = dict(n_estimators=8, min_samples_leaf=leaf, max_features=2, random_state=leaf)
        self.check_every_cart_node(
            monkeypatch, lambda: RandomForestClassifier(**forest).fit(X, y)
        )

    def test_lockstep_honours_the_block_budget(self, monkeypatch):
        import repro.ml.tree as tree_module

        X, y = adversarial_matrix(seed=7)
        params = dict(n_estimators=4, max_depth=None, max_features=None, random_state=2)
        one_block = RandomForestClassifier(**params).fit(X, y)
        monkeypatch.setattr(tree_module, "_SPLIT_BLOCK_ELEMENTS", 64)
        budget_rows = 64 // 3
        chunks: list[tuple[int, int]] = []
        original = tree_module._lane_chunks

        def recorded(lanes, sizes, budget):
            assert budget == budget_rows
            for chunk in original(lanes, sizes, budget):
                chunks.append((len(chunk), int(sizes[chunk].sum())))
                yield chunk

        monkeypatch.setattr(tree_module, "_lane_chunks", recorded)
        fitted = []
        self.check_every_cart_node(
            monkeypatch,
            lambda: fitted.append(RandomForestClassifier(**params).fit(X, y)),
        )
        assert all(rows <= budget_rows or lanes == 1 for lanes, rows in chunks)
        assert any(lanes > 1 for lanes, _ in chunks)
        assert any(rows > budget_rows for _, rows in chunks)
        self.assert_same_forest(fitted[0], one_block)

    def test_gbt_adversarial_columns(self, monkeypatch):
        X, y = adversarial_matrix(seed=3)
        self.check_every_gbt_node(
            monkeypatch,
            lambda: XGBoostClassifier(
                n_estimators=4, max_depth=4, min_child_weight=0.05, random_state=0
            ).fit(X, y, root_sort_cache={}),
        )
        self.check_every_gbt_node(
            monkeypatch,
            lambda: XGBoostClassifier(
                n_estimators=3, max_depth=3, subsample=0.7, random_state=1
            ).fit(X, y),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_gbt_negative_gradients_direct(self, seed):
        from repro.ml.gbt import _GradientTree

        X, _ = adversarial_matrix(n=40, seed=seed)
        rng = np.random.default_rng(seed)
        grad = rng.normal(size=len(X)) - 0.5  # mostly negative
        hess = rng.uniform(0.0, 0.3, size=len(X))
        hess[::4] = 0.0
        tree = _GradientTree(
            max_depth=3, reg_lambda=0.7, gamma=0.0, min_child_weight=0.2
        )
        args = (X, grad, hess, float(grad.sum()), float(hess.sum()))
        assert tree._best_split_vectorized(*args) == tree._best_split_reference(*args)

    def test_gbt_node_constant_columns_never_split(self):
        # with gamma < 0 and no hessian floor, a zero-improvement "split"
        # of a column constant in the node would score above _EPS; the
        # reference has no boundary there, so the kernel must skip it
        from repro.ml.gbt import _GradientTree

        rng = np.random.default_rng(8)
        n = 30
        X = np.column_stack([np.ones(n), np.zeros(n), np.full(n, 2.0)])
        X[0, :2] = (0.0, 1.0)  # two-valued at the plan, constant below
        grad = rng.normal(size=n)
        hess = rng.random(n)
        tree = _GradientTree(
            max_depth=3, reg_lambda=1.0, gamma=-0.5, min_child_weight=0.0
        )
        plan = _ColumnPlan(X)
        rows = slice(1, None)
        args = (X[rows], grad[rows], hess[rows])
        sums = (float(grad[rows].sum()), float(hess[rows].sum()))
        assert tree._best_split_reference(*args, *sums) is None
        assert tree._best_split_vectorized(*args, *sums, None, plan) is None
        # the same columns at the plan's own rows do split
        full = (X, grad, hess, float(grad.sum()), float(hess.sum()))
        expected = tree._best_split_reference(*full)
        assert expected is not None
        assert tree._best_split_vectorized(*full, None, plan) == expected

    def test_summation_order_trap_on_titanic(self, monkeypatch):
        # random float statistics on a real one-hot table: a matmul, or
        # a pairwise np.sum along contiguous rows, over the masked rows
        # differs from the reference's sequential cumsum in the last
        # bits, which flips near-tied splits
        from repro.ml.gbt import _GradientTree

        X, y = encoded_dataset("Titanic")
        rng = np.random.default_rng(0)
        tree = _GradientTree(
            max_depth=4, reg_lambda=1.0, gamma=0.0, min_child_weight=1e-3
        )
        for _ in range(5):
            grad = rng.normal(size=len(X))
            hess = rng.random(len(X))
            self.check_every_gbt_node(
                monkeypatch, lambda: tree.fit(X, grad, hess, root_sort_cache={})
            )
        weights = rng.random(len(X))
        self.check_every_cart_node(
            monkeypatch,
            lambda: DecisionTreeClassifier(max_depth=None).fit(
                X, y, sample_weight=weights, root_sort_cache={}
            ),
        )
