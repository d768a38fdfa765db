"""Random forest: bagged CART trees with per-node feature subsampling."""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_fit_inputs
from .tree import DecisionTreeClassifier, _Lockstep


class RandomForestClassifier(Classifier):
    """Bootstrap-aggregated decision trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth / min_samples_split / min_samples_leaf:
        Forwarded to each :class:`DecisionTreeClassifier`.
    max_features:
        Features examined per split; default ``"sqrt"`` as is standard.
    random_state:
        Seeds both the bootstrap resampling and the per-tree feature
        subsampling, making fits reproducible.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        random_state: int | None = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit the forest, growing every tree in lockstep.

        Tree ``i`` is grown on bootstrap draw ``i`` with its own seed,
        both drawn from ``random_state`` in tree order.  The trees grow
        together through one :class:`~repro.ml.tree._Lockstep` engine on
        ``X`` itself, each bootstrap an index array into it; the fitted
        trees equal, node for node, the ones each
        ``DecisionTreeClassifier.fit`` on its resampled matrix would
        build.

        Under ``kernel_disabled()`` each tree is fitted on its own
        resampled matrix through the reference split search instead.
        """
        X, y, n_classes = check_fit_inputs(X, y)
        self.n_classes_ = n_classes
        rng = np.random.default_rng(self.random_state)
        self.estimators_: list[DecisionTreeClassifier] = []
        bootstraps = []
        n_samples = len(X)
        for _ in range(self.n_estimators):
            bootstraps.append(rng.integers(0, n_samples, size=n_samples))
            self.estimators_.append(
                DecisionTreeClassifier(
                    max_depth=self.max_depth,
                    min_samples_split=self.min_samples_split,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=self.max_features,
                    random_state=int(rng.integers(0, 2**31 - 1)),
                )
            )
        if DecisionTreeClassifier.vectorized_split:
            _Lockstep(X, y, n_classes).grow(self.estimators_, bootstraps)
            return self
        for tree, bootstrap in zip(self.estimators_, bootstraps):
            tree.fit(X[bootstrap], y[bootstrap], n_classes=n_classes)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        total = np.zeros((len(X), self.n_classes_))
        for tree in self.estimators_:
            total += tree.predict_proba(X)
        return total / len(self.estimators_)
