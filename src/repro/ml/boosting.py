"""AdaBoost with the multi-class SAMME algorithm.

The paper observes that boosting models are the most reactive to
mislabels (Table 13, Q3) because misclassified — including mislabeled —
examples receive exponentially growing weights.  This implementation
keeps that behaviour: weak learners are shallow CART trees fitted with
the evolving sample weights.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_fit_inputs
from .tree import DecisionTreeClassifier, RootSortWorkspace, _ColumnPlan


class AdaBoostClassifier(Classifier):
    """SAMME AdaBoost over decision stumps.

    Parameters
    ----------
    n_estimators:
        Maximum number of boosting rounds; training stops early when a
        round is perfect (weights collapse) or no better than chance.
    max_depth:
        Depth of each weak learner (1 = decision stumps).
    learning_rate:
        Shrinkage applied to every round's contribution.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 1,
        learning_rate: float = 1.0,
        random_state: int | None = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.random_state = random_state

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        root_sort_cache: dict | None = None,
    ) -> "AdaBoostClassifier":
        """Boost; every round's stump shares the root argsort cache.

        All rounds fit the *same* training matrix (only the sample
        weights evolve), and the root split's per-feature argsort is
        weight-free — so one cache serves every round of this fit, and,
        when the tuning kernel passes ``root_sort_cache`` in, every
        search candidate too.  Cached orders equal the argsorts each
        stump would recompute, keeping fits bit-identical.  For the
        same reason every round shares one column plan of ``X``, and
        with it the plan's read-only root sorted blocks.
        """
        X, y, n_classes = check_fit_inputs(X, y)
        self.n_classes_ = n_classes
        rng = np.random.default_rng(self.random_state)
        sort_cache = {} if root_sort_cache is None else root_sort_cache
        plan = _ColumnPlan(X)

        n_samples = len(y)
        weights = np.full(n_samples, 1.0 / n_samples)
        self.estimators_: list[DecisionTreeClassifier] = []
        self.alphas_: list[float] = []

        for _ in range(self.n_estimators):
            stump = DecisionTreeClassifier(
                max_depth=self.max_depth,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            stump.fit(
                X,
                y,
                sample_weight=weights,
                n_classes=n_classes,
                root_sort_cache=sort_cache,
                column_plan=plan,
            )
            predictions = stump.predict(X)
            wrong = predictions != y
            error = float(np.sum(weights[wrong]))

            if error <= 0.0:
                # perfect learner: keep it with a large say and stop
                self.estimators_.append(stump)
                self.alphas_.append(10.0)
                break
            if error >= 1.0 - 1.0 / n_classes:
                # no better than chance; nothing left to learn
                if not self.estimators_:
                    self.estimators_.append(stump)
                    self.alphas_.append(1e-3)
                break

            alpha = self.learning_rate * (
                np.log((1.0 - error) / error) + np.log(n_classes - 1.0)
            )
            self.estimators_.append(stump)
            self.alphas_.append(float(alpha))

            weights = weights * np.exp(alpha * wrong)
            weights = weights / weights.sum()

        if not self.estimators_:  # pragma: no cover - defensive
            stump = DecisionTreeClassifier(max_depth=self.max_depth)
            stump.fit(X, y, n_classes=n_classes)
            self.estimators_.append(stump)
            self.alphas_.append(1.0)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        scores = np.zeros((len(X), self.n_classes_))
        for alpha, stump in zip(self.alphas_, self.estimators_):
            votes = stump.predict(X)
            scores[np.arange(len(X)), votes] += alpha
        total = scores.sum(axis=1, keepdims=True)
        return scores / np.where(total == 0.0, 1.0, total)

    def make_fold_workspace(self, X_train, y_train, X_val):
        return RootSortWorkspace(X_train, y_train, X_val)
