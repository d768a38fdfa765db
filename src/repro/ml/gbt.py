"""XGBoost-style gradient-boosted trees.

Implements the second-order boosting objective of Chen & Guestrin's
XGBoost on the softmax cross-entropy loss: per round and per class, a
regression tree is grown greedily on (gradient, hessian) statistics with
the regularized gain

    gain = 1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
                   - G^2/(H+lambda) ] - gamma

and leaf weights ``-G/(H+lambda)`` shrunk by ``learning_rate``.  Row
subsampling per round matches XGBoost's stochastic variant.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_fit_inputs, one_hot, softmax
from .tree import (
    _SPLIT_BLOCK_ELEMENTS,
    DecisionTreeClassifier,
    RootSortWorkspace,
    _best_positions,
    _ColumnPlan,
)

_EPS = 1e-12


class _RegressionNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value: float) -> None:
        self.feature: int | None = None
        self.threshold = 0.0
        self.left: "_RegressionNode | None" = None
        self.right: "_RegressionNode | None" = None
        self.value = value


class _GradientTree:
    """One regression tree over (gradient, hessian) statistics."""

    def __init__(
        self,
        max_depth: int,
        reg_lambda: float,
        gamma: float,
        min_child_weight: float,
    ) -> None:
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight

    def fit(
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        root_sort_cache: dict | None = None,
        column_plan: _ColumnPlan | None = None,
    ) -> "_GradientTree":
        """Grow the tree; ``root_sort_cache`` shares root argsorts.

        The root's per-feature stable argsort depends only on ``X`` —
        never on the (gradient, hessian) targets — so fits on the same
        matrix (boosting rounds, classes, search candidates) may pass
        one shared ``feature -> order`` dict, filled lazily.  Cached
        orders equal the argsorts the root would recompute.  The
        ``column_plan`` of ``X`` (built here when omitted) is
        target-free too: fits sharing one also share its root block.
        """
        self._root_sort_cache = root_sort_cache
        self._plan = _ColumnPlan(X) if column_plan is None else column_plan
        self._root = self._build(X, grad, hess, depth=0)
        self._root_sort_cache = None
        self._plan = None
        return self

    def _leaf_value(self, grad_sum: float, hess_sum: float) -> float:
        return -grad_sum / (hess_sum + self.reg_lambda + _EPS)

    def _build(
        self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray, depth: int
    ) -> _RegressionNode:
        grad_sum, hess_sum = float(grad.sum()), float(hess.sum())
        node = _RegressionNode(self._leaf_value(grad_sum, hess_sum))
        if depth >= self.max_depth or len(X) < 2:
            return node

        split = self._best_split(
            X,
            grad,
            hess,
            grad_sum,
            hess_sum,
            sort_cache=self._root_sort_cache if depth == 0 else None,
        )
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], grad[mask], hess[mask], depth + 1)
        node.right = self._build(X[~mask], grad[~mask], hess[~mask], depth + 1)
        return node

    #: process-wide switch for the feature-vectorized split search;
    #: ``repro.core.runner.kernel_disabled`` flips it alongside
    #: ``DecisionTreeClassifier.vectorized_split``
    vectorized_split = True

    def _best_split(
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        grad_sum: float,
        hess_sum: float,
        sort_cache: dict | None = None,
    ) -> tuple[int, float] | None:
        """Best (feature, threshold) by regularized gain, or ``None``.

        Dispatches to the feature-vectorized search; the per-feature
        loop survives as :meth:`_best_split_reference`, the executable
        spec the vectorized path is pinned against bit for bit (the
        same discipline as the CART builder's ``_best_split``).
        """
        if self.vectorized_split:
            return self._best_split_vectorized(
                X, grad, hess, grad_sum, hess_sum, sort_cache, self._plan
            )
        return self._best_split_reference(
            X, grad, hess, grad_sum, hess_sum, sort_cache
        )

    def _best_split_reference(
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        grad_sum: float,
        hess_sum: float,
        sort_cache: dict | None = None,
    ) -> tuple[int, float] | None:
        parent_score = grad_sum**2 / (hess_sum + self.reg_lambda + _EPS)
        best_gain = _EPS
        best: tuple[int, float] | None = None
        for feature in range(X.shape[1]):
            order = DecisionTreeClassifier._feature_order(X, feature, sort_cache)
            sorted_x = X[order, feature]
            cum_grad = np.cumsum(grad[order])
            cum_hess = np.cumsum(hess[order])

            boundary = np.nonzero(sorted_x[1:] > sorted_x[:-1] + _EPS)[0] + 1
            if len(boundary) == 0:
                continue

            left_grad = cum_grad[boundary - 1]
            left_hess = cum_hess[boundary - 1]
            right_grad = grad_sum - left_grad
            right_hess = hess_sum - left_hess

            ok = (left_hess >= self.min_child_weight) & (
                right_hess >= self.min_child_weight
            )
            if not np.any(ok):
                continue

            gains = 0.5 * (
                left_grad**2 / (left_hess + self.reg_lambda + _EPS)
                + right_grad**2 / (right_hess + self.reg_lambda + _EPS)
                - parent_score
            ) - self.gamma
            gains[~ok] = -np.inf

            pick = int(np.argmax(gains))
            if gains[pick] > best_gain:
                best_gain = float(gains[pick])
                position = boundary[pick]
                best = (feature, float(0.5 * (sorted_x[position - 1] + sorted_x[position])))
        return best

    def _best_split_vectorized(
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        grad_sum: float,
        hess_sum: float,
        sort_cache: dict | None = None,
        plan: _ColumnPlan | None = None,
    ) -> tuple[int, float] | None:
        """Score every feature at once, split by column kind.

        The same column-plan kernel as the CART builder's
        ``_best_split_vectorized``, on stacked (gradient, hessian) sums
        in place of class sums: two-valued columns take their single
        boundary's left sums from the last row of a masked sequential
        cumsum, with no sort; other columns are sorted and scored at
        every position.  Every step applies the reference's elementwise
        gain formula, cumulative sums stay sequential per lane, and
        positions and features are scanned in the reference's order, so
        the chosen split is bit-identical to
        :meth:`_best_split_reference`; ``tests/test_tuning_kernel.py``
        pins it per node.

        Features are processed in chunks sized to keep the
        ``(rows, features)`` temporaries near the shared block budget;
        per-feature best gains are chunk-independent.  ``plan`` is
        built from ``X`` when the caller does not pass one.
        """
        n_samples, n_features = X.shape
        if plan is None:
            plan = _ColumnPlan(X)
        parent_score = grad_sum**2 / (hess_sum + self.reg_lambda + _EPS)
        sums = np.array([grad_sum, hess_sum])
        stats = np.stack((grad, hess), axis=1)

        # ~6 (rows, features) float64 temporaries live at once (sorted
        # values, stacked cumsum, child sums, gains)
        chunk = max(1, _SPLIT_BLOCK_ELEMENTS // max(6 * n_samples, 1))
        best_gain = np.full(n_features, -np.inf)
        best_threshold = np.zeros(n_features)
        for start in range(0, len(plan.binary), chunk):
            features = plan.binary[start : start + chunk]
            is_lo = X[:, features] == plan.lo[features]
            n_lo = np.count_nonzero(is_lo, axis=0)
            keep = (n_lo > 0) & (n_lo < n_samples)
            features, is_lo = features[keep], is_lo[:, keep]
            left = np.cumsum(is_lo[:, :, None] * stats[:, None, :], axis=0)[-1]
            best_gain[features] = self._gains(left, sums, parent_score)
            best_threshold[features] = plan.threshold[features]

        for start in range(0, len(plan.dense), chunk):
            features = plan.dense[start : start + chunk]
            orders, sorted_x, valid = plan.sorted_block(X, features, sort_cache)
            gains = self._gains(
                np.cumsum(stats[orders], axis=0)[:-1], sums, parent_score
            )
            gains[~valid] = -np.inf
            best_gain[features], best_threshold[features] = _best_positions(
                gains, sorted_x
            )

        feature = int(np.argmax(best_gain))
        if not best_gain[feature] > _EPS:
            return None
        return (feature, float(best_threshold[feature]))

    def _gains(
        self, left: np.ndarray, sums: np.ndarray, parent_score: float
    ) -> np.ndarray:
        """Regularized gain of splitting ``sums`` into ``left`` and the rest.

        ``left`` is any ``(..., 2)`` block of left-child (gradient,
        hessian) sums; a split needs ``min_child_weight`` hessian mass
        on both sides, or its gain is ``-inf``.
        """
        sides = np.stack((left, sums - left))
        grad, hess = sides[..., 0], sides[..., 1]
        # the denominators repeat the reference's left-to-right adds
        # (float addition is non-associative; pre-summing the
        # regularizer would shift bits)
        score = grad**2 / (hess + self.reg_lambda + _EPS)
        gains = 0.5 * (score[0] + score[1] - parent_score) - self.gamma
        gains[~(hess >= self.min_child_weight).all(axis=0)] = -np.inf
        return gains

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))
        self._route(self._root, X, np.arange(len(X)), out)
        return out

    def _route(self, node, X, indices, out) -> None:
        if len(indices) == 0:
            return
        if node.feature is None:
            out[indices] = node.value
            return
        go_left = X[indices, node.feature] <= node.threshold
        self._route(node.left, X, indices[go_left], out)
        self._route(node.right, X, indices[~go_left], out)


class XGBoostClassifier(Classifier):
    """Gradient-boosted trees with the XGBoost objective (softmax loss).

    Parameters
    ----------
    n_estimators / learning_rate / max_depth:
        The usual boosting knobs.
    reg_lambda / gamma / min_child_weight:
        XGBoost's L2 leaf regularizer, minimum split gain, and minimum
        hessian mass per child.
    subsample:
        Row-sampling fraction per boosting round.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.3,
        max_depth: int = 3,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 1e-3,
        subsample: float = 1.0,
        random_state: int | None = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.subsample = subsample
        self.random_state = random_state

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        root_sort_cache: dict | None = None,
    ) -> "XGBoostClassifier":
        """Boost; full-sample rounds share one root argsort cache.

        With ``subsample >= 1.0`` (the default, and the only mode the
        registry search space exercises) every round and class grows
        its tree on the *same* matrix, so the trees share a root
        argsort cache — internally across rounds x classes, and across
        search candidates when the tuning kernel passes
        ``root_sort_cache`` in — and one column plan, whose root block
        (the dense columns' orders, sorted values and value-change mask)
        every tree's root reuses.  The former ``X[rows]`` /
        ``grad_all[rows, cls]`` fancy indexing with ``rows ==
        arange(n)`` copied the matrix and gradients every round for
        nothing; fitting the originals is value-identical.  Subsampled
        rounds keep the per-round copies and skip the cache (their row
        sets differ), so the knob still behaves exactly as before.
        """
        X, y, n_classes = check_fit_inputs(X, y)
        self.n_classes_ = n_classes
        rng = np.random.default_rng(self.random_state)
        targets = one_hot(y, n_classes)

        n_samples = len(X)
        scores = np.zeros((n_samples, n_classes))
        self.trees_: list[list[_GradientTree]] = []
        full_sample = self.subsample >= 1.0
        sort_cache: dict | None = None
        plan: _ColumnPlan | None = None
        if full_sample:
            sort_cache = {} if root_sort_cache is None else root_sort_cache
            plan = _ColumnPlan(X)

        for _ in range(self.n_estimators):
            proba = softmax(scores)
            grad_all = proba - targets
            hess_all = proba * (1.0 - proba)

            if full_sample:
                rows = None
            else:
                size = max(2, int(round(self.subsample * n_samples)))
                rows = rng.choice(n_samples, size=size, replace=False)

            round_trees: list[_GradientTree] = []
            for cls in range(n_classes):
                tree = _GradientTree(
                    max_depth=self.max_depth,
                    reg_lambda=self.reg_lambda,
                    gamma=self.gamma,
                    min_child_weight=self.min_child_weight,
                )
                if rows is None:
                    tree.fit(
                        X,
                        grad_all[:, cls],
                        hess_all[:, cls],
                        root_sort_cache=sort_cache,
                        column_plan=plan,
                    )
                else:
                    tree.fit(X[rows], grad_all[rows, cls], hess_all[rows, cls])
                scores[:, cls] += self.learning_rate * tree.predict(X)
                round_trees.append(tree)
            self.trees_.append(round_trees)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw additive scores before the softmax."""
        X = np.asarray(X, dtype=np.float64)
        scores = np.zeros((len(X), self.n_classes_))
        for round_trees in self.trees_:
            for cls, tree in enumerate(round_trees):
                scores[:, cls] += self.learning_rate * tree.predict(X)
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision_function(X))

    def make_fold_workspace(self, X_train, y_train, X_val):
        return RootSortWorkspace(X_train, y_train, X_val)
