"""CART decision tree with weighted Gini impurity.

The split search is vectorized and driven by a per-fit column plan
(:class:`_ColumnPlan`): a column holding only its training minimum and
maximum has exactly one candidate threshold and is scored without a
sort, from one masked sequential sum of the weighted one-hot labels;
every other column is sorted and scored at every threshold in a single
cumulative-sum pass.  Sample weights make the same builder serve
AdaBoost.  The random forest's unweighted trees grow together through
:class:`_Lockstep`, which scores one node of every tree per step in a
single flat pass of exact integer class counts.

The root split's per-feature ``argsort`` depends only on the training
matrix — never on depth/leaf hyper-parameters or sample weights — so
fits that share a training matrix can share it: ``fit`` accepts a
``root_sort_cache`` dict that the fold-major tuning kernel
(:class:`RootSortWorkspace`) carries across search candidates, AdaBoost
carries across boosting rounds, and XGBoost carries across rounds and
classes.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_fit_inputs, one_hot
from .cv_kernel import FoldWorkspace

_EPS = 1e-12

#: per-block element budget of the vectorized split search (the
#: (rows, features, classes) cumsum is the largest temporary; 2^23
#: float64 elements = 64MB).  Wider candidate sets are processed in
#: feature chunks — per-feature best gains are chunk-independent, so
#: the result is unaffected.  The lockstep engine chunks its lanes so
#: that (lane rows, classes) stays within the same budget.
_SPLIT_BLOCK_ELEMENTS = 1 << 23


class _Node:
    """Internal tree node; leaves have ``feature is None``."""

    __slots__ = ("feature", "threshold", "left", "right", "proba")

    def __init__(self, proba: np.ndarray) -> None:
        self.feature: int | None = None
        self.threshold = 0.0
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.proba = proba


class DecisionTreeClassifier(Classifier):
    """Gini-criterion CART.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0); ``None`` grows until pure.
    min_samples_split / min_samples_leaf:
        Pre-pruning thresholds in *row counts* (not weight).
    max_features:
        Number of features considered per split: ``None`` (all),
        ``"sqrt"``, or an integer.  Random subsets are drawn per node
        with ``random_state``.
    """

    def __init__(
        self,
        max_depth: int | None = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # -- training ------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
        n_classes: int | None = None,
        root_sort_cache: dict | None = None,
        column_plan: "_ColumnPlan | None" = None,
    ) -> "DecisionTreeClassifier":
        """Train the tree.

        ``n_classes`` may widen the class space beyond ``max(y) + 1`` —
        ensemble methods (random forest bootstraps, AdaBoost rounds) use
        it so every tree emits probability vectors of the same width even
        when a resample misses a class.

        ``root_sort_cache`` shares the root split's per-feature stable
        argsorts between fits: entries map ``feature -> argsort`` of the
        exact training matrix passed here, filled lazily on first use.
        Callers must only reuse a cache across fits whose training
        matrices are value-identical row for row — then every cached
        order equals the argsort the root would recompute, so the fitted
        tree is bit-identical.  Child nodes sort their (weight-dependent)
        row subsets as before.

        ``column_plan`` is the :class:`_ColumnPlan` of this ``X``, built
        here when omitted; fits on one matrix (AdaBoost's rounds) share
        one, and with it its read-only root sorted blocks.
        """
        X, y, observed = check_fit_inputs(X, y)
        n_classes = observed if n_classes is None else max(int(n_classes), observed)
        self._begin_fit(n_classes)
        if sample_weight is None:
            sample_weight = np.ones(len(y), dtype=np.float64)
        else:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
            if sample_weight.shape != y.shape:
                raise ValueError("sample_weight shape must match y")
            if np.any(sample_weight < 0):
                raise ValueError("sample weights must be non-negative")
        self._root_sort_cache = root_sort_cache
        self._plan = _ColumnPlan(X) if column_plan is None else column_plan
        weighted_labels = sample_weight[:, None] * one_hot(y, n_classes)
        self._root = self._build(X, weighted_labels, depth=0)
        # the cache and plan are only valid for this fit's training
        # matrix; do not let them outlive the call through the fitted model
        self._root_sort_cache = None
        self._plan = None
        return self

    def _begin_fit(self, n_classes: int) -> None:
        """Reset the per-fit state: class width, rng, no cache or plan."""
        self.n_classes_ = n_classes
        self._rng = np.random.default_rng(self.random_state)
        self._root_sort_cache = None
        self._plan = None

    def _build(self, X: np.ndarray, wy: np.ndarray, depth: int) -> _Node:
        counts = wy.sum(axis=0)
        total = counts.sum()
        proba = counts / total if total > 0 else np.full(len(counts), 1.0 / len(counts))
        node = _Node(proba)

        n_samples = len(X)
        impurity = _gini(counts)
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or n_samples < self.min_samples_split
            or n_samples < 2 * self.min_samples_leaf
            or impurity <= _EPS
        ):
            return node

        split = self._best_split(
            X,
            wy,
            sort_cache=self._root_sort_cache if depth == 0 else None,
            counts=counts,
            impurity=impurity,
        )
        if split is None:
            return node

        feature, threshold = split
        left_mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[left_mask], wy[left_mask], depth + 1)
        node.right = self._build(X[~left_mask], wy[~left_mask], depth + 1)
        return node

    #: process-wide switch for the feature-vectorized split search;
    #: ``repro.core.runner.kernel_disabled`` flips it to time/verify the
    #: per-feature reference loop (the pre-kernel implementation)
    vectorized_split = True

    def _best_split(
        self,
        X: np.ndarray,
        wy: np.ndarray,
        sort_cache: dict | None,
        counts: np.ndarray,
        impurity: float,
    ) -> tuple[int, float] | None:
        """Best (feature, threshold) by weighted Gini gain, or ``None``.

        Dispatches to the feature-vectorized search; the per-feature
        loop survives as :meth:`_best_split_reference`, the executable
        spec the vectorized path is pinned against bit for bit (same
        discipline as the encoder's ``_transform_reference``).
        """
        if self.vectorized_split:
            return self._best_split_vectorized(
                X, wy, sort_cache, counts, impurity, self._plan
            )
        return self._best_split_reference(X, wy, sort_cache)

    def _best_split_reference(
        self, X: np.ndarray, wy: np.ndarray, sort_cache: dict | None = None
    ) -> tuple[int, float] | None:
        n_samples, n_features = X.shape
        candidates = self._candidate_features(n_features)

        counts = wy.sum(axis=0)
        total_weight = counts.sum()
        parent_impurity = _gini(counts)

        best_gain = _EPS
        best: tuple[int, float] | None = None
        for feature in candidates:
            order = self._feature_order(X, feature, sort_cache)
            sorted_x = X[order, feature]
            cum_wy = np.cumsum(wy[order], axis=0)

            # split between positions i-1 and i requires a value change
            boundary = np.nonzero(sorted_x[1:] > sorted_x[:-1] + _EPS)[0] + 1
            if len(boundary) == 0:
                continue
            leaf = self.min_samples_leaf
            boundary = boundary[(boundary >= leaf) & (boundary <= n_samples - leaf)]
            if len(boundary) == 0:
                continue

            left_counts = cum_wy[boundary - 1]
            right_counts = counts[None, :] - left_counts
            left_weight = left_counts.sum(axis=1)
            right_weight = right_counts.sum(axis=1)
            left_gini = _gini_rows(left_counts, left_weight)
            right_gini = _gini_rows(right_counts, right_weight)
            weighted = (left_weight * left_gini + right_weight * right_gini) / max(
                total_weight, _EPS
            )
            gains = parent_impurity - weighted

            pick = int(np.argmax(gains))
            if gains[pick] > best_gain:
                best_gain = float(gains[pick])
                position = boundary[pick]
                threshold = 0.5 * (sorted_x[position - 1] + sorted_x[position])
                best = (feature, float(threshold))
        return best

    def _best_split_vectorized(
        self,
        X: np.ndarray,
        wy: np.ndarray,
        sort_cache: dict | None = None,
        counts: np.ndarray | None = None,
        impurity: float | None = None,
        plan: "_ColumnPlan | None" = None,
    ) -> tuple[int, float] | None:
        """Score every candidate feature at once, split by column kind.

        The reference loop pays ~8 small numpy calls per feature per
        node; on wide one-hot matrices that Python overhead, not the
        sorting, dominates tree building.  This path scores candidate
        columns together, in two groups given by the fit's
        :class:`_ColumnPlan` (columns that can never split are skipped):

        * **Two-valued** columns (only the training ``lo``/``hi``) have
          one candidate boundary, so there is no sort.  Columns constant
          in this node, or whose ``lo`` count breaks
          ``min_samples_leaf``, are dropped first.  Under the
          reference's stable argsort the ``lo`` rows come first in index
          order, so its cumsum at the boundary is the sequential sum of
          ``wy`` over those rows: the last row of a cumsum over ``wy``
          masked to them, since adding exact zeros changes nothing.
          (A matmul, or a pairwise ``np.add.reduce`` along contiguous
          rows, adds in another order and would not be exact.)  The
          threshold is ``(lo + hi) / 2``, the reference's midpoint of
          the two sorted values.
        * **Other** columns are sorted and scored at every position on
          an ``(n_samples - 1, features)`` gain block; cumsums stay
          sequential per lane, and the first-maximum ``argmax`` is the
          reference's ascending scan.

        Every gain applies the reference's elementwise formula, and the
        first-maximum ``argmax`` over candidates reproduces its
        "strictly greater beats earlier feature" scan, so the chosen
        split is bit-identical; ``tests/test_tuning_kernel.py`` pins it
        on every node of real and adversarial trees.  Blocks are
        processed in feature chunks sized to keep the temporaries near
        :data:`_SPLIT_BLOCK_ELEMENTS`; per-feature gains are
        chunk-independent.

        ``counts``/``impurity`` (the node's class sums and Gini) and
        ``plan`` are computed here when the caller does not pass them.
        """
        n_samples, n_features = X.shape
        candidates = self._candidate_features(n_features)
        if counts is None:
            counts = wy.sum(axis=0)
        if impurity is None:
            impurity = _gini(counts)
        if plan is None:
            plan = _ColumnPlan(X)
        total_weight = max(counts.sum(), _EPS)

        best_gain = np.full(len(candidates), -np.inf)
        best_threshold = np.zeros(len(candidates))
        binary_at, dense_at = plan.kinds(candidates)
        chunk = max(1, _SPLIT_BLOCK_ELEMENTS // max(n_samples * wy.shape[1], 1))

        leaf = max(self.min_samples_leaf, 1)
        for start in range(0, len(binary_at), chunk):
            at = binary_at[start : start + chunk]
            features = candidates[at]
            is_lo = X[:, features] == plan.lo[features]
            n_lo = np.count_nonzero(is_lo, axis=0)
            keep = (n_lo >= leaf) & (n_lo <= n_samples - leaf)
            at, features, is_lo = at[keep], features[keep], is_lo[:, keep]
            left = np.cumsum(is_lo[:, :, None] * wy[:, None, :], axis=0)[-1]
            best_gain[at] = _gini_gains(left, counts, impurity, total_weight)
            best_threshold[at] = plan.threshold[features]

        if len(dense_at):
            position = np.arange(1, n_samples)
            bounds_ok = (position >= self.min_samples_leaf) & (
                position <= n_samples - self.min_samples_leaf
            )
        for start in range(0, len(dense_at), chunk):
            at = dense_at[start : start + chunk]
            orders, sorted_x, valid = plan.sorted_block(
                X, candidates[at], sort_cache
            )
            gains = _gini_gains(
                np.cumsum(wy[orders], axis=0)[:-1], counts, impurity, total_weight
            )
            gains[~(valid & bounds_ok[:, None])] = -np.inf
            best_gain[at], best_threshold[at] = _best_positions(gains, sorted_x)

        column = int(np.argmax(best_gain))
        if not best_gain[column] > _EPS:
            return None
        return (int(candidates[column]), float(best_threshold[column]))

    @staticmethod
    def _feature_order(
        X: np.ndarray, feature: int, sort_cache: dict | None
    ) -> np.ndarray:
        if sort_cache is None:
            return np.argsort(X[:, feature], kind="stable")
        order = sort_cache.get(int(feature))
        if order is None:
            order = np.argsort(X[:, feature], kind="stable")
            order.setflags(write=False)
            sort_cache[int(feature)] = order
        return order

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None:
            return np.arange(n_features)
        if self.max_features == "sqrt":
            k = max(1, int(np.sqrt(n_features)))
        else:
            k = max(1, min(int(self.max_features), n_features))
        if k >= n_features:
            return np.arange(n_features)
        return self._rng.choice(n_features, size=k, replace=False)

    # -- prediction -----------------------------------------------------------

    def predict_proba(
        self, X: np.ndarray, depth_limit: int | None = None
    ) -> np.ndarray:
        """Class probabilities; ``depth_limit`` truncates the routing.

        Every internal node stores the class distribution of its
        training subset (computed *before* the stopping checks), so
        emitting ``node.proba`` at depth ``d`` yields exactly the
        probabilities a tree fitted with ``max_depth=d`` — identical
        splits above ``d``, because the split search never consults the
        depth — would produce.  The tuning kernel uses this to serve
        every ``max_depth`` candidate from one deep tree.
        """
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((len(X), self.n_classes_))
        self._route(self._root, X, np.arange(len(X)), out, depth_limit, 0)
        return out

    def _route(
        self,
        node: _Node,
        X: np.ndarray,
        indices: np.ndarray,
        out: np.ndarray,
        depth_limit: int | None = None,
        depth: int = 0,
    ) -> None:
        if len(indices) == 0:
            return
        if node.feature is None or (
            depth_limit is not None and depth >= depth_limit
        ):
            out[indices] = node.proba
            return
        go_left = X[indices, node.feature] <= node.threshold
        self._route(node.left, X, indices[go_left], out, depth_limit, depth + 1)
        self._route(node.right, X, indices[~go_left], out, depth_limit, depth + 1)

    # -- introspection ----------------------------------------------------------

    def depth(self) -> int:
        """Actual depth of the fitted tree (leaf-only tree = 0)."""
        return _depth(self._root)

    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        return _leaves(self._root)

    def make_fold_workspace(self, X_train, y_train, X_val):
        return _TreeFoldWorkspace(X_train, y_train, X_val)


class _TreeFoldWorkspace(FoldWorkspace):
    """Depth candidates share one deep tree; the rest share root argsorts.

    CART's split search is depth-independent — ``max_depth`` only stops
    the recursion, and every node's class distribution is computed
    before the stopping checks — so the tree fitted with
    ``max_depth=d`` is exactly any deeper-fitted tree (same non-depth
    parameters) truncated at depth ``d``.  The workspace keeps the
    deepest tree fitted so far per group of non-depth parameters:
    candidates the stored tree covers are answered by depth-limited
    routing, bit-identical to the bounded refit; deeper candidates are
    fitted for real (sharing the fold's root argsorts) and become the
    new group tree.  Fit work is therefore never *more* than the naive
    path's — at worst (candidates arriving shallowest-first) it matches
    it, at best one fit serves the whole group.

    Candidates that subsample features (``max_features`` set) always
    take the real-refit fallback: feature subsampling consumes the
    per-node rng in build order, and a deeper recursion would shift the
    stream at the extra nodes.
    """

    def __init__(self, X_train, y_train, X_val) -> None:
        self.X_train = X_train
        self.y_train = y_train
        self.X_val = X_val
        self.root_orders: dict = {}
        #: (min_samples_split, min_samples_leaf) -> (built_depth, tree)
        self._deep_trees: dict[tuple, tuple[int | None, DecisionTreeClassifier]] = {}
        #: group key -> deepest max_depth any announced candidate requests
        self._group_depth: dict[tuple, int | None] = {}

    @staticmethod
    def _group_key(model) -> tuple:
        return (model.min_samples_split, model.min_samples_leaf)

    def prepare(self, models) -> None:
        """Record each group's deepest requested ``max_depth`` up front.

        Knowing the whole candidate list turns the per-group fit count
        from "one per depth record" (candidates arriving shallowest
        first refit repeatedly) into exactly one, built at the group
        maximum and truncated for everyone else.
        """
        for model in models:
            if model.max_features is not None:
                continue
            key = self._group_key(model)
            deepest = self._group_depth.get(key, 0)
            if deepest is None or model.max_depth is None:
                self._group_depth[key] = None
            else:
                self._group_depth[key] = max(deepest, model.max_depth)

    def predict_val(self, model) -> np.ndarray:
        if model.max_features is not None:
            model.fit(self.X_train, self.y_train, root_sort_cache=self.root_orders)
            return model.predict(self.X_val)
        key = self._group_key(model)
        entry = self._deep_trees.get(key)
        covered = entry is not None and (
            entry[0] is None
            or (model.max_depth is not None and model.max_depth <= entry[0])
        )
        if not covered:
            build_depth = model.max_depth
            if key in self._group_depth:
                announced = self._group_depth[key]
                if announced is None or (
                    build_depth is not None and announced > build_depth
                ):
                    build_depth = announced
            deep = model.clone(max_depth=build_depth)
            deep.fit(self.X_train, self.y_train, root_sort_cache=self.root_orders)
            entry = (build_depth, deep)
            self._deep_trees[key] = entry
        proba = entry[1].predict_proba(self.X_val, depth_limit=model.max_depth)
        return np.argmax(proba, axis=1)


class RootSortWorkspace(FoldWorkspace):
    """Shared root-split sort orders for the CART family's candidates.

    One lazily-filled cache dict rides through every candidate's
    ``fit(..., root_sort_cache=...)``: AdaBoost threads it
    (``feature -> argsort`` of the fold's training matrix) into every
    boosting round (all stumps fit the full matrix), XGBoost into every
    round and class.  Candidate hyper-parameters (depth, leaf sizes,
    learning rate, sample weights) never influence a root argsort, so
    reuse is bit-exact.  The random forest has no workspace: its
    lockstep engine sorts nothing per node, and each tree fits its own
    bootstrap matrix.
    """

    def __init__(self, X_train, y_train, X_val) -> None:
        self.X_train = X_train
        self.y_train = y_train
        self.X_val = X_val
        self.root_orders: dict = {}

    def predict_val(self, model) -> np.ndarray:
        model.fit(self.X_train, self.y_train, root_sort_cache=self.root_orders)
        return model.predict(self.X_val)


class _ColumnPlan:
    """How the split search treats each column of one training matrix.

    Built once per fit from the root matrix ``X`` and valid for every
    node of that fit, since a node's rows are a subset of the root's.
    With ``lo``/``hi`` the column minima/maxima:

    * a column is *dead* when ``hi <= lo + _EPS``: no two of its sorted
      values ever pass the reference's boundary test, so it never
      splits and is skipped;
    * *two-valued* (:attr:`binary`) when every value equals ``lo`` or
      ``hi``, as one-hot columns do: one candidate threshold
      ``(lo + hi) / 2`` in any node where it is not constant;
    * *dense* (:attr:`dense`) otherwise, including columns holding NaN.

    The dense columns' root block (stable orders, sorted values and the
    value-change mask) depends only on ``X``, so fits that share a plan
    (XGBoost's rounds and classes) also share it; its arrays are
    read-only.
    """

    _DEAD, _BINARY, _DENSE = 0, 1, 2

    def __init__(self, X: np.ndarray) -> None:
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        two_valued = ((X == lo) | (X == hi)).all(axis=0)
        kind = np.where(two_valued, self._BINARY, self._DENSE)
        kind[hi <= lo + _EPS] = self._DEAD
        self.kind = kind
        self.binary = np.flatnonzero(kind == self._BINARY)
        self.dense = np.flatnonzero(kind == self._DENSE)
        self.lo = lo
        self.threshold = 0.5 * (lo + hi)
        self._root_blocks: dict[bytes, tuple] = {}

    def kinds(self, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions in ``candidates`` of its two-valued and dense columns."""
        if len(candidates) == len(self.kind):  # every feature, in order
            return self.binary, self.dense
        kind = self.kind[candidates]
        return (
            np.flatnonzero(kind == self._BINARY),
            np.flatnonzero(kind == self._DENSE),
        )

    def sorted_block(
        self, X: np.ndarray, features: np.ndarray, sort_cache: dict | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(orders, sorted values, value-change mask) of ``X[:, features]``.

        ``sort_cache`` is passed at the root only (see
        :meth:`DecisionTreeClassifier.fit`): there the per-feature orders
        come from it, and the whole block is kept for the next fit that
        shares this plan.  Elsewhere the columns are argsorted.
        """
        if sort_cache is None:
            return _sorted_block(X, features, None)
        key = features.tobytes()
        block = self._root_blocks.get(key)
        if block is None:
            block = _sorted_block(X, features, sort_cache)
            for array in block:
                array.setflags(write=False)
            self._root_blocks[key] = block
        return block


def _sorted_block(
    X: np.ndarray, features: np.ndarray, sort_cache: dict | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    columns = X[:, features]
    if sort_cache is None:
        orders = np.argsort(columns, axis=0, kind="stable")
    else:
        orders = np.empty(columns.shape, dtype=np.intp)
        for lane, feature in enumerate(features):
            orders[:, lane] = DecisionTreeClassifier._feature_order(
                X, feature, sort_cache
            )
    sorted_x = columns[orders, np.arange(len(features))]
    # a split between positions i and i+1 requires a value change
    return orders, sorted_x, sorted_x[1:] > sorted_x[:-1] + _EPS


class _Pending:
    """A grown node awaiting its stopping checks and, unless a leaf, a search."""

    __slots__ = ("tree", "stack", "node", "rows", "counts", "impurity", "depth")


class _Lockstep:
    """Grows unweighted CART trees on one training matrix in lockstep.

    :meth:`DecisionTreeClassifier._build` searches one node at a time,
    paying about 70 small numpy calls per node; on the study's small
    matrices that overhead, not sorting, is the fit.  This engine grows
    many trees at once (a forest's trees) and pays those calls once per
    *step* instead.  Each step takes from every tree the next node that
    needs a search, in the recursion's depth-first order, so each tree
    draws its candidate features from its rng in the same order.  Every
    (node, candidate feature) pair of the step is a *lane*, and all
    lanes are scored in one flat pass:

    * two-valued lanes count the classes of their ``lo`` rows with one
      ``bincount``, with no sort;
    * dense lanes sort their rows by ``(lane, rank)`` keys over one
      per-column value rank of ``X``, and one ``cumsum`` over the whole
      step, minus each lane's base, gives the left-child counts at
      every position.

    Node rows are index arrays into ``X`` (a forest's roots are its
    bootstrap draws), so no tree copies its training matrix.  A node's
    children are recounted from the rows its threshold actually sends
    each way, as :meth:`DecisionTreeClassifier._build` does.

    The fitted trees are identical, node for node, to the ones the
    recursion builds, because in an unweighted fit every class sum is
    an integer held exactly in float64.  A left count at a boundary
    between distinct values is then the same number whatever order
    the rows were summed in, and however rows of equal value were
    ordered; each gain goes through the recursion's own elementwise
    formula (:func:`_gini_gains`), and each first-maximum pick follows
    its scan order.  Weighted fits keep :meth:`_best_split_vectorized`.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, n_classes: int) -> None:
        self.X = X
        self.y = y
        self.n_classes = n_classes
        self.plan = plan = _ColumnPlan(X)
        self.is_lo = X == plan.lo
        #: per-column dense rank of each value (equal values share one;
        #: every NaN gets its own, above all numbers), dense columns only
        self.rank = np.zeros(X.shape, dtype=np.int64)
        if len(plan.dense):
            columns = X[:, plan.dense]
            order = np.argsort(columns, axis=0, kind="stable")
            ordered = np.take_along_axis(columns, order, axis=0)
            rises = np.zeros(columns.shape, dtype=np.int64)
            rises[1:] = ordered[1:] != ordered[:-1]
            ranks = np.empty_like(rises)
            np.put_along_axis(ranks, order, np.cumsum(rises, axis=0), axis=0)
            self.rank[:, plan.dense] = ranks
        self.unit = np.eye(n_classes)

    def grow(self, trees: list, roots: list) -> None:
        """Fit ``trees`` on the row index arrays ``roots``.

        The trees share their hyper-parameters.
        """
        if not trees:
            return
        stacks: list[list[_Pending]] = [[] for _ in trees]
        for tree, stack, entry in zip(trees, stacks, self._open(roots)):
            tree._begin_fit(self.n_classes)
            entry.tree, entry.stack, entry.depth = tree, stack, 0
            tree._root = entry.node
            stack.append(entry)
        while True:
            step = self._next_step(stacks)
            if not step:
                return
            self._branch(step, self._search(step))

    def _open(self, rows: list) -> list[_Pending]:
        """Pending nodes on ``rows``, with the recursion's proba and Gini."""
        n_classes = self.n_classes
        sizes = [len(part) for part in rows]
        owner = np.repeat(np.arange(len(rows)), sizes)
        counts = np.bincount(
            owner * n_classes + self.y[np.concatenate(rows)],
            minlength=len(rows) * n_classes,
        ).reshape(len(rows), n_classes).astype(np.float64)
        total = counts.sum(axis=1, keepdims=True)
        empty = total[:, 0] <= 0
        proba = counts / np.where(empty[:, None], 1.0, total)
        proba[empty] = 1.0 / n_classes
        impurity = 1.0 - np.sum(proba**2, axis=1)
        impurity[empty] = 0.0
        opened = []
        for part, node_counts, node_proba, gini in zip(
            rows, counts, proba, impurity.tolist()
        ):
            entry = _Pending()
            entry.node = _Node(node_proba)
            entry.rows = part
            entry.counts = node_counts
            entry.impurity = gini
            opened.append(entry)
        return opened

    @staticmethod
    def _next_step(stacks: list) -> list[_Pending]:
        """Each tree's next node to search; leaves are resolved on the way."""
        step = []
        for stack in stacks:
            while stack:
                entry = stack.pop()
                tree = entry.tree
                n_samples = len(entry.rows)
                if (
                    (tree.max_depth is not None and entry.depth >= tree.max_depth)
                    or n_samples < tree.min_samples_split
                    or n_samples < 2 * tree.min_samples_leaf
                    or entry.impurity <= _EPS
                ):
                    continue
                step.append(entry)
                break
        return step

    def _search(self, step: list) -> list:
        """``(feature, threshold)`` or ``None`` for every node of a step.

        Draws each node's candidate features from its tree's rng, then
        scores every lane (node x candidate) of the step; the tests
        replay each node through :meth:`_best_split_reference` here.
        """
        n_features = self.X.shape[1]
        features = np.concatenate(
            [entry.tree._candidate_features(n_features) for entry in step]
        )
        per_node = len(features) // len(step)
        lanes = _Lanes(self, step, features, np.repeat(np.arange(len(step)), per_node))
        budget = max(_SPLIT_BLOCK_ELEMENTS // self.n_classes, 1)
        kind = self.plan.kind[features]
        for score, selected in (
            (lanes.score_two_valued, kind == _ColumnPlan._BINARY),
            (lanes.score_dense, kind == _ColumnPlan._DENSE),
        ):
            for chunk in _lane_chunks(np.flatnonzero(selected), lanes.sizes, budget):
                score(chunk)
        # each node's first best candidate, as the recursion's scan picks it
        picked = np.arange(len(step)) * per_node + np.argmax(
            lanes.gain.reshape(len(step), per_node), axis=1
        )
        return [
            (int(features[lane]), float(lanes.threshold[lane]))
            if lanes.gain[lane] > _EPS
            else None
            for lane in picked.tolist()
        ]

    def _branch(self, step: list, splits: list) -> None:
        """Give every split node its children and queue them depth-first."""
        chosen = [(entry, split) for entry, split in zip(step, splits) if split]
        if not chosen:
            return
        sizes = [len(entry.rows) for entry, _ in chosen]
        rows = np.concatenate([entry.rows for entry, _ in chosen])
        feature = np.repeat([split[0] for _, split in chosen], sizes)
        threshold = np.repeat([split[1] for _, split in chosen], sizes)
        side = np.repeat(np.arange(0, 2 * len(chosen), 2), sizes)
        goes_left = self.X[rows, feature] <= threshold
        side += np.logical_not(goes_left, out=goes_left)  # NaN goes right
        order = np.argsort(side, kind="stable")
        rows = rows[order]
        ends = np.cumsum(np.bincount(side, minlength=2 * len(chosen))).tolist()
        children = self._open(
            [rows[start:end] for start, end in zip([0] + ends[:-1], ends)]
        )
        for index, (entry, (feature, threshold)) in enumerate(chosen):
            left, right = children[2 * index], children[2 * index + 1]
            node = entry.node
            node.feature, node.threshold = feature, threshold
            node.left, node.right = left.node, right.node
            for child in (right, left):  # left is searched first
                child.tree, child.stack = entry.tree, entry.stack
                child.depth = entry.depth + 1
                entry.stack.append(child)


class _Lanes:
    """The (node, candidate feature) lanes of one lockstep step.

    Holds the step's rows, concatenated node after node, and fills the
    best gain and threshold of each lane (``-inf`` where a lane has no
    legal boundary).
    """

    def __init__(self, engine: _Lockstep, step: list, features, node) -> None:
        self.engine = engine
        self.features = features
        self.node = node
        node_sizes = np.array([len(entry.rows) for entry in step])
        self.rows = np.concatenate([entry.rows for entry in step])
        self.labels = engine.y[self.rows]
        #: per lane: where its node's rows start in ``rows``, and how many
        self.offsets = (np.cumsum(node_sizes) - node_sizes)[node]
        self.sizes = node_sizes[node]
        self.counts = np.array([entry.counts for entry in step])
        self.impurity = np.array([entry.impurity for entry in step])
        self.total = np.maximum(self.counts.sum(axis=1), _EPS)
        self.leaf = max(step[0].tree.min_samples_leaf, 1)
        self.gain = np.full(len(features), -np.inf)
        self.threshold = np.zeros(len(features))

    def _flatten(self, lanes: np.ndarray):
        """``lanes`` laid out row by row, lane after lane.

        Returns each row's position in ``self.rows`` and its lane's slot
        in ``lanes``, plus every lane's row count and first row.
        """
        sizes = self.sizes[lanes]
        ends = np.cumsum(sizes)
        starts = ends - sizes
        at = np.arange(ends[-1]) + np.repeat(self.offsets[lanes] - starts, sizes)
        return at, np.repeat(np.arange(len(lanes)), sizes), sizes, starts

    def _gains(self, left: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        node = self.node[lanes]
        return _gini_gains(
            left, self.counts[node], self.impurity[node], self.total[node]
        )

    def score_two_valued(self, lanes: np.ndarray) -> None:
        """Score two-valued lanes from the class counts of their ``lo`` rows."""
        engine = self.engine
        n_classes = engine.n_classes
        at, slot, sizes, _ = self._flatten(lanes)
        is_lo = engine.is_lo[self.rows[at], np.repeat(self.features[lanes], sizes)]
        left = np.bincount(
            slot[is_lo] * n_classes + self.labels[at[is_lo]],
            minlength=len(lanes) * n_classes,
        ).reshape(len(lanes), n_classes).astype(np.float64)
        n_lo = left.sum(axis=1)
        keep = n_lo >= self.leaf
        keep &= n_lo <= sizes - self.leaf
        lanes = lanes[keep]
        self.gain[lanes] = self._gains(left[keep], lanes)
        self.threshold[lanes] = engine.plan.threshold[self.features[lanes]]

    def score_dense(self, lanes: np.ndarray) -> None:
        """Score dense lanes at every boundary of their value-sorted rows."""
        engine = self.engine
        at, slot, sizes, starts = self._flatten(lanes)
        feature = np.repeat(self.features[lanes], sizes)
        rows = self.rows[at]
        order = np.argsort(
            slot * len(engine.X) + engine.rank[rows, feature], kind="stable"
        )
        rows, at = rows[order], at[order]
        values = engine.X[rows, feature]
        cumulative = np.cumsum(engine.unit[self.labels[at]], axis=0)
        # left size of the boundary after each row, and whether it is
        # legal; the size bound also rules out a lane's last row, whose
        # "next" value belongs to the following lane
        n_left = np.arange(1, len(rows) + 1) - np.repeat(starts, sizes)
        legal = n_left >= self.leaf
        legal &= n_left <= np.repeat(sizes - self.leaf, sizes)
        legal[:-1] &= values[1:] > values[:-1] + _EPS
        position = np.flatnonzero(legal)
        if not len(position):
            return
        base = cumulative[np.maximum(starts - 1, 0)]
        base[starts == 0] = 0.0
        owner = slot[position]
        gains = self._gains(cumulative[position] - base[owner], lanes[owner])
        first = _first_max_per_run(gains, owner)
        won = lanes[owner[first]]
        position = position[first]
        self.gain[won] = gains[first]
        self.threshold[won] = 0.5 * (values[position] + values[position + 1])


def _lane_chunks(lanes: np.ndarray, sizes: np.ndarray, budget: int):
    """Runs of ``lanes`` of at most ``budget`` rows (a longer lane alone)."""
    lengths = sizes[lanes].tolist()
    if sum(lengths) <= budget:
        if len(lanes):
            yield lanes
        return
    start, rows = 0, 0
    for index, length in enumerate(lengths):
        if index > start and rows + length > budget:
            yield lanes[start:index]
            start, rows = index, 0
        rows += length
    yield lanes[start:]


def _first_max_per_run(values: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Index of the first maximum of ``values`` within each run of ``runs``.

    ``runs`` is non-decreasing; the result follows its run order.
    """
    head = _run_heads(runs)
    peak = np.maximum.reduceat(values, head)
    hit = np.flatnonzero(values == np.repeat(peak, np.diff(np.append(head, len(values)))))
    return hit[_run_heads(runs[hit])]


def _run_heads(runs: np.ndarray) -> np.ndarray:
    """Positions where a run of the non-decreasing ``runs`` starts."""
    return np.append(0, np.flatnonzero(np.diff(runs)) + 1)


def _best_positions(
    gains: np.ndarray, sorted_x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane best gain of a position block and its midpoint threshold."""
    lanes = np.arange(gains.shape[1])
    at = np.argmax(gains, axis=0)
    return gains[at, lanes], 0.5 * (sorted_x[at, lanes] + sorted_x[at + 1, lanes])


def _gini_gains(
    left: np.ndarray,
    counts: np.ndarray,
    impurity: float | np.ndarray,
    total_weight: float | np.ndarray,
) -> np.ndarray:
    """Gini gain of splitting ``counts`` into ``left`` and the rest.

    ``left`` is any ``(..., classes)`` block of left-child class sums;
    both children go through one stacked :func:`_gini_rows` formula.
    ``impurity`` and ``total_weight`` (clamped to ``_EPS`` by the caller)
    are the node's, or one per row of ``left`` in the lockstep engine.
    """
    sides = np.stack((left, counts - left))
    weights = sides.sum(axis=-1)
    proportions = sides / np.maximum(weights, _EPS)[..., None]
    gini = 1.0 - np.sum(proportions**2, axis=-1)
    weighted = (weights[0] * gini[0] + weights[1] * gini[1]) / total_weight
    return impurity - weighted


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions**2))


def _gini_rows(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    safe = np.maximum(weights, _EPS)[:, None]
    proportions = counts / safe
    return 1.0 - np.sum(proportions**2, axis=1)


def _depth(node: _Node) -> int:
    if node.feature is None:
        return 0
    return 1 + max(_depth(node.left), _depth(node.right))


def _leaves(node: _Node) -> int:
    if node.feature is None:
        return 1
    return _leaves(node.left) + _leaves(node.right)
