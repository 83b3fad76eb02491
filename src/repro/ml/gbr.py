"""Gradient Boosted Regressor -- the model the paper selects for f(.).

Least-squares gradient boosting with shallow CART base learners
(Table 3: ``base_estimator='DTR'``), shrinkage and optional subsampling.
"""

from __future__ import annotations

import numpy as np

from repro.common import make_rng
from repro.ml.kernels import (
    ForestArrays,
    LeafMaskForest,
    forest_predict,
    pack_forest,
    pack_leaf_masks,
)
from repro.ml.tree import DecisionTreeRegressor, _fit_inputs

__all__ = ["GradientBoostedRegressor"]


class GradientBoostedRegressor:
    """Stagewise additive boosting of regression trees on L2 residuals."""

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.08,
        max_depth: int = 4,
        min_samples_leaf: int = 3,
        subsample: float = 0.9,
        rng=None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self._rng = make_rng(rng)
        self.init_: float = 0.0
        self.trees_: list[DecisionTreeRegressor] = []
        self.train_losses_: list[float] = []
        self.feature_importances_: np.ndarray | None = None
        self._forest: ForestArrays | None = None
        self._leaf_masks: LeafMaskForest | None = None

    def fit(self, X, y) -> "GradientBoostedRegressor":
        X, y, ranks = _fit_inputs(X, y)
        n = X.shape[0]
        self.init_ = float(y.mean())
        pred = np.full(n, self.init_)
        self.trees_ = []
        self.train_losses_ = []
        self._forest = None
        self._leaf_masks = None
        importances = np.zeros(X.shape[1])
        n_sub = max(2, int(round(self.subsample * n)))
        for _ in range(self.n_estimators):
            residual = y - pred
            if n_sub < n:
                idx = self._rng.choice(n, size=n_sub, replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                rng=self._rng,
            )
            tree._grow(X[idx], residual[idx], ranks[idx])
            self.trees_.append(tree)
            pred += self.learning_rate * tree.predict(X)
            importances += tree.feature_importances_
            self.train_losses_.append(float(np.mean((y - pred) ** 2)))
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def forest(self) -> ForestArrays:
        """Flat node arena over all boosted trees (PERFORMANCE.md).

        Packed lazily on first inference after a fit and reused until the
        next ``fit`` invalidates it, so repeated ``predict`` calls never
        touch the Python tree objects.
        """
        if not self.trees_:
            raise RuntimeError("model not fitted")
        if self._forest is None or self._forest.n_trees != len(self.trees_):
            self._forest = pack_forest(self.trees_)
        return self._forest

    def leaf_masks(self) -> LeafMaskForest:
        """Leaf-mask encoding of :meth:`forest` for tasks x grid inputs.

        The grid column is the last feature (``r_dram`` for f(.)).  Packed
        lazily and reused until the next ``fit``, like :meth:`forest`.
        """
        forest = self.forest()
        if self._leaf_masks is None or self._leaf_masks.n_trees != forest.n_trees:
            self._leaf_masks = pack_leaf_masks(
                forest, grid_feature=self.trees_[0].n_features_ - 1
            )
        return self._leaf_masks

    def predict(self, X) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("model not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        # the kernel replays the per-tree loop's tree-ordered accumulation
        # over a batched (n_trees, n_samples) leaf matrix -- bit-identical
        # by the float-ordering rules in PERFORMANCE.md
        return forest_predict(self.forest(), X, self.init_, self.learning_rate)

    def staged_r2(self, X, y) -> np.ndarray:
        """R-squared after each boosting stage (diagnostic)."""
        from repro.ml.metrics import r2_score

        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        pred = np.full(X.shape[0], self.init_)
        scores = np.empty(len(self.trees_))
        for i, tree in enumerate(self.trees_):
            pred += self.learning_rate * tree.predict(X)
            scores[i] = r2_score(y, pred)
        return scores
