"""Random Forest regressor (Table 3's RFR: n_estimators=20, max_depth=10)."""

from __future__ import annotations

import numpy as np

from repro.common import make_rng
from repro.ml.tree import DecisionTreeRegressor, _fit_inputs

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor:
    """Bagged CART trees with per-split feature subsampling."""

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 10,
        min_samples_leaf: int = 1,
        max_features: int | float | None = 0.6,
        rng=None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = make_rng(rng)
        self.trees_: list[DecisionTreeRegressor] = []
        self.feature_importances_: np.ndarray | None = None

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y, ranks = _fit_inputs(X, y)
        n = X.shape[0]
        self.trees_ = []
        importances = np.zeros(X.shape[1])
        for _ in range(self.n_estimators):
            boot = self._rng.integers(0, n, size=n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=self._rng,
            )
            tree._grow(X[boot], y[boot], ranks[boot])
            self.trees_.append(tree)
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def predict(self, X) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("forest not fitted")
        preds = np.stack([t.predict(X) for t in self.trees_])
        return preds.mean(axis=0)
