"""Reference CART split search: one stable sort per node and feature.

``best_split`` and the ``build`` recursion inside ``fit`` are the split
search of ``DecisionTreeRegressor.fit`` as it stood before each tree
presorted its columns once.  Every node re-sorts the node's samples by
every candidate feature's float values and scans the prefix sums of that
one ordering at every position; candidate features are visited in turn,
and a later feature wins only on a strictly greater gain.  The production
fit must grow node-for-node the same trees and the same importances, bit
for bit.

The reference takes NaN in ``X`` (the production fit rejects it): its float
sort ties all NaNs, yet ``!=`` calls two adjacent NaNs a valid threshold.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from repro.ml.kernels import pack_tree
from repro.ml.tree import DecisionTreeRegressor, _Node

__all__ = ["best_split", "fit", "reference_tree_fit"]


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    features: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    """Return (feature, threshold, impurity_decrease) or (-1, 0, 0).

    Impurity decrease is measured as reduction of total SSE within the node,
    i.e. ``SSE(node) - SSE(left) - SSE(right)``.
    """
    n = len(idx)
    y_node = y[idx]
    sse_node = float(np.sum((y_node - y_node.mean()) ** 2))
    best = (-1, 0.0, 0.0)
    if sse_node <= 1e-18:
        return best
    best_gain = 1e-12
    for f in features:
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y_node[order]
        # candidate split after position i (1-based counts)
        c1 = np.cumsum(ys)
        c2 = np.cumsum(ys * ys)
        total1, total2 = c1[-1], c2[-1]
        counts = np.arange(1, n, dtype=np.float64)  # left sizes 1..n-1
        l1, l2 = c1[:-1], c2[:-1]
        r1, r2 = total1 - l1, total2 - l2
        sse_l = l2 - l1 * l1 / counts
        sse_r = r2 - r1 * r1 / (n - counts)
        gain = sse_node - (sse_l + sse_r)
        # a split is valid only between distinct feature values and with
        # enough samples on both sides
        valid = xs[1:] != xs[:-1]
        if min_samples_leaf > 1:
            k = min_samples_leaf
            valid = valid.copy()
            valid[: k - 1] = False
            if k > 1:
                valid[len(valid) - (k - 1):] = False
        gain = np.where(valid, gain, -np.inf)
        pos = int(np.argmax(gain))
        if gain[pos] > best_gain:
            best_gain = float(gain[pos])
            threshold = 0.5 * (xs[pos] + xs[pos + 1])
            best = (int(f), float(threshold), best_gain)
    return best


#: counts reference fits; ``reference_tree_fit`` hands each block a fresh one
_counter = SimpleNamespace(trees=0)


def fit(self: DecisionTreeRegressor, X, y) -> DecisionTreeRegressor:
    """``DecisionTreeRegressor.fit`` with the per-node, per-feature search."""
    _counter.trees += 1
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y disagree on sample count")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on empty data")
    n, d = X.shape
    self.n_features_ = d
    self._nodes = []
    importances = np.zeros(d)
    n_cand = self._n_candidate_features(d)

    def build(idx: np.ndarray, depth: int) -> int:
        node_id = len(self._nodes)
        node = _Node(value=float(y[idx].mean()), n_samples=len(idx))
        self._nodes.append(node)
        if (
            depth >= self.max_depth
            or len(idx) < self.min_samples_split
            or len(idx) < 2 * self.min_samples_leaf
        ):
            return node_id
        if n_cand == d:
            features = np.arange(d)
        else:
            features = self._rng.choice(d, size=n_cand, replace=False)
        f, thr, gain = best_split(X, y, idx, features, self.min_samples_leaf)
        if f < 0:
            return node_id
        mask = X[idx, f] <= thr
        left_idx, right_idx = idx[mask], idx[~mask]
        if len(left_idx) == 0 or len(right_idx) == 0:
            return node_id
        importances[f] += gain
        node.feature = f
        node.threshold = thr
        node.left = build(left_idx, depth + 1)
        node.right = build(right_idx, depth + 1)
        return node_id

    build(np.arange(n), 0)
    self._arrays = pack_tree(self._nodes)
    total = importances.sum()
    self.feature_importances_ = importances / total if total > 0 else importances
    return self


def _grow(self, X, y, ranks):
    """The production grow body's signature over the reference ``fit``; the
    ensembles' presorted ranks are ignored, and every node sorts anew."""
    return fit(self, X, y)


@contextmanager
def reference_tree_fit():
    """Fit every ``DecisionTreeRegressor`` -- standalone, boosted or bagged --
    with the reference ``fit`` for the length of a ``with`` block.

    A standalone tree enters through ``fit`` and the ensembles through the
    private grow body ``_grow``, so both are swapped.  The block receives a
    counter whose ``trees`` is the number of trees the reference has grown
    in it, so a differential test can check that it did not compare
    production with production.
    """
    global _counter
    production = DecisionTreeRegressor.fit, DecisionTreeRegressor._grow
    _counter = SimpleNamespace(trees=0)
    DecisionTreeRegressor.fit = fit
    DecisionTreeRegressor._grow = _grow
    try:
        yield _counter
    finally:
        DecisionTreeRegressor.fit, DecisionTreeRegressor._grow = production
        _counter = SimpleNamespace(trees=0)
