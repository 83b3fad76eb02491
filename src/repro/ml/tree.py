"""CART regression trees with variance-reduction splits.

The tree is the workhorse of Table 3: the paper's best model (GBR) boosts
these, and the Random Forest bags them.  A fit first turns every column into
integer ranks (equal values share a rank), once per ensemble: the boosted and
bagged trees each take their rows of one rank matrix.  Each tree sorts its
rows by every feature's ranks once, stably, and splits those sorted row lists
down the recursion, so a node never sorts.  Split finding is one vectorised
pass per node over all candidate features at once: prefix sums of ``y`` and
``y**2`` along each feature's ordering give the SSE reduction of every
threshold a split can take, and only those positions -- a rank change with
``min_samples_leaf`` rows on each side -- are scored.

``X`` must not hold NaN (``fit`` raises ``ValueError``): NaN compares unequal
to itself, so no rank can stand for it.  ``±inf`` and ``-0.0`` rank like any
other value (``-0.0`` ties with ``0.0``), and thresholds are always the
midpoint of two float values of ``X``.  PERFORMANCE.md §4 rule 6 gives the
argument that the trees equal a per-node, per-feature float sort's.

Feature importance is the variance-reduction ("Gini") importance the paper
uses to select performance events (Section 5.1, citing Louppe et al.).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common import make_rng
from repro.ml.kernels import TreeArrays, pack_tree, tree_apply

__all__ = ["DecisionTreeRegressor"]


@dataclass
class _Node:
    feature: int = -1          # -1 => leaf
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0
    n_samples: int = 0


def _fit_inputs(X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check a training set and return ``(X, y, ranks)`` for the grow body.

    ``ranks[i, f]`` counts the distinct values of column ``f`` below
    ``X[i, f]``: it steps up exactly where the column's stable sort has a
    value ``!=`` its predecessor, the comparison the split search uses to
    call a threshold valid.  It is stored in the narrowest signed integer
    type that holds ``n`` (``int16`` for the f(.) training sets), which
    numpy sorts with a radix sort.  NaN in ``X`` raises ``ValueError``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y disagree on sample count")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on empty data")
    if np.isnan(X).any():
        raise ValueError("X holds NaN; tree fits need comparable features")
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.min_scalar_type(-X.shape[0]))
    np.not_equal(xs[1:], xs[:-1], out=steps[1:])
    sorted_ranks = np.cumsum(steps, axis=0, dtype=steps.dtype)
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, sorted_ranks, axis=0)
    return X, y, ranks


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    ranks: np.ndarray,
    rows: np.ndarray,
    features: np.ndarray,
    sse_node: float,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    """Return (feature, threshold, impurity_decrease) or (-1, 0, 0).

    ``rows[j]`` holds the node's rows stably sorted by ``features[j]``.
    Impurity decrease is measured as reduction of total SSE within the node,
    i.e. ``SSE(node) - SSE(left) - SSE(right)``.
    """
    m, n = rows.shape
    k = min_samples_leaf
    # a split after position p (left size p + 1) is valid only between
    # distinct feature values and with k rows on both sides; ``at`` lists
    # the valid (feature, position) cells of an (m, n) grid in
    # feature-then-position order
    rs = ranks.take(rows * ranks.shape[1] + features[:, None])
    valid = np.zeros((m, n), dtype=bool)
    np.not_equal(
        rs[:, k : n - k + 1], rs[:, k - 1 : n - k], out=valid[:, k - 1 : n - k]
    )
    at = np.flatnonzero(valid)
    if len(at) == 0:
        return (-1, 0.0, 0.0)
    # prefix sums of y and y*y along each feature's order: a cumsum along
    # the last axis adds in the same order as the 1-D cumsum would
    ys = y[rows]
    c1, c2 = np.cumsum(np.stack([ys, ys * ys]), axis=2).reshape(2, m * n)
    fi, pos = np.divmod(at, n)
    ends = at - pos + (n - 1)
    l1, l2 = c1[at], c2[at]
    r1, r2 = c1[ends] - l1, c2[ends] - l2
    counts = (pos + 1).astype(np.float64)
    sse_l = l2 - l1 * l1 / counts
    sse_r = r2 - r1 * r1 / (n - counts)
    gain = sse_node - (sse_l + sse_r)
    nan = np.isnan(gain)
    if nan.any():
        # a feature with a NaN gain has a NaN best and never wins
        gain[np.isin(fi, fi[nan])] = -np.inf
    # the first maximum in feature-then-position order is the first
    # feature's first position among those with the greatest gain, as when
    # features were scanned in turn and only a strictly greater gain
    # replaced the best; a gain that does not clear 1e-12 never wins
    best = int(np.argmax(gain))
    if not gain[best] > 1e-12:
        return (-1, 0.0, 0.0)
    j, p = fi[best], pos[best]
    f = int(features[j])
    threshold = 0.5 * (X[rows[j, p], f] + X[rows[j, p + 1], f])
    return (f, float(threshold), float(gain[best]))


class DecisionTreeRegressor:
    """CART regressor (mean-leaf, SSE splits).

    Parameters mirror scikit-learn where Table 3 sets them:
    ``max_depth=10`` is the paper's DTR configuration.
    """

    def __init__(
        self,
        max_depth: int = 10,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | None = None,
        rng=None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = make_rng(rng)
        self._nodes: list[_Node] = []
        self._arrays: TreeArrays | None = None
        self.n_features_: int | None = None
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _n_candidate_features(self, d: int) -> int:
        mf = self.max_features
        if mf is None:
            return d
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError("max_features fraction must be in (0, 1]")
            return max(1, int(round(mf * d)))
        return max(1, min(int(mf), d))

    def fit(self, X, y) -> "DecisionTreeRegressor":
        """Fit on ``X`` (n x d, no NaN: ``ValueError``) and targets ``y``."""
        return self._grow(*_fit_inputs(X, y))

    def _grow(
        self, X: np.ndarray, y: np.ndarray, ranks: np.ndarray
    ) -> "DecisionTreeRegressor":
        """Grow the tree on checked rows and their ``_fit_inputs`` ranks.

        The one grow body: ``fit`` and the boosted and bagged ensembles,
        which rank their whole training set once and pass each tree its
        rows of that matrix, all come here.
        """
        n, d = X.shape
        self.n_features_ = d
        self._nodes = []
        importances = np.zeros(d)
        n_cand = self._n_candidate_features(d)
        all_features = np.arange(d)
        min_split = max(self.min_samples_split, 2 * self.min_samples_leaf)
        # row -> goes-left flags shared by every split; a split writes and
        # reads only its own rows
        goes_left = np.zeros(n, dtype=bool)

        def build(idx: np.ndarray, order: np.ndarray, depth: int) -> int:
            node_id = len(self._nodes)
            size = len(idx)
            y_node = y[idx]
            mean = np.add.reduce(y_node) / size  # y_node.mean(), bit for bit
            node = _Node(value=float(mean), n_samples=size)
            self._nodes.append(node)
            if depth >= self.max_depth or size < min_split:
                return node_id
            # the candidate draw precedes the SSE check, so a pure node
            # still consumes the random stream
            if n_cand == d:
                features, rows = all_features, order
            else:
                features = self._rng.choice(d, size=n_cand, replace=False)
                rows = order[features]
            sse_node = float(np.sum((y_node - mean) ** 2))
            if sse_node <= 1e-18:
                return node_id
            f, thr, gain = _best_split(
                X, y, ranks, rows, features, sse_node, self.min_samples_leaf
            )
            if f < 0:
                return node_id
            mask = X[idx, f] <= thr
            left_idx, right_idx = idx[mask], idx[~mask]
            if len(left_idx) == 0 or len(right_idx) == 0:
                return node_id
            importances[f] += gain
            node.feature = f
            node.threshold = thr
            # split every feature's sorted row list stably in one pass
            goes_left[idx] = mask
            left = goes_left[order]
            left_order = order[left].reshape(d, len(left_idx))
            right_order = order[~left].reshape(d, len(right_idx))
            node.left = build(left_idx, left_order, depth + 1)
            node.right = build(right_idx, right_order, depth + 1)
            return node_id

        # each row of ``order`` lists the rows stably sorted by one feature's
        # ranks, which is their stable sort by value; restricted to a node's
        # ascending ``idx`` it is the node's own stable order, so no node
        # sorts again
        build(np.arange(n), np.argsort(ranks.T, axis=1, kind="stable"), 0)
        self._arrays = pack_tree(self._nodes)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    # ------------------------------------------------------------------
    def arrays(self) -> TreeArrays:
        """Struct-of-arrays encoding of the fitted tree (PERFORMANCE.md).

        Packed once at fit time; every inference call reuses it instead
        of re-walking the Python ``_Node`` list.
        """
        if self._arrays is None:
            if not self._nodes:
                raise RuntimeError("tree not fitted")
            # trees fitted before the arrays cache existed (e.g. unpickled
            # from an old artifact) pack lazily
            self._arrays = pack_tree(self._nodes)
        return self._arrays

    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        if not self._nodes:
            raise RuntimeError("tree not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features_:
            raise ValueError("feature-count mismatch")
        return tree_apply(self.arrays(), X)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def depth(self) -> int:
        if not self._nodes:
            return 0

        def d(i: int) -> int:
            nd = self._nodes[i]
            if nd.feature < 0:
                return 0
            return 1 + max(d(nd.left), d(nd.right))

        return d(0)
