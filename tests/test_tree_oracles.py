"""Differential tests: CART split search vs tests/oracles/tree.

Every case fits the same seeded model twice, once with the production
``DecisionTreeRegressor.fit`` (one presort per tree, one vectorised split
pass per node) and once inside ``reference_tree_fit()`` (one stable sort
per node and feature), and requires identical bytes: every tree's pickled
node list and the model's ``feature_importances_``.
"""

import pickle

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostedRegressor,
    RandomForestRegressor,
)
from tests.oracles import tree as oracle


def _fingerprint(model) -> tuple[bytes, bytes, list[int]]:
    trees = getattr(model, "trees_", [model])
    return (
        pickle.dumps([t._nodes for t in trees]),
        model.feature_importances_.tobytes(),
        [t.n_nodes for t in trees],
    )


def _assert_identical(make, X, y):
    production = _fingerprint(make().fit(X, y))
    with oracle.reference_tree_fit():
        reference = _fingerprint(make().fit(X, y))
    assert production[2] == reference[2], "node counts differ"
    assert production == reference


def _counter_like(seed: int, n: int = 400, d: int = 21):
    """Counter-style features plus an ``r_dram``-like last column that takes
    only the 21 grid ratios, so most of its values tie; one column repeats
    another exactly, so two features always tie on gain."""
    rng = np.random.default_rng(seed)
    X = rng.lognormal(size=(n, d))
    X[:, 1] = np.round(X[:, 1], 1)
    X[:, 2] = rng.integers(0, 4, n)
    X[:, 7] = X[:, 0]
    X[:, -1] = rng.integers(0, 21, n) / 20.0
    y = (
        np.log(X[:, 0])
        + np.sin(3.0 * X[:, -1]) * X[:, 2]
        + 0.1 * rng.normal(size=n)
    )
    return X, y


@pytest.mark.parametrize("seed", [0, 1])
def test_gbr_subsampled_with_tied_ratio_column(seed):
    X, y = _counter_like(seed)
    _assert_identical(
        lambda: GradientBoostedRegressor(
            n_estimators=30, subsample=0.9, min_samples_leaf=3, rng=seed
        ),
        X,
        y,
    )


@pytest.mark.parametrize("max_features", [0.5, 3])
def test_rf_random_candidate_feature_order(max_features):
    X, y = _counter_like(2)
    _assert_identical(
        lambda: RandomForestRegressor(
            n_estimators=4, max_features=max_features, rng=3
        ),
        X,
        y,
    )


@pytest.mark.parametrize("min_samples_leaf", [1, 2, 5])
def test_dtr_min_samples_leaf(min_samples_leaf):
    X, y = _counter_like(4, n=300)
    _assert_identical(
        lambda: DecisionTreeRegressor(
            max_depth=12, min_samples_leaf=min_samples_leaf
        ),
        X,
        y,
    )


def test_dtr_integer_columns_and_tied_targets():
    rng = np.random.default_rng(5)
    X = rng.integers(0, 3, size=(250, 6)).astype(np.float64)
    y = np.round(X[:, 0] - X[:, 3] + rng.normal(size=250), 0)
    _assert_identical(lambda: DecisionTreeRegressor(max_depth=20), X, y)


def test_constant_columns():
    X, y = _counter_like(6, n=200, d=8)
    X[:, 0] = 1.5
    X[:, 4] = 0.0
    _assert_identical(lambda: DecisionTreeRegressor(), X, y)
    X[:] = 2.0
    model = DecisionTreeRegressor().fit(X, y)
    assert model.n_nodes == 1
    _assert_identical(lambda: DecisionTreeRegressor(), X, y)


def test_duplicate_rows():
    X, y = _counter_like(7, n=60, d=8)
    X = np.repeat(X, 3, axis=0)
    y = np.repeat(y, 3) + np.tile([0.0, 0.25, -0.25], 60)
    _assert_identical(
        lambda: DecisionTreeRegressor(max_depth=20, min_samples_leaf=2), X, y
    )


def test_single_feature():
    rng = np.random.default_rng(8)
    X = np.round(rng.normal(size=(150, 1)), 1)
    y = np.abs(X[:, 0]) + 0.05 * rng.normal(size=150)
    _assert_identical(lambda: DecisionTreeRegressor(max_depth=15), X, y)
    _assert_identical(
        lambda: RandomForestRegressor(n_estimators=3, max_features=1, rng=8),
        X,
        y,
    )


def test_nodes_of_size_two():
    # deep enough that the recursion bottoms out at two-row nodes
    rng = np.random.default_rng(9)
    X = rng.normal(size=(64, 3))
    y = rng.normal(size=64)
    _assert_identical(lambda: DecisionTreeRegressor(max_depth=30), X, y)
    assert any(
        nd.n_samples == 2 and nd.feature >= 0
        for nd in DecisionTreeRegressor(max_depth=30).fit(X, y)._nodes
    )
    _assert_identical(
        lambda: DecisionTreeRegressor(), np.array([[0.0], [1.0]]), [0.0, 1.0]
    )


def test_reference_fit_is_restored():
    production = DecisionTreeRegressor.fit
    with oracle.reference_tree_fit():
        assert DecisionTreeRegressor.fit is oracle.fit
    assert DecisionTreeRegressor.fit is production
