"""Differential tests: CART split search vs tests/oracles/tree.

Every case fits the same seeded model twice, once with the production
fit (one integer rank matrix per ensemble, one presort per tree, one
vectorised split pass per node over the valid thresholds) and once inside
``reference_tree_fit()`` (one stable float sort per node and feature), and
requires identical bytes: every tree's pickled node list and the model's
``feature_importances_``.  Each case also checks that the reference grew
every tree of the model.
"""

import pickle

import numpy as np
import pytest

from repro.apps.codesamples import generate_corpus
from repro.common import make_rng
from repro.core.correlation import generate_training_data
from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostedRegressor,
    RandomForestRegressor,
)
from repro.ml.tree import _fit_inputs
from repro.sim import MachineModel, optane_hm_config
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
    with oracle.reference_tree_fit() as grown:
        reference = _fingerprint(make().fit(X, y))
    assert grown.trees == len(reference[2]), "the reference did not grow every tree"
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
    grow = DecisionTreeRegressor._grow
    with oracle.reference_tree_fit():
        assert DecisionTreeRegressor.fit is oracle.fit
        assert DecisionTreeRegressor._grow is not grow
    assert DecisionTreeRegressor.fit is production
    assert DecisionTreeRegressor._grow is grow


@pytest.fixture(scope="module")
def fast_corpus():
    """The training set ``Merchandiser.offline_setup(n_samples=80,
    placements_per_sample=8, seed=0)`` fits f(.) on: 640 rows x 21 columns,
    20 of which take one value per code sample."""
    rng = make_rng(0)
    data = generate_training_data(
        MachineModel(), optane_hm_config(), generate_corpus(80, seed=rng), 8, seed=rng
    )
    return data.X, data.y


def test_gbr_on_the_fast_training_corpus(fast_corpus):
    X, y = fast_corpus
    assert X.shape == (640, 21)
    _assert_identical(
        lambda: GradientBoostedRegressor(
            n_estimators=30, max_depth=4, min_samples_leaf=3, subsample=0.9, rng=0
        ),
        X,
        y,
    )


def _all_models(seed: int):
    return [
        lambda: DecisionTreeRegressor(max_depth=8, min_samples_leaf=2),
        lambda: RandomForestRegressor(n_estimators=6, max_features=0.5, rng=seed),
        lambda: GradientBoostedRegressor(n_estimators=8, subsample=0.8, rng=seed),
    ]


@pytest.mark.parametrize("target", ["nan", "inf", "-inf", "squares_overflow"])
def test_non_finite_target(target):
    """A NaN or +-inf target makes every gain of a node holding it NaN: no
    such node splits, while bootstrap trees that miss the row split as
    usual.  Targets whose squares overflow give inf and NaN gains too."""
    X, y = _counter_like(11, n=150, d=8)
    if target == "squares_overflow":
        y = 1e153 + 1e140 * y
    else:
        y[17] = float(target)
    with np.errstate(invalid="ignore", over="ignore"):
        for make in _all_models(11):
            _assert_identical(make, X, y)


def test_infinite_features_and_signed_zero_ties():
    """+-inf features rank like any value, and a threshold next to one is
    inf or NaN, so the node stays a leaf exactly as before; -0.0 ties with
    0.0 and the tied rows keep row order."""
    X, y = _counter_like(12, n=240, d=8)
    rng = np.random.default_rng(12)
    X[rng.choice(240, 30, replace=False), 0] = np.inf
    X[rng.choice(240, 30, replace=False), 0] = -np.inf
    X[:, 1] = rng.integers(-2, 3, 240) * 0.5
    X[rng.random(240) < 0.5, 1] *= -1.0  # half the zeros become -0.0
    X[:, 2] = np.where(rng.random(240) < 0.5, -0.0, 0.0)
    X[:5, 3] = np.inf
    assert np.signbit(X[:, 1][X[:, 1] == 0]).any()
    with np.errstate(invalid="ignore"):
        for make in _all_models(12):
            _assert_identical(make, X, y)
        _assert_identical(
            lambda: DecisionTreeRegressor(max_depth=6), X[:, [0]], y
        )


@pytest.mark.parametrize("n", [60, 640])
def test_rank_order_is_the_float_order(n):
    """For any row list -- a subsample in draw order, a bootstrap with
    repeats -- the stable sort of the rows' ranks is the stable sort of
    their values, and adjacent ranks differ exactly where values are !=."""
    rng = np.random.default_rng(n)
    X = np.round(rng.normal(size=(n, 5)), 1)
    X[rng.random(n) < 0.2, 1] = -0.0
    X[rng.random(n) < 0.1, 2] = np.inf
    X[rng.random(n) < 0.1, 2] = -np.inf
    X[:, 3] = 7.0
    _, _, ranks = _fit_inputs(X, np.zeros(n))
    assert ranks.dtype == (np.int8 if n < 128 else np.int16)
    for rows in (
        rng.choice(n, size=n * 9 // 10, replace=False),
        rng.integers(0, n, size=n),
    ):
        by_rank = np.argsort(ranks[rows], axis=0, kind="stable")
        by_value = np.argsort(X[rows], axis=0, kind="stable")
        assert np.array_equal(by_rank, by_value)
        xs = np.take_along_axis(X[rows], by_value, axis=0)
        rs = np.take_along_axis(ranks[rows], by_rank, axis=0)
        assert np.array_equal(rs[1:] != rs[:-1], xs[1:] != xs[:-1])


@pytest.mark.parametrize(
    "make",
    [
        DecisionTreeRegressor,
        lambda: GradientBoostedRegressor(n_estimators=3, rng=0),
        lambda: RandomForestRegressor(n_estimators=3, rng=0),
    ],
    ids=["dtr", "gbr", "rf"],
)
def test_nan_feature_is_rejected(make):
    """NaN has no rank (it is ``!=`` itself), so every fit rejects it rather
    than guess the float sort's order among NaNs."""
    X, y = _counter_like(13, n=50, d=8)
    X[7, 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        make().fit(X, y)
