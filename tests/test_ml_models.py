"""Tests for the from-scratch statistical-learning substrate (repro.ml)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostedRegressor,
    KernelRidgeRegressor,
    KNeighborsRegressor,
    MLPRegressor,
    RandomForestRegressor,
    r2_score,
)


def regression_problem(n=400, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 5))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + X[:, 2] + noise * rng.normal(size=n)
    return X, y


ALL_MODELS = [
    ("DTR", lambda: DecisionTreeRegressor(max_depth=10)),
    ("RFR", lambda: RandomForestRegressor(n_estimators=10, rng=1)),
    ("GBR", lambda: GradientBoostedRegressor(n_estimators=80, rng=1)),
    ("KNR", lambda: KNeighborsRegressor(8)),
    ("SVR", lambda: KernelRidgeRegressor(alpha=0.5)),
    ("ANN", lambda: MLPRegressor(hidden_layers=(32, 8), epochs=60, rng=1)),
]


@pytest.mark.parametrize("name,factory", ALL_MODELS)
class TestAllModels:
    def test_learns_smooth_function(self, name, factory):
        X, y = regression_problem()
        model = factory()
        model.fit(X[:300], y[:300])
        score = r2_score(y[300:], model.predict(X[300:]))
        assert score > 0.5, f"{name} scored {score}"

    def test_predict_shape(self, name, factory):
        X, y = regression_problem(n=100)
        model = factory()
        model.fit(X, y)
        assert model.predict(X[:7]).shape == (7,)

    def test_single_row_predict(self, name, factory):
        X, y = regression_problem(n=100)
        model = factory()
        model.fit(X, y)
        out = model.predict(X[0])
        assert out.shape == (1,)

    def test_predict_before_fit_raises(self, name, factory):
        with pytest.raises(RuntimeError):
            factory().predict(np.zeros((1, 5)))

    def test_mismatched_xy_raises(self, name, factory):
        with pytest.raises(ValueError):
            factory().fit(np.zeros((10, 3)), np.zeros(7))


class TestDecisionTree:
    def test_fits_constant(self):
        X = np.zeros((20, 2))
        y = np.full(20, 3.5)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.predict(X) == pytest.approx(3.5)
        assert tree.n_nodes == 1  # no split possible on constant features

    def test_exact_on_separable_data(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        np.testing.assert_allclose(tree.predict(X), y)

    def test_max_depth_limits_tree(self):
        X, y = regression_problem(n=300)
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=10).fit(X, y)
        assert shallow.depth <= 2
        assert deep.n_nodes > shallow.n_nodes

    def test_min_samples_leaf(self):
        X, y = regression_problem(n=100)
        tree = DecisionTreeRegressor(min_samples_leaf=30).fit(X, y)
        leaves = [n for n in tree._nodes if n.feature < 0]
        assert all(leaf.n_samples >= 30 for leaf in leaves)

    def test_importances_normalised(self):
        X, y = regression_problem()
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)
        assert (tree.feature_importances_ >= 0).all()

    def test_irrelevant_features_low_importance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 4))
        y = 3 * X[:, 0]  # only feature 0 matters
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.feature_importances_[0] > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_predictions_within_target_range(self, seed):
        """Mean-leaf trees can never extrapolate beyond the target range."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        tree = DecisionTreeRegressor().fit(X, y)
        pred = tree.predict(rng.normal(size=(20, 3)))
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9


class TestForest:
    def test_averages_trees(self):
        X, y = regression_problem(n=200)
        forest = RandomForestRegressor(n_estimators=5, rng=0).fit(X, y)
        stacked = np.stack([t.predict(X[:10]) for t in forest.trees_])
        np.testing.assert_allclose(forest.predict(X[:10]), stacked.mean(axis=0))

    def test_importances_normalised(self):
        X, y = regression_problem()
        forest = RandomForestRegressor(n_estimators=5, rng=0).fit(X, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)

    def test_seed_reproducible(self):
        X, y = regression_problem()
        a = RandomForestRegressor(n_estimators=5, rng=7).fit(X, y).predict(X[:5])
        b = RandomForestRegressor(n_estimators=5, rng=7).fit(X, y).predict(X[:5])
        np.testing.assert_allclose(a, b)


class TestGBR:
    def test_loss_decreases(self):
        X, y = regression_problem()
        gbr = GradientBoostedRegressor(n_estimators=50, rng=0).fit(X, y)
        assert gbr.train_losses_[-1] < gbr.train_losses_[0]

    def test_more_stages_fit_better(self):
        X, y = regression_problem()
        few = GradientBoostedRegressor(n_estimators=5, rng=0).fit(X, y)
        many = GradientBoostedRegressor(n_estimators=100, rng=0).fit(X, y)
        assert r2_score(y, many.predict(X)) > r2_score(y, few.predict(X))

    def test_validation(self):
        with pytest.raises(ValueError):
            GradientBoostedRegressor(learning_rate=0)
        with pytest.raises(ValueError):
            GradientBoostedRegressor(subsample=1.5)


class TestKNN:
    def test_exact_on_training_point_distance_weighted(self):
        X = np.array([[0.0, 0], [10, 0], [0, 10], [10, 10]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        knn = KNeighborsRegressor(n_neighbors=2).fit(X, y)
        assert knn.predict(np.array([[0.0, 0]]))[0] == pytest.approx(1.0, abs=1e-6)

    def test_k_capped_at_sample_count(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 2.0])
        knn = KNeighborsRegressor(n_neighbors=50, weights="uniform").fit(X, y)
        assert knn.predict(np.array([[0.5]]))[0] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            KNeighborsRegressor(0)
        with pytest.raises(ValueError):
            KNeighborsRegressor(3, weights="cosine")


class TestKernelRidge:
    def test_interpolates_smooth_data(self):
        X = np.linspace(0, 6, 40)[:, None]
        y = np.sin(X).ravel()
        model = KernelRidgeRegressor(alpha=1e-4).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.99

    def test_alpha_regularises(self):
        X, y = regression_problem(n=150, noise=0.5)
        tight = KernelRidgeRegressor(alpha=1e-6).fit(X, y)
        loose = KernelRidgeRegressor(alpha=100.0).fit(X, y)
        # heavy regularisation shrinks predictions toward the mean
        assert np.std(loose.predict(X)) < np.std(tight.predict(X))

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelRidgeRegressor(alpha=0)


class TestMLP:
    def test_loss_curve_decreases(self):
        X, y = regression_problem(n=200)
        mlp = MLPRegressor(hidden_layers=(16,), epochs=40, rng=0).fit(X, y)
        assert mlp.loss_curve_[-1] < mlp.loss_curve_[0]

    def test_paper_architecture_accepted(self):
        MLPRegressor(hidden_layers=(200, 20), alpha=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPRegressor(hidden_layers=(0,))
        with pytest.raises(ValueError):
            MLPRegressor(epochs=0)


class TestPairwiseRanker:
    """The learning-to-rank kernel behind the ltr placement backend."""

    def _ranked_data(self, seed=0, n=40):
        from repro.common import make_rng

        rng = make_rng(seed)
        X = rng.normal(size=(n, 4))
        # relevance is a noisy linear function: learnable pairwise order
        rel = X @ np.array([2.0, -1.0, 0.5, 0.0]) + 0.05 * rng.normal(size=n)
        return X, rel

    def test_recovers_a_linear_order(self):
        from repro.ml.ranking import PairwiseRanker

        X, rel = self._ranked_data()
        r = PairwiseRanker(4, seed=3)
        r.fit_ordered(X, rel)
        order = r.rank(X)
        # top-ranked items should be high-relevance: rank correlation > 0.8
        ranks = np.empty(len(X))
        ranks[order] = np.arange(len(X))
        corr = np.corrcoef(-ranks, rel)[0, 1]
        assert corr > 0.8

    def test_deterministic_per_seed(self):
        from repro.ml.ranking import PairwiseRanker

        X, rel = self._ranked_data(seed=5)
        a = PairwiseRanker(4, seed=7)
        b = PairwiseRanker(4, seed=7)
        a.fit_ordered(X, rel)
        b.fit_ordered(X, rel)
        assert a.score(X).tobytes() == b.score(X).tobytes()

    def test_serialisation_roundtrip(self):
        import json

        from repro.ml.ranking import PairwiseRanker

        X, rel = self._ranked_data(seed=2)
        r = PairwiseRanker(4, seed=1)
        r.fit_ordered(X, rel)
        back = PairwiseRanker.from_jsonable(
            json.loads(json.dumps(r.to_jsonable()))
        )
        assert back.score(X).tobytes() == r.score(X).tobytes()
        assert list(back.rank(X)) == list(r.rank(X))

    def test_no_discriminative_pairs_raises(self):
        from repro.ml.ranking import PairwiseRanker

        X = np.ones((3, 4))
        with pytest.raises(ValueError):
            PairwiseRanker(4).fit_ordered(X, np.ones(3))

    def test_default_object_features_shape_and_clamp(self):
        from repro.ml.ranking import default_object_features

        f = default_object_features(1 << 20, 1e6, 1.7)
        assert len(f) == 4
        assert f[2] == 1.0  # hot fraction clamped into [0, 1]
        assert all(np.isfinite(f))
