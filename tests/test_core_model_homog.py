"""Tests for the homogeneous-memory predictor and the Equation-2 model."""

import numpy as np
import pytest

from repro.common import AccessPattern, make_rng
from repro.core.correlation import (
    CorrelationFunction,
    compare_models,
    generate_training_data,
    solve_f_target,
)
from repro.core.homogeneous import (
    BasicBlock,
    HomogeneousPredictor,
    input_similarity_scale,
)
from repro.core.model import PerformanceModel, TaskModelInputs
from repro.core.planner import greedy_plan
from repro.apps.codesamples import generate_corpus
from repro.sim.counters import collect_pmcs
from repro.sim.machine import MachineModel
from repro.sim.memspec import optane_hm_config
from repro.tasks import Footprint, ObjectAccess

HM = optane_hm_config()
MODEL = MachineModel()


class TestSimilarityScale:
    def test_identical_inputs(self):
        assert input_similarity_scale((2.0, 3.0), (2.0, 3.0)) == pytest.approx(1.0)

    def test_proportional_inputs(self):
        assert input_similarity_scale((1.0, 2.0), (2.0, 4.0)) == pytest.approx(2.0)

    def test_orthogonal_inputs(self):
        assert input_similarity_scale((1.0, 0.0), (0.0, 5.0)) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            input_similarity_scale((1.0,), (1.0, 2.0))
        with pytest.raises(ValueError):
            input_similarity_scale((0.0,), (1.0,))


def block(name="b", reads=100_000, instr=5_000_000):
    return BasicBlock(
        name=name,
        unit_footprint=Footprint(
            accesses=(ObjectAccess("x", AccessPattern.STREAM, reads=reads),),
            instructions=instr,
        ),
    )


class TestHomogeneousPredictor:
    def test_measure_and_predict(self):
        pred = HomogeneousPredictor(MODEL, HM)
        pred.measure_blocks([block()])
        pred.record_base("t", {"b": 3.0}, (10.0,))
        t_dram, t_pm = pred.predict("t", (10.0,))
        assert 0 < t_dram < t_pm

    def test_scaling_with_input(self):
        pred = HomogeneousPredictor(MODEL, HM)
        pred.measure_blocks([block()])
        pred.record_base("t", {"b": 1.0}, (10.0,))
        base = pred.predict("t", (10.0,))
        double = pred.predict("t", (20.0,))
        assert double[1] == pytest.approx(2 * base[1])

    def test_input_dependent_blocks_skipped(self):
        pred = HomogeneousPredictor(MODEL, HM)
        dyn = BasicBlock("dyn", block().unit_footprint, input_independent=False)
        pred.measure_blocks([dyn])
        assert not pred.has_block("dyn")

    def test_unknown_block_rejected(self):
        pred = HomogeneousPredictor(MODEL, HM)
        with pytest.raises(KeyError):
            pred.record_base("t", {"ghost": 1.0}, (1.0,))

    def test_unknown_task_rejected(self):
        pred = HomogeneousPredictor(MODEL, HM)
        with pytest.raises(KeyError):
            pred.predict("ghost", (1.0,))


class TestSolveF:
    def test_roundtrip(self):
        """Plugging the solved f back into Equation 2 returns t_hybrid."""
        t_pm, t_dram, r, t_hyb = 10.0, 4.0, 0.3, 7.0
        f = solve_f_target(t_hyb, t_pm, t_dram, r)
        reconstructed = t_pm * (1 - r) * f + t_dram * r
        assert reconstructed == pytest.approx(t_hyb)

    def test_endpoint_r0(self):
        assert solve_f_target(10.0, 10.0, 4.0, 0.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_f_target(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_f_target(1.0, 0.0, 1.0, 0.5)


@pytest.fixture(scope="module")
def small_training_data():
    samples = generate_corpus(25, seed=0)
    return generate_training_data(MODEL, HM, samples, placements_per_sample=6, seed=0)


class TestTrainingData:
    def test_shapes(self, small_training_data):
        data = small_training_data
        assert data.X.shape == (25 * 6, 21)
        assert data.y.shape == (150,)

    def test_r_column_in_range(self, small_training_data):
        r = small_training_data.X[:, -1]
        assert (r >= 0).all() and (r <= 1).all()

    def test_targets_positive(self, small_training_data):
        assert (small_training_data.y > 0).all()

    def test_restrict_events(self, small_training_data):
        sub = small_training_data.restrict_events(("IPC", "LLC_MPKI"))
        assert sub.X.shape[1] == 3  # two events + r_dram
        assert sub.feature_names == ("IPC", "LLC_MPKI", "r_dram")


class TestCorrelationFunction:
    def test_train_and_predict(self, small_training_data):
        corr = CorrelationFunction.train(small_training_data, seed=0)
        fp = generate_corpus(3, seed=5)[0].footprint()
        pmcs = collect_pmcs(fp, MODEL, HM, rng=make_rng(0))
        (val,) = corr.predict_stacked([pmcs], [0.5])[0]
        assert 0.05 <= val <= 5.0

    def test_predict_batch_matches_scalar(self, small_training_data):
        """A batch of ratios in one call gives the bits of one call per
        ratio."""
        corr = CorrelationFunction.train(small_training_data, seed=0)
        fp = generate_corpus(3, seed=5)[0].footprint()
        pmcs = collect_pmcs(fp, MODEL, HM, rng=make_rng(0))
        ratios = np.array([0.0, 0.3, 0.9])
        (batch,) = corr.predict_stacked([pmcs], ratios)
        scalar = [corr.predict_stacked([pmcs], [r])[0, 0] for r in ratios]
        assert batch.tobytes() == np.array(scalar).tobytes()

    def test_predict_validates_r(self, small_training_data):
        corr = CorrelationFunction.train(small_training_data, seed=0)
        pmcs = {e: 0.0 for e in corr.events}
        for bad in ([1.5], [-0.1], [[0.1, 0.2]]):
            with pytest.raises(ValueError):
                corr.predict_stacked([pmcs], bad)

    def test_model_zoo_runs(self, small_training_data):
        reports = compare_models(small_training_data, seed=0)
        names = {r.name for r in reports}
        assert names == {"DTR", "SVR", "KNR", "RFR", "GBR", "ANN"}
        best = max(reports, key=lambda r: r.r2)
        assert best.r2 > 0.5


@pytest.fixture(scope="module")
def perf_model(small_training_data):
    return PerformanceModel(CorrelationFunction.train(small_training_data, seed=0))


def task_inputs(seed=3):
    fp = generate_corpus(5, seed=seed)[2].footprint()
    t_dram, t_pm = MODEL.endpoint_times(fp, HM)
    return fp, TaskModelInputs(
        task_id="t",
        t_pm_only=t_pm,
        t_dram_only=t_dram,
        total_accesses=fp.total_accesses,
        pmcs=collect_pmcs(fp, MODEL, HM, rng=make_rng(1)),
    )


class TestPerformanceModel:
    def test_r1_is_dram_endpoint(self, perf_model):
        _, ti = task_inputs()
        assert perf_model.ratio_grids([ti], [1.0])["t"][0] == ti.t_dram_only

    def test_r0_close_to_pm(self, perf_model):
        _, ti = task_inputs()
        t_pm = perf_model.ratio_grids([ti], [0.0])["t"][0]
        assert t_pm == pytest.approx(ti.t_pm_only, rel=0.35)

    def test_tracks_ground_truth(self, perf_model):
        fp, ti = task_inputs()
        ratios = (0.2, 0.5, 0.8)
        for r, pred in zip(ratios, perf_model.ratio_grids([ti], ratios)["t"]):
            truth = MODEL.uniform_ratio_time(fp, HM, r)
            assert pred == pytest.approx(truth, rel=0.35)

    def test_accesses_form(self, perf_model):
        """Algorithm 1's ``Model(D_i, PCs_i, DRAM_Acc)``: a quota in DRAM
        accesses prices at ``r = DRAM_Acc / Total_Acc_i`` on the grid."""
        _, ti = task_inputs()
        plan = greedy_plan([ti], perf_model, 1 << 20, {"t": 4 << 20})
        (q,) = plan.quotas
        r = q.dram_accesses / ti.total_accesses
        assert 0.0 < r < 1.0
        (t_q,) = perf_model.ratio_grids([ti], [r])["t"]
        assert t_q == q.predicted_time_s

    def test_ratio_grid_matches_scalar(self, perf_model):
        _, ti = task_inputs()
        levels = np.array([0.0, 0.25, 0.5, 1.0])
        grid = perf_model.ratio_grids([ti], levels)["t"]
        scalar = [perf_model.ratio_grids([ti], [r])["t"][0] for r in levels]
        assert grid.tobytes() == np.array(scalar).tobytes()

    def test_validation(self, perf_model):
        _, ti = task_inputs()
        for bad in ([-0.1], [1.5], [[0.1, 0.2]]):
            with pytest.raises(ValueError):
                perf_model.ratio_grids([ti], bad)
        with pytest.raises(ValueError):
            TaskModelInputs("t", 0.0, 1.0, 1.0, {})
