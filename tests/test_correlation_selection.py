"""Tests for event selection in the correlation-function pipeline."""

import numpy as np
import pytest

from repro.apps.codesamples import generate_corpus
from repro.core.correlation import CorrelationFunction, generate_training_data
from repro.sim.counters import PMC_EVENTS
from repro.sim.machine import MachineModel
from repro.sim.memspec import optane_hm_config

HM = optane_hm_config()
MODEL = MachineModel()


@pytest.fixture(scope="module")
def data():
    samples = generate_corpus(30, seed=2)
    return generate_training_data(MODEL, HM, samples, placements_per_sample=6, seed=2)


class TestSelectEvents:
    def test_selects_requested_count(self, data):
        events, steps = CorrelationFunction.select_events(data, n_events=8, seed=0)
        assert len(events) == 8
        assert set(events) <= set(PMC_EVENTS)

    def test_r_dram_never_selected_out(self, data):
        _, steps = CorrelationFunction.select_events(data, n_events=4, seed=0)
        assert all("r_dram" in s.features for s in steps)

    def test_trace_is_monotone_in_feature_count(self, data):
        _, steps = CorrelationFunction.select_events(data, n_events=4, seed=0)
        counts = [len(s.features) for s in steps]
        assert counts == sorted(counts, reverse=True)

    def test_selected_model_trains(self, data):
        events, _ = CorrelationFunction.select_events(data, n_events=6, seed=0)
        corr = CorrelationFunction.train(data, events=events, seed=0)
        assert corr.events == tuple(events)
        pmcs = {e: 1.0 for e in events}
        assert 0.05 <= corr.predict_stacked([pmcs], [0.4])[0, 0] <= 5.0

    def test_predict_stacked_validates(self, data):
        corr = CorrelationFunction.train(data, seed=0)
        pmcs = {e: 1.0 for e in corr.events}
        with pytest.raises(ValueError):
            corr.predict_stacked([pmcs], np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError):
            corr.predict_stacked([pmcs], np.array([0.5, 1.4]))
        with pytest.raises(ValueError):
            corr.predict_stacked([pmcs], np.array([-0.1, 0.5]))


class TestCorpus:
    def test_corpus_size(self):
        assert len(generate_corpus(281, seed=0)) == 281

    def test_samples_cover_pattern_space(self):
        from repro.common import AccessPattern

        seen = set()
        for sample in generate_corpus(100, seed=0):
            for pattern, _, _ in sample.objects:
                seen.add(pattern)
        assert seen == set(AccessPattern)

    def test_footprint_scales(self):
        sample = generate_corpus(3, seed=1)[0]
        small = sample.footprint(0.5).total_accesses
        large = sample.footprint(2.0).total_accesses
        assert large == pytest.approx(4 * small, rel=0.01)

    def test_scale_validation(self):
        sample = generate_corpus(1, seed=0)[0]
        with pytest.raises(ValueError):
            sample.footprint(0)

    def test_object_names_unique_per_sample(self):
        corpus = generate_corpus(10, seed=0)
        names = [n for s in corpus for n in s.object_names]
        assert len(names) == len(set(names))
