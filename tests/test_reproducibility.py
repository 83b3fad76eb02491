"""Reproducibility guarantees: same seed, same numbers, everywhere.

The experiment record in EXPERIMENTS.md claims bit-for-bit reproducibility
at a fixed seed; these tests pin that property at every level of the stack.
"""

import numpy as np
import pytest

from repro.apps import SpGEMMApp
from repro.apps.codesamples import generate_corpus
from repro.baselines import MemoryOptimizerPolicy
from repro.core import Merchandiser, default_system
from repro.core.correlation import generate_training_data
from repro.sim import Engine, MachineModel, optane_hm_config
from repro.sim.counters import collect_pmcs
from repro.common import make_rng

HM = optane_hm_config()
MODEL = MachineModel()


class TestSeedStability:
    def test_corpus_deterministic(self):
        a = generate_corpus(10, seed=5)
        b = generate_corpus(10, seed=5)
        assert [s.objects for s in a] == [s.objects for s in b]

    def test_training_data_deterministic(self):
        samples = generate_corpus(8, seed=1)
        da = generate_training_data(MODEL, HM, samples, placements_per_sample=4, seed=1)
        db = generate_training_data(MODEL, HM, samples, placements_per_sample=4, seed=1)
        np.testing.assert_array_equal(da.X, db.X)
        np.testing.assert_array_equal(da.y, db.y)

    def test_offline_setup_deterministic_predictions(self):
        a = Merchandiser.offline_setup(
            n_samples=30, placements_per_sample=4, select_events=False, seed=4
        )
        b = Merchandiser.offline_setup(
            n_samples=30, placements_per_sample=4, select_events=False, seed=4
        )
        fp = generate_corpus(3, seed=9)[0].footprint()
        pmcs = collect_pmcs(fp, MODEL, HM, rng=make_rng(0))
        ratios = [0.0, 0.4, 1.0]
        assert (
            a.correlation.predict_stacked([pmcs], ratios).tobytes()
            == b.correlation.predict_stacked([pmcs], ratios).tobytes()
        )

    def test_default_system_memoised(self):
        assert default_system(seed=0, fast=True) is default_system(seed=0, fast=True)

    def test_full_run_bit_identical(self):
        app = SpGEMMApp.small(seed=0)
        wl = app.build_workload(seed=0)
        eng = Engine(MachineModel(), HM)
        system = default_system(seed=0, fast=True)

        def once():
            res = eng.run(wl, system.policy(app.binding(wl), seed=5), seed=1)
            return (res.total_time_s, res.pages_migrated, tuple(
                sorted(res.task_busy_times().items())
            ))

        assert once() == once()

    def test_baseline_run_bit_identical(self):
        app = SpGEMMApp.small(seed=0)
        wl = app.build_workload(seed=0)
        eng = Engine(MachineModel(), HM)

        def once(seed):
            res = eng.run(wl, MemoryOptimizerPolicy(seed=seed), seed=1)
            return (res.total_time_s, res.pages_migrated)

        assert once(3) == once(3)
        assert once(3) != once(4)  # and the seed genuinely matters

    def test_model_zoo_spawned_rngs_deterministic(self):
        """The zoo derives per-model generators via SeedSequence spawning;
        the same zoo seed must give bit-identical fits, a different seed a
        different one."""
        from repro.core.correlation import default_model_zoo

        rng = make_rng(0)
        X = rng.normal(size=(80, 5))
        y = X @ rng.normal(size=5) + rng.normal(scale=0.1, size=80)

        def fit_predict(seed):
            zoo = default_model_zoo(seed=seed)
            out = {}
            for name in ("RFR", "GBR"):  # the stochastic members
                factory, _ = zoo[name]
                model = factory()
                model.fit(X, y)
                out[name] = model.predict(X[:10])
            return out

        a, b, c = fit_predict(3), fit_predict(3), fit_predict(4)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert any(not np.array_equal(a[n], c[n]) for n in a)

    def test_spawn_rng_streams_independent(self):
        from repro.common import spawn_rng

        parent = make_rng(7)
        child_a = spawn_rng(parent)
        child_b = spawn_rng(parent)
        assert not np.array_equal(
            child_a.random(32), child_b.random(32)
        )
        # spawning must not be sensitive to parent draws interleaving
        p1, p2 = make_rng(9), make_rng(9)
        c1 = spawn_rng(p1)
        p2.random(100)
        c2 = spawn_rng(p2)
        np.testing.assert_array_equal(c1.random(16), c2.random(16))

    def test_no_wall_clock_in_virtual_time(self):
        """Virtual results cannot depend on how fast the host machine is:
        two runs give identical traces, tick for tick."""
        app = SpGEMMApp.small(seed=0)
        wl = app.build_workload(seed=0)
        eng = Engine(MachineModel(), HM)
        a = eng.run(wl, MemoryOptimizerPolicy(seed=2), seed=1)
        b = eng.run(wl, MemoryOptimizerPolicy(seed=2), seed=1)
        np.testing.assert_array_equal(a.trace_time, b.trace_time)
        np.testing.assert_array_equal(a.trace_pm_bw, b.trace_pm_bw)
