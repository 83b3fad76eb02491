"""Tests for the extension modules: CXL config, throughput planner, export."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.common import PAGE_SIZE
from repro.core.model import PerformanceModel, TaskModelInputs
from repro.core.planner import greedy_plan, optimal_quotas, throughput_plan
from repro.experiments.export import to_jsonable, write_result
from repro.sim.memspec import cxl_hm_config, optane_hm_config
from tests.oracles.correlation import UnitCorrelation


class TestCxlConfig:
    def test_no_random_asymmetry(self):
        """CXL.mem adds the same hop to sequential and random access."""
        hm = cxl_hm_config()
        assert hm.pm.seq_read_latency_ns / hm.dram.seq_read_latency_ns == pytest.approx(2.2)
        assert hm.pm.rand_read_latency_ns / hm.dram.rand_read_latency_ns == pytest.approx(2.2)

    def test_symmetric_bandwidth_ratio(self):
        hm = cxl_hm_config()
        assert hm.dram.read_bandwidth / hm.pm.read_bandwidth == pytest.approx(2.0)
        assert hm.dram.write_bandwidth / hm.pm.write_bandwidth == pytest.approx(2.0)

    def test_milder_than_optane(self):
        cxl, opt = cxl_hm_config(), optane_hm_config()
        assert cxl.pm.rand_read_latency_ns < opt.pm.rand_read_latency_ns
        assert cxl.pm.read_bandwidth > opt.pm.read_bandwidth

    def test_slow_tier_keeps_canonical_name(self):
        # policies address tiers by name; the slow tier must stay "pm"
        hm = cxl_hm_config()
        assert hm.tier("pm") is hm.pm

    def test_validation(self):
        with pytest.raises(ValueError):
            cxl_hm_config(scale=-1)


MODEL = PerformanceModel(UnitCorrelation())
MB = 1 << 20


def task(tid, t_pm, t_dram, accesses=1_000_000):
    return TaskModelInputs(tid, t_pm, t_dram, accesses, {"E": 0.0})


class TestThroughputPlanner:
    def test_capacity_respected(self):
        tasks = [task(f"t{i}", 50.0 + i, 10.0) for i in range(5)]
        bytes_ = {t.task_id: 80 * MB for t in tasks}
        plan = throughput_plan(tasks, MODEL, 64 * MB, bytes_)
        assert plan.dram_pages_used <= 64 * MB // PAGE_SIZE

    def test_prefers_value_dense_tasks(self):
        """A short task with a huge per-page gain wins DRAM even though it
        is nowhere near the critical path -- the failure mode the
        load-balance objective exists to avoid."""
        sensitive_short = task("short", 20.0, 2.0)   # saves 18s
        insensitive_long = task("long", 50.0, 45.0)  # saves 5s
        bytes_ = {"short": 40 * MB, "long": 40 * MB}
        plan = throughput_plan(
            [sensitive_short, insensitive_long], MODEL, 40 * MB, bytes_
        )
        assert plan.quota("short").r_dram > plan.quota("long").r_dram
        # and its makespan is therefore worse than Algorithm 1's
        alg1 = greedy_plan(
            [sensitive_short, insensitive_long], MODEL, 40 * MB, bytes_
        )
        assert plan.predicted_makespan_s >= alg1.predicted_makespan_s - 1e-9

    def test_never_beats_optimal(self):
        tasks = [task(f"t{i}", 30.0 + 6 * i, 5.0 + i) for i in range(4)]
        bytes_ = {t.task_id: 50 * MB for t in tasks}
        tp = throughput_plan(tasks, MODEL, 70 * MB, bytes_)
        opt = optimal_quotas(tasks, MODEL, 70 * MB, bytes_)
        assert tp.predicted_makespan_s >= opt.predicted_makespan_s - 1e-9

    def test_abundant_capacity_floors_everyone(self):
        tasks = [task("a", 30.0, 10.0), task("b", 60.0, 12.0)]
        bytes_ = {"a": 10 * MB, "b": 10 * MB}
        plan = throughput_plan(tasks, MODEL, 1000 * MB, bytes_)
        assert plan.predicted_makespan_s == pytest.approx(12.0, rel=0.06)

    def test_validation(self):
        with pytest.raises(ValueError):
            throughput_plan([], MODEL, MB, {})


class TestExport:
    def test_numpy_conversion(self):
        data = {
            "arr": np.arange(3),
            "scalar": np.float64(1.5),
            ("a", "b"): {"nested": np.int64(7)},
            "tuple": (1, np.float32(2.0)),
        }
        out = to_jsonable(data)
        assert out["arr"] == [0, 1, 2]
        assert out["scalar"] == 1.5
        assert out["a|b"]["nested"] == 7
        json.dumps(out)  # round-trips

    def test_write_result(self, tmp_path):
        path = write_result(tmp_path, "demo", {"x": np.float64(3.0)})
        assert path == Path(tmp_path) / "demo.json"
        assert json.loads(path.read_text()) == {"x": 3.0}

    def test_write_creates_directory(self, tmp_path):
        path = write_result(tmp_path / "sub" / "dir", "demo", [1, 2])
        assert path.exists()
