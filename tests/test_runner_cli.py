"""Tests for the experiment runner CLI and the cheap end of its registry."""

import json
from pathlib import Path

import pytest

from repro.experiments import runner


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(runner.DEFAULT_ORDER) == set(runner.EXPERIMENTS)

    def test_expected_names(self):
        for name in ("table1", "table2", "fig3", "fig4", "fig5", "fig6",
                     "fig7", "table3", "table4", "overhead", "ablation",
                     "extensibility", "sensitivity", "robustness",
                     "recovery", "observability", "service_load",
                     "transport_load", "replay_gate"):
            assert name in runner.EXPERIMENTS

    def test_every_published_result_has_a_registered_experiment(self):
        """A deleted experiment must not leave its result file behind.
        ``kernel_speedups.json`` is written by ``benchmarks/``, not the
        runner."""
        results = Path(__file__).resolve().parents[1] / "results"
        names = {p.stem for p in results.glob("*.json")} - {"kernel_speedups"}
        assert names, "no published results found"
        assert names <= set(runner.EXPERIMENTS), names - set(runner.EXPERIMENTS)


class TestCli:
    def test_runs_single_experiment(self, capsys):
        assert runner.main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "SpGEMM" in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["figure99"])
        assert excinfo.value.code != 0

    def test_unknown_experiment_error_lists_choices(self, capsys):
        """The error names the offender AND every valid choice."""
        with pytest.raises(SystemExit):
            runner.main(["figure99"])
        err = capsys.readouterr().err
        assert "figure99" in err
        assert "valid choices" in err
        for name in runner.DEFAULT_ORDER:
            assert name in err

    def test_list_prints_registry_and_exits_zero(self, capsys):
        assert runner.main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == list(runner.DEFAULT_ORDER)
        assert "replay_gate" in lines

    def test_no_experiments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main([])
        assert excinfo.value.code != 0
        assert "--list" in capsys.readouterr().err

    def test_metrics_and_trace_out(self, tmp_path, capsys):
        from repro.core.telemetry import parse_exposition

        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.json"
        assert runner.main(
            ["table1", "--metrics-out", str(metrics), "--trace-out", str(trace)]
        ) == 0
        parsed = parse_exposition(metrics.read_text())
        assert len(parsed["types"]) >= 29
        data = json.loads(trace.read_text())
        assert "traceEvents" in data

    def test_json_export(self, tmp_path, capsys):
        assert runner.main(["table1", "--json", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "table1.json").read_text())
        assert "detected" in data

    def test_multiple_experiments(self, capsys):
        assert runner.main(["table1", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Figure 3" in out

    def test_seed_flag(self, capsys):
        assert runner.main(["table1", "--seed", "3"]) == 0


class TestPerExperimentOutputs:
    def test_suffixed_path(self):
        assert runner.suffixed_path("out/metrics.prom", "fig4") == "out/metrics-fig4.prom"
        assert runner.suffixed_path("trace.json", "table1") == "trace-table1.json"
        assert runner.suffixed_path("bare", "fig3") == "bare-fig3"

    def test_single_experiment_honors_exact_paths(self, tmp_path, capsys):
        """One experiment, one file: ``--metrics-out``/``--trace-out`` are
        used verbatim, never suffixed."""
        from repro.core.telemetry import parse_exposition

        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.json"
        assert runner.main(
            ["table1", "--metrics-out", str(metrics), "--trace-out", str(trace)]
        ) == 0
        assert metrics.exists() and trace.exists()
        assert not (tmp_path / "metrics-table1.prom").exists()
        assert not (tmp_path / "trace-table1.json").exists()
        parse_exposition(metrics.read_text())
        assert "traceEvents" in json.loads(trace.read_text())

    def test_single_experiment_honors_exact_paths_parallel(
        self, tmp_path, capsys
    ):
        """The ``--jobs`` path must pin the same exact-filename contract."""
        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.json"
        assert runner.main(
            ["table1", "--jobs", "2",
             "--metrics-out", str(metrics), "--trace-out", str(trace)]
        ) == 0
        assert metrics.exists() and trace.exists()
        assert not (tmp_path / "metrics-table1.prom").exists()
        assert not (tmp_path / "trace-table1.json").exists()

    def test_multi_experiment_suffixes_in_parallel_runs(
        self, tmp_path, capsys
    ):
        metrics = tmp_path / "metrics.prom"
        assert runner.main(
            ["table1", "fig3", "--jobs", "2", "--metrics-out", str(metrics)]
        ) == 0
        assert not metrics.exists()
        assert (tmp_path / "metrics-table1.prom").exists()
        assert (tmp_path / "metrics-fig3.prom").exists()

    def test_multi_experiment_outputs_one_file_each(self, tmp_path, capsys):
        """Several experiments must not overwrite one shared metrics/trace
        file: each gets its own suffixed pair."""
        from repro.core.telemetry import parse_exposition

        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.json"
        assert runner.main(
            ["table1", "fig3",
             "--metrics-out", str(metrics), "--trace-out", str(trace)]
        ) == 0
        assert not metrics.exists() and not trace.exists()
        for name in ("table1", "fig3"):
            m = tmp_path / f"metrics-{name}.prom"
            t = tmp_path / f"trace-{name}.json"
            assert m.exists() and t.exists()
            parse_exposition(m.read_text())  # raises on malformed output
            assert "traceEvents" in json.loads(t.read_text())


class TestParallelJobs:
    def test_jobs_json_byte_identical_to_sequential(self, tmp_path, capsys):
        """--jobs N must not change any result: same bytes on disk."""
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert runner.main(["table1", "fig3", "--json", str(seq)]) == 0
        assert runner.main(
            ["table1", "fig3", "--jobs", "2", "--json", str(par)]
        ) == 0
        for name in ("table1", "fig3"):
            assert (seq / f"{name}.json").read_bytes() == (
                par / f"{name}.json"
            ).read_bytes()

    def test_jobs_replays_experiment_output_in_order(self, capsys):
        assert runner.main(["table1", "fig3", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Figure 3" in out
        assert out.index("Table 1") < out.index("Figure 3")  # cheap-first

    def test_jobs_failure_isolation_and_payload(
        self, monkeypatch, tmp_path, capsys
    ):
        # relies on the fork start method propagating the monkeypatch into
        # pool workers (the default on Linux, where CI runs)
        def boom(ctx):
            raise RuntimeError("parallel boom")

        def ok(ctx):
            return {"fine": True}

        monkeypatch.setitem(runner.EXPERIMENTS, "table1", boom)
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3", ok)
        assert runner.main(
            ["table1", "fig3", "--jobs", "2", "--json", str(tmp_path)]
        ) == 1
        captured = capsys.readouterr()
        assert "table1 FAILED" in captured.out
        assert "FAILED experiments: table1" in captured.out
        assert "parallel boom" in captured.err  # traceback crossed the pool
        broken = json.loads((tmp_path / "table1.json").read_text())
        healthy = json.loads((tmp_path / "fig3.json").read_text())
        assert broken["failed"] is True
        assert broken["error_type"] == "RuntimeError"
        assert "parallel boom" in broken["traceback"]
        assert healthy == {"fine": True}

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            runner.main(["table1", "--jobs", "0"])


class TestFailureIsolation:
    def test_one_broken_experiment_does_not_stop_the_rest(
        self, monkeypatch, capsys
    ):
        def boom(ctx):
            raise RuntimeError("synthetic experiment failure")

        ran = []

        def ok(ctx):
            ran.append("ok")
            return {"fine": True}

        monkeypatch.setitem(runner.EXPERIMENTS, "table1", boom)
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3", ok)
        assert runner.main(["table1", "fig3"]) == 1
        captured = capsys.readouterr()
        assert "synthetic experiment failure" in captured.err  # traceback
        assert "table1 FAILED" in captured.out
        assert "FAILED experiments: table1" in captured.out
        assert ran == ["ok"]  # the healthy experiment still ran

    def test_failed_experiment_writes_failure_payload(self, monkeypatch, tmp_path):
        def boom(ctx):
            raise RuntimeError("nope")

        monkeypatch.setitem(runner.EXPERIMENTS, "table1", boom)
        assert runner.main(["table1", "--json", str(tmp_path)]) == 1
        data = json.loads((tmp_path / "table1.json").read_text())
        assert data["failed"] is True
        assert data["error_type"] == "RuntimeError"
        assert data["error"] == "nope"
        # the captured traceback is part of the payload, not just printed
        assert "RuntimeError: nope" in data["traceback"]
        assert "boom" in data["traceback"]

    def test_failure_payload_does_not_shadow_healthy_results(
        self, monkeypatch, tmp_path
    ):
        def boom(ctx):
            raise ValueError("broken")

        def ok(ctx):
            return {"fine": True}

        monkeypatch.setitem(runner.EXPERIMENTS, "table1", boom)
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3", ok)
        assert runner.main(["table1", "fig3", "--json", str(tmp_path)]) == 1
        broken = json.loads((tmp_path / "table1.json").read_text())
        healthy = json.loads((tmp_path / "fig3.json").read_text())
        assert broken["failed"] is True and broken["error_type"] == "ValueError"
        assert healthy == {"fine": True}
