"""Self-time arithmetic and patching of the span tracer."""

import pytest

from tracer import Span, Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    records = [
        (0, -1, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 6.0),
        (2, 1, "b", 2.0, 4.0),
        (3, 0, "c", 7.0, 9.0),
    ]
    out = self_times(records)
    assert out["root"] == (1, pytest.approx(10.0 - 5.0 - 2.0))
    assert out["a"] == (1, pytest.approx(5.0 - 2.0))
    assert out["b"] == (1, pytest.approx(2.0))
    assert out["c"] == (1, pytest.approx(2.0))
    # self times partition the root interval
    assert sum(s for _, s in out.values()) == pytest.approx(10.0)


def test_same_name_nested_spans_accumulate():
    records = [
        (0, -1, "f", 0.0, 4.0),
        (1, 0, "f", 1.0, 2.0),
        (2, 1, "g", 1.25, 1.75),
    ]
    assert self_times(records)["f"] == (2, pytest.approx(3.0 + 0.5))


def test_wrap_records_parent_ids_and_sums_results():
    ticks = iter(range(100))
    tracer = Tracer(spans=(), clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda n: n, sums_into="moved")
    outer = tracer.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 7
    names = [(r[2], r[1]) for r in tracer.records]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counts == {"moved": 7}
    calls, self_s = tracer.per_layer()["outer"]
    assert calls == 1 and self_s == pytest.approx(5.0 - 1.0 - 1.0)


def test_install_patches_every_binding_and_uninstall_restores():
    import repro.core.planner as planner
    import repro.core.runtime as runtime
    import repro.service.scheduler as scheduler
    from repro.sim.pages import PageTable

    original_plan = planner.greedy_plan
    original_method = PageTable.__dict__["access_fractions"]
    spans = (
        Span("plan", ("repro.core.planner:greedy_plan",), "", ""),
        Span("fractions", ("repro.sim.pages:PageTable.access_fractions",), "", ""),
        Span("train", ("repro.core.correlation:CorrelationFunction.train",), "", ""),
    )
    with Tracer(spans=spans):
        assert runtime.greedy_plan is scheduler.greedy_plan is planner.greedy_plan
        assert planner.greedy_plan.__wrapped__ is original_plan
        assert PageTable.__dict__["access_fractions"].__wrapped__ is original_method
        from repro.core.correlation import CorrelationFunction

        assert isinstance(CorrelationFunction.__dict__["train"], classmethod)
    assert planner.greedy_plan is original_plan
    assert runtime.greedy_plan is original_plan
    assert PageTable.__dict__["access_fractions"] is original_method
