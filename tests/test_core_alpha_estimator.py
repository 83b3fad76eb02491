"""Tests for alpha (Equation 1's caching parameter) and the estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import AccessPattern
from repro.core.alpha import (
    AlphaRefiner,
    AlphaTable,
    alpha_stencil_offline,
    alpha_stream_strided,
    line_accesses,
    round_to_line,
)
from repro.core.estimator import AccessEstimator, ObjectDescriptor


class TestRounding:
    def test_round_to_line(self):
        assert round_to_line(1) == 64
        assert round_to_line(64) == 64
        assert round_to_line(65) == 128

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            round_to_line(0)


class TestLineAccesses:
    def test_unit_stride(self):
        # 128 bytes of 4-byte ints at stride 1 -> 2 lines
        assert line_accesses(128, 4, 1) == 2

    def test_paper_example(self):
        """Section 4's worked example: S_base=128 B, S_new=192 B, ints."""
        assert line_accesses(128, 4, 1) == 2
        assert line_accesses(192, 4, 1) == 3

    def test_wide_stride_one_access_per_element(self):
        # stride 16 ints = 64 bytes: every touched element is its own line
        assert line_accesses(64 * 100, 4, 16) == 100


class TestAlphaStreamStrided:
    def test_paper_example_gives_one(self):
        """esti = 192/(128*alpha) * 2 must equal 3 -> alpha = 1."""
        assert alpha_stream_strided(128, 192, 4, 1) == pytest.approx(1.0)

    def test_equation1_roundtrip(self):
        """Using alpha in Equation 1 reproduces the exact line count."""
        s_base, s_new, esize, stride = 4096, 10240, 8, 4
        prof = line_accesses(s_base, esize, stride)
        a = alpha_stream_strided(s_base, s_new, esize, stride)
        esti = round_to_line(s_new) / (round_to_line(s_base) * a) * prof
        assert esti == pytest.approx(line_accesses(s_new, esize, stride))

    @given(
        s_base=st.integers(64, 1 << 20),
        s_new=st.integers(64, 1 << 20),
        esize=st.sampled_from([2, 4, 8]),
        stride=st.integers(1, 32),
    )
    @settings(max_examples=50, deadline=None)
    def test_alpha_positive_and_bounded(self, s_base, s_new, esize, stride):
        a = alpha_stream_strided(s_base, s_new, esize, stride)
        assert 0 < a < 100


class TestStencilAlpha:
    def test_program_over_counter_ratio(self):
        """A 3-point stencil touches each element 3 times at program level
        but the cache coalesces them to one pass: alpha ~ 3 * elements/line."""
        a = alpha_stencil_offline(taps=3, element_size=8)
        assert a == pytest.approx(3 * 8, rel=0.01)  # 8 doubles per line

    def test_more_taps_bigger_alpha(self):
        a3 = alpha_stencil_offline(3, 8)
        a7 = alpha_stencil_offline(7, 8)
        assert a7 > a3

    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_stencil_offline(taps=1, element_size=8)


class TestRefiner:
    def test_starts_at_one(self):
        assert AlphaRefiner().alpha == 1.0

    def test_converges_to_implied(self):
        """Repeated identical measurements drive alpha to the implied value."""
        ref = AlphaRefiner(eta=0.5)
        # measured = half of the naive estimate -> implied alpha = 2
        for _ in range(20):
            ref.update(s_base=100, s_new=100, prof_acc=1000, measured_acc=500)
        assert ref.alpha == pytest.approx(2.0, rel=0.01)

    def test_empty_measurement_ignored(self):
        ref = AlphaRefiner()
        ref.update(100, 100, 1000, 0)
        assert ref.alpha == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaRefiner(eta=0)
        with pytest.raises(ValueError):
            AlphaRefiner().implied_alpha(0, 10, 1, 1)


class TestAlphaTable:
    def test_dispatch_stream(self):
        table = AlphaTable()
        a = table.alpha("x", AccessPattern.STREAM, 128, 192, element_size=4)
        assert a == pytest.approx(1.0)

    def test_dispatch_random_uses_refiner(self):
        table = AlphaTable()
        assert table.alpha("x", AccessPattern.RANDOM, 100, 200) == 1.0
        table.refine("x", 100, 200, prof_acc=1000, measured_acc=4000)
        assert table.alpha("x", AccessPattern.RANDOM, 100, 200) != 1.0

    def test_refiners_are_per_object(self):
        table = AlphaTable()
        table.refine("x", 100, 200, 1000, 4000)
        assert table.alpha("y", AccessPattern.RANDOM, 100, 200) == 1.0

    def test_mean_alpha(self):
        table = AlphaTable()
        assert table.mean_alpha() == 1.0
        table.refine("x", 100, 100, 1000, 500)
        assert table.mean_alpha() > 1.0

    def test_stencil_microbench_cached(self):
        table = AlphaTable()
        a1 = table.stencil_microbench_alpha(5, 8)
        a2 = table.stencil_microbench_alpha(5, 8)
        assert a1 == a2


def make_estimator():
    desc = {
        "s": ObjectDescriptor("s", AccessPattern.STREAM, element_size=8),
        "r": ObjectDescriptor("r", AccessPattern.RANDOM),
    }
    est = AccessEstimator(desc)
    est.record_base_profile(
        sizes={"s": 1 << 20, "r": 1 << 20},
        counts={"s": 10_000, "r": 50_000},
    )
    return est


class TestAccessEstimator:
    def test_same_size_same_estimate(self):
        est = make_estimator()
        out = est.estimate({"s": 1 << 20, "r": 1 << 20})
        assert out["s"] == pytest.approx(10_000, rel=1e-6)
        assert out["r"] == pytest.approx(50_000, rel=1e-6)

    def test_stream_scales_with_size(self):
        est = make_estimator()
        out = est.estimate({"s": 2 << 20, "r": 1 << 20})
        assert out["s"] == pytest.approx(20_000, rel=1e-3)

    def test_total(self):
        est = make_estimator()
        assert est.estimate_total({"s": 1 << 20, "r": 1 << 20}) == pytest.approx(60_000, rel=1e-6)

    def test_requires_base_profile(self):
        est = AccessEstimator({"x": ObjectDescriptor("x", AccessPattern.STREAM)})
        with pytest.raises(RuntimeError):
            est.estimate({"x": 100})

    def test_unknown_profiled_object_rejected(self):
        est = AccessEstimator({"x": ObjectDescriptor("x", AccessPattern.STREAM)})
        with pytest.raises(KeyError):
            est.record_base_profile({"y": 10}, {"y": 5})

    def test_refinement_improves_random_estimate(self):
        est = make_estimator()
        # truth: random accesses do NOT grow with size (alpha should learn 2x)
        for _ in range(12):
            est.refine({"s": 2 << 20, "r": 2 << 20}, {"r": 50_000})
        out = est.estimate({"s": 2 << 20, "r": 2 << 20})
        assert out["r"] == pytest.approx(50_000, rel=0.1)

    def test_refine_ignores_stream_objects(self):
        est = make_estimator()
        est.refine({"s": 2 << 20}, {"s": 123.0})
        out = est.estimate({"s": 2 << 20, "r": 1 << 20})
        assert out["s"] == pytest.approx(20_000, rel=1e-3)
