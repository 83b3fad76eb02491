"""Published results must not depend on the CPython minor version.

From CPython 3.12 on, builtin ``sum`` over Python floats compensates
rounding (Neumaier), so a float ``sum`` on the results path gives other
bits than it did on 3.11.  The results path sums floats with
:func:`repro.common.seq_sum` instead.  These tests swap a Python model of
3.12's ``sum`` in for the builtin and rerun a small training corpus and a
pinned faulted 4-tier golden run; neither may move a bit.
"""

import builtins
import math

from repro.apps.codesamples import generate_corpus
from repro.common import seq_sum
from repro.core import api
from repro.core.correlation import generate_training_data
from repro.policies import registered_policies
from repro.sim import MachineModel, optane_hm_config
from tests.test_tiered_engine import GOLDEN, golden_run

_LONG = 2**63


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's builtin ``sum``, written in Python.

    An exact-``int`` prefix adds as integers.  Once the running total is
    an exact ``float``, exact ``float`` items go through Neumaier
    compensation and machine-sized ``int`` items add as floats; any other
    item folds the compensation in and the rest adds plainly.
    """
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, comp = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -_LONG <= item < _LONG:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in it:
        result = result + item
    return result


def test_emulation_compensates_like_312():
    tenths = [0.1] * 10
    assert compensated_sum(tenths) == 1.0
    assert seq_sum(tenths) == 0.9999999999999999
    assert compensated_sum([1, 2, True]) == 4
    assert type(compensated_sum([1, 2])) is int
    assert compensated_sum([]) == 0
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert math.isinf(compensated_sum([1e308, 1e308]))


def _corpus():
    return generate_training_data(
        MachineModel(),
        optane_hm_config(),
        samples=generate_corpus(40, seed=3),
        placements_per_sample=6,
        seed=0,
    )


def test_training_corpus_ignores_sum_compensation(monkeypatch):
    ref = _corpus()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    got = _corpus()
    assert got.X.tobytes() == ref.X.tobytes()
    assert got.y.tobytes() == ref.y.tobytes()


def test_faulted_golden_run_ignores_sum_compensation(monkeypatch):
    """The whole pipeline under 3.12's ``sum``: the memoised system is
    retrained, then the 4-tier chaos run must match its 3.11 golden."""
    spec = next(s for s in registered_policies(4) if s.name == "merchandiser")
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    monkeypatch.setattr(api, "_DEFAULT_CACHE", {})
    assert golden_run(spec, 4) == GOLDEN[("merchandiser", 4)]
