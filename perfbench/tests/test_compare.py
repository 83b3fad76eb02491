"""The compare rule on synthetic samples."""

from compare import judge


def test_clear_win_is_improved():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    change = [v * 0.8 for v in parent]
    v = judge(parent, change, better="lower", bound=0.1)
    assert v.status == "improved"
    assert v.wins == 10 and v.delta < 0


def test_tie_is_unchanged():
    parent = [5.0] * 10
    v = judge(parent, list(parent), better="lower", bound=0.1)
    assert v.status == "unchanged"
    assert v.wins == v.losses == 0


def test_spread_wider_than_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [1.9, 1.1, 1.8, 1.2, 1.9, 1.1, 1.8, 1.2, 1.9, 1.1]
    assert judge(parent, change, better="lower", bound=0.1).status == "unresolved"


def test_regression_beyond_bound_is_worse():
    parent = [100.0 + i * 0.1 for i in range(10)]
    change = [v * 1.3 for v in parent]
    assert judge(parent, change, better="lower", bound=0.1).status == "worse"
    assert judge(change, parent, better="higher", bound=0.1).status == "worse"


def test_fewer_than_ten_pairs_is_unresolved():
    parent = [10.0] * 9
    change = [5.0] * 9
    assert judge(parent, change, better="lower", bound=0.1).status == "unresolved"


def test_win_without_gap_beyond_parent_iqr_is_not_improved():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [v - 0.5 for v in parent]
    assert judge(parent, change, better="lower", bound=0.5).status == "unchanged"


def test_per_layer_metrics_without_bound_use_the_win_rule_both_ways():
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [v * 2 for v in parent]
    assert judge(parent, change, better="lower", bound=None).status == "worse"
    assert judge(change, parent, better="lower", bound=None).status == "improved"
