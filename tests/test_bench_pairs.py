"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [0.074, 0.070, 0.071, 0.075, 0.073, 0.072, 0.070, 0.076, 0.071, 0.073]


def test_a_clear_gain_passes_the_nine_in_ten_rule():
    change = [0.053, 0.052, 0.054, 0.051, 0.053, 0.074, 0.052, 0.053, 0.055, 0.052]
    s = _tool().summarize(PARENT, change)
    assert s["change_better_in"] == 9  # pair 6 reads 0.074 against 0.072
    assert s["parent_median"] == pytest.approx(0.0725)
    assert (s["parent_q1"], s["parent_q3"]) == pytest.approx((0.071, 0.07375))
    assert s["parent_iqr"] == pytest.approx(0.00275)
    assert s["change_median"] == pytest.approx(0.053)
    assert (s["change_q1"], s["change_q3"]) == pytest.approx((0.052, 0.05375))
    assert s["nine_in_ten"]
    assert s["parent_runs"] == PARENT and s["change_runs"] == change


def test_eight_wins_or_a_gain_within_the_parent_spread_fail_it():
    tool = _tool()
    eight = [0.053, 0.052, 0.054, 0.051, 0.053, 0.074, 0.052, 0.080, 0.055, 0.052]
    s = tool.summarize(PARENT, eight)
    assert s["change_better_in"] == 8 and not s["nine_in_ten"]
    # better in every pair, but the medians differ by 0.002 < IQR 0.00275
    close = [x - 0.002 for x in PARENT]
    s = tool.summarize(PARENT, close)
    assert s["change_better_in"] == 10 and not s["nine_in_ten"]


def test_higher_is_better_and_a_single_pair():
    tool = _tool()
    s = tool.summarize([1.0, 2.0, 3.0], [2.0, 3.0, 2.5], better="higher")
    assert s["change_better_in"] == 2 and not s["nine_in_ten"]
    s = tool.summarize([1.0], [0.5])
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (1.0, 1.0, 1.0)
    assert s["change_better_in"] == 1 and s["nine_in_ten"]
    with pytest.raises(ValueError, match="one parent and one change run"):
        tool.summarize([1.0, 2.0], [1.0])
