"""The paired benchmark harness's summary of fixed runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_higher_is_better_metric():
    tool = load_tool()
    s = tool.summarize([100.0, 200.0, 100.0, 50.0, 100.0], [150.0, 300.0, 90.0, 100.0, 130.0], "higher")
    assert s["ratios"] == [1.5, 1.5, 0.9, 2.0, 1.3]
    assert s["ratio_quartiles"] == pytest.approx((1.3, 1.5, 1.5))
    assert (s["ref_median"], s["new_median"]) == (100.0, 130.0)
    assert s["wins"] == 4


def test_summary_of_lower_is_better_metric():
    tool = load_tool()
    s = tool.summarize([4.0, 2.0, 3.0, 5.0], [2.0, 2.0, 3.3, 2.5], "lower")
    assert s["ratios"] == pytest.approx([0.5, 1.0, 1.1, 0.5])
    # inclusive quartiles of (0.5, 0.5, 1.0, 1.1)
    assert s["ratio_quartiles"] == pytest.approx((0.5, 0.75, 1.025))
    assert s["wins"] == 2  # a tie is no win


def test_summary_of_one_pair_and_bad_input():
    tool = load_tool()
    assert tool.summarize([2.0], [3.0], "higher")["ratio_quartiles"] == (1.5, 1.5, 1.5)
    with pytest.raises(ValueError):
        tool.summarize([1.0, 2.0], [1.0], "higher")
    with pytest.raises(ValueError):
        tool.summarize([1.0], [1.0], "faster")
