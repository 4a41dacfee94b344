"""tools/pairs.py's verdicts, on paired values made up by hand."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "pairs.py")
_spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [1000.0, 1010.0, 1020.0, 990.0, 1005.0, 1015.0, 995.0, 1000.0, 1010.0, 1012.0]


def test_quartiles_are_inclusive_and_take_one_value():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_iqr():
    lo, _, hi = pairs.quartiles(PARENT)
    assert (lo, hi) == (1000.0, 1011.5)
    s = pairs.summarize(PARENT, [v + 60.0 for v in PARENT], "higher", 0.15)
    assert (s["wins"], s["losses"], s["ties"], s["gain"], s["regression"]) == (10, 0, 0, True,
                                                                              "no")
    # nine wins and a tie still count; eight wins do not
    nine = [v + 60.0 for v in PARENT[:9]] + [PARENT[9]]
    s = pairs.summarize(PARENT, nine, "higher", 0.15)
    assert (s["wins"], s["ties"], s["gain"]) == (9, 1, True)
    eight = [v + 60.0 for v in PARENT[:8]] + [v - 1.0 for v in PARENT[8:]]
    assert not pairs.summarize(PARENT, eight, "higher", 0.15)["gain"]
    # every pair won, but the median moved by less than the parent's IQR
    assert not pairs.summarize(PARENT, [v + 5.0 for v in PARENT], "higher", 0.15)["gain"]


def test_gain_needs_ten_pairs():
    for n in (2, 9):
        s = pairs.summarize(PARENT[:n], [v + 60.0 for v in PARENT[:n]], "higher", 0.15)
        assert s["wins"] == n and not s["gain"]


def test_gain_needs_no_larger_share_of_failed_operations():
    change = [v + 60.0 for v in PARENT]
    assert pairs.summarize(PARENT, change, "higher", 0.15, shares=(0.01, 0.01))["gain"]
    assert not pairs.summarize(PARENT, change, "higher", 0.15, shares=(0.0, 0.001))["gain"]


def test_lower_is_better_and_the_bound_is_relative_to_the_parent_median():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.01, 0.99, 1.02, 0.98]
    s = pairs.summarize(parent, [v * 0.8 for v in parent], "lower", 0.15)
    assert s["gain"] and s["regression"] == "no" and s["relative"] == pytest.approx(-0.2)
    assert pairs.summarize(parent, [v * 1.1 for v in parent], "lower", 0.15)["regression"] \
        == "no"
    s = pairs.summarize(parent, [v * 1.2 for v in parent], "lower", 0.15)
    assert s["regression"] == "yes" and not s["gain"] and s["losses"] == 10


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # quartiles 0.9 and 1.1 around a median of 1.0: a spread of 0.2
    parent = [0.8, 0.9, 0.9, 0.9, 1.0, 1.0, 1.1, 1.1, 1.1, 1.2]
    for change in ([v * 1.01 for v in parent], [v * 0.5 for v in parent]):
        assert pairs.summarize(parent, change, "higher", 0.15)["regression"] == "unresolved"
        assert pairs.summarize(parent, change, "higher", 0.25)["regression"] != "unresolved"
    # unless every change run beats every parent run
    assert pairs.summarize(parent, [v + 0.5 for v in parent], "higher", 0.15)["regression"] \
        == "no"
    assert pairs.summarize(parent, [v - 0.5 for v in parent], "lower", 0.15)["regression"] \
        == "no"


def test_an_incorrect_run_stops_the_tool():
    line = {"correct": True, "attempted": 40, "failed": 1,
            "metrics": {"ops_per_s": {"value": 12.5, "unit": "1/s"}}}
    assert pairs.read_result("detail\n%s\n" % json.dumps(line), "run") == (
        {"ops_per_s": 12.5}, 1, 40)
    line["correct"] = False
    with pytest.raises(SystemExit, match="run: incorrect output"):
        pairs.read_result(json.dumps(line), "run")


def test_unpaired_values_are_refused():
    with pytest.raises(ValueError):
        pairs.summarize([1.0, 2.0], [1.0], "higher", 0.1)
    with pytest.raises(ValueError):
        pairs.summarize([], [], "higher", 0.1)
