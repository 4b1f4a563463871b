"""The summaries of tools/bench_record.py, on made-up result lines: no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def result(wall_s, peak_rss_mb, correct=True, failed=0):
    """One result line of perfbench/run.py, parsed."""
    return {"correct": correct, "attempted": 12, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}


def test_summarize_takes_median_and_quartiles_per_metric():
    runs = [result(w, m) for w, m in ((0.30, 50.0), (0.10, 52.0), (0.50, 48.0),
                                      (0.20, 49.0), (0.40, 51.0))]
    summary = bench_record.summarize(runs)
    assert summary["runs"] == 5 and summary["correct_runs"] == 5
    assert summary["attempted"] == 60 and summary["failed"] == 0
    assert summary["metrics"]["wall_s"] == {"unit": "s", "median": 0.30,
                                            "q1": pytest.approx(0.20), "q3": pytest.approx(0.40)}
    assert summary["metrics"]["peak_rss_mb"] == {"unit": "MB", "median": 50.0,
                                                 "q1": 49.0, "q3": 51.0}


def test_summarize_counts_incorrect_runs_and_failed_operations():
    # an even count interpolates its median and quartiles between runs
    runs = [result(1.0, 10.0), result(2.0, 10.0, correct=False, failed=1)]
    summary = bench_record.summarize(runs)
    assert summary["correct_runs"] == 1 and summary["failed"] == 1
    assert summary["metrics"]["wall_s"]["median"] == 1.5
    assert summary["metrics"]["wall_s"]["q1"] == 1.25
    assert summary["metrics"]["wall_s"]["q3"] == 1.75


def test_summarize_rejects_no_runs():
    with pytest.raises(ValueError, match="no runs"):
        bench_record.summarize([])


def test_paired_summary_takes_each_side_and_the_per_pair_ratio():
    # five pairs; the change is faster in four and uses more memory in all
    parent = [result(w, 50.0) for w in (0.40, 0.20, 0.30, 0.50, 0.10)]
    change = [result(w, 51.0) for w in (0.20, 0.15, 0.15, 0.25, 0.10)]
    summary = bench_record.paired_summary(parent, change, {"wall_s": "lower"})
    assert summary["parent"] == summary["change"] == {"runs": 5, "correct_runs": 5,
                                                      "attempted": 60, "failed": 0}
    wall = summary["metrics"]["wall_s"]
    assert wall["unit"] == "s" and wall["pairs"] == 5
    assert wall["parent"] == {"median": 0.30, "q1": pytest.approx(0.20), "q3": 0.40}
    assert wall["change"] == {"median": 0.15, "q1": 0.15, "q3": 0.20}
    # ratios 0.5, 0.75, 0.5, 0.5, 1.0; a tie is no win
    assert wall["ratio"] == {"median": 0.5, "q1": 0.5, "q3": pytest.approx(0.75)}
    assert wall["change_won"] == 4
    rss = summary["metrics"]["peak_rss_mb"]  # lower is better by default
    assert rss["change_won"] == 0 and rss["ratio"]["median"] == pytest.approx(1.02)


def test_paired_summary_follows_the_better_direction_and_skips_zero_parents():
    parent = [result(0.0, 10.0), result(0.0, 20.0), result(0.0, 30.0)]
    change = [result(0.0, 12.0, correct=False, failed=2), result(0.0, 18.0), result(0.0, 33.0)]
    summary = bench_record.paired_summary(parent, change, {"peak_rss_mb": "higher"})
    assert summary["change"]["correct_runs"] == 2 and summary["change"]["failed"] == 2
    assert summary["metrics"]["peak_rss_mb"]["change_won"] == 2
    # a metric that reads 0 on the parent has no ratio, and no pair won
    assert summary["metrics"]["wall_s"]["ratio"] is None
    assert summary["metrics"]["wall_s"]["change_won"] == 0


def test_paired_summary_rejects_unpaired_runs():
    with pytest.raises(ValueError, match="as many"):
        bench_record.paired_summary([result(0.1, 1.0)], [], {})
    with pytest.raises(ValueError, match="as many"):
        bench_record.paired_summary([], [], {})


def test_paired_summary_gives_the_no_regression_verdict_within_the_bound():
    # bound 0.25 of the parent's median 0.40: a change median of 0.49 is
    # within it, 0.51 is not; the parent's spread, 0.05, is narrower
    parent = [result(w, 50.0) for w in (0.38, 0.40, 0.43, 0.39, 0.42)]
    bounds = {"wall_s": 0.25, "peak_rss_mb": 0.1}
    for change_median, within in ((0.49, True), (0.51, False)):
        change = [result(change_median + d, 50.0) for d in (-0.01, 0.0, 0.01, 0.0, 0.02)]
        wall = bench_record.paired_summary(parent, change, {}, bounds)["metrics"]["wall_s"]
        assert wall["bound"] == 0.25
        assert wall["within_bound"] is within and wall["unresolved"] is False
    # a metric without a bound gets no verdict
    summary = bench_record.paired_summary(parent, parent, {}, {"wall_s": 0.25})
    assert "within_bound" not in summary["metrics"]["peak_rss_mb"]
    assert "within_bound" not in bench_record.paired_summary(parent, parent, {})["metrics"]["wall_s"]


def test_paired_summary_marks_a_spread_wider_than_the_bound_unresolved():
    # the parent's quartiles 40 and 60 are 0.4 of its median 50, wider than
    # the bound 0.1; only a change whose every run beats every parent run
    # is resolved, in the metric's `better` direction
    parent = [result(0.1, m) for m in (30.0, 40.0, 50.0, 60.0, 70.0)]
    bounds = {"peak_rss_mb": 0.1}
    overlapping = [result(0.1, m) for m in (25.0, 35.0, 45.0, 55.0, 65.0)]
    below = [result(0.1, m) for m in (20.0, 22.0, 24.0, 26.0, 29.0)]
    above = [result(0.1, m) for m in (71.0, 75.0, 80.0, 85.0, 90.0)]
    for change, better, within, unresolved in ((overlapping, "lower", True, True),
                                               (below, "lower", True, False),
                                               (above, "lower", False, True),
                                               (above, "higher", True, False),
                                               (below, "higher", False, True)):
        rss = bench_record.paired_summary(parent, change, {"peak_rss_mb": better},
                                          bounds)["metrics"]["peak_rss_mb"]
        assert (rss["within_bound"], rss["unresolved"]) == (within, unresolved), (better, change)
