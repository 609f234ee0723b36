"""Tests for the summary of ``tools/bench_pairs.py`` on canned run records."""

import importlib
import os
import statistics

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")

METRICS = [{"name": "eval_s", "better": "lower"}, {"name": "map_rel", "better": "higher"}]


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)  # the tool imports its sibling modules
    return importlib.import_module("bench_pairs")


def run(eval_s, map_rel, raw=0.5):
    """A complete, correct run record as ``bench_record.run_once`` returns it."""
    return {
        "seed": 0, "returncode": 0, "correct": True, "attempted": 3, "failed": 0,
        "map": {"direct": raw}, "metrics": {"eval_s": eval_s, "map_rel": map_rel},
    }


def canned():
    return [
        {"parent": run(1.0, 0.5), "change": run(0.8, 0.5)},
        {"parent": run(1.2, 0.5), "change": run(0.9, 0.6)},
        {"parent": run(0.9, 0.5), "change": run(1.0, 0.5)},
        {"parent": run(1.1, 0.5), "change": run(0.7, 0.4)},
    ]


def test_summary_gives_quartiles_better_pairs_and_map_equality(bench_pairs):
    s = bench_pairs.summarize(canned(), METRICS)
    e, m = s["metrics"]["eval_s"], s["metrics"]["map_rel"]
    assert e["parent"] == pytest.approx((0.975, 1.05, 1.125))
    assert e["change"] == pytest.approx((0.775, 0.85, 0.925))
    assert e["relative"] == pytest.approx(0.85 / 1.05 - 1.0)
    # lower is better for a time, higher for an mAP; a tie is not better
    assert (e["better_pairs"], e["pairs"]) == (3, 4)
    assert (m["better_pairs"], m["pairs"]) == (1, 4)
    assert s["all_ok"] and s["map_equal"]
    text = bench_pairs.report(s)
    assert "1.05 [0.975, 1.125]" in text and "0.85 [0.775, 0.925]" in text and "-19.0%" in text
    # per pair: -20%, -25%, +11.1%, -36.4%, whose median is -22.5%
    assert e["per_pair"] == pytest.approx(statistics.median([0.8 / 1.0, 0.9 / 1.2, 1.0 / 0.9, 0.7 / 1.1]) - 1.0)
    assert "-22.5%" in text
    assert "3/4" in text and text.splitlines()[-1] == "every run ok: yes; every mAP equal run for run: yes"


def test_summary_flags_a_changed_map_and_a_failed_run(bench_pairs):
    pairs = canned()
    pairs[1]["change"]["map"] = {"direct": 0.5000001}
    s = bench_pairs.summarize(pairs, METRICS)
    assert s["all_ok"] and not s["map_equal"]
    pairs = canned()
    pairs[2]["change"] = {"seed": 0, "returncode": 1, "stderr": ["boom"]}
    s = bench_pairs.summarize(pairs, METRICS)
    assert not s["all_ok"] and not s["map_equal"]
    # the incomplete pair is left out of every metric
    assert s["metrics"]["eval_s"]["pairs"] == 3
    assert s["metrics"]["eval_s"]["parent"] == pytest.approx((1.05, 1.1, 1.15))
    assert bench_pairs.report(s).splitlines()[-1] == "every run ok: NO; every mAP equal run for run: NO"


def test_summary_of_one_pair_has_zero_spread(bench_pairs):
    s = bench_pairs.summarize(canned()[:1], METRICS)
    assert s["metrics"]["eval_s"]["parent"] == (1.0, 1.0, 1.0)
    assert s["metrics"]["eval_s"]["change"] == (0.8, 0.8, 0.8)
    assert s["metrics"]["eval_s"]["better_pairs"] == 1
    assert s["metrics"]["eval_s"]["per_pair"] == pytest.approx(-0.2)


def test_per_pair_median_differs_from_the_change_of_medians(bench_pairs):
    """One slow parent run and one slow change run in other pairs move the
    pooled medians, not the median of the per-pair changes."""
    pairs = [
        {"parent": run(1.0, 0.5), "change": run(1.02, 0.5)},
        {"parent": run(2.0, 0.5), "change": run(1.98, 0.5)},
        {"parent": run(1.0, 0.5), "change": run(2.0, 0.5)},
        {"parent": run(1.1, 0.5), "change": run(1.1, 0.5)},
        {"parent": run(0.9, 0.5), "change": run(0.9, 0.5)},
    ]
    s = bench_pairs.summarize(pairs, METRICS)
    e = s["metrics"]["eval_s"]
    assert e["relative"] == pytest.approx(1.1 / 1.0 - 1.0)  # +10% between the pooled medians
    assert e["per_pair"] == pytest.approx(0.0)  # the middle of +2%, -1%, +100%, 0%, 0%
    assert (e["better_pairs"], e["pairs"]) == (1, 5)
    line = next(x for x in bench_pairs.report(s).splitlines() if x.startswith("eval_s"))
    assert line.split()[-3:] == ["+10.0%", "+0.0%", "1/5"]
    zero = [{"parent": run(1.0, 0.0), "change": run(1.0, 0.1)}]
    assert bench_pairs.summarize(zero, METRICS)["metrics"]["map_rel"]["per_pair"] is None
    assert "n/a" in bench_pairs.report(bench_pairs.summarize(zero, METRICS))
