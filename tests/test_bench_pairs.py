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


BOUNDED = [{"name": "eval_s", "better": "lower", "bound": 0.25}, {"name": "map_rel", "better": "higher", "bound": 0.25}]


def shifted(by: list[float], map_rel=0.5) -> list[dict]:
    """Ten pairs: the parent's eval_s runs 1.00, 1.01, ..., 1.09 (quartiles
    1.0225 and 1.0675, so an interquartile range of 0.045), the change's
    each shifted by the matching entry of ``by``."""
    return [
        {"parent": run(1.0 + 0.01 * i, 0.5), "change": run(1.0 + 0.01 * i + d, map_rel)} for i, d in enumerate(by)
    ]


def verdict(bench_pairs, pairs, name="eval_s", metrics=BOUNDED) -> tuple[bool, bool | None, str]:
    s = bench_pairs.summarize(pairs, metrics)
    line = next(x for x in bench_pairs.report(s).splitlines() if x.startswith(f"verdict {name}:"))
    return s["metrics"][name]["claim"], s["metrics"][name]["beyond_bound"], line


def test_claim_verdict_needs_nine_of_ten_pairs_and_medians_apart_by_more_than_the_iqr(bench_pairs):
    claim, _, line = verdict(bench_pairs, shifted([-0.1] * 10))
    assert claim and line.startswith("verdict eval_s: gain claimable yes (10/10 pairs better, median moved -0.1,")
    assert "parent IQR 0.045)" in line
    # nine of ten is enough, eight is not; a tie counts for neither side
    assert verdict(bench_pairs, shifted([0.01] + [-0.1] * 9))[0]
    assert not verdict(bench_pairs, shifted([0.01, 0.0] + [-0.1] * 8))[0]
    # every pair better, but the medians only 0.02 apart: inside the parent's spread
    claim, _, line = verdict(bench_pairs, shifted([-0.02] * 10))
    assert not claim and "gain claimable no (10/10 pairs better" in line
    # a pair that did not complete is not a win
    pairs = shifted([-0.1] * 10)
    pairs[3]["change"] = {"seed": 0, "returncode": 1, "stderr": ["boom"]}
    assert verdict(bench_pairs, pairs)[0]
    pairs[4]["change"] = pairs[3]["change"]
    assert not verdict(bench_pairs, pairs)[0]
    # a higher-is-better metric must rise: 0.6 against 0.5 in every pair, the parent's spread 0
    assert verdict(bench_pairs, shifted([0.0] * 10, map_rel=0.6), "map_rel")[0]
    assert not verdict(bench_pairs, shifted([0.0] * 10, map_rel=0.4), "map_rel")[0]


def test_bound_verdict_compares_the_medians_with_the_metrics_bound(bench_pairs):
    # the parent's median eval_s is 1.045; a 25% bound allows up to 1.30625
    _, beyond, line = verdict(bench_pairs, shifted([0.3] * 10))
    assert beyond and line.endswith("worse than its bound of 25%: yes")
    _, beyond, line = verdict(bench_pairs, shifted([0.2] * 10))
    assert beyond is False and line.endswith("worse than its bound of 25%: no")
    assert verdict(bench_pairs, shifted([-0.3] * 10))[1] is False
    # for a higher-is-better metric, falling is worse: 0.5 -> 0.35 is -30%, 0.5 -> 0.65 is +30%
    assert verdict(bench_pairs, shifted([0.0] * 10, map_rel=0.35), "map_rel")[1]
    assert verdict(bench_pairs, shifted([0.0] * 10, map_rel=0.65), "map_rel")[1] is False
    # no bound given, or a parent median of 0: no verdict
    _, beyond, line = verdict(bench_pairs, shifted([0.3] * 10), metrics=METRICS)
    assert beyond is None and line.endswith("worse than its bound: n/a")
    zero = [{"parent": run(1.0, 0.0), "change": run(1.0, 0.1)}]
    assert verdict(bench_pairs, zero, "map_rel")[1] is None
    text = bench_pairs.report(bench_pairs.summarize(shifted([0.3] * 10), BOUNDED))
    assert text.splitlines()[-1] == "every run ok: yes; every mAP equal run for run: yes"


def test_an_empty_seed_range_is_refused_before_any_run(bench_pairs, monkeypatch, capsys):
    """``--seeds 5-3`` names no seed: a usage error, exit 2, and no run."""
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["parent", "change", "--workload", "default", "--seeds", "5-3"])
    assert info.value.code == 2
    assert "no seed in '5-3'" in capsys.readouterr().err
    assert bench_pairs.parse_seeds("3-5") == [3, 4, 5] and bench_pairs.parse_seeds("7,2") == [7, 2]
