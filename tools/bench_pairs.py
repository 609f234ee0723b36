"""Run the benchmark on two source trees in alternating pairs and compare them.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--seeds 0-9]
        [--seconds S] [--out FILE]

PARENT_DIR and CHANGE_DIR are checkouts of the two trees (for example a
``git archive`` extract of the parent commit and a copy of the change's
tracked files). For each seed, the benchmark command of this repository's
BENCHMARK.json (``perfbench/run.py``) runs once in each tree through
``bench_record.run_once``; ``perfbench/run.py`` imports the ``src`` next to
it, so each run measures its own tree. The parent runs first on even seeds,
the change on odd seeds, so a drift in machine speed falls on both sides.
``--seeds`` takes a range (``0-9``) or a list (``0,3,7``); ``--seconds``
defaults to the ``run_seconds`` of BENCHMARK.json.

Every run is written to ``--out`` (default ``bench_pairs.json``) as it
finishes. Then it prints, per end-to-end metric of BENCHMARK.json: the
parent's and the change's median and quartiles, the change of the median,
the median over pairs of each pair's change (change / parent - 1), and in
how many pairs the change was better (by the metric's direction). The
per-pair median is the steadier one where a run measures a metric once
(``train_s``) or where a metric has modes that the seed does not fix.
Then two verdicts per metric: whether a gain may be claimed (the change
better in at least 9 of every 10 pairs run, ties counting for neither, and
the medians further apart than the parent's interquartile range), and
whether the change's median is worse than the parent's by more than the
metric's ``bound`` in BENCHMARK.json. A last line says whether every run
succeeded and whether every mAP was equal run for run. Standard library
only; exits 1 when a run failed or reported itself incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from bench_record import run_once
from claims import parse_seeds

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric, each side's quartiles over its complete runs, the median
    of the per-pair changes, the count of complete pairs in which the change
    was better, whether a gain may be claimed (``claim``) and whether the
    change's median is worse than the parent's by more than the metric's
    bound (``beyond_bound``, None without a bound or a parent median);
    whether every run completed correctly; whether every pair's raw mAPs
    were equal.

    ``pairs`` holds {"parent": run, "change": run} records of ``run_once``;
    ``end_to_end`` is BENCHMARK.json's list of {"name", "better"[, "bound"]}
    metrics, a bound being the largest relative worsening allowed.
    """
    complete = [p for p in pairs if all("metrics" in p[side] for side in SIDES)]
    metrics = {}
    for m in end_to_end:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in complete]
        if not both:
            continue
        parent, change = quartiles([a for a, _ in both]), quartiles([b for _, b in both])
        relative = change[1] / parent[1] - 1.0 if parent[1] else None
        better = sum(sign * (b - a) > 0.0 for a, b in both)
        metrics[name] = {
            "parent": parent,
            "change": change,
            "relative": relative,
            "per_pair": statistics.median(b / a - 1.0 for a, b in both) if all(a for a, _ in both) else None,
            "better_pairs": better,
            "pairs": len(both),
            # out of every pair run: an incomplete pair is not a win
            "claim": 10 * better >= 9 * len(pairs) and sign * (change[1] - parent[1]) > parent[2] - parent[0],
            "bound": m.get("bound"),
            "beyond_bound": None if relative is None or "bound" not in m else -sign * relative > m["bound"],
        }
    runs = [p[side] for p in pairs for side in SIDES]
    return {
        "metrics": metrics,
        "pairs_run": len(pairs),
        "all_ok": all(r["returncode"] == 0 and r.get("correct", False) for r in runs),
        "map_equal": bool(complete) and len(complete) == len(pairs)
        and all(p["parent"]["map"] == p["change"]["map"] for p in complete),
    }


def report(summary: dict) -> str:
    """The summary as aligned text lines."""
    row = "{:<24} {:>30} {:>30} {:>8} {:>8} {:>7}"
    lines = [row.format("metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "per pair", "better")]
    for name, m in summary["metrics"].items():
        parent, change = ("{1:.4g} [{0:.4g}, {2:.4g}]".format(*m[side]) for side in SIDES)
        rel, per_pair = ("n/a" if m[key] is None else f"{100.0 * m[key]:+.1f}%" for key in ("relative", "per_pair"))
        lines.append(row.format(name, parent, change, rel, per_pair, f"{m['better_pairs']}/{m['pairs']}"))
    yes_no = {None: "n/a", True: "yes", False: "no"}
    for name, m in summary["metrics"].items():
        (q1, median, q3), bound = m["parent"], "" if m["bound"] is None else f" of {100.0 * m['bound']:.0f}%"
        lines.append(
            f"verdict {name}: gain claimable {yes_no[m['claim']]} ({m['better_pairs']}/{summary['pairs_run']}"
            f" pairs better, median moved {m['change'][1] - median:+.4g}, parent IQR {q3 - q1:.4g});"
            f" worse than its bound{bound}: {yes_no[m['beyond_bound']]}"
        )
    lines.append(
        f"every run ok: {'yes' if summary['all_ok'] else 'NO'};"
        f" every mAP equal run for run: {'yes' if summary['map_equal'] else 'NO'}"
    )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="tools/bench_pairs.py", description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent tree")
    p.add_argument("change", help="checkout of the changed tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", type=parse_seeds)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--out", default="bench_pairs.json")
    args = p.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    trees = {"parent": args.parent, "change": args.change}
    record = {"workload": args.workload, "seconds": seconds, "seeds": args.seeds, "pairs": []}
    for seed in args.seeds:
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            # the command's script path is relative to a tree's root
            command = [spec["command"][0], *(os.path.join(trees[side], a) for a in spec["command"][1:])]
            pair[side] = run_once(command, args.workload, seed, seconds)
            print(f"seed {seed} {side}: exit {pair[side]['returncode']}", file=sys.stderr)
        record["pairs"].append(pair)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    summary = summarize(record["pairs"], spec["end_to_end"])
    print(report(summary))
    return 0 if summary["all_ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
