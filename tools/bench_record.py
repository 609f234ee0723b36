"""Run the benchmark declared in BENCHMARK.json and record it as BENCH_<n>.json.

    python tools/bench_record.py N [--seeds 0 1 2] [--out DIR]

Run from the repository root of a clean checkout: it exits 1 without running
anything when a tracked file differs from HEAD, so the commit each run line
names is the code that was measured. For every workload in BENCHMARK.json
and every seed, in that order, it runs the benchmark command
(``perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace
0``) in its own subprocess and reads the last two lines it prints: the
``run`` line (environment, raw mAPs, timing samples) and the result object.
``BENCH_<N>.json`` (in ``--out``, default the repository root) then holds,
per workload, the environment of its first run, every run's seed, operation
counts, metrics and raw mAPs, and the median of each end-to-end metric over
the runs. Standard library only; exits 1 when a run fails or reports itself
incorrect, after writing the file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its seed, exit code, run line and result object."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    record = {"seed": seed, "returncode": done.returncode}
    if len(lines) >= 2 and lines[-2].startswith("run "):
        info, result = json.loads(lines[-2][len("run "):]), json.loads(lines[-1])
        record.update(
            env=info["env"],
            map=info["map"],
            correct=result["correct"],
            attempted=result["attempted"],
            failed=result["failed"],
            metrics={name: m["value"] for name, m in result["metrics"].items()},
        )
    else:
        record["stderr"] = done.stderr.strip().splitlines()[-5:]
    return record


def summarize(runs: list[dict], metric_names: list[str]) -> dict:
    """Environment of the first complete run, every run, and metric medians."""
    complete = [r for r in runs if "metrics" in r]
    env = dict(complete[0]["env"]) if complete else {}
    env.pop("seed", None)
    medians = {}
    for name in metric_names:
        values = [r["metrics"][name] for r in complete if name in r["metrics"]]
        if values:
            medians[name] = statistics.median(values)
    return {"env": env, "runs": [{k: v for k, v in r.items() if k != "env"} for r in runs], "median": medians}


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="tools/bench_record.py", description=__doc__.split("\n\n")[0])
    p.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--out", default=".", help="directory to write BENCH_<n>.json into")
    args = p.parse_args(argv)
    # the run line names HEAD as the measured commit, so measure only HEAD
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
    if status.returncode != 0 or status.stdout.strip():
        print("tools/bench_record.py: tracked files differ from HEAD (or git failed); commit first", file=sys.stderr)
        return 1
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    metric_names = [m["name"] for m in spec["end_to_end"]]
    record = {"bench": args.n, "command": spec["command"], "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            run = run_once(spec["command"], workload, seed, seconds)
            ok = ok and run["returncode"] == 0 and run.get("correct", False)
            print(f"{workload} seed {seed}: exit {run['returncode']}, metrics {run.get('metrics')}", file=sys.stderr)
            runs.append(run)
        record["workloads"][workload] = summarize(runs, metric_names)
    path = os.path.join(args.out, f"BENCH_{args.n}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
