"""Measure the retrieval claims of the paper on the default synthetic world
of one source tree, per seed, and print them as a table.

    python tools/claims.py SRC [--seeds 0-9] [--record N]

SRC is the ``src`` directory of the tree to measure. ``--seeds`` takes a
range (``0-9``) or a list (``0,3,7``); the default is 0-9. ``--record N``
also writes ``CLAIMS_<N>.json`` into the current directory: the environment
(with the commit of the git checkout holding SRC), every seed's rows and
their medians. It refuses to run when a tracked file of that checkout
differs from its HEAD, so the commit it names is the code measured.

The measurement runs in one subprocess, ``python tools/claims.py --measure ...``, with
``PYTHONPATH=SRC`` and BLAS pinned to one thread, so its numbers are the
same on every run. For each seed it generates the default world, then:

- trains an ``s,o,p`` model (stage 1 only) and scores the held-out triplets
  directly: the baseline with no visual-phrase factor; it and an ``s,o``
  model (stage 1 only) also score the seen triplets, acceptance criterion
  6's ablation;
- trains the default model's stage 1, scores the seen (training) triplets
  directly, and scores the held-out triplets by transfer with Gamma
  ``absent``, which has no stage 2;
- copies that model for each Gamma of ``deep`` (raw and normalized
  aggregation), ``linear`` and ``zero`` (raw), trains its stage 2, and scores
  the held-out triplets by transfer; the raw deep copy also scores the
  held-out triplets directly and the seen triplets again.

The ``normalized`` row sets ``normalize_aggregation`` before stage 2, so it
holds wherever the tree reads the key: in eval only, or in stage 2 as well.
The last two lines give, per seed and as information, acceptance criterion
5's ordering, deep >= linear >= zero > absent, and criterion 6's, seen mAP
after stage 1 of s,o,p,vp >= s,o,p > s,o. Standard library only in this
process; the measuring process needs numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (row key, label), in table order
ROWS = (
    ("spo", "held-out, s+o+p only (no vp factor)"),
    ("direct", "held-out, direct vp, after stage 2"),
    ("deep", "held-out, transfer, Γ deep, raw sum (default)"),
    ("deep_norm", "held-out, transfer, Γ deep, normalized sum"),
    ("linear", "held-out, transfer, Γ linear, raw"),
    ("zero", "held-out, transfer, Γ zero, raw"),
    ("absent", "held-out, transfer, Γ absent, raw"),
)
SEEN = (
    ("seen_so", "seen triplets, s+o only, after stage 1"),
    ("seen_spo", "seen triplets, s+o+p only, after stage 1"),
    ("seen1", "seen triplets, direct, after stage 1"),
    ("seen2", "seen triplets, direct, after stage 2"),
)


def parse_seeds(text: str) -> list[int]:
    """``a-b`` (inclusive) or ``a,b,...``; a range that holds no seed is an error."""
    if "-" in text:
        first, _, last = text.partition("-")
        seeds = list(range(int(first), int(last) + 1))
    else:
        seeds = [int(s) for s in text.split(",")]
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seed in {text!r}")
    return seeds


def environment() -> dict:
    """Python, numpy, BLAS and thread settings of the measuring process."""
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def git(src: str, *args: str) -> str | None:
    """The stripped stdout of one git command in the checkout holding
    ``src``; None when git fails."""
    done = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def measure(seed: int) -> dict[str, float]:
    """Every row of the table for one seed (runs with relembed importable)."""
    import copy

    from relembed.analogy import gamma_init, train_stage2
    from relembed.config import RunConfig, validate
    from relembed.data import synth_generate, triplet_of
    from relembed.model import build_model, train_stage1
    from relembed.retrieval import MatchPolicy, evaluate_queries, mean_ap

    cfg = validate(RunConfig())
    train, test, table, heldout = synth_generate(cfg, seed)

    def score(model, queries, gamma=None):
        return mean_ap([r for *_, r in evaluate_queries(model, test, queries, MatchPolicy(0.5), gamma)])

    spo, so = (build_model(validate(RunConfig(branches=b)), train, table, seed) for b in ("s,o,p", "s,o"))
    model = build_model(cfg, train, table, seed)
    for stage1 in (spo, so, model):
        train_stage1(stage1, train, seed)
    seen = [triplet_of(model.dims, code) for code in model.observed.tolist()]
    out = {"spo": score(spo, heldout), "seen_so": score(so, seen), "seen_spo": score(spo, seen),
           "seen1": score(model, seen)}
    for key, kind, normalize in (("absent", "absent", False), ("deep", "deep", False),
                                 ("deep_norm", "deep", True), ("linear", "linear", False),
                                 ("zero", "zero", False)):
        trained = copy.deepcopy(model)
        trained.cfg.normalize_aggregation, trained.cfg.gamma = normalize, kind
        gamma = gamma_init(trained.cfg, seed)
        train_stage2(trained, gamma, train, seed)
        out[key] = score(trained, heldout, gamma)
        if key == "deep":
            out["direct"], out["seen2"] = score(trained, heldout), score(trained, seen)
    return out


def table(per_seed: dict[int, dict[str, float]]) -> str:
    seeds = sorted(per_seed)
    head = "| mAP | " + " | ".join(f"s{s}" for s in seeds) + " | median |"
    lines = [head, "|---" * (len(seeds) + 2) + "|"]
    for key, label in ROWS + SEEN:
        vals = [per_seed[s][key] for s in seeds]
        cells = " | ".join(f"{v:.3f}" for v in vals)
        lines.append(f"| {label} | {cells} | {statistics.median(vals):.3f} |")
    lines.append("")
    for name, holds in (
        ("criterion 5 ordering (deep >= linear >= zero > absent)",
         lambda m: m["deep"] >= m["linear"] >= m["zero"] > m["absent"]),
        ("criterion 6 ordering (s,o,p,vp >= s,o,p > s,o, seen, stage 1)",
         lambda m: m["seen1"] >= m["seen_spo"] > m["seen_so"]),
    ):
        order = ", ".join(f"s{s} {'holds' if holds(per_seed[s]) else 'fails'}" for s in seeds)
        lines.append(f"{name}: {order}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", nargs="?", help="the src directory of the tree to measure")
    p.add_argument("--seeds", default="0-9", type=parse_seeds)
    p.add_argument("--record", type=int, metavar="N", help="also write CLAIMS_<N>.json")
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps({"env": environment()}), flush=True)
        for seed in args.seeds:
            print(json.dumps({"seed": seed, **measure(seed)}), flush=True)
        return 0
    if not args.src:
        p.error("SRC is required")
    commit = None
    if args.record is not None:
        # the record names HEAD as the measured commit, so measure only HEAD
        status = git(args.src, "status", "--porcelain", "--untracked-files=no")
        commit = git(args.src, "rev-parse", "HEAD")
        if status is None or status or not commit:
            sys.exit("claims: tracked files differ from HEAD (or SRC is not in a git checkout); commit first")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src), **{var: "1" for var in THREAD_VARS})
    seeds = ",".join(map(str, args.seeds))
    argv = [sys.executable, os.path.abspath(__file__), "--measure", "--seeds", seeds]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"claims: the measuring process exited {done.returncode}\n{done.stderr}")
    first, *rows = done.stdout.splitlines()
    per_seed = {}
    for line in rows:
        row = json.loads(line)
        per_seed[row.pop("seed")] = row
    print(table(per_seed))
    if args.record is not None:
        medians = {key: statistics.median(m[key] for m in per_seed.values()) for key, _ in ROWS + SEEN}
        record = {
            "claims": args.record,
            "env": {**json.loads(first)["env"], "commit": commit},
            "seeds": sorted(per_seed),
            "per_seed": {str(seed): row for seed, row in sorted(per_seed.items())},
            "median": medians,
        }
        path = f"CLAIMS_{args.record}.json"
        with open(path, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
