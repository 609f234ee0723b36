"""Measure the retrieval claims of the paper on the default synthetic world
of one source tree, per seed, and print them as a table.

    python tools/claims.py SRC [--seeds 0-5]

SRC is the ``src`` directory of the tree to measure. ``--seeds`` takes a
range (``0-5``) or a list (``0,3,7``); the default is 0-5. The measurement
runs in one subprocess, ``python tools/claims.py --measure ...``, with
``PYTHONPATH=SRC`` and BLAS pinned to one thread, so its numbers are the
same on every run. For each seed it generates the default world, then:

- trains an ``s,o,p`` model (stage 1 only) and scores the held-out triplets
  directly: the baseline with no visual-phrase factor;
- trains the default model's stage 1, scores the seen (training) triplets
  directly, and scores the held-out triplets by transfer with Gamma
  ``absent``, which has no stage 2;
- copies that model for each Gamma of ``deep`` (raw and normalized
  aggregation), ``linear`` and ``zero`` (raw), trains its stage 2, and scores
  the held-out triplets by transfer; the raw deep copy also scores the
  held-out triplets directly and the seen triplets again.

The ``normalized`` row sets ``normalize_aggregation`` before stage 2, so it
holds wherever the tree reads the key: in eval only, or in stage 2 as well.
The last line gives acceptance criterion 5's ordering, deep >= linear >=
zero > absent, per seed, as information. Standard library only in this
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
SEEN = (("seen1", "seen triplets, direct, after stage 1"), ("seen2", "seen triplets, direct, after stage 2"))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, _, last = text.partition("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def measure(seed: int) -> dict[str, float]:
    """Every row of the table for one seed (runs with relembed importable)."""
    import copy

    from relembed.analogy import Gamma, gamma_init, train_stage2
    from relembed.config import RunConfig, validate
    from relembed.data import synth_generate, triplet_of
    from relembed.model import build_model, train_stage1
    from relembed.numkit import rng_stream
    from relembed.retrieval import MatchPolicy, evaluate_queries, mean_ap

    cfg = validate(RunConfig())
    train, test, table, heldout = synth_generate(cfg, seed)

    def score(model, queries, gamma=None):
        return mean_ap([r for *_, r in evaluate_queries(model, test, queries, MatchPolicy(0.5), gamma)])

    spo = build_model(validate(RunConfig(branches="s,o,p")), train, table, seed)
    train_stage1(spo, train, seed)
    model = build_model(cfg, train, table, seed)
    train_stage1(model, train, seed)
    seen = [triplet_of(model.dims, code) for code in model.observed.tolist()]
    out = {"spo": score(spo, heldout), "seen1": score(model, seen), "absent": score(model, heldout, Gamma("absent"))}
    for key, kind, normalize in (("deep", "deep", False), ("deep_norm", "deep", True),
                                 ("linear", "linear", False), ("zero", "zero", False)):
        trained = copy.deepcopy(model)
        trained.cfg.normalize_aggregation = normalize
        gamma = gamma_init(kind, cfg.embed_dim, cfg.gamma_hidden_dim(), rng_stream(seed, "gamma"))
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
    order = []
    for s in seeds:
        m = per_seed[s]
        holds = m["deep"] >= m["linear"] >= m["zero"] > m["absent"]
        order.append(f"s{s} {'holds' if holds else 'fails'}")
    lines.append("")
    lines.append("criterion 5 ordering (deep >= linear >= zero > absent): " + ", ".join(order))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", nargs="?", help="the src directory of the tree to measure")
    p.add_argument("--seeds", default="0-5", type=parse_seeds)
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        for seed in args.seeds:
            print(json.dumps({"seed": seed, **measure(seed)}), flush=True)
        return 0
    if not args.src:
        p.error("SRC is required")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src), **{var: "1" for var in THREAD_VARS})
    seeds = ",".join(map(str, args.seeds))
    argv = [sys.executable, os.path.abspath(__file__), "--measure", "--seeds", seeds]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"claims: the measuring process exited {done.returncode}\n{done.stderr}")
    per_seed = {}
    for line in done.stdout.splitlines():
        row = json.loads(line)
        per_seed[row.pop("seed")] = row
    print(table(per_seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
