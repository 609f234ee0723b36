"""Benchmark of the relembed command-line pipeline, driven in process.

One run generates a workload from ``--seed`` with ``relembed synth``, then
trains and evaluates it through ``relembed.cli.main`` exactly as the README
walkthrough does, and checks every output. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the pipeline once plain and once
under ``bench_trace.Tracer`` and reports the per-layer metrics. Every
command runs in this one process. The last line of standard output is the
result object; the line before it records the environment, the raw mAPs
and every timing sample. See README.md in this directory for the workloads
and for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from relembed import cli
from relembed.checkpoint import load_checkpoint, save_checkpoint
from relembed.config import load_config, write_config
from relembed.data import DataError, load_dataset, load_queries
from relembed.retrieval import load_results, mean_ap

from bench_trace import Tracer

# config keys on top of ``seed = <n>``; README.md says why each exists
WORKLOADS = {
    "default": {},
    "wide": {
        "synth_subjects": 12,
        "synth_predicates": 20,
        "synth_objects": 24,
        "synth_families": 48,
        "synth_heldout": 40,
        "synth_appearance_dim": 40,
        "stage1_epochs": 2,
        "stage2_epochs": 1,
    },
    "cartesian": {"vp_negatives": "cartesian"},
}

# (output label, --mode, normalize_aggregation). eval takes that key from
# the checkpoint's config, so the normalized eval reads a copy of the trained
# checkpoint with only that key flipped: same parameters, eval-only switch.
EVALS = (("direct", "direct", False), ("transfer", "transfer", False), ("transfer_norm", "transfer", True))

# measure() runs synth at least this often; setup_s is the median
SETUP_MIN_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "eval_direct_s": "s",
    "eval_transfer_s": "s",
    "map_direct": "ratio",
    "map_transfer_rel": "ratio",
    "map_transfer_norm_rel": "ratio",
    "peak_rss_mb": "MB",
}

_FIELD_UNITS = {
    "self_s": "s",
    "total_s": "s",
    "overhead_s": "s",
    "ms_p50": "ms",
    "gflop": "gflop",
    "bytes": "bytes",
}

PER_LAYER_NAMES = (
    "numkit.adam_step.self_s",
    "numkit.adam_step.ms_p50",
    "numkit.adam_step.entries",
    "numkit.linear_forward.self_s",
    "numkit.linear_forward.gflop",
    "numkit.linear_backward.self_s",
    "numkit.linear_backward.gflop",
    "features.pair_arrays.self_s",
    "features.pair_arrays.pairs",
    "features.visual_forward.self_s",
    "features.visual_backward.self_s",
    "features.language_matrix.self_s",
    "features.language_matrix.rows",
    "model.batch_iter.ms_p50",
    "model.joint_loss.self_s",
    "model.joint_loss.ms_p50",
    "model.branch_universe.self_s",
    "model.branch_universe.calls",
    "model.pair_embeddings.calls",
    "model.pair_embeddings.pairs",
    "model.pair_embeddings.total_s",
    "model.score_from_embeddings.self_s",
    "model.train_stage1.total_s",
    "model.train_stage1.steps",
    "analogy.train_stage2.total_s",
    "analogy.train_stage2.steps",
    "analogy.analogy_loss.self_s",
    "analogy.analogy_loss.ms_p50",
    "analogy.build_source_sets.total_s",
    "analogy.select_sources.calls",
    "analogy.select_sources.total_s",
    "analogy.transfer_embedding.ms_p50",
    "retrieval.rank_candidates.self_s",
    "retrieval.rank_candidates.ms_p50",
    "retrieval.ground_truth_for.self_s",
    "retrieval.match_detections.self_s",
    "retrieval.match_detections.comparisons",
    "retrieval.average_precision.ms_p50",
    "data.synth_generate.total_s",
    "data.write_dataset.total_s",
    "data.load_dataset.total_s",
    "data.load_dataset.pairs",
    "checkpoint.save_checkpoint.total_s",
    "checkpoint.save_checkpoint.bytes",
    "checkpoint.load_checkpoint.total_s",
    "cli.cmd_train.self_s",
    "cli.cmd_eval.self_s",
    "trace.overhead_s",
)

PER_LAYER = {name: _FIELD_UNITS.get(name.rsplit(".", 1)[1], "count") for name in PER_LAYER_NAMES}

# training steps are the optimizer calls made inside each stage
STEP_SPANS = (("model.train_stage1", "numkit.adam_step"), ("analogy.train_stage2", "numkit.adam_step"))


class Abort(Exception):
    """A command failed, so the steps that need its output cannot run."""


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest_tree(root: str) -> dict[str, str]:
    """Relative path -> SHA-256 of every file under ``root``."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, root)] = digest(path)
    return out


def check_results(path: str, vocabularies, ndet: int, queries) -> tuple[float, int, list[str]]:
    """(mAP, queries failing a check, problems) for one results.txt.

    Every query line must reparse against the test set's ``vocabularies``,
    in query order, with AP in [0, 1], ndet equal to the ``ndet`` test pairs
    and npos > 0; the map line must equal the mean recomputed from the
    query lines.
    """
    try:
        results, overall = load_results(path, *vocabularies)
    except (DataError, OSError) as e:
        return float("nan"), len(queries), [f"{path}: unreadable: {e}"]
    problems = []
    if [r.query for r in results] != queries:
        problems.append(f"{path}: {len(results)} query lines for {len(queries)} queries")
    bad = 0
    for r in results:
        if not (0.0 <= r.ap <= 1.0 and r.ndet == ndet and r.npos > 0):
            bad += 1
            problems.append(f"{path}: query {tuple(r.query)} ap {r.ap} npos {r.npos} ndet {r.ndet}")
    bad += max(0, len(queries) - len(results))
    if results and overall != mean_ap(results):
        problems.append(f"{path}: map {overall} != recomputed {mean_ap(results)}")
    return overall, bad, problems


class Pipeline:
    """The CLI steps of one workload in one work directory, with checks.

    Every CLI command and every evaluated query is one operation; a failed
    command or a failed check on its output counts as a failed operation.
    """

    def __init__(self, work: str):
        self.work = work
        self.data = os.path.join(work, "data")
        self.run = os.path.join(work, "run")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.base_cfg = os.path.join(work, "base.cfg")
        self.cfgs = {}
        # what the output checks need of the test set, kept instead of it
        self.vocabularies = self.ndet = self.queries = None
        self.synth_digests = None
        self.first_results: dict[str, str] = {}  # eval label -> digest
        self.times: dict[str, list[float]] = collections.defaultdict(list)  # command -> wall seconds
        self.maps: dict[str, float] = {}  # eval label -> latest mAP
        # the benchmark's own checks run inside this, so a tracer skips them
        self.unrecorded = contextlib.nullcontext

    def write_base(self, workload: str, seed: int):
        """The only input: ``seed = <seed>`` plus the workload's keys."""
        os.makedirs(self.work, exist_ok=True)
        with open(self.base_cfg, "w") as fh:
            fh.write(f"seed = {seed}\n")
            for key, value in WORKLOADS[workload].items():
                fh.write(f"{key} = {value}\n")

    def fail(self, msg: str):
        self.failed += 1
        self.problems.append(msg)

    def command(self, argv: list[str]) -> float:
        """Run one CLI command in process; its wall time in seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            rc = e.code
        seconds = time.perf_counter() - t0
        if rc != 0:
            self.fail(f"relembed {' '.join(argv)}: exit {rc}")
            raise Abort(argv[0])
        return seconds

    def synth(self) -> float:
        """Generate the inputs; every repeat must write the same bytes."""
        seconds = self.command(["synth", "--config", self.base_cfg, "--out", self.data])
        self.times["synth"].append(seconds)
        tree = digest_tree(self.data)
        if self.synth_digests is None:
            self.synth_digests = tree
        elif tree != self.synth_digests:
            self.fail(f"{self.data}: synth output differs between repeats")
        return seconds

    def prepare(self):
        """One run config per eval label."""
        cfg = load_config(os.path.join(self.data, "effective.cfg"))
        os.makedirs(self.run, exist_ok=True)
        for label, _, normalize in EVALS:
            cfg.normalize_aggregation = normalize
            cfg.checkpoint = os.path.join(self.run, "model-norm.ckpt" if normalize else "model.ckpt")
            path = os.path.join(self.work, f"{label}.cfg")
            write_config(cfg, path)
            self.cfgs[label] = path

    def load_checks(self):
        """The query list and what of the test set the output checks need.
        Loaded on the first eval, after training, and the dataset itself is
        dropped, so the benchmark adds little to the measured peak memory."""
        if self.queries is not None:
            return
        cfg = load_config(self.cfgs["direct"])
        with self.unrecorded():
            test = load_dataset(cfg.test_data)
            self.queries = load_queries(cfg.queries, test)
        self.vocabularies = (test.subjects, test.predicates, test.objects)
        self.ndet = len(test.pairs)

    def train(self) -> float:
        """Train; check the checkpoint round trip and write its normalized copy."""
        seconds = self.command(["train", "--config", self.cfgs["direct"], "--out", self.run])
        self.times["train"].append(seconds)
        ckpt = os.path.join(self.run, "model.ckpt")
        again = os.path.join(self.work, "resaved.ckpt")
        try:
            with self.unrecorded():
                model, gamma, seed = load_checkpoint(ckpt)
                save_checkpoint(again, model, gamma, seed)
                model.cfg.normalize_aggregation = True
                save_checkpoint(os.path.join(self.run, "model-norm.ckpt"), model, gamma, seed)
            same = digest(ckpt) == digest(again)
        except (DataError, OSError) as e:
            self.fail(f"{ckpt}: {e}")
            raise Abort("train") from None
        if not same:
            self.fail(f"{ckpt}: save(load(checkpoint)) does not reproduce its bytes")
        return seconds

    def evaluate(self, label: str, mode: str) -> tuple[float, float]:
        """One eval command: (wall seconds, mAP)."""
        out = os.path.join(self.run, label)
        self.load_checks()
        self.attempted += len(self.queries)
        try:
            seconds = self.command(["eval", "--config", self.cfgs[label], "--out", out, "--mode", mode])
        except Abort:
            self.failed += len(self.queries)
            raise
        self.times[f"eval_{label}"].append(seconds)
        path = os.path.join(out, "results.txt")
        with self.unrecorded():
            overall, bad, problems = check_results(path, self.vocabularies, self.ndet, self.queries)
        self.failed += bad
        self.problems += problems
        if problems and not bad:
            self.failed += 1  # the command's output failed a whole-file check
        self.maps[label] = overall
        if not os.path.exists(path):
            return seconds, overall
        if self.first_results.setdefault(label, digest(path)) != digest(path):
            self.fail(f"{path}: differs from the first {label} eval")
        return seconds, overall


def environment(root: str, workload: str, seed: int, trace: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "workload": workload,
        "config": WORKLOADS[workload],
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
    }


def measure(pipe: Pipeline, seconds: float) -> dict[str, float]:
    """End-to-end metrics of one workload, all commands in this process.

    synth runs once, then training once: one training is long enough to
    time. The normalized transfer eval runs once, for its mAP. Then rounds
    of synth, the direct eval and the transfer eval run until ``seconds``
    have passed since the first synth (at least one round), so the set-up
    samples are spread over the same time as the eval samples; synth is
    repeated at the end until it has run SETUP_MIN_REPEATS times. A
    repeated command reports its median. The machine's speed wanders over
    tens of seconds, so the longer the rounds run, the steadier the medians.

    The transfer mAPs are reported relative to the direct mAP of the same
    model: across seeds the generated world moves all three together, and
    on ``wide`` the raw transfer mAP alone spreads wider than any bound.
    """
    start = time.perf_counter()
    pipe.synth()
    pipe.prepare()
    pipe.train()
    pipe.evaluate("transfer_norm", "transfer")
    while True:
        pipe.synth()
        pipe.evaluate("direct", "direct")
        pipe.evaluate("transfer", "transfer")
        if time.perf_counter() - start >= seconds:
            break
    while len(pipe.times["synth"]) < SETUP_MIN_REPEATS:
        pipe.synth()
    t, m = pipe.times, pipe.maps
    metrics = {
        "setup_s": statistics.median(t["synth"]),
        "train_s": statistics.median(t["train"]),
        "eval_direct_s": statistics.median(t["eval_direct"]),
        "eval_transfer_s": statistics.median(t["eval_transfer"]),
        "map_direct": m["direct"],
        # every command ran in this process, so its own peak is the workload's
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if m["direct"] > 0:
        metrics["map_transfer_rel"] = m["transfer"] / m["direct"]
        metrics["map_transfer_norm_rel"] = m["transfer_norm"] / m["direct"]
    else:
        pipe.fail("direct mAP is 0")
    return metrics


def once(pipe: Pipeline) -> float:
    """synth, train and one round of evals; total wall seconds of the commands."""
    total = pipe.synth()
    pipe.prepare()
    total += pipe.train()
    for label, mode, _ in EVALS:
        total += pipe.evaluate(label, mode)[0]
    return total


def traced(pipe: Pipeline, spans_path: str, traced_first: bool) -> dict[str, float]:
    """Per-layer metrics: the pipeline once plain and once under the tracer,
    in the same paths and in the given order; the two must write identical
    bytes. ``trace.overhead_s`` is traced minus plain wall time: the second
    pass in a process tends to run faster, so callers alternate the order."""
    tracer = Tracer()
    pipe.unrecorded = tracer.paused
    seconds, trees = {}, {}
    for is_traced in (traced_first, not traced_first):
        if trees:  # second pass: start from empty output directories
            for d in (pipe.data, pipe.run):
                shutil.rmtree(d)
            pipe.synth_digests, pipe.first_results = None, {}
        if is_traced:
            before = tracer.snapshot()
            tracer.install()
            try:
                seconds[True] = once(pipe)
            finally:
                tracer.restore()
            after = tracer.snapshot()
            if before.keys() != after.keys() or any(after[k] is not v for k, v in before.items()):
                pipe.fail("tracer left module bindings changed")
        else:
            seconds[False] = once(pipe)
        trees[is_traced] = {d: digest_tree(d) for d in (pipe.data, pipe.run)}
    for d, files in trees[False].items():
        diff = sorted(k for k in files.keys() | trees[True][d].keys() if files.get(k) != trees[True][d].get(k))
        if diff:
            pipe.fail(f"{d}: traced run wrote different bytes: {diff}")
    tracer.write_spans(spans_path)

    summary = tracer.summary()
    for stage, step in STEP_SPANS:
        summary.setdefault(stage, {})["steps"] = tracer.descendants(stage, step)
    summary["trace"] = {"overhead_s": seconds[True] - seconds[False]}
    metrics = {}
    for name in PER_LAYER_NAMES:
        span, field = name.rsplit(".", 1)
        metrics[name] = summary.get(span, {}).get(field, 0)
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str], root: str) -> int:
    args = parse_args(argv)
    scratch = os.path.join(root, ".perfbench-work")
    work = os.path.join(scratch, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    pipe = Pipeline(work)
    metrics: dict[str, float] = {}
    try:
        pipe.write_base(args.workload, args.seed)
        if args.trace:
            spans = os.path.join(scratch, f"spans-{args.workload}-s{args.seed}.tsv")
            metrics = traced(pipe, spans, traced_first=args.seed % 2 == 1)
        else:
            metrics = measure(pipe, args.seconds)
    except Abort:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    for msg in pipe.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = pipe.failed == 0 and not pipe.problems and metrics.keys() == units.keys()
    info = {"env": environment(root, args.workload, args.seed, args.trace), "map": pipe.maps, "samples_s": pipe.times}
    print("run " + json.dumps(info, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1
