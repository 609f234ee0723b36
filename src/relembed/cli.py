"""Command-line pipeline: synthesize a benchmark, train both stages,
evaluate retrieval, and inspect a trained model.

Every command is deterministic given (config, seed); rerunning writes
byte-identical files. Failures exit nonzero after printing one line to
stderr of the form ``error:<category>: <message>`` with category one of
``usage``, ``config``, ``data``, ``io``, or ``numeric``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analogy import gamma_init, select_sources, source_pool, stage2_pool, train_stage2
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_config, write_config
from .data import (
    VOCAB_KEYS,
    DataError,
    fmt_reals,
    load_dataset,
    load_queries,
    load_word_table,
    parse_triplet,
    synth_generate,
    triplet_codes,
    triplet_of,
    triplet_text,
    write_dataset,
    write_queries,
    write_word_table,
)
from .model import build_model, embed_language_batch, train_stage1
from .numkit import NonFiniteGradient, ShapeError
from .retrieval import MatchPolicy, evaluate_queries, write_results


class UsageError(ValueError):
    """A malformed command line or a command-line argument out of range."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as a UsageError
    (one ``error:usage:`` line) instead of exiting with a usage block."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _load_run_config(args, *paths: str) -> RunConfig:
    """The ``--config`` file's configuration, refused unless each key of ``paths`` is set."""
    if not args.config:
        raise ConfigError("--config is required for this command")
    cfg = load_config(args.config)
    if not all(getattr(cfg, key) for key in paths):
        raise ConfigError(f"{', '.join(paths[:-1])} and {paths[-1]} paths must be set")
    return cfg


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _emit_effective(cfg: RunConfig, out: str):
    write_config(cfg, os.path.join(out, "effective.cfg"))


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    train, test, table, heldout = synth_generate(cfg, cfg.seed)  # refuses a bad world before --out exists
    out = _outdir(args)
    cfg.train_data = os.path.join(out, "train.ds")
    cfg.test_data = os.path.join(out, "test.ds")
    cfg.word_table = os.path.join(out, "words.tbl")
    cfg.queries = os.path.join(out, "heldout.txt")
    if not cfg.checkpoint:
        cfg.checkpoint = os.path.join(out, "model.ckpt")
    write_dataset(train, cfg.train_data)
    write_dataset(test, cfg.test_data, write_vocabularies=False)
    write_word_table(table, cfg.word_table)
    write_queries(heldout, train, cfg.queries)
    _emit_effective(cfg, out)
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _load_run_config(args, "train_data", "word_table")
    dataset = load_dataset(cfg.train_data)
    table = load_word_table(
        cfg.word_table, (dataset.subjects, dataset.predicates, dataset.objects)
    )
    model = build_model(cfg, dataset, table, cfg.seed)
    stage2_pool(model, cfg.gamma)  # refuses a model stage 2 cannot train before stage 1 runs
    trace1 = train_stage1(model, dataset, cfg.seed)
    gamma = gamma_init(cfg, cfg.seed)
    trace2, skipped = train_stage2(model, gamma, dataset, cfg.seed)
    out = _outdir(args)  # created only once there is something to write
    ckpt = cfg.checkpoint or os.path.join(out, "model.ckpt")
    cfg.checkpoint = ckpt
    save_checkpoint(ckpt, model, gamma, cfg.seed)
    with open(os.path.join(out, "loss_trace.txt"), "w") as fh:
        for i, loss in enumerate(trace1, 1):
            fh.write(f"stage1 {i} {fmt_reals([loss])}\n")
        for i, loss in enumerate(trace2, 1):
            fh.write(f"stage2 {i} {fmt_reals([loss])}\n")
        fh.write(f"skipped_targets {skipped}\n")
    _emit_effective(cfg, out)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    if args.top < 0:
        raise UsageError(f"--top must be >= 0, got {args.top}")
    cfg = _load_run_config(args, "checkpoint", "test_data", "queries")
    model, gamma, _ = load_checkpoint(cfg.checkpoint)
    dataset = load_dataset(cfg.test_data)
    for key in VOCAB_KEYS:
        if getattr(dataset, key).tokens != getattr(model, key).tokens:
            raise DataError(f"{cfg.test_data}: {key} differ from the checkpoint's")
    if dataset.appearance_dim != model.appearance_dim:
        raise DataError(
            f"{cfg.test_data}: appearance dim {dataset.appearance_dim}"
            f" differs from the checkpoint's {model.appearance_dim}"
        )
    queries = load_queries(cfg.queries, dataset)
    if not queries:
        raise DataError(f"{cfg.queries}: empty query list")
    policy = MatchPolicy(cfg.iou_threshold)
    transfer = gamma if args.mode == "transfer" else None
    vocabs = (dataset.subjects, dataset.predicates, dataset.objects)
    results, top_lines = [], []
    for query, ranked, scores, result in evaluate_queries(model, dataset, queries, policy, transfer):
        results.append(result)
        if args.top:
            toks = triplet_text(vocabs, query)
            top = (c[: args.top].tolist() for c in (ranked.pair_id, ranked.image_id, scores))
            for rank, (pair_id, image_id, score) in enumerate(zip(*top), 1):
                top_lines.append(
                    f"query {toks} rank {rank} pair {pair_id}"
                    f" image {image_id} score {fmt_reals([score])}\n"
                )
    out = _outdir(args)
    write_results(
        os.path.join(out, "results.txt"),
        results,
        dataset.subjects,
        dataset.predicates,
        dataset.objects,
    )
    if args.top:
        with open(os.path.join(out, "top_detections.txt"), "w") as fh:
            fh.writelines(top_lines)
    _emit_effective(cfg, out)
    return 0


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def cmd_inspect(args) -> int:
    if args.what == "embeddings" and args.args:
        raise UsageError(f"inspect embeddings takes no arguments, got {len(args.args)}")
    if args.what == "sources" and len(args.args) != 3:
        raise UsageError(f"inspect sources expects subject predicate object, got {len(args.args)} tokens")
    path = args.checkpoint
    if not path and args.config:
        path = load_config(args.config).checkpoint
    if not path:
        raise ConfigError("--checkpoint (or a config with one) is required")
    model, _, _ = load_checkpoint(path)
    vocabs = (model.subjects, model.predicates, model.objects)
    out = sys.stdout
    if args.what == "embeddings":
        for kind in model.active_kinds:
            labels = model.labels[kind]
            for code, row in zip(labels.tolist(), embed_language_batch(model, kind, labels)):
                label = triplet_text(vocabs, triplet_of(model.dims, code), kind)
                out.write(f"{kind} {label} {fmt_reals(row)}\n")
        return 0
    # sources
    u = triplet_codes(model.dims, parse_triplet(vocabs, args.args))
    sources, weights, _ = select_sources(model, [u], source_pool(model))
    for code, g in zip(sources[0].tolist(), weights[0].tolist()):
        out.write(f"source {triplet_text(vocabs, triplet_of(model.dims, code))} g {fmt_reals([g])}\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    top = _Parser(prog="relembed", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value run configuration file")
        p.add_argument("--out", help="output directory (default: current)")

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run both training stages, save a checkpoint")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank, match and score retrieval queries")
    common(p)
    p.add_argument("--mode", choices=("direct", "transfer"), default="direct", help="default: direct")
    p.add_argument("--top", type=int, default=0, help="also dump the top N detections per query")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="dump embeddings or transfer sources as text")
    p.add_argument("--config", help="key=value run configuration file (for its checkpoint path)")
    p.add_argument("--checkpoint", help="checkpoint to read (default: config's path)")
    p.add_argument("what", choices=("embeddings", "sources"))
    p.add_argument("args", nargs="*", help="for sources: subject predicate object")
    p.set_defaults(func=cmd_inspect)
    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error:usage: {e}", file=sys.stderr)
    except ConfigError as e:
        print(f"error:config: {e}", file=sys.stderr)
    except DataError as e:
        print(f"error:data: {e}", file=sys.stderr)
    except (ShapeError, NonFiniteGradient, FloatingPointError) as e:
        print(f"error:numeric: {e}", file=sys.stderr)
    except OSError as e:
        print(f"error:io: {e}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
