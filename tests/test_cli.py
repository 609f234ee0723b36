"""End-to-end tests of the command-line surface: synth, train, eval,
inspect, determinism of outputs, and error reporting."""

import os

import numpy as np
import pytest

from relembed import model as model_mod
from relembed.checkpoint import load_checkpoint, save_checkpoint
from relembed.cli import main
from relembed.config import load_config, write_config
from relembed.data import Triplet, load_dataset, load_queries, write_queries
from relembed.model import build_model, named_parameters, pair_embeddings, score_pairs
from relembed.retrieval import load_results

from conftest import desk_config


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One synth + train pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    base = desk_config(stage1_epochs=2, stage2_epochs=1, k=1, seed=0)
    cfg_path = str(root / "base.cfg")
    write_config(base, cfg_path)
    out = str(root / "run")
    assert main(["synth", "--config", cfg_path, "--out", out]) == 0
    eff = os.path.join(out, "effective.cfg")
    assert main(["train", "--config", eff, "--out", out]) == 0
    return out


def effective(run_dir):
    return load_config(os.path.join(run_dir, "effective.cfg"))


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_outputs_reload_and_match_config(run_dir):
    cfg = effective(run_dir)
    train = load_dataset(cfg.train_data)
    test = load_dataset(cfg.test_data)
    queries = load_queries(cfg.queries, train)
    assert len(queries) == cfg.synth_heldout
    assert train.appearance_dim == cfg.synth_appearance_dim
    assert test.subjects.tokens == train.subjects.tokens
    for q in queries:
        assert q not in train.counts  # heldout means unseen in training


def test_synth_rerun_is_byte_identical(tmp_path):
    cfg_path = str(tmp_path / "base.cfg")
    write_config(desk_config(), cfg_path)
    out = str(tmp_path / "run")
    names = ("train.ds", "test.ds", "words.tbl", "heldout.txt", "effective.cfg")
    assert main(["synth", "--config", cfg_path, "--out", out]) == 0
    first = {n: read_bytes(os.path.join(out, n)) for n in names}
    assert main(["synth", "--config", cfg_path, "--out", out]) == 0
    second = {n: read_bytes(os.path.join(out, n)) for n in names}
    assert first == second


def test_synth_seed_flag_changes_data(tmp_path):
    cfg_path = str(tmp_path / "base.cfg")
    write_config(desk_config(), cfg_path)
    out = str(tmp_path / "run")
    assert main(["synth", "--config", cfg_path, "--out", out]) == 0
    first = read_bytes(os.path.join(out, "train.ds"))
    assert main(["synth", "--config", cfg_path, "--seed", "9", "--out", out]) == 0
    assert read_bytes(os.path.join(out, "train.ds")) != first


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_rerun_is_byte_identical(run_dir):
    eff = os.path.join(run_dir, "effective.cfg")
    ckpt = effective(run_dir).checkpoint
    first = read_bytes(ckpt)
    trace = read_bytes(os.path.join(run_dir, "loss_trace.txt"))
    assert main(["train", "--config", eff, "--out", run_dir]) == 0
    assert read_bytes(ckpt) == first
    assert read_bytes(os.path.join(run_dir, "loss_trace.txt")) == trace


def test_train_zero_epochs_equals_initialization(tmp_path, run_dir):
    cfg = effective(run_dir)
    cfg.stage1_epochs = 0
    cfg.stage2_epochs = 0
    cfg.checkpoint = str(tmp_path / "init.ckpt")
    cfg_path = str(tmp_path / "zero.cfg")
    write_config(cfg, cfg_path)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    model, gamma, _ = load_checkpoint(cfg.checkpoint)
    train = load_dataset(cfg.train_data)
    from relembed.data import load_word_table

    table = load_word_table(cfg.word_table, (train.subjects, train.predicates, train.objects))
    fresh = build_model(cfg, train, table, cfg.seed)
    for (name, arr), (fname, farr) in zip(named_parameters(model), named_parameters(fresh)):
        assert name == fname
        assert np.array_equal(arr, farr), name


def test_train_absent_gamma_skips_stage2(tmp_path, run_dir):
    cfg = effective(run_dir)
    cfg.gamma = "absent"
    cfg.stage1_epochs = 1
    cfg.checkpoint = str(tmp_path / "absent.ckpt")
    cfg_path = str(tmp_path / "absent.cfg")
    write_config(cfg, cfg_path)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    _, gamma, _ = load_checkpoint(cfg.checkpoint)
    assert gamma.kind == "absent"
    trace = open(os.path.join(str(tmp_path), "loss_trace.txt")).read()
    assert "stage1 1 " in trace
    assert "stage2" not in trace.replace("stage2_skipped", "")
    assert "skipped_targets 0" in trace


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_direct_writes_results(run_dir, tmp_path):
    eff = os.path.join(run_dir, "effective.cfg")
    out = str(tmp_path / "eval")
    assert main(["eval", "--config", eff, "--mode", "direct", "--out", out, "--top", "3"]) == 0
    cfg = effective(run_dir)
    test = load_dataset(cfg.test_data)
    results, overall = load_results(
        os.path.join(out, "results.txt"), test.subjects, test.predicates, test.objects
    )
    assert len(results) == cfg.synth_heldout
    assert all(r.npos > 0 for r in results)
    assert 0.0 <= overall <= 1.0
    top = open(os.path.join(out, "top_detections.txt")).read().strip().split("\n")
    assert len(top) == 3 * len(results)
    assert top[0].startswith("query ")


def test_eval_rerun_is_byte_identical(run_dir, tmp_path):
    eff = os.path.join(run_dir, "effective.cfg")
    out = str(tmp_path / "eval")
    argv = ["eval", "--config", eff, "--mode", "transfer", "--out", out]
    assert main(argv) == 0
    first = read_bytes(os.path.join(out, "results.txt"))
    assert main(argv) == 0
    assert read_bytes(os.path.join(out, "results.txt")) == first


def test_eval_transfer_equals_direct_for_seen_query(run_dir, tmp_path):
    """k=1 and the query observed in training: the transferred embedding is
    exactly the direct one, so both modes agree."""
    cfg = effective(run_dir)
    train = load_dataset(cfg.train_data)
    model, _, _ = load_checkpoint(cfg.checkpoint)
    seen = model.observed[0]
    qpath = str(tmp_path / "seen.txt")
    write_queries([seen], train, qpath)
    cfg.queries = qpath
    cfg_path = str(tmp_path / "seen.cfg")
    write_config(cfg, cfg_path)
    out_d, out_t = str(tmp_path / "d"), str(tmp_path / "t")
    assert main(["eval", "--config", cfg_path, "--mode", "direct", "--out", out_d]) == 0
    assert main(["eval", "--config", cfg_path, "--mode", "transfer", "--out", out_t]) == 0
    test = load_dataset(cfg.test_data)
    _, map_d = load_results(os.path.join(out_d, "results.txt"), test.subjects, test.predicates, test.objects)
    _, map_t = load_results(os.path.join(out_t, "results.txt"), test.subjects, test.predicates, test.objects)
    assert abs(map_d - map_t) < 1e-12


def test_eval_reports_excluded_query(run_dir, tmp_path):
    cfg = effective(run_dir)
    test = load_dataset(cfg.test_data)
    positives = {t for p in test.pairs for t in p.positives()}
    never = next(
        Triplet(s, pr, o)
        for s in range(len(test.subjects))
        for pr in range(len(test.predicates))
        for o in range(len(test.objects))
        if Triplet(s, pr, o) not in positives
    )
    qpath = str(tmp_path / "mixed.txt")
    write_queries([next(iter(positives)), never], test, qpath)
    cfg.queries = qpath
    cfg_path = str(tmp_path / "mixed.cfg")
    write_config(cfg, cfg_path)
    out = str(tmp_path / "eval")
    assert main(["eval", "--config", cfg_path, "--mode", "direct", "--out", out]) == 0
    results, overall = load_results(
        os.path.join(out, "results.txt"), test.subjects, test.predicates, test.objects
    )
    assert len(results) == 2
    assert results[1].excluded
    assert overall == results[0].ap  # the excluded one does not count


def test_eval_empty_query_list_fails(run_dir, tmp_path, capsys):
    cfg = effective(run_dir)
    qpath = str(tmp_path / "empty.txt")
    open(qpath, "w").close()
    cfg.queries = qpath
    cfg_path = str(tmp_path / "empty.cfg")
    write_config(cfg, cfg_path)
    assert main(["eval", "--config", cfg_path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:data:")


@pytest.mark.parametrize("mode", ["direct", "transfer"])
def test_eval_embeds_test_pairs_once(run_dir, tmp_path, monkeypatch, mode):
    asked, computed = [], []
    ask, compute = model_mod.pair_embeddings, model_mod._embed_pairs

    def asking(model, pairs):
        asked.append(len(pairs))
        return ask(model, pairs)

    def computing(model, pairs):
        computed.append(len(pairs))
        return compute(model, pairs)

    monkeypatch.setattr(model_mod, "pair_embeddings", asking)
    monkeypatch.setattr(model_mod, "_embed_pairs", computing)
    eff = os.path.join(run_dir, "effective.cfg")
    assert main(["eval", "--config", eff, "--mode", mode, "--out", str(tmp_path)]) == 0
    cfg = effective(run_dir)
    test = load_dataset(cfg.test_data)
    # every query asks for the embeddings; only the first ask computes them
    assert computed == [len(test.pairs)]
    assert asked == [len(test.pairs)] * len(load_queries(cfg.queries, test))


def test_eval_negative_top_is_usage_error(run_dir, tmp_path, capsys):
    eff = os.path.join(run_dir, "effective.cfg")
    out = tmp_path / "eval"
    assert main(["eval", "--config", eff, "--out", str(out), "--top", "-5"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:usage:")
    assert not out.exists()


def test_eval_normalize_aggregation_comes_from_config(run_dir, tmp_path):
    """The config file's flag decides, whatever the checkpoint's copy says:
    either flag with either checkpoint writes what a checkpoint holding that
    flag does."""
    cfg = effective(run_dir)
    model, gamma, seed = load_checkpoint(cfg.checkpoint)
    assert not model.cfg.normalize_aggregation
    model.cfg.normalize_aggregation = True
    flipped = str(tmp_path / "flipped.ckpt")
    save_checkpoint(flipped, model, gamma, seed)

    def run(normalize, ckpt):
        cfg.normalize_aggregation, cfg.checkpoint = normalize, ckpt
        name = f"{normalize}-{os.path.basename(ckpt)}"
        cfg_path = str(tmp_path / f"{name}.cfg")
        write_config(cfg, cfg_path)
        out = str(tmp_path / name)
        argv = ["eval", "--config", cfg_path, "--mode", "transfer", "--out", out, "--top", "5"]
        assert main(argv) == 0
        return [read_bytes(os.path.join(out, f)) for f in ("results.txt", "top_detections.txt")]

    original = effective(run_dir).checkpoint
    normalized = run(True, flipped)
    plain = run(False, original)
    assert normalized != plain
    assert run(True, original) == normalized
    assert run(False, flipped) == plain


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_embeddings_unit_norm_and_score_round_trip(run_dir, capsys):
    cfg = effective(run_dir)
    assert main(["inspect", "--checkpoint", cfg.checkpoint, "embeddings"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    model, _, _ = load_checkpoint(cfg.checkpoint)
    parsed = {}
    for line in lines:
        parts = line.split()
        kind = parts[0]
        d = model.cfg.embed_dim
        label = " ".join(parts[1 : len(parts) - d])
        vec = np.array([float(x) for x in parts[-d:]])
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12, line
        parsed[(kind, label)] = vec
    assert len(parsed) == len(lines)

    # the dumped language vectors reproduce score() against the live model
    test = load_dataset(cfg.test_data)
    pair = test.pairs[0]
    t = model.observed[0]
    toks = (
        model.subjects[t.s].replace(" ", "_"),
        model.predicates[t.p].replace(" ", "_"),
        model.objects[t.o].replace(" ", "_"),
    )
    w = {
        "s": parsed[("s", toks[0])],
        "p": parsed[("p", toks[1])],
        "o": parsed[("o", toks[2])],
        "vp": parsed[("vp", " ".join(toks))],
    }
    v = pair_embeddings(model, [pair])
    from relembed.model import DOT_CLAMP

    score = 1.0
    for kind in model.active_kinds:
        dot = np.clip(float(v[kind][0] @ w[kind]), -DOT_CLAMP, DOT_CLAMP)
        score *= 1.0 / (1.0 + np.exp(-dot))
    want = score_pairs(model, t, [pair])[0]
    assert abs(score - want) < 1e-12


def test_inspect_sources_lists_self_first(run_dir, capsys):
    cfg = effective(run_dir)
    model, _, _ = load_checkpoint(cfg.checkpoint)
    t = model.observed[0]
    toks = [
        model.subjects[t.s].replace(" ", "_"),
        model.predicates[t.p].replace(" ", "_"),
        model.objects[t.o].replace(" ", "_"),
    ]
    assert main(["inspect", "--checkpoint", cfg.checkpoint, "sources", *toks]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == model.cfg.k
    first = lines[0].split()
    assert first[:4] == ["source"] + toks
    assert abs(float(first[-1]) - 1.0) < 1e-9


def test_inspect_unknown_triplet_fails(run_dir, capsys):
    cfg = effective(run_dir)
    code = main(["inspect", "--checkpoint", cfg.checkpoint, "sources", "nope", "nope", "nope"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:data:")


# ---------------------------------------------------------------------------
# config round-trip and error categories
# ---------------------------------------------------------------------------


def test_effective_config_round_trips(run_dir):
    path = os.path.join(run_dir, "effective.cfg")
    cfg = load_config(path)
    again = os.path.join(run_dir, "again.cfg")
    write_config(cfg, again)
    assert load_config(again) == cfg


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert capsys.readouterr().err.startswith("error:io:")


def test_bad_config_key_is_config_error(tmp_path, capsys):
    path = str(tmp_path / "bad.cfg")
    with open(path, "w") as fh:
        fh.write("no_such_knob = 3\n")
    assert main(["synth", "--config", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:config:")


def test_train_without_config_is_config_error(capsys):
    assert main(["train"]) == 1
    assert capsys.readouterr().err.startswith("error:config:")


def test_corrupt_dataset_is_data_error(run_dir, tmp_path, capsys):
    cfg = effective(run_dir)
    for name in ("subjects.txt", "predicates.txt", "objects.txt"):
        with open(tmp_path / name, "w") as fh:
            fh.write(open(os.path.join(run_dir, name)).read())
    bad = str(tmp_path / "bad.ds")
    with open(bad, "w") as fh:
        fh.write(open(cfg.train_data).read())
        fh.write("pair oops\n")
    cfg.train_data = bad
    cfg_path = str(tmp_path / "bad.cfg")
    write_config(cfg, cfg_path)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:data:")
