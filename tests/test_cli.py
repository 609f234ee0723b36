"""End-to-end tests of the command-line surface: synth, train, eval,
inspect, determinism of outputs, and error reporting."""

import dataclasses
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import relembed
from relembed import cli
from relembed import model as model_mod
from relembed.analogy import gamma_init
from relembed.checkpoint import load_checkpoint, save_checkpoint
from relembed.cli import main
from relembed.config import RunConfig, load_config, write_config
from relembed.data import Triplet, load_dataset, load_queries, write_queries
from relembed.model import build_model, named_parameters, pair_embeddings, score_pairs
from relembed.retrieval import load_results

from conftest import code, decode, desk_config, row_triplets, triplet_counts


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
    seen = triplet_counts(train)
    for q in queries:
        assert q not in seen  # heldout means unseen in training


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


def test_synth_seed_key_changes_data(tmp_path):
    data = []
    for seed in (0, 9):
        cfg_path = str(tmp_path / f"seed{seed}.cfg")
        write_config(desk_config(seed=seed), cfg_path)
        out = str(tmp_path / f"run{seed}")
        assert main(["synth", "--config", cfg_path, "--out", out]) == 0
        data.append(read_bytes(os.path.join(out, "train.ds")))
    assert data[0] != data[1]


@pytest.mark.parametrize(
    "key, value, message",
    [
        (
            "synth_appearance_dim", 5,
            "synth_appearance_dim 5 must be at least the subject code width 9 (synth_subjects"
            " + synth_predicates) and the object code width 8 (object clusters + synth_objects)",
        ),
        (
            "synth_families", 30,
            "synth_families 30 exceeds the 8 (subject, object cluster) combinations,"
            " synth_subjects x ceil(synth_objects / synth_cluster_size)",
        ),
        (
            "synth_heldout", 6,
            "synth_heldout 6 exceeds synth_families 5: a family holds out at most one triplet",
        ),
        # finite noise whose draws overflow float64
        ("synth_word_noise", 1e308, "synth_word_noise = 1e+308 overflows a word vector"),
        ("synth_noise", 1e308, "synth_noise = 1e+308 overflows a synthetic feature or box coordinate"),
    ],
    ids=("synth_appearance_dim", "synth_families", "synth_heldout", "synth_word_noise", "synth_noise"),
)
def test_synth_world_rule_is_one_error_naming_its_key(tmp_path, capsys, key, value, message):
    """One error:data: line, no numpy warning, no output directory."""
    cfg_path = str(tmp_path / "world.cfg")
    write_config(desk_config(**{key: value}), cfg_path)
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["synth", "--config", cfg_path, "--out", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [f"error:data: {message}"]
    assert not out.exists()


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


def test_train_with_no_transfer_sources_is_one_data_error(tmp_path, run_dir, capsys):
    cfg = effective(run_dir)
    cfg.rare_threshold = 1000  # every observed triplet is rare: stage 2 learns nothing
    cfg.stage1_epochs = 1
    cfg.checkpoint = str(tmp_path / "rare.ckpt")
    cfg_path = str(tmp_path / "rare.cfg")
    write_config(cfg, cfg_path)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err == ["error:data: no transfer sources: every observed triplet is rare"]
    assert captured.out == ""
    assert not os.path.exists(cfg.checkpoint)
    assert not os.path.exists(tmp_path / "loss_trace.txt")


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(branches="s,o,p"), "stage-2 training requires an active vp branch"),
        (dict(rare_threshold=1000), "no transfer sources: every observed triplet is rare"),
    ],
    ids=("no_vp_branch", "all_rare"),
)
def test_train_refuses_what_stage2_cannot_train_before_stage1(
    tmp_path, run_dir, capsys, monkeypatch, change, message
):
    """Both configs once trained all of stage 1 before their error line."""

    def stage1(*args, **kwargs):
        raise AssertionError("stage 1 ran")

    monkeypatch.setattr(cli, "train_stage1", stage1)
    cfg = dataclasses.replace(effective(run_dir), checkpoint=str(tmp_path / "model.ckpt"), **change)
    cfg_path = str(tmp_path / "run.cfg")
    write_config(cfg, cfg_path)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error:data: {message}"]
    assert captured.out == ""
    assert not os.path.exists(cfg.checkpoint)


@pytest.mark.parametrize(
    "command",
    [["eval", "--mode", "transfer"], ["inspect", "sources", "sub0", "pre0", "obj0"]],
    ids=("eval_transfer", "inspect_sources"),
)
def test_an_all_rare_checkpoint_is_the_one_pool_refusal(tmp_path, run_dir, capsys, command):
    """Gamma absent trains no stage 2, so train saves the checkpoint; what
    then asks for sources prints the refusal train prints. inspect once
    printed its own line, with vocabulary indices for tokens."""
    cfg = dataclasses.replace(
        effective(run_dir), gamma="absent", rare_threshold=1000, stage1_epochs=0,
        checkpoint=str(tmp_path / "rare.ckpt"),
    )
    cfg_path = str(tmp_path / "rare.cfg")
    write_config(cfg, cfg_path)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "train")]) == 0
    capsys.readouterr()
    assert main([command[0], "--config", cfg_path, *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error:data: no transfer sources: every observed triplet is rare"]
    assert captured.out == ""


def test_train_on_a_dataset_with_no_positive_pair_is_one_data_error(tmp_path, run_dir, capsys):
    cfg = effective(run_dir)
    for name in ("subjects.txt", "predicates.txt", "objects.txt"):
        shutil.copy(os.path.join(run_dir, name), tmp_path / name)
    unlabelled = str(tmp_path / "unlabelled.ds")
    with open(cfg.train_data) as src, open(unlabelled, "w") as fh:
        for line in src:
            fh.write(line.split(" labels")[0] + " labels\n" if line.startswith("pair ") else line)
    assert not triplet_counts(load_dataset(unlabelled))
    cfg.train_data = unlabelled
    cfg.checkpoint = str(tmp_path / "none.ckpt")
    cfg_path = str(tmp_path / "none.cfg")
    write_config(cfg, cfg_path)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error:data: dataset has no positive pairs"]
    assert captured.out == ""
    assert not os.path.exists(cfg.checkpoint)


@pytest.mark.parametrize("stage2_epochs", [0, 1])
def test_train_without_slot_branches_uses_word_similarity(tmp_path, run_dir, capsys, stage2_epochs):
    """Without the s and o branches, G compares word vectors: stage 2 and
    transfer eval run on a p,vp model."""
    cfg = effective(run_dir)
    cfg.branches = "p,vp"
    cfg.stage1_epochs = 1
    cfg.stage2_epochs = stage2_epochs
    cfg.checkpoint = str(tmp_path / "pvp.ckpt")
    cfg_path = str(tmp_path / "pvp.cfg")
    write_config(cfg, cfg_path)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    assert main(["eval", "--config", cfg_path, "--mode", "transfer", "--out", str(tmp_path / "eval")]) == 0
    assert capsys.readouterr().err == ""
    assert os.path.exists(cfg.checkpoint)


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
    [seen] = decode(model.dims, model.observed[:1])
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
    positives = {t for row in row_triplets(test.pairs) for t in row}
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


@pytest.mark.parametrize(
    "key, message",
    [("word_table", "duplicate token 'sub0'"), ("train_data", "duplicate header key 'subjects'")],
    ids=("word_table", "train_data"),
)
def test_train_refuses_an_input_line_given_twice(run_dir, tmp_path, capsys, key, message):
    """A word-table token or a dataset header repeated on line 3 is one
    error line, even though the repeat carries the same value."""
    cfg = effective(run_dir)
    for name in ("train.ds", "subjects.txt", "predicates.txt", "objects.txt", "words.tbl"):
        shutil.copy(os.path.join(run_dir, name), tmp_path / name)
    cfg.train_data, cfg.word_table = str(tmp_path / "train.ds"), str(tmp_path / "words.tbl")
    cfg.checkpoint = str(tmp_path / "model.ckpt")
    path = getattr(cfg, key)
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:2] + lines[1:])
    cfg_path = str(tmp_path / "twice.cfg")
    write_config(cfg, cfg_path)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error:data: {path}:3: {message}"]
    assert not os.path.exists(cfg.checkpoint)


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
@pytest.mark.parametrize("test_set", ["headers_only", "three_negatives"])
def test_eval_on_a_test_set_without_positives_is_one_data_error(run_dir, tmp_path, capsys, test_set, mode):
    """A valid test set that lists no triplet, with no pairs or with three
    unlabelled ones, leaves every query without ground truth."""
    cfg = effective(run_dir)
    for name in ("subjects.txt", "predicates.txt", "objects.txt"):
        shutil.copy(os.path.join(run_dir, name), tmp_path / name)
    with open(cfg.test_data) as fh:
        lines = fh.readlines()
    header, pairs = lines[:4], lines[4:]
    assert not any(line.startswith("pair ") for line in header)
    if test_set == "headers_only":
        pairs = []
    else:
        pairs = [line.split(" labels")[0] + " labels\n" for line in pairs[:3]]
    cfg.test_data = str(tmp_path / "test.ds")
    with open(cfg.test_data, "w") as fh:
        fh.writelines(header + pairs)
    assert len(load_dataset(cfg.test_data).pairs) == len(pairs)
    cfg_path = str(tmp_path / "eval.cfg")
    write_config(cfg, cfg_path)
    out = tmp_path / "eval"
    assert main(["eval", "--config", cfg_path, "--mode", mode, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error:data: every query was excluded (no ground-truth positives)"]
    assert captured.out == ""
    assert not (out / "results.txt").exists()


@pytest.mark.parametrize("change", ["swapped", "more_subjects"])
def test_eval_refuses_test_vocabularies_unlike_the_checkpoint(run_dir, tmp_path, capsys, change):
    cfg = effective(run_dir)
    subjects = load_dataset(cfg.test_data).subjects.tokens
    data = tmp_path / "data"
    if change == "swapped":
        data.mkdir()
        for name in ("test.ds", "predicates.txt", "objects.txt"):
            (data / name).write_text(open(os.path.join(os.path.dirname(cfg.test_data), name)).read())
        swapped = [subjects[1], subjects[0], *subjects[2:]]
        (data / "subjects.txt").write_text("".join(f"{t}\n" for t in swapped))
        cfg.test_data = str(data / "test.ds")
    else:
        base = str(tmp_path / "base.cfg")
        write_config(desk_config(synth_subjects=6, seed=0), base)
        assert main(["synth", "--config", base, "--out", str(data)]) == 0
        cfg.test_data = str(data / "test.ds")
        assert len(load_dataset(cfg.test_data).subjects) == 6 > len(subjects)
    cfg_path = str(tmp_path / "eval.cfg")
    write_config(cfg, cfg_path)
    out = tmp_path / "eval"
    assert main(["eval", "--config", cfg_path, "--mode", "transfer", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error:data: {cfg.test_data}: subjects differ from the checkpoint's"]
    assert not (out / "results.txt").exists()


@pytest.mark.parametrize("mode", ["direct", "transfer"])
def test_eval_refuses_a_test_set_of_another_appearance_width(run_dir, tmp_path, capsys, mode):
    """A test set wider than the checkpoint's once failed inside the visual
    front end: one error:numeric line naming no file."""
    cfg = effective(run_dir)
    wide = cfg.synth_appearance_dim + 6
    data, base = tmp_path / "data", str(tmp_path / "base.cfg")
    write_config(desk_config(synth_appearance_dim=wide, seed=0), base)
    assert main(["synth", "--config", base, "--out", str(data)]) == 0
    cfg.test_data = str(data / "test.ds")
    cfg_path = str(tmp_path / "eval.cfg")
    write_config(cfg, cfg_path)
    out = tmp_path / "eval"
    assert main(["eval", "--config", cfg_path, "--mode", mode, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    message = f"appearance dim {wide} differs from the checkpoint's {cfg.synth_appearance_dim}"
    assert err == [f"error:data: {cfg.test_data}: {message}"]
    assert not (out / "results.txt").exists()


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


@pytest.mark.parametrize("mode", ["direct", "transfer"])
def test_eval_with_a_nan_vp_weight_is_one_data_error(run_dir, tmp_path, capsys, mode):
    cfg = effective(run_dir)
    model, gamma, seed = load_checkpoint(cfg.checkpoint)
    dict(named_parameters(model))["branch.vp.f_v.first.w"][0, 0] = np.nan
    cfg.checkpoint = str(tmp_path / "nan.ckpt")
    save_checkpoint(cfg.checkpoint, model, gamma, seed)
    cfg_path = str(tmp_path / "nan.cfg")
    write_config(cfg, cfg_path)
    out = tmp_path / "eval"
    assert main(["eval", "--config", cfg_path, "--mode", mode, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error:data: detection score must be finite in (0, 1), got nan"]
    assert not (out / "results.txt").exists()


@pytest.mark.parametrize("command", ["inspect", "eval-direct", "eval-transfer"])
def test_huge_language_weight_is_one_numeric_error(run_dir, tmp_path, capsys, command):
    """Finite weights whose language embeddings overflow have no unit rows:
    one error:numeric line, nothing on stdout, no numpy warning."""
    cfg = effective(run_dir)
    model, gamma, seed = load_checkpoint(cfg.checkpoint)
    dict(named_parameters(model))["branch.s.f_w.first.w"][...] = 1e300
    cfg.checkpoint = str(tmp_path / "big.ckpt")
    save_checkpoint(cfg.checkpoint, model, gamma, seed)
    cfg_path = str(tmp_path / "big.cfg")
    write_config(cfg, cfg_path)
    out = tmp_path / "eval"
    if command == "inspect":
        argv = ["inspect", "--checkpoint", cfg.checkpoint, "embeddings"]
    else:
        argv = ["eval", "--config", cfg_path, "--mode", command[len("eval-"):], "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error:numeric: cannot normalize a row of zero or non-finite norm"]
    assert not (out / "results.txt").exists()


def test_eval_normalize_aggregation_comes_from_the_checkpoint(run_dir, tmp_path):
    """The checkpoint's copy decides, whatever the config file says: the
    flipped checkpoint scores normalized sums under either flag, the
    original raw sums under either."""
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
    assert run(False, flipped) == normalized
    assert run(True, original) == plain


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
    pair = test.pairs.take([0])
    [t] = decode(model.dims, model.observed[:1])
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
    v = pair_embeddings(model, pair)
    from relembed.model import DOT_CLAMP

    score = 1.0
    for kind in model.active_kinds:
        dot = np.clip(float(v[kind][0] @ w[kind]), -DOT_CLAMP, DOT_CLAMP)
        score *= 1.0 / (1.0 + np.exp(-dot))
    want = score_pairs(model, code(model, t), pair)[0]
    assert abs(score - want) < 1e-12


def test_inspect_embeddings_lists_each_branch_universe(small_bench, tmp_path, capsys):
    """One line per label each branch trains against; under cartesian vp
    negatives that is every subject-predicate-object combination."""
    _, (train, _, table, _) = small_bench
    cfg = desk_config(vp_negatives="cartesian", gamma="absent")
    model = build_model(cfg, train, table, seed=0)
    path = str(tmp_path / "cart.ckpt")
    save_checkpoint(path, model, gamma_init(cfg, 0), seed=0)
    assert main(["inspect", "--checkpoint", path, "embeddings"]) == 0
    lines = capsys.readouterr().out.splitlines()
    sizes = {"s": len(train.subjects), "p": len(train.predicates), "o": len(train.objects)}
    d = model.cfg.embed_dim
    labels = {kind: [] for kind in model.active_kinds}
    for line in lines:
        parts = line.split()
        labels[parts[0]].append(" ".join(parts[1:-d]))
    assert {k: len(v) for k, v in labels.items()} == {
        **sizes, "vp": sizes["s"] * sizes["p"] * sizes["o"]
    }
    assert labels["vp"] == [
        f"{s} {p} {o}"
        for s in train.subjects.tokens
        for p in train.predicates.tokens
        for o in train.objects.tokens
    ]
    assert len(model.observed) < len(labels["vp"])  # more than the observed triplets


def test_inspect_sources_lists_self_first(run_dir, capsys):
    cfg = effective(run_dir)
    model, _, _ = load_checkpoint(cfg.checkpoint)
    [t] = decode(model.dims, model.observed[:1])
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["embeddings", "foo", "bar"], "inspect embeddings takes no arguments, got 2"),
        (["sources", "sub0", "pre1"], "inspect sources expects subject predicate object, got 2 tokens"),
    ],
    ids=("embeddings_with_arguments", "sources_with_two_tokens"),
)
def test_inspect_with_a_wrong_argument_count_is_one_usage_error(run_dir, capsys, argv, message):
    """Extra arguments to embeddings were once ignored, and two tokens to
    sources were once a data error."""
    cfg = effective(run_dir)
    assert main(["inspect", "--checkpoint", cfg.checkpoint, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error:usage: {message}"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--config", "run.cfg", "--out", "out"], "checkpoint, test_data and queries paths must be set"),
        (["inspect", "--config", "run.cfg", "embeddings"], "--checkpoint (or a config with one) is required"),
    ],
    ids=("eval", "inspect"),
)
def test_a_command_without_its_paths_is_one_config_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("seed = 0\n")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error:config: {message}"]
    assert captured.out == ""


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


@pytest.mark.parametrize("command", ["train", "inspect"])
def test_undecodable_config_file_is_one_config_error(tmp_path, capsys, command):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = 0\xff\n")
    argv = [command, "--config", str(path)] + (["embeddings"] if command == "inspect" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error:config: {path}: undecodable text: invalid start byte"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--top", "abc"],
        ["bogus"],
        [],
        # the config's seed is the only seed, and inspect writes only to stdout
        ["synth", "--config", "run.cfg", "--seed", "3", "--out", "out"],
        ["inspect", "--config", "run.cfg", "--out", "out", "embeddings"],
    ],
    ids=["bad_int", "unknown_command", "no_command", "synth_seed", "inspect_out"],
)
def test_bad_command_line_is_one_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("seed = 0\n")
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:usage: relembed"), err
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "synth" in capsys.readouterr().out


def test_negative_seed_is_one_config_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seed = -3\n")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error:config: {path}: seed must be >= 0, got -3"]
    assert not (tmp_path / "out").exists()


def test_training_is_byte_identical_across_blas_thread_counts(tmp_path):
    """The package pins BLAS to one thread, so a synth or train process
    started with two writes the same bytes as one started with one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(relembed.__file__)))

    def relembed_cli(cwd, *args, threads="1"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "relembed.cli", *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr

    one, two = tmp_path / "one", tmp_path / "two"
    for root, threads in ((one, "1"), (two, "2")):
        root.mkdir()
        write_config(RunConfig(stage1_epochs=4, stage2_epochs=0), str(root / "run.cfg"))
        relembed_cli(root, "synth", "--config", "run.cfg", "--out", "data", threads=threads)
        relembed_cli(root, "train", "--config", "data/effective.cfg", "--out", "train", threads=threads)
    for name in ("data/train.ds", "data/test.ds", "data/words.tbl", "data/model.ckpt", "train/loss_trace.txt"):
        assert read_bytes(one / name) == read_bytes(two / name), name


def test_one_model_trained_from_two_directories_saves_the_same_checkpoint(tmp_path, monkeypatch):
    """The checkpoint stores its config without the file locations, so the
    path strings a run was given (relative in one, absolute in the other)
    do not reach its bytes."""
    write_config(desk_config(stage1_epochs=1, stage2_epochs=1), str(tmp_path / "run.cfg"))
    (tmp_path / "a").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    assert main(["synth", "--config", "../run.cfg", "--out", "data"]) == 0
    assert main(["train", "--config", "data/effective.cfg", "--out", "train"]) == 0
    monkeypatch.chdir(tmp_path)
    b = str(tmp_path / "b")
    assert main(["synth", "--config", "run.cfg", "--out", b]) == 0
    assert main(["train", "--config", os.path.join(b, "effective.cfg"), "--out", b]) == 0
    assert load_config(os.path.join(b, "effective.cfg")).train_data != "data/train.ds"
    assert read_bytes(tmp_path / "a" / "data" / "model.ckpt") == read_bytes(os.path.join(b, "model.ckpt"))
