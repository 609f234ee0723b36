"""Tests for the binary model container: byte determinism, bit-exact
round-trips, and corruption detection."""

import json
import struct

import numpy as np
import pytest

from relembed.analogy import Gamma, gamma_init, train_stage2, transfer_embedding
from relembed.checkpoint import HEADER_KEYS, MAGIC, load_checkpoint, save_checkpoint
from relembed.cli import main
from relembed.data import DataError
from relembed.model import build_model, named_parameters, score_pairs, train_stage1
from relembed.numkit import rng_stream

from conftest import desk_config


@pytest.fixture(scope="module")
def trained(small_bench):
    cfg, (train, test, table, heldout) = small_bench
    cfg = desk_config(stage1_epochs=1, stage2_epochs=1)
    model = build_model(cfg, train, table, seed=0)
    train_stage1(model, train, seed=0)
    gamma = gamma_init("deep", cfg.embed_dim, cfg.gamma_hidden_dim(), rng_stream(0, "init"))
    train_stage2(model, gamma, train, seed=0)
    return model, gamma, train, test


def test_round_trip_is_bitwise(trained, tmp_path):
    model, gamma, train, test = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    back, gback, seed = load_checkpoint(path)
    assert seed == 0
    want = dict(named_parameters(model, gamma))
    got = dict(named_parameters(back, gback))
    assert want.keys() == got.keys()
    for name in want:
        assert np.array_equal(want[name], got[name]), name
    assert back.subjects.tokens == model.subjects.tokens
    assert back.observed == model.observed
    assert back.counts == model.counts
    assert back.cfg == model.cfg


def test_round_trip_preserves_scores_bitwise(trained, tmp_path):
    model, gamma, train, test = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    back, gback, _ = load_checkpoint(path)
    pairs = test.pairs[:10]
    for query in model.observed[:3]:
        assert np.array_equal(score_pairs(model, query, pairs), score_pairs(back, query, pairs))
    u = model.observed[0]
    a = transfer_embedding(model, gamma, u)
    b = transfer_embedding(back, gback, u)
    assert np.array_equal(a, b)


def test_same_model_saves_identical_bytes(trained, tmp_path):
    model, gamma, train, test = trained
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, model, gamma, seed=0)
    save_checkpoint(p2, model, gamma, seed=0)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_gamma_kinds_round_trip(small_bench, tmp_path):
    """Every catalog shape loads back and saves to the same bytes: each Gamma
    kind, the fewest and the most branches, and finetuned word vectors."""
    cfg, (train, test, table, heldout) = small_bench
    cases = [dict(gamma=kind) for kind in ("absent", "zero", "linear", "deep")] + [
        dict(branches="s,o"),
        dict(branches="s,o,p,vp,sp,po"),
        dict(finetune_words=True),
    ]
    for i, overrides in enumerate(cases):
        cfg = desk_config(**overrides)
        kind = cfg.gamma
        model = build_model(cfg, train, table, seed=0)
        gamma = gamma_init(kind, cfg.embed_dim, cfg.gamma_hidden_dim(), rng_stream(0, "init"))
        path, again = str(tmp_path / f"g{i}.ckpt"), str(tmp_path / f"g{i}-again.ckpt")
        save_checkpoint(path, model, gamma, seed=7)
        back, gback, seed = load_checkpoint(path)
        assert seed == 7 and gback.kind == kind
        if kind == "linear":
            assert np.array_equal(gback.lin.w, gamma.lin.w)
        if kind == "deep":
            assert np.array_equal(gback.net.first.w, gamma.net.first.w)
            assert np.array_equal(gback.net.second.w, gamma.net.second.w)
        save_checkpoint(again, back, gback, seed)
        assert open(again, "rb").read() == open(path, "rb").read(), overrides


def test_loader_rejects_bad_magic(trained, tmp_path):
    model, gamma, _, _ = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    raw = bytearray(open(path, "rb").read())
    raw[0] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(DataError, match="bad magic"):
        load_checkpoint(path)


def test_loader_rejects_truncation(trained, tmp_path):
    model, gamma, _, _ = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-9])
    with pytest.raises(DataError, match="truncated parameter block"):
        load_checkpoint(path)


def test_loader_rejects_trailing_bytes(trained, tmp_path):
    model, gamma, _, _ = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(DataError, match="trailing bytes"):
        load_checkpoint(path)


def test_loader_rejects_tampered_config(trained, tmp_path):
    model, gamma, _, _ = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    raw = open(path, "rb").read()
    # flip a digit inside the embedded config text without touching lengths
    mutated = raw.replace(b"lr = 0.001", b"lr = 0.002", 1)
    assert mutated != raw
    open(path, "wb").write(mutated)
    with pytest.raises(DataError, match="hash mismatch"):
        load_checkpoint(path)


def _edit_header(path: str, edit):
    """Rewrite the checkpoint with ``edit`` applied to its header, blocks untouched."""
    raw = open(path, "rb").read()
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(raw[start : start + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(blob)) + blob + raw[start + hlen :])


@pytest.mark.parametrize("key", HEADER_KEYS)
def test_loader_rejects_header_without_required_key(trained, tmp_path, key):
    model, gamma, _, _ = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    _edit_header(path, lambda header: header.pop(key))
    with pytest.raises(DataError, match=f"header lacks {key}$"):
        load_checkpoint(path)


def test_header_without_observed_is_one_data_error_line(trained, tmp_path, capsys):
    model, gamma, _, _ = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    _edit_header(path, lambda header: header.pop("observed"))
    assert main(["inspect", "--checkpoint", path, "embeddings"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:data:") and "observed" in err[0]


# a non-square block, so its transpose has the same size but not the same shape
EDITED_BLOCK = "visual.spatial.first.w"
CATALOG_EDITS = {
    "negative": lambda shape: [-shape[0]] + shape[1:],
    "not_a_list": lambda shape: "x".join(str(n) for n in shape),
    "transposed": lambda shape: shape[::-1],
}


def _edit_catalog(path: str, edit):
    def apply(header):
        for entry in header["params"]:
            if entry[0] == EDITED_BLOCK:
                assert entry[1][0] != entry[1][1]
                entry[1] = edit(entry[1])

    _edit_header(path, apply)


@pytest.mark.parametrize("edit", sorted(CATALOG_EDITS))
def test_loader_rejects_catalog_unlike_the_model(trained, tmp_path, capsys, edit):
    model, gamma, _, _ = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    _edit_catalog(path, CATALOG_EDITS[edit])
    with pytest.raises(DataError, match=f"catalog disagrees with the model: .*{EDITED_BLOCK}"):
        load_checkpoint(path)
    assert main(["inspect", "--checkpoint", path, "embeddings"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:data:"), err
    assert captured.out == ""


@pytest.mark.parametrize(
    "key, value", [("seed", -1), ("seed", "0"), ("word_dim", 0), ("appearance_dim", 2.5)]
)
def test_loader_rejects_header_sizes_it_cannot_build(trained, tmp_path, key, value):
    model, gamma, _, _ = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    _edit_header(path, lambda header: header.update({key: value}))
    with pytest.raises(DataError, match=f"header {key} must be an integer"):
        load_checkpoint(path)


def test_absent_gamma_none_argument(small_bench, tmp_path):
    """Saving with gamma=None records kind 'absent'."""
    cfg, (train, test, table, heldout) = small_bench
    cfg = desk_config(gamma="absent")
    model = build_model(cfg, train, table, seed=0)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, None, seed=0)
    back, gback, _ = load_checkpoint(path)
    assert gback.kind == "absent"
    assert np.array_equal(back.e_sub, model.e_sub)
