"""Tests for the binary model container: byte determinism, bit-exact
round-trips, and corruption detection."""

import json
import struct

import numpy as np
import pytest

from relembed.analogy import gamma_init, source_pool, train_stage2, transfer_embedding
from relembed.checkpoint import HEADER_KEYS, MAGIC, load_checkpoint, save_checkpoint
from relembed.cli import main
from relembed.data import DataError
from relembed.model import build_model, named_parameters, score_pairs, train_stage1

from conftest import desk_config


@pytest.fixture(scope="module")
def trained(small_bench):
    cfg, (train, test, table, heldout) = small_bench
    cfg = desk_config(stage1_epochs=1, stage2_epochs=1)
    model = build_model(cfg, train, table, seed=0)
    train_stage1(model, train, seed=0)
    gamma = gamma_init(cfg, 0)
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
    assert back.observed.tolist() == model.observed.tolist()
    assert back.counts.tolist() == model.counts.tolist()
    assert back.cfg == model.cfg


def test_round_trip_preserves_scores_bitwise(trained, tmp_path):
    model, gamma, train, test = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    back, gback, _ = load_checkpoint(path)
    pairs = test.pairs.take(range(10))
    for query in model.observed[:3]:
        assert np.array_equal(score_pairs(model, query, pairs), score_pairs(back, query, pairs))
    u = model.observed[0]
    a = transfer_embedding(model, gamma, [u], source_pool(model))
    b = transfer_embedding(back, gback, [u], source_pool(back))
    assert np.array_equal(a, b)


def test_same_model_saves_identical_bytes(trained, tmp_path):
    model, gamma, train, test = trained
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, model, gamma, seed=0)
    save_checkpoint(p2, model, gamma, seed=0)
    assert open(p1, "rb").read() == open(p2, "rb").read()


# (name, shape) of every registry entry of a six-branch desk model, in
# checkpoint order, then its Gamma's: a saved checkpoint lists exactly these,
# so a renamed entry would make every existing checkpoint unreadable
SIX_BRANCH_CATALOG = [
    ("words.sub", (4, 17)), ("words.pre", (5, 17)), ("words.obj", (6, 17)),
    ("visual.sub_proj.w", (12, 12)), ("visual.sub_proj.b", (12,)),
    ("visual.obj_proj.w", (12, 12)), ("visual.obj_proj.b", (12,)),
    ("visual.spatial.first.w", (12, 8)), ("visual.spatial.first.b", (12,)),
    ("visual.spatial.second.w", (8, 12)), ("visual.spatial.second.b", (8,)),
    ("branch.s.f_v.first.w", (16, 12)), ("branch.s.f_v.first.b", (16,)),
    ("branch.s.f_v.second.w", (16, 16)), ("branch.s.f_v.second.b", (16,)),
    ("branch.s.f_w.first.w", (16, 51)), ("branch.s.f_w.first.b", (16,)),
    ("branch.s.f_w.second.w", (16, 16)), ("branch.s.f_w.second.b", (16,)),
    ("branch.o.f_v.first.w", (16, 12)), ("branch.o.f_v.first.b", (16,)),
    ("branch.o.f_v.second.w", (16, 16)), ("branch.o.f_v.second.b", (16,)),
    ("branch.o.f_w.first.w", (16, 51)), ("branch.o.f_w.first.b", (16,)),
    ("branch.o.f_w.second.w", (16, 16)), ("branch.o.f_w.second.b", (16,)),
    ("branch.p.f_v.first.w", (16, 32)), ("branch.p.f_v.first.b", (16,)),
    ("branch.p.f_v.second.w", (16, 16)), ("branch.p.f_v.second.b", (16,)),
    ("branch.p.f_w.first.w", (16, 51)), ("branch.p.f_w.first.b", (16,)),
    ("branch.p.f_w.second.w", (16, 16)), ("branch.p.f_w.second.b", (16,)),
    ("branch.vp.f_v.first.w", (16, 32)), ("branch.vp.f_v.first.b", (16,)),
    ("branch.vp.f_v.second.w", (16, 16)), ("branch.vp.f_v.second.b", (16,)),
    ("branch.vp.f_w.first.w", (16, 51)), ("branch.vp.f_w.first.b", (16,)),
    ("branch.vp.f_w.second.w", (16, 16)), ("branch.vp.f_w.second.b", (16,)),
    ("branch.sp.f_v.first.w", (16, 32)), ("branch.sp.f_v.first.b", (16,)),
    ("branch.sp.f_v.second.w", (16, 16)), ("branch.sp.f_v.second.b", (16,)),
    ("branch.sp.f_w.first.w", (16, 51)), ("branch.sp.f_w.first.b", (16,)),
    ("branch.sp.f_w.second.w", (16, 16)), ("branch.sp.f_w.second.b", (16,)),
    ("branch.po.f_v.first.w", (16, 32)), ("branch.po.f_v.first.b", (16,)),
    ("branch.po.f_v.second.w", (16, 16)), ("branch.po.f_v.second.b", (16,)),
    ("branch.po.f_w.first.w", (16, 51)), ("branch.po.f_w.first.b", (16,)),
    ("branch.po.f_w.second.w", (16, 16)), ("branch.po.f_w.second.b", (16,)),
]
GAMMA_CATALOG = {
    "linear": [("gamma.lin.w", (16, 48))],
    "deep": [("gamma.net.first.w", (48, 48)), ("gamma.net.second.w", (16, 48))],
}


def test_gamma_kinds_round_trip(small_bench, tmp_path):
    """Every catalog shape loads back and saves to the same bytes: each Gamma
    kind, and the fewest and the most branches. The most branches, under
    Gamma linear and deep, list the pinned catalog."""
    cfg, (train, test, table, heldout) = small_bench
    cases = [dict(gamma=kind) for kind in ("absent", "zero", "linear", "deep")] + [
        dict(branches="s,o"),
        dict(branches="s,o,p,vp,sp,po", gamma="linear"),
        dict(branches="s,o,p,vp,sp,po", gamma="deep"),
    ]
    for i, overrides in enumerate(cases):
        cfg = desk_config(**overrides)
        kind = cfg.gamma
        model = build_model(cfg, train, table, seed=0)
        gamma = gamma_init(cfg, 0)
        path, again = str(tmp_path / f"g{i}.ckpt"), str(tmp_path / f"g{i}-again.ckpt")
        save_checkpoint(path, model, gamma, seed=7)
        back, gback, seed = load_checkpoint(path)
        assert seed == 7 and gback.kind == kind
        if cfg.branches == "s,o,p,vp,sp,po":
            for m, g in ((model, gamma), (back, gback)):
                catalog = [(name, arr.shape) for name, arr in named_parameters(m, g)]
                assert catalog == SIX_BRANCH_CATALOG + GAMMA_CATALOG[kind], overrides
        if kind == "linear":
            assert np.array_equal(gback.net.w, gamma.net.w)
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


# byte edits of the container around the header, each one error line
CONTAINER_EDITS = {
    "header_length_cut": (lambda raw: raw[: len(MAGIC) + 2], "truncated header length"),
    "header_a_list": (lambda raw: MAGIC + struct.pack("<I", 2) + b"[]", "header is not a JSON object"),
}


@pytest.mark.parametrize("edit", sorted(CONTAINER_EDITS))
def test_loader_rejects_a_container_without_a_header_object(trained, tmp_path, capsys, edit):
    model, gamma, _, _ = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    cut, message = CONTAINER_EDITS[edit]
    raw = open(path, "rb").read()
    open(path, "wb").write(cut(raw))
    assert main(["inspect", "--checkpoint", path, "embeddings"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error:data: {path}: {message}"]
    assert captured.out == ""


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
    "key, value",
    [
        ("seed", -1), ("seed", "0"), ("word_dim", 0), ("appearance_dim", 2.5),
        # each once ended inspect in "ValueError: array is too big"
        ("word_dim", 10**18), ("appearance_dim", 10**18),
    ],
)
def test_loader_rejects_header_sizes_it_cannot_build(trained, tmp_path, key, value):
    model, gamma, _, _ = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    _edit_header(path, lambda header: header.update({key: value}))
    with pytest.raises(DataError, match=f"header {key} must be an integer"):
        load_checkpoint(path)


def test_format_1_checkpoint_is_one_data_error(trained, tmp_path, capsys):
    """Format-1 and format-2 files store config keys that were since
    removed; loading refuses them by their format, before it reads the
    config."""
    model, gamma, _, _ = trained
    removed_by_format = {
        1: "spatial_norm = area\nfinetune_words = false\ngamma_hidden = 0\n"
        "clamp_similarity = true\nsimilarity_input = branches\neval_mode = direct\n",
        2: "eval_mode = direct\n",
    }
    for fmt, removed in removed_by_format.items():
        path = str(tmp_path / f"format{fmt}.ckpt")
        save_checkpoint(path, model, gamma, seed=0)
        _edit_header(path, lambda header: header.update(format=fmt, config=header["config"] + removed))
        assert main(["inspect", "--checkpoint", path, "embeddings"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error:data: {path}: unsupported format {fmt}"]
        assert captured.out == ""


# header edits save_checkpoint never writes, each one DataError with no output
HEADER_EDITS = {
    "observed_short_entry": ("observed", lambda h: [[0, 0]], "observed entry 0 must be four"),
    "observed_not_a_list": ("observed", lambda h: "abc", "observed must be a list"),
    "observed_index_outside": ("observed", lambda h: [[99, 0, 0, 20]], "outside the vocab"),
    "subjects_not_strings": (
        "subjects", lambda h: list(range(1, len(h["subjects"]) + 1)), "subjects must be a list"
    ),
    "subjects_a_string": ("subjects", lambda h: "abcdef", "subjects must be a list"),
    "observed_zero_count": ("observed", lambda h: [h["observed"][0][:3] + [0]], "count 0"),
    # JSON reads any integer, but a count is held in int64
    "observed_count_above_int64": (
        "observed", lambda h: [h["observed"][0][:3] + [2**63]], "count 9223372036854775808 outside"
    ),
    "observed_descending": ("observed", lambda h: h["observed"][1::-1], "ascending"),
    "observed_repeated": ("observed", lambda h: h["observed"][:1] * 2, "ascending"),
    "observed_bool_index": ("observed", lambda h: [[True, 0, 0, 1]], "four integers"),
    # no train run writes it: the vp branch would have no label to score
    "observed_empty": ("observed", lambda h: [], r"model\.ckpt: empty label universe for branch 'vp'"),
    "config_not_a_string": ("config", lambda h: 5, "header config must be a string, got int"),
    "subjects_duplicate": (
        "subjects", lambda h: h["subjects"][:1] * 2 + h["subjects"][2:],
        r"model\.ckpt: duplicate token 'sub0'",
    ),
    "gamma_unlike_config": (
        "gamma", lambda h: "linear", r"model\.ckpt: gamma kind 'linear' disagrees with config 'deep'$"
    ),
    # the three ways a catalog departs from the registry besides an entry
    # that differs (CATALOG_EDITS)
    "params_not_a_list": (
        "params", lambda h: 5,
        r"model\.ckpt: parameter catalog disagrees with the model:"
        r" expected a list of \[name, shape\] entries, got int$",
    ),
    "params_missing_entry": (
        "params", lambda h: h["params"][:-1],
        r"model\.ckpt: parameter catalog disagrees with the model:"
        r" missing entry 44 \['gamma\.net\.second\.w', \[16, 48\]\]$",
    ),
    "params_extra_entry": (
        "params", lambda h: h["params"] + [["extra", [1]]],
        r"model\.ckpt: parameter catalog disagrees with the model: 1 extra entries after 45$",
    ),
}


@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_loader_rejects_malformed_vocabularies_and_observed(trained, tmp_path, capsys, edit):
    model, gamma, _, _ = trained
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma, seed=0)
    key, value, message = HEADER_EDITS[edit]
    _edit_header(path, lambda header: header.update({key: value(header)}))
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)
    assert main(["inspect", "--checkpoint", path, "embeddings"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:data:"), err
    assert captured.out == ""


@pytest.mark.parametrize("vp_negatives", ["observed", "cartesian"])
def test_loader_rebuilds_the_label_universes_exactly(small_bench, tmp_path, vp_negatives):
    _, (train, _, table, _) = small_bench
    cfg = desk_config(branches="s,o,p,vp,sp,po", vp_negatives=vp_negatives, gamma="absent")
    model = build_model(cfg, train, table, seed=0)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma_init(cfg, 0), seed=0)
    back, _, _ = load_checkpoint(path)
    assert list(back.labels) == list(model.labels) == list(cfg.branch_list())
    for kind, labels in model.labels.items():
        got = back.labels[kind]
        assert got.dtype == labels.dtype and np.array_equal(got, labels), kind


def test_absent_gamma_saves_no_gamma_parameters(small_bench, tmp_path):
    """Gamma 'absent' has no net: the header records its kind and the
    catalog lists no gamma entry."""
    cfg, (train, test, table, heldout) = small_bench
    cfg = desk_config(gamma="absent")
    model = build_model(cfg, train, table, seed=0)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model, gamma_init(cfg, 0), seed=0)
    back, gback, _ = load_checkpoint(path)
    assert gback.kind == "absent" and gback.net is None
    assert not [name for name, _ in named_parameters(back, gback) if name.startswith("gamma.")]
    assert np.array_equal(back.e_sub, model.e_sub)
