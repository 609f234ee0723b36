"""Tests for run-configuration parsing, validation, and emission."""

import pytest

from relembed.cli import main
from relembed.config import (
    ConfigError,
    RunConfig,
    config_hash,
    emit_config,
    parse_config,
    validate,
)


def test_defaults_match_training_preset():
    cfg = RunConfig()
    assert cfg.lr == 0.001
    assert cfg.batch_size == 64
    assert cfg.positive_fraction == 0.25
    assert cfg.positives_per_batch() == 16
    assert cfg.stage1_epochs == 10
    assert cfg.stage2_epochs == 5
    assert cfg.k == 5
    assert (cfg.alpha_s, cfg.alpha_p, cfg.alpha_o) == (0.1, 0.8, 0.1)
    assert cfg.analogy_weight == 1.0
    assert cfg.dropout == 0.5
    assert cfg.gamma == "deep"
    assert cfg.iou_threshold == 0.5


def test_emit_parse_round_trip():
    cfg = validate(RunConfig(embed_dim=32, branches="vp,s,o", gamma="linear", seed=3))
    text = emit_config(cfg)
    back = parse_config(text)
    assert back == cfg
    assert emit_config(back) == text


def test_branch_list_is_canonicalized():
    cfg = validate(RunConfig(branches="vp,s,o"))
    assert cfg.branches == "s,o,vp"
    assert cfg.branch_list() == ("s", "o", "vp")


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match=r"<config>:2: unknown key 'frobnicate'"):
        parse_config("seed = 1\nfrobnicate = 9\n")


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError, match="embed_dim"):
        parse_config("embed_dim = many\n")
    with pytest.raises(ConfigError, match="true or false"):
        parse_config("finetune_words = yes\n")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# a comment\n\nseed = 4  # trailing\n")
    assert cfg.seed == 4


def test_enum_fields_validated():
    for line in (
        "gamma = cubic",
        "spatial_norm = diagonal",
        "vp_negatives = all",
        "similarity_input = pixels",
        "eval_mode = both",
        "branches = s,q",
    ):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")


def test_range_checks():
    for line in (
        "dropout = 1.0",
        "alpha_p = 0.5",  # alphas no longer sum to 1
        "iou_threshold = 0.0",
        "positive_fraction = 0.0",
        "k = 0",
        "rare_threshold = 0",
        "batch_size = 0",
    ):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")


@pytest.mark.parametrize(
    "key, value",
    [
        ("lr", "nan"),
        ("lr", "0"),
        ("lr", "-1"),
        ("analogy_weight", "-2"),
        ("alpha_s", "nan"),
        ("synth_noise", "inf"),
        ("synth_word_noise", "-1"),
        ("synth_negative_ratio", "nan"),
    ],
)
def test_non_finite_or_out_of_range_float_is_one_config_error(tmp_path, capsys, key, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:config:") and key in err[0], err
    assert not (tmp_path / "out").exists()


def test_gamma_hidden_defaults_to_three_embed_dims():
    cfg = RunConfig(embed_dim=20)
    assert cfg.gamma_hidden_dim() == 60
    cfg.gamma_hidden = 7
    assert cfg.gamma_hidden_dim() == 7


def test_config_hash_tracks_content():
    a = validate(RunConfig())
    b = validate(RunConfig())
    assert config_hash(a) == config_hash(b)
    b.seed = 99
    assert config_hash(a) != config_hash(b)


def test_parse_layers_over_base():
    base = validate(RunConfig(embed_dim=32))
    cfg = parse_config("seed = 5\n", base=base)
    assert cfg.embed_dim == 32 and cfg.seed == 5
    assert base.seed == 0  # base untouched
