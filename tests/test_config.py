"""Tests for run-configuration parsing, validation, and emission."""

import pytest

from relembed.cli import main
from relembed.config import (
    MOST_SPLIT_ROWS,
    ConfigError,
    RunConfig,
    config_hash,
    emit_config,
    parse_config,
    validate,
    write_config,
)

from conftest import desk_config


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


def test_unknown_key_rejected_with_line(tmp_path, capsys):
    # frobnicate never was a key; eval_mode was a second setter of eval's --mode;
    # the other five were removed with the code paths they chose
    for key in ("frobnicate", "finetune_words", "spatial_norm", "clamp_similarity", "gamma_hidden",
                "similarity_input", "eval_mode"):
        with pytest.raises(ConfigError, match=rf"<config>:2: unknown key '{key}'"):
            parse_config(f"seed = 1\n{key} = 9\n")
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = 1\n{key} = 9\n")
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error:config: {path}:2: unknown key {key!r}"]
        assert not (tmp_path / "out").exists()


def test_duplicate_key_rejected_with_line(tmp_path, capsys):
    """A key given twice once let the last value win silently, even when the
    two values differ."""
    with pytest.raises(ConfigError, match=r"<config>:3: duplicate key 'k'"):
        parse_config("k = 3\nseed = 1\nk = 4\n")
    path = tmp_path / "run.cfg"
    path.write_text("k = 3\nk = 3\n")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error:config: {path}:2: duplicate key 'k'"]
    assert not (tmp_path / "out").exists()


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError, match="embed_dim"):
        parse_config("embed_dim = many\n")
    with pytest.raises(ConfigError, match="true or false"):
        parse_config("normalize_aggregation = yes\n")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# a comment\n\nseed = 4  # trailing\n")
    assert cfg.seed == 4


def test_enum_fields_validated():
    for line in (
        "gamma = cubic",
        "vp_negatives = all",
        "branches = s,q",
    ):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")


@pytest.mark.parametrize(
    "value, message",
    [("", "at least one branch required"), (",", "at least one branch required"), ("s,o,s", "duplicate kinds")],
    ids=("empty", "comma", "repeated"),
)
def test_branches_with_no_kind_or_a_kind_twice_is_one_config_error(tmp_path, capsys, value, message):
    path = tmp_path / "run.cfg"
    path.write_text(f"branches = {value}\n")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error:config: {path}: branches: {message}"]
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("train", "app_out", "-5"),
        ("train", "spatial_hidden", "-1"),
        ("train", "spatial_out", "0"),
        ("synth", "synth_subjects", "0"),
        ("synth", "synth_objects", "-2"),
        ("synth", "synth_families", "0"),
        ("synth", "synth_appearance_dim", "0"),
        ("synth", "synth_cluster_size", "0"),
        ("synth", "synth_predicates", "0"),
        ("synth", "synth_predicates_per_family", "0"),
        ("synth", "synth_predicates_per_family", "-1"),
        ("synth", "synth_predicates_per_family", "11"),
        ("synth", "synth_train_pairs", "-1"),
        ("synth", "synth_test_pairs", "-1"),
        ("synth", "synth_heldout_test_pairs", "-1"),
        ("synth", "synth_heldout", "-1"),
    ],
)
def test_size_out_of_range_is_one_config_error(tmp_path, capsys, command, key, value):
    """Each value once crashed synth or train with a traceback, or (a
    negative ``synth_heldout``) quietly held out the wrong triplets."""
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"{key} must be"):
        parse_config(path.read_text())
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error:config: {path}: {key} must be"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("synth_train_pairs", "1000000000000000000"),
        ("synth_negative_ratio", "1e18"),
        ("synth_test_pairs", "1000000000000000000"),
        ("synth_heldout_test_pairs", "1000000000000000000"),
    ],
)
def test_synthetic_split_above_the_row_ceiling_is_one_config_error(tmp_path, capsys, key, value):
    """The first two once ran synth until a timeout killed it."""
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error:config: {path}: a synthetic split of 72 triplets"), err
    assert f"rows must be <= {MOST_SPLIT_ROWS}" in err[0] and (key in err[0] or "ratio = 1e+18" in err[0])
    assert not (tmp_path / "out").exists()


def test_synthetic_split_at_the_row_ceiling_validates():
    # 72 triplets x 1820 pairs x 2 = 262,080 rows
    assert validate(RunConfig(synth_train_pairs=1820)).synth_train_pairs == 1820
    with pytest.raises(ConfigError, match="synth_train_pairs = 1821 x"):
        validate(RunConfig(synth_train_pairs=1821))


# the layer widths, and two sizes that once ended train (batch_size) and
# synth (synth_appearance_dim) in a numpy traceback
WIDTHS = ("app_out", "branch_hidden", "embed_dim", "spatial_hidden", "spatial_out",
          "batch_size", "synth_appearance_dim")


@pytest.fixture(scope="module")
def desk_world(tmp_path_factory):
    """A synthesized desk world's effective config, trainable at 0 epochs."""
    root = tmp_path_factory.mktemp("world")
    base = str(root / "base.cfg")
    write_config(desk_config(stage1_epochs=0, stage2_epochs=0), base)
    assert main(["synth", "--config", base, "--out", str(root / "run")]) == 0
    return (root / "run" / "effective.cfg").read_text()


# test id -> (the line that sets a key of the desk world's config, the config error it gives)
WIDTH_ERRORS = {
    f"{key}-{value}": (f"{key} = {value}\n", f"{key} must be <= 4096, got {value}")
    for value in ("100000000000000000000", "4097")
    for key in WIDTHS
}
# a deep gamma is 3 * embed_dim wide
WIDTH_ERRORS.update(
    (
        f"derived-embed_dim-{dim}",
        (f"embed_dim = {dim}\n", f"the deep gamma width 3 * embed_dim = {3 * dim} must be <= 4096"),
    )
    for dim in (1366, 4096)
)


@pytest.mark.parametrize("case", list(WIDTH_ERRORS))
def test_width_above_the_ceiling_is_one_config_error(desk_world, tmp_path, capsys, case):
    """A width of 10**20 once ended train in a numpy traceback while the
    model was built; embed_dim = 4096 once asked for a 12,288-wide gamma."""
    line, message = WIDTH_ERRORS[case]
    key = line.partition("=")[0]
    path = tmp_path / "run.cfg"
    path.write_text("".join(kept for kept in desk_world.splitlines(True) if not kept.startswith(key)) + line)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error:config: {path}: {message}"], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", WIDTHS)
def test_width_at_the_ceiling_validates(key):
    # a linear gamma: a deep one at embed_dim = 4096 would be 12,288 wide
    assert getattr(validate(RunConfig(**{"gamma": "linear", key: 4096})), key) == 4096


@pytest.mark.parametrize("key", ["train_data", "test_data", "word_table", "queries", "checkpoint"])
def test_path_with_a_nul_byte_is_one_config_error(tmp_path, capsys, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = data\0.txt\n")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error:config: {path}: {key}: a path cannot hold a NUL byte"]


def test_gamma_hidden_defaults_to_three_embed_dims():
    cfg = RunConfig(embed_dim=20)
    assert cfg.gamma_hidden_dim() == 60
    assert validate(RunConfig(embed_dim=1365)).gamma_hidden_dim() == 4095  # the widest allowed


def test_config_hash_tracks_content():
    a = validate(RunConfig())
    b = validate(RunConfig())
    assert config_hash(a) == config_hash(b)
    b.seed = 99
    assert config_hash(a) != config_hash(b)
