"""Fuzz test of the CLI error contract: a mutated dataset, config file,
checkpoint or query list makes ``synth``, ``train`` (zero epochs),
``inspect embeddings`` or ``eval --mode direct`` return 0, or return 1 with
exactly one ``error:<category>:`` line on stderr, never a traceback.

Derandomized and without an example database, so every run tries the same
inputs; the whole file runs in a few seconds.
"""

import re
import warnings
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from relembed.cli import main
from relembed.config import load_config, write_config

from conftest import desk_config

ERROR_LINE = re.compile(r"error:(usage|config|data|io|numeric): ")

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# tokens a hand-edited or corrupted pair line might hold
TOKENS = [
    b"", b"nan", b"inf", b"-inf", b"-0.0", b"1e309", b"9" * 25, b"9223372036854775808",
    b"-9223372036854775809", b"0x1f", b"1_0", b"p1:", b":", b"p1:pre0", b"p9:pre9",
    b"labels", b"pair", b"sub", b"#x", b"sub0", b"obj0", b"\xff", b"\xc3", "٣".encode(),
    b"\x00", b"1" * 5000,
]

# values a hand-edited synth_* line might hold: they parse, some out of range,
# and the largest make noise draws overflow
LARGE = [b"1e155", b"1e200", b"1e308"]
SIZES = [b"0", b"-1", b"1", b"2", b"3", b"4", b"5", b"6", b"8", b"11", b"12", b"20", b"64", b"65",
         b"0.0", b"-0.5", b"1e3", *LARGE]

# synth_* keys that scale drawn values; every other bounds the world's size
NOISE_KEYS = ("synth_noise", "synth_word_noise")


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """The directory of a desk world, a config that trains it for zero
    epochs from ``fuzz.ds`` into ``fuzz.ckpt``, that checkpoint's bytes in
    ``good.ckpt``, and ``query.cfg``, which evaluates ``good.ckpt`` on the
    queries in ``fuzz.txt``."""
    root = tmp_path_factory.mktemp("fuzz")
    write_config(desk_config(stage1_epochs=0, stage2_epochs=0), str(root / "base.cfg"))
    assert main(["synth", "--config", str(root / "base.cfg"), "--out", str(root)]) == 0
    cfg = load_config(str(root / "effective.cfg"))
    cfg.train_data, cfg.checkpoint = str(root / "fuzz.ds"), str(root / "fuzz.ckpt")
    write_config(cfg, str(root / "fuzz.cfg"))
    (root / "fuzz.ds").write_bytes((root / "train.ds").read_bytes())
    assert main(["train", "--config", str(root / "fuzz.cfg"), "--out", str(root / "train")]) == 0
    (root / "good.ckpt").write_bytes((root / "fuzz.ckpt").read_bytes())
    cfg.checkpoint, cfg.queries = str(root / "good.ckpt"), str(root / "fuzz.txt")
    write_config(cfg, str(root / "query.cfg"))
    return root


def assert_contract(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 0 or (rc == 1 and len(err) == 1 and ERROR_LINE.match(err[0])), (rc, err)


def mutate_lines(data, text: bytes, first: int = 0, tokens=TOKENS) -> bytes:
    """``text`` with 1-3 of its lines from ``first`` on mutated; a replaced
    token is one of ``tokens`` or a few random bytes."""
    lines = text.split(b"\n")
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(first, len(lines) - 2))  # the last element is ""
        lines[i] = mutate_line(data, lines[i], tokens)
    return b"\n".join(lines)


def mutate_line(data, line: bytes, tokens=TOKENS) -> bytes:
    parts = line.split(b" ")
    at = data.draw(st.integers(0, len(parts) - 1))
    op = data.draw(st.sampled_from(["replace", "delete", "duplicate", "bytes", "truncate"]))
    if op == "replace":
        parts[at] = data.draw(st.sampled_from(tokens) | st.binary(max_size=4))
    elif op == "delete":
        del parts[at]
    elif op == "duplicate":
        parts.insert(at, parts[at])
    elif op == "bytes":
        cut = data.draw(st.integers(0, len(parts[at])))
        parts[at] = parts[at][:cut] + data.draw(st.binary(min_size=1, max_size=3)) + parts[at][cut:]
    else:
        return b" ".join(parts[:at])
    return b" ".join(parts)


@settings(FUZZ, max_examples=250)
@given(data=st.data())
def test_train_on_mutated_pair_lines_keeps_the_error_contract(desk_run, capsys, data):
    root = desk_run
    text = (root / "train.ds").read_bytes()
    first_pair = text[: text.index(b"\npair")].count(b"\n") + 1
    (root / "fuzz.ds").write_bytes(mutate_lines(data, text, first_pair))
    assert_contract(["train", "--config", str(root / "fuzz.cfg"), "--out", str(root / "train")], capsys)


# keys whose values set the work and memory of a zero-epoch train run
SIZE_KEYS = ("stage1_epochs", "stage2_epochs", "embed_dim", "branch_hidden", "app_out",
             "spatial_hidden", "spatial_out")


@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_train_on_mutated_config_lines_keeps_the_error_contract(desk_run, capsys, monkeypatch, data):
    root = desk_run
    monkeypatch.chdir(root)  # a mutated relative path stays inside the world's directory
    text = mutate_lines(data, (root / "fuzz.cfg").read_bytes())
    (root / "mutated.cfg").write_bytes(text)
    try:
        cfg = load_config(str(root / "mutated.cfg"))
    except Exception:  # main must report it; assert_contract checks how
        cfg = None
    # a config that parses but asks for training or a wide model would train
    # or allocate for real; it is not a malformed input
    assume(cfg is None or (cfg.stage1_epochs == cfg.stage2_epochs == 0
                           and max(getattr(cfg, key) for key in SIZE_KEYS) <= 64))
    assert_contract(["train", "--config", str(root / "mutated.cfg"), "--out", str(root / "train")], capsys)


@settings(FUZZ, max_examples=150)
@given(data=st.data())
def test_synth_on_mutated_config_lines_keeps_the_error_contract(desk_run, capsys, monkeypatch, data):
    root = desk_run
    monkeypatch.chdir(root)
    # the values of 1-3 synth_* lines are mutated: key typos are the config
    # fuzz's part, and a broken key never reaches the generator
    lines = (root / "base.cfg").read_bytes().splitlines()
    keys, values = zip(*(line.split(b" = ") for line in lines if line.startswith(b"synth_")))
    # in two examples of three one noise key starts at a large value, so
    # that 1e308 overflows its draws: mutating 1-3 lines alone seldom does
    values, loud = list(values), data.draw(st.sampled_from((None, *NOISE_KEYS)))
    if loud:
        values[keys.index(loud.encode())] = data.draw(st.sampled_from(LARGE))
    values = mutate_lines(data, b"\n".join(values) + b"\n", tokens=SIZES).split(b"\n")
    synth = [key + b" = " + value for key, value in zip(keys, values)]
    kept = [line for line in lines if not line.startswith(b"synth_")]
    (root / "synth.cfg").write_bytes(b"\n".join(kept + synth) + b"\n")
    try:
        cfg = load_config(str(root / "synth.cfg"))
    except Exception:  # main must report it; assert_contract checks how
        cfg = None
    # every size key bounded, so that no example generates a large world
    assume(cfg is None or all(getattr(cfg, f.name) <= 64 for f in fields(cfg)
                              if f.name.startswith("synth_") and f.name not in NOISE_KEYS))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_contract(["synth", "--config", str(root / "synth.cfg"), "--out", str(root / "synth")], capsys)
    assert [str(w.message) for w in caught] == []


@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_eval_on_mutated_query_lines_keeps_the_error_contract(desk_run, capsys, data):
    root = desk_run
    (root / "fuzz.txt").write_bytes(mutate_lines(data, (root / "heldout.txt").read_bytes()))
    argv = ["eval", "--config", str(root / "query.cfg"), "--mode", "direct", "--out", str(root / "eval")]
    assert_contract(argv, capsys)


@settings(FUZZ, max_examples=400)
@given(data=st.data())
def test_inspect_on_mutated_checkpoint_bytes_keeps_the_error_contract(desk_run, capsys, data):
    root = desk_run
    raw = bytearray((root / "good.ckpt").read_bytes())
    header_end = 12 + int.from_bytes(raw[8:12], "little")
    for _ in range(data.draw(st.integers(1, 3))):
        if not raw:
            break
        # mostly the magic, length and JSON header, sometimes the parameter blocks
        end = min(header_end, len(raw))
        at = data.draw(st.integers(0, end - 1) | st.integers(0, len(raw) - 1))
        op = data.draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if op == "set":
            raw[at] = data.draw(st.integers(0, 255))
        elif op == "insert":
            raw[at:at] = data.draw(st.binary(min_size=1, max_size=1))
        elif op == "delete":
            del raw[at]
        else:
            del raw[at:]
    (root / "fuzz.ckpt").write_bytes(bytes(raw))
    assert_contract(["inspect", "--checkpoint", str(root / "fuzz.ckpt"), "embeddings"], capsys)
