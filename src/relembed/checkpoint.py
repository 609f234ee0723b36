"""Versioned binary container for a trained model.

Layout:
  bytes 0..7    magic ``relembd1``
  bytes 8..11   header length H, little-endian uint32
  bytes 12..    UTF-8 JSON header of exactly H bytes, keys sorted
  afterwards    one float64 little-endian C-order block per entry of
                header["params"], concatenated in listed order

The header carries everything needed to rebuild the model without the
training inputs: the effective config text and its hash, the seed, the
three vocabularies, dims, observed triplet counts, and the parameter
catalog (name plus shape). Word-vector matrices travel as ordinary
parameter blocks, so a loaded checkpoint scores queries with no word-table
file on hand. Writing the same model twice yields byte-identical files.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .analogy import Gamma, gamma_params
from .config import config_hash, emit_config, parse_config
from .data import DataError, Triplet, Vocabulary
from .features import VisualInputParams
from .model import Branch, JointModel
from .numkit import Array, Linear, Mlp, layer_params

MAGIC = b"relembd1"
FORMAT = 1
HEADER_KEYS = (
    "appearance_dim",
    "config",
    "config_hash",
    "format",
    "gamma",
    "objects",
    "observed",
    "params",
    "predicates",
    "seed",
    "subjects",
    "word_dim",
)


def model_params(model: JointModel, gamma: Gamma | None = None) -> list[tuple[str, Array]]:
    """Every persistent array, in the fixed order the container uses."""
    named = [
        ("words.sub", model.e_sub),
        ("words.pre", model.e_pre),
        ("words.obj", model.e_obj),
    ]
    named.extend(model.visual.params())
    for kind in model.cfg.branch_list():
        br = model.branch(kind)
        named.extend(layer_params(f"branch.{kind}.f_v", br.f_v))
        named.extend(layer_params(f"branch.{kind}.f_w", br.f_w))
    if gamma is not None:
        named.extend(gamma_params(gamma))
    return named


def save_checkpoint(path: str, model: JointModel, gamma: Gamma | None, seed: int):
    named = model_params(model, gamma)
    header = {
        "format": FORMAT,
        "config": emit_config(model.cfg),
        "config_hash": config_hash(model.cfg),
        "seed": seed,
        "subjects": model.subjects.tokens,
        "predicates": model.predicates.tokens,
        "objects": model.objects.tokens,
        "word_dim": model.word_dim,
        "appearance_dim": model.appearance_dim,
        "observed": [[t.s, t.p, t.o, model.counts[t]] for t in model.observed],
        "gamma": gamma.kind if gamma is not None else "absent",
        "params": [[name, list(arr.shape)] for name, arr in named],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in named:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _fail(path: str, msg: str):
    raise DataError(f"{path}: {msg}")


def _mlp(take, prefix: str, dropout: float = 0.0) -> Mlp:
    return Mlp(
        Linear(take(prefix + ".first.w"), take(prefix + ".first.b")),
        Linear(take(prefix + ".second.w"), take(prefix + ".second.b")),
        dropout,
    )


def load_checkpoint(path: str) -> tuple[JointModel, Gamma, int]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        _fail(path, "not a checkpoint (bad magic)")
    if len(raw) < len(MAGIC) + 4:
        _fail(path, "truncated header length")
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    if len(raw) < start + hlen:
        _fail(path, "truncated header")
    try:
        header = json.loads(raw[start : start + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        _fail(path, f"unreadable header: {e}")
    if not isinstance(header, dict):
        _fail(path, "header is not a JSON object")
    missing = [key for key in HEADER_KEYS if key not in header]
    if missing:
        _fail(path, f"header lacks {', '.join(missing)}")
    if header["format"] != FORMAT:
        _fail(path, f"unsupported format {header['format']!r}")
    cfg = parse_config(header["config"], source=path)
    if config_hash(cfg) != header["config_hash"]:
        _fail(path, "config hash mismatch")

    body = raw[start + hlen :]
    blocks: dict[str, Array] = {}
    offset = 0
    for name, shape in header["params"]:
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(body):
            _fail(path, f"truncated parameter block {name!r}")
        blocks[name] = (
            np.frombuffer(body, dtype="<f8", count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
        offset = end
    if offset != len(body):
        _fail(path, f"{len(body) - offset} trailing bytes after parameter blocks")

    def take(name: str) -> Array:
        try:
            return blocks.pop(name)
        except KeyError:
            _fail(path, f"missing parameter block {name!r}")

    e_sub, e_pre, e_obj = take("words.sub"), take("words.pre"), take("words.obj")
    if e_sub.shape[1] != header["word_dim"]:
        _fail(path, "word_dim disagrees with words.sub block")
    visual = VisualInputParams(
        Linear(take("visual.sub_proj.w"), take("visual.sub_proj.b")),
        Linear(take("visual.obj_proj.w"), take("visual.obj_proj.b")),
        _mlp(take, "visual.spatial"),
    )
    branches = {
        kind: Branch(
            kind,
            f_v=_mlp(take, f"branch.{kind}.f_v", dropout=cfg.dropout),
            f_w=_mlp(take, f"branch.{kind}.f_w"),
        )
        for kind in cfg.branch_list()
    }

    kind = header["gamma"]
    if kind != cfg.gamma:
        _fail(path, f"gamma kind {kind!r} disagrees with config {cfg.gamma!r}")
    if kind == "linear":
        gamma = Gamma("linear", lin=Linear(take("gamma.lin.w")))
    elif kind == "deep":
        gamma = Gamma(
            "deep", net=Mlp(Linear(take("gamma.net.first.w")), Linear(take("gamma.net.second.w")))
        )
    else:
        gamma = Gamma(kind)
    if blocks:
        _fail(path, f"unused parameter blocks: {', '.join(sorted(blocks))}")

    observed = [Triplet(s, p, o) for s, p, o, _ in header["observed"]]
    counts = {Triplet(s, p, o): c for s, p, o, c in header["observed"]}
    model = JointModel(
        cfg=cfg,
        subjects=Vocabulary(header["subjects"]),
        predicates=Vocabulary(header["predicates"]),
        objects=Vocabulary(header["objects"]),
        word_dim=header["word_dim"],
        e_sub=e_sub,
        e_pre=e_pre,
        e_obj=e_obj,
        visual=visual,
        branches=branches,
        observed=observed,
        counts=counts,
        appearance_dim=header["appearance_dim"],
    )
    return model, gamma, header["seed"]
