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
catalog (name plus shape). The catalog is ``model.named_parameters`` of
the saved model. Loading rebuilds the layers from the stored config with the
training constructors (``model.init_layers``, ``analogy.gamma_init``) and
requires the header catalog to equal that model's registry, (name, shape)
for every entry in order, before it copies any block; any difference is one
``DataError``. Word-vector matrices travel as ordinary parameter blocks, so a
loaded checkpoint scores queries with no word-table file on hand. Writing the
same model twice yields byte-identical files.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .analogy import Gamma, gamma_init
from .config import config_hash, emit_config, parse_config
from .data import DataError, Triplet, Vocabulary
from .model import JointModel, init_layers, named_parameters
from .numkit import rng_stream

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


def save_checkpoint(path: str, model: JointModel, gamma: Gamma | None, seed: int):
    named = named_parameters(model, gamma)
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

    kind = header["gamma"]
    if kind != cfg.gamma:
        _fail(path, f"gamma kind {kind!r} disagrees with config {cfg.gamma!r}")
    for key, least in (("seed", 0), ("word_dim", 1), ("appearance_dim", 1)):
        if type(header[key]) is not int or header[key] < least:
            _fail(path, f"header {key} must be an integer >= {least}, got {header[key]!r}")

    subjects = Vocabulary(header["subjects"])
    predicates = Vocabulary(header["predicates"])
    objects = Vocabulary(header["objects"])
    word_dim = header["word_dim"]
    visual, branches = init_layers(cfg, word_dim, header["appearance_dim"], header["seed"])
    model = JointModel(
        cfg=cfg,
        subjects=subjects,
        predicates=predicates,
        objects=objects,
        word_dim=word_dim,
        e_sub=np.zeros((len(subjects), word_dim)),
        e_pre=np.zeros((len(predicates), word_dim)),
        e_obj=np.zeros((len(objects), word_dim)),
        visual=visual,
        branches=branches,
        observed=[Triplet(s, p, o) for s, p, o, _ in header["observed"]],
        counts={Triplet(s, p, o): c for s, p, o, c in header["observed"]},
        appearance_dim=header["appearance_dim"],
    )
    gamma = gamma_init(
        kind, cfg.embed_dim, cfg.gamma_hidden_dim(), rng_stream(header["seed"], "gamma")
    )

    named = named_parameters(model, gamma)
    catalog = [[name, list(arr.shape)] for name, arr in named]
    if header["params"] != catalog:
        diff = _first_difference(header["params"], catalog)
        _fail(path, f"parameter catalog disagrees with the model: {diff}")
    body = raw[start + hlen :]
    offset = 0
    for name, arr in named:
        end = offset + 8 * arr.size
        if end > len(body):
            _fail(path, f"truncated parameter block {name!r}")
        block = np.frombuffer(body, dtype="<f8", count=arr.size, offset=offset)
        arr[...] = block.reshape(arr.shape)
        offset = end
    if offset != len(body):
        _fail(path, f"{len(body) - offset} trailing bytes after parameter blocks")
    return model, gamma, header["seed"]


def _first_difference(got, want: list) -> str:
    """Where a header catalog first departs from the model's registry."""
    if not isinstance(got, list):
        return f"expected a list of [name, shape] entries, got {type(got).__name__}"
    for i, entry in enumerate(want):
        if i >= len(got):
            return f"missing entry {i} {entry}"
        if got[i] != entry:
            return f"entry {i} is {got[i]!r}, the model has {entry}"
    return f"{len(got) - len(want)} extra entries after {len(want)}"
