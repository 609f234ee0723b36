"""Versioned binary container for a trained model.

Layout (format 3):
  bytes 0..7    magic ``relembd1``
  bytes 8..11   header length H, little-endian uint32
  bytes 12..    UTF-8 JSON header of exactly H bytes, keys sorted
  afterwards    one float64 little-endian C-order block per entry of
                header["params"], concatenated in listed order

The header carries everything needed to rebuild the model without the
training inputs: the effective config text, with its file-location keys
empty so that one model trained from two directories saves the same bytes,
and its hash, the seed, the three vocabularies, dims, observed triplet
counts, and the parameter catalog (name plus shape). The catalog is
``model.named_parameters`` of the saved model. Loading rebuilds the model
from the stored config with the training constructors
(``model.new_model``, ``analogy.gamma_init``) and requires the header
catalog to equal that model's registry, (name, shape) for every entry in
order, before it copies any block; any difference is one ``DataError``. So
is a header ``format`` other than 3 (format-1 and -2 files store config
keys this version no longer has), a ``word_dim`` or ``appearance_dim``
outside 1 to ``data.MOST_SIZE``, a vocabulary that is not a list of
non-empty strings, and an ``observed`` list that differs from what saving
writes: [s, p, o, count] integer entries, indices inside the vocabularies,
count from 1 to 2**63 - 1, triplets strictly ascending; and so is a model
one of whose branches would have an empty label universe (an empty
``observed`` with vp active, say), or whose vocabularies have more
triplets than int64 codes. Word-vector matrices travel as ordinary
parameter blocks, so a loaded checkpoint scores queries with no word-table
file on hand. Writing the same model twice yields byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from .analogy import Gamma, gamma_init
from .config import PATH_KEYS, config_hash, emit_config, parse_config
from .data import MOST_SIZE, DataError, Vocabulary, triplet_codes, triplet_dims
from .model import JointModel, named_parameters, new_model
from .numkit import rng_stream

MAGIC = b"relembd1"
FORMAT = 3
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
    cfg = dataclasses.replace(model.cfg, **dict.fromkeys(PATH_KEYS, ""))
    header = {
        "format": FORMAT,
        "config": emit_config(cfg),
        "config_hash": config_hash(cfg),
        "seed": seed,
        "subjects": model.subjects.tokens,
        "predicates": model.predicates.tokens,
        "objects": model.objects.tokens,
        "word_dim": model.word_dim,
        "appearance_dim": model.appearance_dim,
        "observed": np.column_stack(np.unravel_index(model.observed, model.dims) + (model.counts,)).tolist(),
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
    if not isinstance(header["config"], str):
        _fail(path, f"header config must be a string, got {type(header['config']).__name__}")
    cfg = parse_config(header["config"], source=path)
    if config_hash(cfg) != header["config_hash"]:
        _fail(path, "config hash mismatch")

    kind = header["gamma"]
    if kind != cfg.gamma:
        _fail(path, f"gamma kind {kind!r} disagrees with config {cfg.gamma!r}")
    if type(header["seed"]) is not int or header["seed"] < 0:
        _fail(path, f"header seed must be an integer >= 0, got {header['seed']!r}")
    for key in ("word_dim", "appearance_dim"):
        if type(header[key]) is not int or not 1 <= header[key] <= MOST_SIZE:
            _fail(path, f"header {key} must be an integer from 1 to {MOST_SIZE}, got {header[key]!r}")

    try:  # every error from here to the model names the file once
        vocabs = []
        for key in ("subjects", "predicates", "objects"):
            tokens = header[key]
            if not isinstance(tokens, list) or not all(isinstance(t, str) and t for t in tokens):
                raise DataError(f"header {key} must be a list of non-empty strings")
            vocabs.append(Vocabulary(tokens))
        observed, counts = _observed(header["observed"], triplet_dims(vocabs))
        model = new_model(
            cfg, tuple(vocabs), observed, counts, header["word_dim"], header["appearance_dim"], header["seed"]
        )
    except DataError as e:
        _fail(path, str(e))
    gamma = gamma_init(
        kind, cfg.embed_dim, cfg.gamma_hidden_dim(), rng_stream(header["seed"], "gamma")
    )

    named = named_parameters(model, gamma)
    catalog = [[name, list(arr.shape)] for name, arr in named]
    if header["params"] != catalog:
        diff = _first_difference(header["params"], catalog)
        _fail(path, f"parameter catalog disagrees with the model: {diff}")
    body = memoryview(raw)[start + hlen :]  # a view: the blocks are copied once, into the model
    offset = 0
    for name, arr in named:
        end = offset + 8 * arr.size
        if end > len(body):
            _fail(path, f"truncated parameter block {name!r}")
        arr[...] = np.frombuffer(body, dtype="<f8", count=arr.size, offset=offset).reshape(arr.shape)
        offset = end
    if offset != len(body):
        _fail(path, f"{len(body) - offset} trailing bytes after parameter blocks")
    return model, gamma, header["seed"]


def _observed(entries, dims) -> tuple[np.ndarray, np.ndarray]:
    """Codes and counts of header ``observed`` as save writes it: [s, p, o,
    count] entries with indices inside ``dims``, count from 1 to 2**63 - 1,
    triplets strictly ascending."""
    if not isinstance(entries, list):
        raise DataError(f"header observed must be a list, got {type(entries).__name__}")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 4 and all(type(v) is int for v in entry)):
            raise DataError(f"observed entry {i} must be four integers, got {entry!r}")
        if not all(0 <= index < n for index, n in zip(entry, dims)):
            raise DataError(f"observed entry {i} {entry} indexes outside the vocabularies")
        if not 1 <= entry[3] <= np.iinfo(np.int64).max:
            raise DataError(f"observed entry {i} {entry} has count {entry[3]} outside 1 to 2**63 - 1")
        if i and entry[:3] <= entries[i - 1][:3]:
            raise DataError(f"observed entry {i} {entry} is out of ascending order")
    table = np.array(entries, dtype=np.int64).reshape(-1, 4)
    return triplet_codes(dims, table[:, :3].T), table[:, 3]


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
