"""Vocabularies, the candidate pair table, datasets, word-vector tables,
their file formats, and a planted synthetic-relation generator.

A candidate pair is one (subject box, object box) proposal inside an image,
carrying precomputed appearance features for both boxes and a possibly empty
list of predicate labels, each annotating the triplet (subject_category,
predicate, object_category). Candidate pairs live in one ``PairTable`` of
columns, one row per pair; a dataset's pairs, every training batch, every
eval candidate set, a query's ranking and its ground truth are tables, and
``PairTable.take`` selects rows. ``load_dataset`` converts each field of a
block of ``READ_ROWS`` pair lines at once, and ``PairTable.from_blocks``
appends the blocks to growable typed columns; the synthetic generator fills
columns allocated once, one triplet's block of rows at a time.

File formats (all line-oriented text, floats written with full precision):

  dataset:     header lines ``#appearance_dim <d_a>``, ``#subjects <path>``,
               ``#predicates <path>``, ``#objects <path>`` (paths relative to
               the dataset file), then one line per pair:
               ``pair <id> <image_id> sub <4 reals> obj <4 reals> scat <tok>
               ocat <tok> afeat_s <d_a reals> afeat_o <d_a reals> labels
               p1:<tok> p2:<tok> ...`` (label list may be empty). Each
               header appears once, before the first pair line. With
               d = d_a, a pair line's fields sit at fixed positions: the
               keywords at 0, 3, 8, 13, 15, 17, 18+d and 19+2d; id 1,
               image_id 2, sub 4-7, obj 9-12, scat 14, ocat 16, afeat_s 18
               to 17+d, afeat_o 19+d to 18+2d, and the label entries from
               20+2d on.
  vocabulary:  one token per line, line order defines the index.
  word table:  first line ``dim <d_w>``, then ``<tok> v1 ... v_dw``, one
               line per token.
  query list:  one triplet per line, ``<subject> <predicate> <object>``.

Every reader, ``retrieval.load_results`` included, goes through one line
reader, ``read_lines``: numbered, split, non-blank lines, each a ``Line``
whose accessors take field positions and name the file and line in every
error. Blank lines are skipped everywhere, and every integer field must fit
in int64.

Tokens containing spaces are written with underscores and restored on read.
A triplet reads and prints through one codec, ``parse_triplet`` and
``triplet_text``; a label triplet with masked slots prints only the tokens
of the slots its mask keeps. In memory a triplet is one int64 code,
(s·|P| + p)·|O| + o over the vocabulary sizes (``triplet_codes``), and a
set of triplets is a sorted code array; code order is lexicographic
(s, p, o) order, and codes are never written to a file.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from array import array
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

import numpy as np

from .numkit import rng_stream

if TYPE_CHECKING:
    from .config import RunConfig

Array = np.ndarray


class DataError(ValueError):
    """Malformed or inconsistent data; message carries file:line when known."""


def token_to_file(token: str) -> str:
    return token.replace(" ", "_")


def token_from_file(token: str) -> str:
    return token.replace("_", " ")


def fmt_reals(values) -> str:
    return " ".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


class Triplet(NamedTuple):
    s: int
    p: int
    o: int


# slot multipliers (subject, predicate, object) of each branch kind's
# language input, in canonical branch order; a label triplet holds 0 in
# every slot its mask zeroes, and "vp" keeps all three
LANGUAGE_MASKS = {
    "s": (1.0, 0.0, 0.0),
    "o": (0.0, 0.0, 1.0),
    "p": (0.0, 1.0, 0.0),
    "vp": (1.0, 1.0, 1.0),
    "sp": (1.0, 1.0, 0.0),
    "po": (0.0, 1.0, 1.0),
}

_SLOT_NAMES = ("subject", "predicate", "object")

# the largest layer width, batch size or vector width that a config, a word
# table, a dataset or a checkpoint header may ask for
MOST_SIZE = 4096

_INT64 = np.iinfo(np.int64)


def triplet_dims(vocabs) -> tuple[int, int, int]:
    """(|S|, |P|, |O|), the sizes triplet codes are taken over; an error
    when int64 codes cannot number every triplet."""
    dims = tuple(len(v) for v in vocabs)
    if math.prod(dims) > _INT64.max:
        raise DataError(f"{' x '.join(map(str, dims))} triplets do not fit int64 codes")
    return dims


def triplet_codes(dims, slots, mask: str = "vp") -> Array:
    """The int64 code of each triplet of the (s, p, o) index arrays
    ``slots``; a slot that ``mask`` zeroes is encoded as 0."""
    kept = tuple(np.asarray(i, np.int64) * int(k) for i, k in zip(slots, LANGUAGE_MASKS[mask]))
    return np.ravel_multi_index(kept, dims)


def triplet_of(dims, code) -> tuple[int, int, int]:
    """The (s, p, o) indices of one code, for printing."""
    return tuple(int(i) for i in np.unravel_index(code, dims))


class Vocabulary:
    """Ordered unique tokens with a token -> index map."""

    def __init__(self, tokens: Iterable[str]):
        self.tokens = list(tokens)
        self.index: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if not tok:
                raise DataError(f"empty token at index {i}")
            if tok in self.index:
                raise DataError(f"duplicate token {tok!r}")
            self.index[tok] = i

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __getitem__(self, i: int) -> str:
        return self.tokens[i]


@dataclass(frozen=True)
class BoundingBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DataError(
                f"degenerate box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    def coords(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(eq=False)
class PairTable:
    """Candidate pairs as columns, one row per pair. Row i's positive
    predicates, in file order and repeats kept, are compressed sparse rows:
    ``pos_preds[pos_offsets[i]:pos_offsets[i + 1]]``."""

    pair_id: Array  # (N,) int64
    image_id: Array  # (N,) int64
    scat: Array  # (N,) int64 subject category
    ocat: Array  # (N,) int64 object category
    a_s: Array  # (N, d_a) subject appearance
    a_o: Array  # (N, d_a) object appearance
    coords: Array  # (N, 8) box coordinates, subject box first
    pos_offsets: Array  # (N + 1,) int64
    pos_preds: Array  # int64 predicate indices

    @classmethod
    def from_blocks(cls, blocks: Iterable[tuple], appearance_dim: int) -> "PairTable":
        """A table from blocks of rows, each given as its columns (pair_id,
        image_id, scat, ocat, a_s, a_o, coords, predicates, predicate counts)
        and appended to typed columns that the arrays view."""
        columns, offsets = [array(code) for code in "qqqqdddq"], array("q", [0])
        for *block, counts in blocks:
            for column, values in zip(columns, block):
                column.frombytes(np.asarray(values, column.typecode).tobytes())
            offsets.frombytes((offsets[-1] + np.cumsum(counts, dtype=np.int64)).tobytes())
        n = len(offsets) - 1  # a row of the wrong width fails the reshape
        ints = [np.frombuffer(c, np.int64) for c in (*columns[:4], offsets, columns[7])]
        reals = (np.frombuffer(c).reshape(n, w) for c, w in zip(columns[4:7], (appearance_dim, appearance_dim, 8)))
        return cls(*ints[:4], *reals, *ints[4:])

    def __len__(self) -> int:
        return len(self.pair_id)

    # one-row tables, in row order; only perfbench/test_perfbench.py iterates a table
    def __iter__(self) -> Iterator["PairTable"]:
        return (self.take([i]) for i in range(len(self)))

    def take(self, rows) -> "PairTable":
        """The table of the given rows (an index sequence), in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        start = self.pos_offsets[rows]
        lengths = self.pos_offsets[rows + 1] - start
        offsets = np.cumsum(np.concatenate(([0], lengths)), dtype=np.int64)
        entries = np.repeat(start - offsets[:-1], lengths) + np.arange(offsets[-1])
        columns = (getattr(self, f.name)[rows] for f in fields(self)[:-2])  # all but the CSR pair
        return PairTable(*columns, offsets, self.pos_preds[entries])

    @cached_property
    def _positive_slots(self) -> tuple[Array, tuple[Array, Array, Array]]:
        # taken once per table: a table's columns never change after it is built
        rows = np.repeat(np.arange(len(self)), np.diff(self.pos_offsets))
        rows.flags.writeable = False  # every call returns this array
        return rows, (self.scat[rows], self.pos_preds, self.ocat[rows])

    def positives(self, dims, mask: str = "vp") -> tuple[Array, Array]:
        """Row index and triplet code (scat, predicate, ocat), masked by
        ``mask``, of every positive entry, in entry order. The row and
        slot columns are gathered on the first call; each call masks them."""
        rows, slots = self._positive_slots
        return rows, triplet_codes(dims, slots, mask)


@dataclass(eq=False)
class Dataset:
    subjects: Vocabulary
    predicates: Vocabulary
    objects: Vocabulary
    pairs: PairTable

    @property
    def dims(self) -> tuple[int, int, int]:
        return triplet_dims((self.subjects, self.predicates, self.objects))

    @property
    def appearance_dim(self) -> int:
        return self.pairs.a_s.shape[1]


@dataclass(eq=False)
class WordTable:
    dim: int
    vectors: dict[str, Array]

    def lookup(self, token: str) -> Array:
        try:
            return self.vectors[token]
        except KeyError:
            raise DataError(f"no word vector for {token!r}") from None


# ---------------------------------------------------------------------------
# The line reader
# ---------------------------------------------------------------------------


class Line:
    """One numbered, split, non-blank line of an input file. The accessors
    take field positions (``token`` a field's text); every failure names the
    file and the line."""

    __slots__ = ("path", "lineno", "parts")

    def __init__(self, path: str, lineno: int, parts: list[str]):
        self.path, self.lineno, self.parts = path, lineno, parts

    def fail(self, msg: str):
        raise DataError(f"{self.path}:{self.lineno}: {msg}")

    def expect(self, length: int, keywords: Iterable[tuple[int, str]], exact: bool = False):
        """At least (``exact``: exactly) ``length`` fields, and each
        (position, word) of ``keywords`` in place, checked in order."""
        if len(self.parts) < length:
            self.fail("truncated line")
        if exact and len(self.parts) > length:
            self.fail(f"expected {length} fields, found {len(self.parts)}")
        for at, word in keywords:
            if self.parts[at] != word:
                self.fail(f"expected {word!r}, found {self.parts[at]!r}")

    def integer(self, at: int, what: str) -> int:
        try:
            value = int(self.parts[at])
        except ValueError:
            self.fail(f"bad {what} {self.parts[at]!r}")
        if not _INT64.min <= value <= _INT64.max:
            self.fail(f"{what} {self.parts[at]} outside the int64 range")
        return value

    def reals(self, start: int, stop: int | None, what: str) -> Array:
        """Fields start:stop as one float64 array (same bits as ``float``)."""
        block = self.parts[start:stop]
        try:
            return np.array(block, dtype=np.float64)
        except ValueError:
            for tok in block:
                try:
                    float(tok)
                except ValueError:
                    self.fail(f"bad real in {what}: {tok!r}")
            raise

    def token(self, text: str, vocab: Vocabulary, what: str) -> int:
        tok = token_from_file(text)
        if tok not in vocab:
            self.fail(f"unknown {what} token {tok!r}")
        return vocab.index[tok]

    def triplet(self, vocabs, start: int = 0, stop: int | None = None) -> Triplet:
        try:
            return parse_triplet(vocabs, self.parts[start:stop])
        except DataError as e:
            self.fail(str(e))


def read_lines(path: str) -> Iterator[Line]:
    """The non-blank lines of a text file, split on whitespace, numbered
    from 1."""
    with open(path) as fh:
        try:
            for lineno, raw in enumerate(fh, 1):
                parts = raw.split()
                if parts:
                    yield Line(path, lineno, parts)
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: undecodable text: {e.reason}") from None


# ---------------------------------------------------------------------------
# Vocabulary and word-table files
# ---------------------------------------------------------------------------


def write_vocabulary(vocab: Vocabulary, path: str):
    with open(path, "w") as fh:
        for tok in vocab.tokens:
            fh.write(token_to_file(tok) + "\n")


def load_vocabulary(path: str) -> Vocabulary:
    tokens: dict[str, None] = {}
    for line in read_lines(path):
        if len(line.parts) != 1:
            line.fail("vocabulary lines hold exactly one token")
        token = token_from_file(line.parts[0])
        if token in tokens:
            line.fail(f"duplicate token {line.parts[0]!r}")
        tokens[token] = None
    return Vocabulary(tokens)


def write_word_table(table: WordTable, path: str):
    with open(path, "w") as fh:
        fh.write(f"dim {table.dim}\n")
        for tok in table.vectors:
            fh.write(token_to_file(tok) + " " + fmt_reals(table.vectors[tok]) + "\n")


def load_word_table(path: str, vocabularies: Iterable[Vocabulary]) -> WordTable:
    """Read a word-vector table, keeping only vocabulary tokens.

    Extra tokens in the file are dropped silently; a token listed twice is
    an error, and missing vocabulary tokens are an error listing every
    absent token at once.
    """
    wanted: set[str] = set()
    for vocab in vocabularies:
        wanted.update(vocab.tokens)
    vectors: dict[str, Array] = {}
    listed: set[str] = set()
    dim = None
    for line in read_lines(path):
        parts = line.parts
        if dim is None:
            if parts[0] != "dim" or len(parts) != 2:
                line.fail("expected header 'dim <d_w>'")
            dim = line.integer(1, "dimension")
            if not 1 <= dim <= MOST_SIZE:
                line.fail(f"dimension must be from 1 to {MOST_SIZE}, got {dim}")
            continue
        tok = token_from_file(parts[0])
        if tok in listed:
            line.fail(f"duplicate token {parts[0]!r}")
        listed.add(tok)
        if tok not in wanted:
            continue
        if len(parts) - 1 != dim:
            line.fail(f"expected {dim} values, found {len(parts) - 1}")
        vectors[tok] = line.reals(1, None, f"the vector of {parts[0]!r}")
    if dim is None:
        raise DataError(f"{path}: empty word table")
    missing = sorted(wanted - vectors.keys())
    if missing:
        raise DataError(f"{path}: missing word vectors for: " + ", ".join(missing))
    return WordTable(dim, vectors)


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

_VOCAB_KEYS = ("subjects", "predicates", "objects")


def write_dataset(dataset: Dataset, path: str, write_vocabularies: bool = True):
    """Write a dataset file plus (by default) its three vocabulary files,
    ``<key>.txt`` next to it for 'subjects', 'predicates' and 'objects'."""
    base, vocabs = os.path.dirname(os.path.abspath(path)), (dataset.subjects, dataset.predicates, dataset.objects)
    if write_vocabularies:
        for key, vocab in zip(_VOCAB_KEYS, vocabs):
            write_vocabulary(vocab, os.path.join(base, f"{key}.txt"))
    with open(path, "w") as fh:
        fh.write(f"#appearance_dim {dataset.appearance_dim}\n")
        for key in _VOCAB_KEYS:
            fh.write(f"#{key} {key}.txt\n")
        t, reals = dataset.pairs, " %r" * dataset.appearance_dim  # %r of a float is fmt_reals's repr
        line = f"pair %d %d sub %r %r %r %r obj %r %r %r %r scat %s ocat %s afeat_s{reals} afeat_o{reals} labels%s\n"
        subjects, predicates, objects = ([*map(token_to_file, vocab.tokens)] for vocab in vocabs)
        preds, offsets = t.pos_preds.tolist(), t.pos_offsets
        columns = (t.pair_id, t.image_id, t.coords, t.scat, t.ocat, t.a_s, t.a_o, offsets[:-1], offsets[1:])
        for first in range(0, len(t), READ_ROWS):  # the columns listed a block of rows at a time
            block = zip(*(c[first : first + READ_ROWS].tolist() for c in columns))
            for pair_id, image_id, xy, scat, ocat, a_s, a_o, start, stop in block:
                labels = "".join(f" p{j + 1}:{predicates[p]}" for j, p in enumerate(preds[start:stop]))
                fh.write(line % (pair_id, image_id, *xy, subjects[scat], objects[ocat], *a_s, *a_o, labels))


READ_ROWS = 32  # pair lines converted at once, read or written; 64 loaded as fast, but moved more peak memory


def _pair_keywords(d: int) -> tuple[tuple[int, str], ...]:
    """(position, keyword) of every keyword of a pair line."""
    return ((0, "pair"), (3, "sub"), (8, "obj"), (13, "scat"), (15, "ocat"),
            (17, "afeat_s"), (18 + d, "afeat_o"), (19 + 2 * d, "labels"))


def _check_pair_line(line: Line, d: int, vocabs: dict[str, Vocabulary], seen_ids: set[int]):
    """Every test of one pair line, in field order, failing with the line's
    first error; adds its pair id to ``seen_ids``."""
    if line.parts[0].startswith("#"):
        line.fail("header line after the first pair line")
    line.expect(20 + 2 * d, _pair_keywords(d))
    pair_id = line.integer(1, "pair id")
    line.integer(2, "image id")
    sub, obj = line.reals(4, 8, "sub box"), line.reals(9, 13, "obj box")
    line.token(line.parts[14], vocabs["subjects"], "subject category")
    line.token(line.parts[16], vocabs["objects"], "object category")
    line.reals(18, 18 + d, "afeat_s")
    line.reals(19 + d, 19 + 2 * d, "afeat_o")
    for entry in line.parts[20 + 2 * d :]:
        tag, sep, tok = entry.partition(":")
        if not sep or not tag.startswith("p") or not tag[1:].isdigit():
            line.fail(f"bad label entry {entry!r}, expected p<n>:<token>")
        line.token(tok, vocabs["predicates"], "predicate")
    try:
        BoundingBox(*sub), BoundingBox(*obj)
    except DataError as e:
        line.fail(str(e))
    if pair_id in seen_ids:
        line.fail(f"duplicate pair id {pair_id}")
    seen_ids.add(pair_id)


def _read_pairs(lines: Iterator[Line], d: int, vocabs: dict[str, Vocabulary]) -> Iterator[tuple]:
    """The ``PairTable.from_blocks`` block of each ``READ_ROWS`` pair lines,
    each field converted once per block. A block that fails a test of its
    lines raises; ``load_dataset`` then checks every pair line again."""
    (at, words), width = zip(*_pair_keywords(d)), 20 + 2 * d
    keywords = operator.itemgetter(*at)
    reals_of = operator.itemgetter(*range(4, 8), *range(9, 13), *range(18, 18 + d), *range(19 + d, width - 1))
    subjects, predicates, objects = (vocabs[k].index for k in _VOCAB_KEYS)
    while block := list(itertools.islice(lines, READ_ROWS)):
        parts = [line.parts for line in block]
        # a line too short for its keywords fails with IndexError
        pair_id, image_id = (np.array([int(p[i]) for p in parts], np.int64) for i in (1, 2))
        reals = np.array([*itertools.chain.from_iterable(map(reals_of, parts))], np.float64).reshape(len(parts), -1)
        corners = reals[:, :8].reshape(-1, 2, 2, 2)  # box, min or max corner, x or y
        scat, ocat = ([vocab[token_from_file(p[i])] for p in parts] for vocab, i in ((subjects, 14), (objects, 16)))
        labels = [p[width:] for p in parts]
        entries = [entry.partition(":") for entry in itertools.chain.from_iterable(labels)]
        preds = [predicates[token_from_file(tok)] for _, _, tok in entries]
        # NaN fails the box test, as it fails BoundingBox
        if (any(keywords(p) != words for p in parts) or not (corners[:, :, 0] < corners[:, :, 1]).all()
                or not all(sep and tag.startswith("p") and tag[1:].isdigit() for tag, sep, _ in entries)):
            raise ValueError("a misplaced keyword, a degenerate box or a bad label entry")
        a_s, a_o, coords = reals[:, 8 : 8 + d], reals[:, 8 + d :], reals[:, :8]
        yield pair_id, image_id, scat, ocat, a_s, a_o, coords, preds, [*map(len, labels)]


def load_dataset(path: str) -> Dataset:
    base = os.path.dirname(os.path.abspath(path))
    appearance_dim = None
    vocab_paths: dict[str, str] = {}
    lines = read_lines(path)
    first = []  # the first pair line, once the headers end
    for line in lines:
        if not line.parts[0].startswith("#"):
            first = [line]
            break
        # '#key value' and '# key value' are the same header
        header = Line(path, line.lineno, " ".join(line.parts)[1:].split())
        if not header.parts:
            line.fail("empty header line")
        key = header.parts[0]
        if key in vocab_paths or (key == "appearance_dim" and appearance_dim is not None):
            line.fail(f"duplicate header key {key!r}")
        if key == "appearance_dim":
            if len(header.parts) != 2:
                line.fail("expected '#appearance_dim <d_a>'")
            appearance_dim = header.integer(1, "appearance dim")
            if not 1 <= appearance_dim <= MOST_SIZE:
                line.fail(f"appearance dim must be from 1 to {MOST_SIZE}, got {appearance_dim}")
        elif key in _VOCAB_KEYS:
            if len(header.parts) != 2:
                line.fail(f"expected '#{key} <path>'")
            vocab_paths[key] = header.parts[1]
        else:
            line.fail(f"unknown header key {key!r}")
    missing = [k for k in _VOCAB_KEYS if k not in vocab_paths]
    if not first and (appearance_dim is None or missing):
        raise DataError(f"{path}: incomplete header (no pairs and missing declarations)")
    if appearance_dim is None:
        first[0].fail("pair line before '#appearance_dim' header")
    if missing:
        first[0].fail(f"pair line before vocabulary headers: {', '.join(missing)}")
    vocabs = {k: load_vocabulary(os.path.join(base, vocab_paths[k])) for k in _VOCAB_KEYS}
    blocks = _read_pairs(itertools.chain(first, lines), appearance_dim, vocabs)
    try:
        pairs = PairTable.from_blocks(blocks, appearance_dim)
        ids = np.sort(pairs.pair_id)
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("a repeated pair id")
    except (ValueError, KeyError, OverflowError, IndexError):  # undecodable text is a DataError, a ValueError
        # every pair line again, alone and in file order: the error is the first bad line's
        seen_ids: set[int] = set()
        for line in read_lines(path):
            if line.lineno >= first[0].lineno:
                _check_pair_line(line, appearance_dim, vocabs, seen_ids)
        raise AssertionError(f"{path}: the pair lines failed a test that none fails alone")
    return Dataset(*(vocabs[k] for k in _VOCAB_KEYS), pairs)


# ---------------------------------------------------------------------------
# Triplet text and query lists
# ---------------------------------------------------------------------------


def triplet_text(vocabs, t: Triplet, mask: str = "vp") -> str:
    """File tokens of the slots of t that ``mask`` keeps, subject first;
    ``vocabs`` are the subject, predicate and object vocabularies."""
    return " ".join(
        token_to_file(vocab[i]) for vocab, i, keep in zip(vocabs, t, LANGUAGE_MASKS[mask]) if keep
    )


def parse_triplet(vocabs, tokens: list[str]) -> Triplet:
    """The triplet named by ``<subject> <predicate> <object>`` file tokens."""
    if len(tokens) != len(_SLOT_NAMES):
        raise DataError(f"expected subject predicate object, got {len(tokens)} tokens")
    index = []
    for vocab, slot, tok in zip(vocabs, _SLOT_NAMES, tokens):
        tok = token_from_file(tok)
        if tok not in vocab:
            raise DataError(f"unknown {slot} token {tok!r}")
        index.append(vocab.index[tok])
    return Triplet(*index)


def write_queries(triplets: Iterable[Triplet], dataset: Dataset, path: str):
    vocabs = (dataset.subjects, dataset.predicates, dataset.objects)
    with open(path, "w") as fh:
        for t in triplets:
            fh.write(triplet_text(vocabs, t) + "\n")


def load_queries(path: str, dataset: Dataset) -> list[Triplet]:
    vocabs = (dataset.subjects, dataset.predicates, dataset.objects)
    return [line.triplet(vocabs) for line in read_lines(path)]


# ---------------------------------------------------------------------------
# Planted synthetic generator
# ---------------------------------------------------------------------------


OFFSET_JITTER = 0.25
SIZE_JITTER = 0.015
# planted signal scales; word vectors use CLUSTER_CODE/IDENTITY_CODE,
# appearance object codes use the APPEARANCE_* pair so the language
# neighbourhood structure and the visual separability can differ
CLUSTER_CODE = 0.8
IDENTITY_CODE = 0.6
APPEARANCE_CLUSTER = 0.8
APPEARANCE_IDENTITY = 0.1
PREDICATE_IN_SUBJECT = 0.5
INTERACTION_SCALE = 0.1
# shared appearance direction whose sign is a random function of the
# (predicate, object) combination; invisible to per-slot marginals but
# decodable by branches whose targets distinguish whole triplets
PAIR_STYLE_SCALE = 1.5


class _Planted:
    """Prototype tables shared by train and test emission."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        ns, np_, no = cfg.synth_subjects, cfg.synth_predicates, cfg.synth_objects
        self.cfg = cfg
        self.n_clusters = (no + cfg.synth_cluster_size - 1) // cfg.synth_cluster_size
        d_a = cfg.synth_appearance_dim
        sub_code_dim = ns + np_
        obj_code_dim = self.n_clusters + no
        if d_a < max(sub_code_dim, obj_code_dim):
            raise DataError(
                f"synth_appearance_dim {d_a} must be at least the subject code width"
                f" {sub_code_dim} (synth_subjects + synth_predicates) and the object code"
                f" width {obj_code_dim} (object clusters + synth_objects)"
            )
        self.map_sub = rng.normal(size=(d_a, sub_code_dim)) / np.sqrt(sub_code_dim)
        self.map_obj = rng.normal(size=(d_a, obj_code_dim)) / np.sqrt(obj_code_dim)
        self.interaction = (
            rng.normal(size=(np_, no, d_a)) * INTERACTION_SCALE / np.sqrt(d_a)
        )
        self.style_dir = rng.normal(size=d_a) / np.sqrt(d_a)
        self.style_sign = rng.choice([-1.0, 1.0], size=(np_, no))
        # relative geometry per predicate: object box offset and size
        ang = rng.uniform(0.0, 2.0 * np.pi, size=np_)
        dist = rng.uniform(18.0, 40.0, size=np_)
        self.pred_offset = np.stack([dist * np.cos(ang), dist * np.sin(ang)], axis=1)
        self.pred_obj_size = rng.uniform(12.0, 28.0, size=(np_, 2))

    def cluster_of(self, o: int) -> int:
        return o // self.cfg.synth_cluster_size

    def sub_code(self, s: int, p: int | None) -> Array:
        cfg = self.cfg
        code = np.zeros(cfg.synth_subjects + cfg.synth_predicates)
        code[s] = 1.0
        if p is not None:
            code[cfg.synth_subjects + p] = PREDICATE_IN_SUBJECT
        return code

    def obj_code(self, o: int) -> Array:
        cfg = self.cfg
        code = np.zeros(self.n_clusters + cfg.synth_objects)
        code[self.cluster_of(o)] = APPEARANCE_CLUSTER
        code[self.n_clusters + o] = APPEARANCE_IDENTITY
        return code

    def rows(self, t: Triplet, n_pos: int, n_neg: int, rng: np.random.Generator) -> tuple[Array, Array, Array]:
        """The a_s, a_o and coords rows of t's n_pos positives, then of its n_neg
        non-interacting negatives. The draws are a row-at-a-time emitter's, in
        order: per row 2·d_a + 3 normals (noise, subject box), then 4 normals (a
        positive's object box) or 4 uniforms; the positives draw in one call."""
        cfg, d = self.cfg, self.cfg.synth_appearance_dim
        pos, neg, uni = rng.normal(size=(n_pos, 2 * d + 7)), np.empty((n_neg, 2 * d + 3)), np.empty((n_neg, 4))
        for i in range(n_neg):
            neg[i], uni[i] = rng.normal(size=2 * d + 3), rng.random(4)
        z, jitter, counts = np.concatenate((pos[:, : 2 * d + 3], neg)), pos[:, 2 * d + 3 :], (n_pos, n_neg)
        proto_o = self.map_obj @ self.obj_code(t.o)
        style = PAIR_STYLE_SCALE * self.style_sign[t.p, t.o] * self.style_dir
        proto_s = np.stack([self.map_sub @ self.sub_code(t.s, p) for p in (t.p, None)])
        proto_o = np.stack([proto_o + self.interaction[t.p, t.o] + style, proto_o])
        a_s = np.repeat(proto_s, counts, axis=0) + cfg.synth_noise * z[:, :d]
        a_o = np.repeat(proto_o, counts, axis=0) + cfg.synth_noise * z[:, d : 2 * d]
        centre = 50.0 + cfg.synth_noise * 10.0 * z[:, 2 * d : 2 * d + 2]
        half = np.maximum(2.0, 10.0 * (1.0 + cfg.synth_noise * 0.5 * z[:, 2 * d + 2 :]))
        # a negative's uniforms map as rng.uniform(-60, 60) and rng.uniform(8, 30) map them
        obj = np.concatenate((centre[:n_pos] + self.pred_offset[t.p] + OFFSET_JITTER * jitter[:, :2],
                              centre[n_pos:] + (-60.0 + 120.0 * uni[:, :2])))
        size = np.maximum(2.0, np.concatenate((self.pred_obj_size[t.p] * (1.0 + SIZE_JITTER * jitter[:, 2:]),
                                               8.0 + 22.0 * uni[:, 2:])))
        return a_s, a_o, np.hstack((centre - half, centre + half, obj - size / 2.0, obj + size / 2.0))


def _synth_pairs(planted: _Planted, triplets: list[Triplet], n_pos: list[int], rng: np.random.Generator) -> PairTable:
    """One split: each triplet's n_pos positives, then its round(ratio · n_pos)
    negatives, pair and image id = row. A value that overflowed, then the first
    degenerate box in row order (subject box first), is an error."""
    cfg = planted.cfg
    n_neg = [round(cfg.synth_negative_ratio * n) for n in n_pos]
    sizes = np.add(n_pos, n_neg)
    ends, d = np.cumsum(sizes).tolist(), cfg.synth_appearance_dim
    a_s, a_o, coords = np.empty((ends[-1], d)), np.empty((ends[-1], d)), np.empty((ends[-1], 8))
    for t, k, m, end in zip(triplets, n_pos, n_neg, ends):
        a_s[end - k - m : end], a_o[end - k - m : end], coords[end - k - m : end] = planted.rows(t, k, m, rng)
    if not all(np.isfinite(c).all() for c in (a_s, a_o, coords)):
        raise DataError(f"synth_noise = {cfg.synth_noise} overflows a synthetic feature or box coordinate")
    boxes = coords.reshape(-1, 4)
    degenerate = (boxes[:, :2] >= boxes[:, 2:]).any(axis=1)
    if degenerate.any():
        BoundingBox(*boxes[degenerate.argmax()])  # raises that box's error
    ids = np.arange(ends[-1])
    labels = np.repeat(np.tile([1, 0], len(triplets)), np.column_stack((n_pos, n_neg)).ravel())
    cats = (np.repeat([getattr(t, slot) for t in triplets], sizes) for slot in ("s", "o"))
    preds = np.repeat([t.p for t in triplets], n_pos)
    return PairTable(ids, ids.copy(), *cats, a_s, a_o, coords, np.cumsum(np.r_[0, labels]), preds)


def _family_triplets(cfg: RunConfig, rng: np.random.Generator, n_clusters: int):
    """Pick (subject, cluster) families and their predicate pairs."""
    combos = [(s, c) for s in range(cfg.synth_subjects) for c in range(n_clusters)]
    if cfg.synth_families > len(combos):
        raise DataError(
            f"synth_families {cfg.synth_families} exceeds the {len(combos)} (subject, object"
            " cluster) combinations, synth_subjects x ceil(synth_objects / synth_cluster_size)"
        )
    order = rng.permutation(len(combos))
    families = []
    for idx in order[: cfg.synth_families]:
        s, c = combos[idx]
        preds = sorted(rng.choice(cfg.synth_predicates, size=cfg.synth_predicates_per_family, replace=False))
        members = [o for o in range(cfg.synth_objects) if o // cfg.synth_cluster_size == c]
        triplets = [Triplet(s, int(p), o) for p in preds for o in members]
        families.append(triplets)
    return families


@np.errstate(over="ignore", invalid="ignore")  # an overflowing noise key is a DataError, not a warning
def synth_generate(cfg: RunConfig, seed: int) -> tuple[Dataset, Dataset, WordTable, list[Triplet]]:
    """Generate (train, test, word_table, heldout) with planted structure
    from the config's ``synth_*`` keys.

    Objects come in clusters of ``synth_cluster_size`` near-synonyms (shared
    word-code component), and triplets come in families: one subject, one
    object cluster, ``synth_predicates_per_family`` predicates, fully
    crossed. Families guarantee that (a) each subject-object pairing occurs
    under several predicates, and (b) every triplet has close neighbours
    differing in exactly one slot.

    Appearance features are noisy linear images of identity codes plus a
    per-(predicate, object) interaction component; boxes follow
    predicate-specific relative geometry; word vectors are the identity
    codes plus small noise, so same-cluster objects have nearby vectors.
    One triplet of each of the first ``synth_heldout`` families is held
    out: it gets no train pairs and ``synth_heldout_test_pairs`` test
    positives each.

    Three rules tie the keys together, each a DataError naming its key.
    With C = ceil(synth_objects / synth_cluster_size) clusters:
    ``synth_appearance_dim`` >= synth_subjects + synth_predicates and
    >= C + synth_objects (the subject and object code widths);
    ``synth_families`` <= synth_subjects * C; ``synth_heldout`` <=
    ``synth_families``.
    """
    rng = rng_stream(seed, "synth")
    planted = _Planted(cfg, rng)

    subjects = Vocabulary([f"sub{i}" for i in range(cfg.synth_subjects)])
    predicates = Vocabulary([f"pre{i}" for i in range(cfg.synth_predicates)])
    objects = Vocabulary([f"obj{i}" for i in range(cfg.synth_objects)])

    # one identity code per token, subjects then predicates then objects;
    # an object's code also holds its cluster's shared component
    base, objs = cfg.synth_subjects + cfg.synth_predicates, np.arange(cfg.synth_objects)
    codes = np.zeros((base + cfg.synth_objects, base + planted.n_clusters + cfg.synth_objects))
    codes[:base, :base] = np.eye(base)
    codes[base + objs, base + planted.cluster_of(objs)] = CLUSTER_CODE
    codes[base + objs, base + planted.n_clusters + objs] = IDENTITY_CODE
    vectors = codes + cfg.synth_word_noise * rng.normal(size=codes.shape)
    if not np.isfinite(vectors).all():
        raise DataError(f"synth_word_noise = {cfg.synth_word_noise} overflows a word vector")
    tokens = subjects.tokens + predicates.tokens + objects.tokens
    table = WordTable(codes.shape[1], dict(zip(tokens, vectors)))

    families = _family_triplets(cfg, rng, planted.n_clusters)
    if cfg.synth_heldout > cfg.synth_families:
        raise DataError(
            f"synth_heldout {cfg.synth_heldout} exceeds synth_families {cfg.synth_families}:"
            " a family holds out at most one triplet"
        )
    heldout: list[Triplet] = []
    for fam in families[: cfg.synth_heldout]:
        heldout.append(fam[int(rng.integers(len(fam)))])
    heldout_set = set(heldout)

    triplets = [t for fam in families for t in fam]

    def emit(pairs_per_triplet, heldout_pairs):
        n_pos = [heldout_pairs if t in heldout_set else pairs_per_triplet for t in triplets]
        return Dataset(subjects, predicates, objects, _synth_pairs(planted, triplets, n_pos, rng))

    train = emit(cfg.synth_train_pairs, heldout_pairs=0)
    test = emit(cfg.synth_test_pairs, heldout_pairs=cfg.synth_heldout_test_pairs)
    return train, test, table, heldout
