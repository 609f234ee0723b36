"""Vocabularies, candidate box pairs, datasets, word-vector tables, their
file formats, and a planted synthetic-relation generator.

A candidate pair is one (subject box, object box) proposal inside an image,
carrying precomputed appearance features for both boxes and a possibly empty
list of predicate labels. The triplets annotated on a pair are
(subject_category, predicate, object_category) for each labeled predicate.

File formats (all line-oriented text, floats written with full precision):

  dataset:     header lines ``#appearance_dim <d_a>``, ``#subjects <path>``,
               ``#predicates <path>``, ``#objects <path>`` (paths relative to
               the dataset file), then one line per pair:
               ``pair <id> <image_id> sub <4 reals> obj <4 reals> scat <tok>
               ocat <tok> afeat_s <d_a reals> afeat_o <d_a reals> labels
               p1:<tok> p2:<tok> ...`` (label list may be empty).
  vocabulary:  one token per line, line order defines the index.
  word table:  first line ``dim <d_w>``, then ``<tok> v1 ... v_dw``.
  query list:  one triplet per line, ``<subject> <predicate> <object>``.

Tokens containing spaces are written with underscores and restored on read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .numkit import rng_stream

Array = np.ndarray


class DataError(ValueError):
    """Malformed or inconsistent data; message carries file:line when known."""


def _err(path: str, lineno: int, msg: str):
    raise DataError(f"{path}:{lineno}: {msg}")


def token_to_file(token: str) -> str:
    return token.replace(" ", "_")


def token_from_file(token: str) -> str:
    return token.replace("_", " ")


def _fmt_reals(values) -> str:
    return " ".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


class Triplet(NamedTuple):
    s: int
    p: int
    o: int


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

    def lookup(self, token: str) -> int:
        try:
            return self.index[token]
        except KeyError:
            raise DataError(f"unknown token {token!r}") from None


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

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def coords(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(eq=False)
class CandidatePair:
    pair_id: int
    image_id: int
    sub_box: BoundingBox
    obj_box: BoundingBox
    subject_cat: int
    object_cat: int
    appear_sub: Array
    appear_obj: Array
    positive_predicates: tuple[int, ...]

    def positives(self) -> tuple[Triplet, ...]:
        return tuple(Triplet(self.subject_cat, p, self.object_cat) for p in self.positive_predicates)


@dataclass(eq=False)
class Dataset:
    subjects: Vocabulary
    predicates: Vocabulary
    objects: Vocabulary
    pairs: list[CandidatePair]
    appearance_dim: int
    counts: dict[Triplet, int] = field(default_factory=dict)
    observed: set[Triplet] = field(default_factory=set)

    @classmethod
    def build(
        cls,
        subjects: Vocabulary,
        predicates: Vocabulary,
        objects: Vocabulary,
        pairs: list[CandidatePair],
        appearance_dim: int,
    ) -> "Dataset":
        ds = cls(subjects, predicates, objects, pairs, appearance_dim)
        for pair in pairs:
            for t in pair.positives():
                ds.counts[t] = ds.counts.get(t, 0) + 1
                ds.observed.add(t)
        return ds

    def observed_sorted(self) -> list[Triplet]:
        return sorted(self.observed)

    def triplet_tokens(self, t: Triplet) -> tuple[str, str, str]:
        return (self.subjects[t.s], self.predicates[t.p], self.objects[t.o])


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
# Vocabulary and word-table files
# ---------------------------------------------------------------------------


def write_vocabulary(vocab: Vocabulary, path: str):
    with open(path, "w") as fh:
        for tok in vocab.tokens:
            fh.write(token_to_file(tok) + "\n")


def load_vocabulary(path: str) -> Vocabulary:
    tokens = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if len(line.split()) != 1:
                _err(path, lineno, "vocabulary lines hold exactly one token")
            tokens.append(token_from_file(line))
    try:
        return Vocabulary(tokens)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def write_word_table(table: WordTable, path: str):
    with open(path, "w") as fh:
        fh.write(f"dim {table.dim}\n")
        for tok in table.vectors:
            fh.write(token_to_file(tok) + " " + _fmt_reals(table.vectors[tok]) + "\n")


def load_word_table(path: str, vocabularies: Iterable[Vocabulary]) -> WordTable:
    """Read a word-vector table, keeping only vocabulary tokens.

    Extra tokens in the file are dropped silently; missing vocabulary tokens
    are an error listing every absent token at once.
    """
    wanted: set[str] = set()
    for vocab in vocabularies:
        wanted.update(vocab.tokens)
    vectors: dict[str, Array] = {}
    dim = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts:
                continue
            if dim is None:
                if parts[0] != "dim" or len(parts) != 2:
                    _err(path, lineno, "expected header 'dim <d_w>'")
                try:
                    dim = int(parts[1])
                except ValueError:
                    _err(path, lineno, f"bad dimension {parts[1]!r}")
                if dim <= 0:
                    _err(path, lineno, f"dimension must be positive, got {dim}")
                continue
            tok = token_from_file(parts[0])
            if tok not in wanted:
                continue
            if len(parts) - 1 != dim:
                _err(path, lineno, f"expected {dim} values, found {len(parts) - 1}")
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError:
                _err(path, lineno, "unparsable real value")
            vectors[tok] = vec
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


def write_dataset(
    dataset: Dataset,
    path: str,
    vocab_paths: dict[str, str] | None = None,
    write_vocabularies: bool = True,
):
    """Write a dataset file plus (by default) its three vocabulary files.

    ``vocab_paths`` maps 'subjects'/'predicates'/'objects' to paths relative
    to the dataset file; defaults to ``<key>.txt`` next to it.
    """
    if vocab_paths is None:
        vocab_paths = {k: f"{k}.txt" for k in _VOCAB_KEYS}
    base = os.path.dirname(os.path.abspath(path))
    if write_vocabularies:
        for key, vocab in zip(_VOCAB_KEYS, (dataset.subjects, dataset.predicates, dataset.objects)):
            write_vocabulary(vocab, os.path.join(base, vocab_paths[key]))
    with open(path, "w") as fh:
        fh.write(f"#appearance_dim {dataset.appearance_dim}\n")
        for key in _VOCAB_KEYS:
            fh.write(f"#{key} {vocab_paths[key]}\n")
        for pair in dataset.pairs:
            labels = " ".join(
                f"p{j + 1}:{token_to_file(dataset.predicates[p])}"
                for j, p in enumerate(pair.positive_predicates)
            )
            fh.write(
                f"pair {pair.pair_id} {pair.image_id}"
                f" sub {_fmt_reals(pair.sub_box.coords())}"
                f" obj {_fmt_reals(pair.obj_box.coords())}"
                f" scat {token_to_file(dataset.subjects[pair.subject_cat])}"
                f" ocat {token_to_file(dataset.objects[pair.object_cat])}"
                f" afeat_s {_fmt_reals(pair.appear_sub)}"
                f" afeat_o {_fmt_reals(pair.appear_obj)}"
                f" labels{' ' if labels else ''}{labels}\n"
            )


class _LineCursor:
    """Keyword-checked token consumption for one pair line."""

    def __init__(self, path: str, lineno: int, parts: list[str]):
        self.path, self.lineno, self.parts, self.at = path, lineno, parts, 0

    def fail(self, msg: str):
        _err(self.path, self.lineno, msg)

    def take(self) -> str:
        if self.at >= len(self.parts):
            self.fail("truncated pair line")
        tok = self.parts[self.at]
        self.at += 1
        return tok

    def keyword(self, word: str):
        tok = self.take()
        if tok != word:
            self.fail(f"expected {word!r}, found {tok!r}")

    def integer(self, what: str) -> int:
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            self.fail(f"bad {what} {tok!r}")

    def reals(self, n: int, what: str) -> Array:
        out = np.empty(n)
        for i in range(n):
            tok = self.take()
            try:
                out[i] = float(tok)
            except ValueError:
                self.fail(f"bad real in {what}: {tok!r}")
        return out

    def token(self, vocab: Vocabulary, what: str) -> int:
        tok = token_from_file(self.take())
        if tok not in vocab:
            self.fail(f"unknown {what} token {tok!r}")
        return vocab.lookup(tok)


def load_dataset(path: str) -> Dataset:
    base = os.path.dirname(os.path.abspath(path))
    appearance_dim = None
    vocab_paths: dict[str, str] = {}
    vocabs: dict[str, Vocabulary] | None = None
    pairs: list[CandidatePair] = []
    seen_ids: set[int] = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if not parts:
                    _err(path, lineno, "empty header line")
                if parts[0] == "appearance_dim":
                    if len(parts) != 2:
                        _err(path, lineno, "expected '#appearance_dim <d_a>'")
                    try:
                        appearance_dim = int(parts[1])
                    except ValueError:
                        _err(path, lineno, f"bad appearance dim {parts[1]!r}")
                    if appearance_dim < 1:
                        _err(path, lineno, f"appearance dim must be >= 1, got {appearance_dim}")
                elif parts[0] in _VOCAB_KEYS:
                    if len(parts) != 2:
                        _err(path, lineno, f"expected '#{parts[0]} <path>'")
                    vocab_paths[parts[0]] = parts[1]
                else:
                    _err(path, lineno, f"unknown header key {parts[0]!r}")
                continue
            if vocabs is None:
                missing = [k for k in _VOCAB_KEYS if k not in vocab_paths]
                if appearance_dim is None:
                    _err(path, lineno, "pair line before '#appearance_dim' header")
                if missing:
                    _err(path, lineno, f"pair line before vocabulary headers: {', '.join(missing)}")
                vocabs = {k: load_vocabulary(os.path.join(base, vocab_paths[k])) for k in _VOCAB_KEYS}
            cur = _LineCursor(path, lineno, line.split())
            cur.keyword("pair")
            pair_id = cur.integer("pair id")
            if pair_id in seen_ids:
                cur.fail(f"duplicate pair id {pair_id}")
            seen_ids.add(pair_id)
            image_id = cur.integer("image id")
            cur.keyword("sub")
            sub = cur.reals(4, "sub box")
            cur.keyword("obj")
            obj = cur.reals(4, "obj box")
            cur.keyword("scat")
            scat = cur.token(vocabs["subjects"], "subject category")
            cur.keyword("ocat")
            ocat = cur.token(vocabs["objects"], "object category")
            cur.keyword("afeat_s")
            a_s = cur.reals(appearance_dim, "afeat_s")
            cur.keyword("afeat_o")
            a_o = cur.reals(appearance_dim, "afeat_o")
            cur.keyword("labels")
            preds = []
            while cur.at < len(cur.parts):
                entry = cur.take()
                tag, sep, tok = entry.partition(":")
                if not sep or not tag.startswith("p") or not tag[1:].isdigit():
                    cur.fail(f"bad label entry {entry!r}, expected p<n>:<token>")
                tok = token_from_file(tok)
                if tok not in vocabs["predicates"]:
                    cur.fail(f"unknown predicate token {tok!r}")
                preds.append(vocabs["predicates"].lookup(tok))
            try:
                sub_box = BoundingBox(*sub)
                obj_box = BoundingBox(*obj)
            except DataError as e:
                cur.fail(str(e))
            pairs.append(
                CandidatePair(
                    pair_id, image_id, sub_box, obj_box, scat, ocat, a_s, a_o, tuple(preds)
                )
            )
    if vocabs is None:
        missing = [k for k in _VOCAB_KEYS if k not in vocab_paths]
        if appearance_dim is None or missing:
            raise DataError(f"{path}: incomplete header (no pairs and missing declarations)")
        vocabs = {k: load_vocabulary(os.path.join(base, vocab_paths[k])) for k in _VOCAB_KEYS}
    return Dataset.build(
        vocabs["subjects"], vocabs["predicates"], vocabs["objects"], pairs, appearance_dim
    )


# ---------------------------------------------------------------------------
# Query lists
# ---------------------------------------------------------------------------


def write_queries(triplets: Iterable[Triplet], dataset: Dataset, path: str):
    with open(path, "w") as fh:
        for t in triplets:
            s, p, o = dataset.triplet_tokens(t)
            fh.write(f"{token_to_file(s)} {token_to_file(p)} {token_to_file(o)}\n")


def load_queries(path: str, dataset: Dataset) -> list[Triplet]:
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 3:
                _err(path, lineno, f"expected 3 tokens, found {len(parts)}")
            toks = [token_from_file(p) for p in parts]
            for tok, vocab, what in zip(
                toks,
                (dataset.subjects, dataset.predicates, dataset.objects),
                ("subject", "predicate", "object"),
            ):
                if tok not in vocab:
                    _err(path, lineno, f"unknown {what} token {tok!r}")
            out.append(
                Triplet(
                    dataset.subjects.lookup(toks[0]),
                    dataset.predicates.lookup(toks[1]),
                    dataset.objects.lookup(toks[2]),
                )
            )
    return out


# ---------------------------------------------------------------------------
# Planted synthetic generator
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    """Knobs of the planted benchmark.

    Objects come in clusters of near-synonyms (shared word-code component),
    and triplets come in families: one subject, one object cluster, a few
    predicates, fully crossed. Families guarantee that (a) each
    subject-object pairing occurs under several predicates, and (b) every
    triplet has close neighbours differing in exactly one slot.
    """

    n_subjects: int = 6
    n_predicates: int = 10
    n_objects: int = 12
    cluster_size: int = 3
    n_families: int = 12
    predicates_per_family: int = 2
    train_pairs_per_triplet: int = 18
    test_pairs_per_triplet: int = 4
    heldout_count: int = 10
    heldout_test_pairs: int = 24
    appearance_dim: int = 20
    noise: float = 0.05
    word_noise: float = 0.06
    offset_jitter: float = 0.25
    size_jitter: float = 0.015
    negative_per_positive: float = 1.0
    # planted signal scales; word vectors use cluster_code/identity_code,
    # appearance object codes use the appearance_* pair so the language
    # neighbourhood structure and the visual separability can differ
    cluster_code: float = 0.8
    identity_code: float = 0.6
    appearance_cluster: float = 0.8
    appearance_identity: float = 0.1
    predicate_in_subject: float = 0.5
    interaction_scale: float = 0.1
    # shared appearance direction whose sign is a random function of the
    # (predicate, object) combination; invisible to per-slot marginals but
    # decodable by branches whose targets distinguish whole triplets
    pair_style_scale: float = 1.5


class _Planted:
    """Prototype tables shared by train and test emission."""

    def __init__(self, cfg: SynthConfig, rng: np.random.Generator):
        ns, np_, no = cfg.n_subjects, cfg.n_predicates, cfg.n_objects
        self.cfg = cfg
        self.n_clusters = (no + cfg.cluster_size - 1) // cfg.cluster_size
        d_a = cfg.appearance_dim
        sub_code_dim = ns + np_
        obj_code_dim = self.n_clusters + no
        if d_a < max(sub_code_dim, obj_code_dim):
            raise DataError(
                f"appearance_dim {d_a} too small for code dims "
                f"({sub_code_dim} subject, {obj_code_dim} object)"
            )
        self.map_sub = rng.normal(size=(d_a, sub_code_dim)) / np.sqrt(sub_code_dim)
        self.map_obj = rng.normal(size=(d_a, obj_code_dim)) / np.sqrt(obj_code_dim)
        self.interaction = (
            rng.normal(size=(np_, no, d_a)) * cfg.interaction_scale / np.sqrt(d_a)
        )
        self.style_dir = rng.normal(size=d_a) / np.sqrt(d_a)
        self.style_sign = rng.choice([-1.0, 1.0], size=(np_, no))
        # relative geometry per predicate: object box offset and size
        ang = rng.uniform(0.0, 2.0 * np.pi, size=np_)
        dist = rng.uniform(18.0, 40.0, size=np_)
        self.pred_offset = np.stack([dist * np.cos(ang), dist * np.sin(ang)], axis=1)
        self.pred_obj_size = rng.uniform(12.0, 28.0, size=(np_, 2))

    def cluster_of(self, o: int) -> int:
        return o // self.cfg.cluster_size

    def sub_code(self, s: int, p: int | None) -> Array:
        cfg = self.cfg
        code = np.zeros(cfg.n_subjects + cfg.n_predicates)
        code[s] = 1.0
        if p is not None:
            code[cfg.n_subjects + p] = cfg.predicate_in_subject
        return code

    def obj_code(self, o: int) -> Array:
        cfg = self.cfg
        code = np.zeros(self.n_clusters + cfg.n_objects)
        code[self.cluster_of(o)] = cfg.appearance_cluster
        code[self.n_clusters + o] = cfg.appearance_identity
        return code

    def appearance(self, t: Triplet | None, s: int, o: int, rng: np.random.Generator) -> tuple[Array, Array]:
        """Appearance features for one pair; t=None means non-interacting."""
        cfg = self.cfg
        d_a = cfg.appearance_dim
        a_s = self.map_sub @ self.sub_code(s, t.p if t else None)
        a_o = self.map_obj @ self.obj_code(o)
        if t is not None:
            a_o = a_o + self.interaction[t.p, t.o]
            a_o = a_o + cfg.pair_style_scale * self.style_sign[t.p, t.o] * self.style_dir
        a_s = a_s + cfg.noise * rng.normal(size=d_a)
        a_o = a_o + cfg.noise * rng.normal(size=d_a)
        return a_s, a_o

    def boxes(self, p: int | None, rng: np.random.Generator) -> tuple[BoundingBox, BoundingBox]:
        cfg = self.cfg
        cx, cy = 50.0 + cfg.noise * 10.0 * rng.normal(size=2)
        half = max(2.0, 10.0 * (1.0 + cfg.noise * 0.5 * rng.normal()))
        sub = BoundingBox(cx - half, cy - half, cx + half, cy + half)
        if p is not None:
            ox, oy = (cx, cy) + self.pred_offset[p] + cfg.offset_jitter * rng.normal(size=2)
            w, h = self.pred_obj_size[p] * (1.0 + cfg.size_jitter * rng.normal(size=2))
        else:
            ox, oy = (cx, cy) + rng.uniform(-60.0, 60.0, size=2)
            w, h = rng.uniform(8.0, 30.0, size=2)
        w, h = max(2.0, w), max(2.0, h)
        obj = BoundingBox(ox - w / 2.0, oy - h / 2.0, ox + w / 2.0, oy + h / 2.0)
        return sub, obj


def _family_triplets(cfg: SynthConfig, rng: np.random.Generator, n_clusters: int):
    """Pick (subject, cluster) families and their predicate pairs."""
    combos = [(s, c) for s in range(cfg.n_subjects) for c in range(n_clusters)]
    if cfg.n_families > len(combos):
        raise DataError(
            f"n_families {cfg.n_families} exceeds subject x cluster combinations {len(combos)}"
        )
    order = rng.permutation(len(combos))
    families = []
    for idx in order[: cfg.n_families]:
        s, c = combos[idx]
        preds = sorted(rng.choice(cfg.n_predicates, size=cfg.predicates_per_family, replace=False))
        members = [o for o in range(cfg.n_objects) if o // cfg.cluster_size == c]
        triplets = [Triplet(s, int(p), o) for p in preds for o in members]
        families.append(triplets)
    return families


def synth_generate(
    cfg: SynthConfig, seed: int
) -> tuple[Dataset, Dataset, WordTable, list[Triplet]]:
    """Generate (train, test, word_table, heldout) with planted structure.

    Appearance features are noisy linear images of identity codes plus a
    per-(predicate, object) interaction component; boxes follow
    predicate-specific relative geometry; word vectors are the identity
    codes plus small noise, so same-cluster objects have nearby vectors.
    Heldout triplets get no train pairs and ``heldout_test_pairs`` test
    positives each.
    """
    rng = rng_stream(seed, "synth")
    planted = _Planted(cfg, rng)

    subjects = Vocabulary([f"sub{i}" for i in range(cfg.n_subjects)])
    predicates = Vocabulary([f"pre{i}" for i in range(cfg.n_predicates)])
    objects = Vocabulary([f"obj{i}" for i in range(cfg.n_objects)])

    d_w = cfg.n_subjects + cfg.n_predicates + planted.n_clusters + cfg.n_objects
    vectors: dict[str, Array] = {}
    for i, tok in enumerate(subjects.tokens):
        vec = np.zeros(d_w)
        vec[i] = 1.0
        vectors[tok] = vec + cfg.word_noise * rng.normal(size=d_w)
    for i, tok in enumerate(predicates.tokens):
        vec = np.zeros(d_w)
        vec[cfg.n_subjects + i] = 1.0
        vectors[tok] = vec + cfg.word_noise * rng.normal(size=d_w)
    base = cfg.n_subjects + cfg.n_predicates
    for i, tok in enumerate(objects.tokens):
        vec = np.zeros(d_w)
        vec[base + planted.cluster_of(i)] = cfg.cluster_code
        vec[base + planted.n_clusters + i] = cfg.identity_code
        vectors[tok] = vec + cfg.word_noise * rng.normal(size=d_w)
    table = WordTable(d_w, vectors)

    families = _family_triplets(cfg, rng, planted.n_clusters)
    if cfg.heldout_count > cfg.n_families:
        raise DataError(
            f"cannot hold out {cfg.heldout_count} triplets from {cfg.n_families} families"
            " (at most one per family)"
        )
    heldout: list[Triplet] = []
    for fam in families[: cfg.heldout_count]:
        heldout.append(fam[int(rng.integers(len(fam)))])
    heldout_set = set(heldout)

    def emit(pairs_per_triplet, heldout_pairs):
        pairs: list[CandidatePair] = []
        for fam in families:
            for t in fam:
                n_pos = heldout_pairs if t in heldout_set else pairs_per_triplet
                n_neg = round(cfg.negative_per_positive * n_pos)
                for _ in range(n_pos):
                    a_s, a_o = planted.appearance(t, t.s, t.o, rng)
                    sub, obj = planted.boxes(t.p, rng)
                    pid = len(pairs)
                    pairs.append(
                        CandidatePair(pid, pid, sub, obj, t.s, t.o, a_s, a_o, (t.p,))
                    )
                for _ in range(n_neg):
                    a_s, a_o = planted.appearance(None, t.s, t.o, rng)
                    sub, obj = planted.boxes(None, rng)
                    pid = len(pairs)
                    pairs.append(CandidatePair(pid, pid, sub, obj, t.s, t.o, a_s, a_o, ()))
        return Dataset.build(subjects, predicates, objects, pairs, cfg.appearance_dim)

    train = emit(cfg.train_pairs_per_triplet, heldout_pairs=0)
    test = emit(cfg.test_pairs_per_triplet, heldout_pairs=cfg.heldout_test_pairs)
    return train, test, table, heldout
