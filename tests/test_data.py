import os
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relembed.analogy import source_pool
from relembed.config import RunConfig
from relembed.data import (
    LANGUAGE_MASKS,
    BoundingBox,
    DataError,
    Dataset,
    PairTable,
    Triplet,
    Vocabulary,
    WordTable,
    load_dataset,
    load_queries,
    load_vocabulary,
    load_word_table,
    parse_triplet,
    synth_generate,
    triplet_codes,
    triplet_text,
    write_dataset,
    write_queries,
    write_vocabulary,
    write_word_table,
)
from relembed.model import build_model

from conftest import (
    assert_tables_equal,
    decode,
    desk_config,
    encode,
    model_counts,
    row_triplets,
    triplet_counts,
    wide_config,
)


def tiny_dataset() -> Dataset:
    subjects = Vocabulary(["person", "dog"])
    predicates = Vocabulary(["ride", "hold"])
    objects = Vocabulary(["horse", "sports ball"])
    rng = np.random.default_rng(0)
    rows = [
        (
            0, 0,
            BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(5.0, 0.0, 15.0, 10.0),
            0, 0, rng.normal(size=3), rng.normal(size=3), (0,),
        ),
        (
            1, 0,
            BoundingBox(1.5, 2.5, 3.5, 4.5), BoundingBox(2.0, 2.0, 9.0, 9.0),
            0, 1, rng.normal(size=3), rng.normal(size=3), (0, 1),
        ),
        (
            2, 1,
            BoundingBox(0.0, 0.0, 4.0, 4.0), BoundingBox(1.0, 1.0, 2.0, 2.0),
            1, 0, rng.normal(size=3), rng.normal(size=3), (),
        ),
    ]
    return Dataset(subjects, predicates, objects, PairTable.from_rows(rows, 3))


def assert_datasets_equal(a: Dataset, b: Dataset):
    assert a.subjects.tokens == b.subjects.tokens
    assert a.predicates.tokens == b.predicates.tokens
    assert a.objects.tokens == b.objects.tokens
    assert a.appearance_dim == b.appearance_dim
    assert triplet_counts(a) == triplet_counts(b)
    assert len(a.pairs) == len(b.pairs)
    assert_tables_equal(a.pairs, b.pairs)


def test_vocabulary_rejects_duplicates_and_empties():
    with pytest.raises(DataError):
        Vocabulary(["a", "a"])
    with pytest.raises(DataError):
        Vocabulary(["a", ""])


def test_vocabulary_file_round_trip_with_spaces(tmp_path):
    vocab = Vocabulary(["person", "sports ball"])
    path = tmp_path / "v.txt"
    write_vocabulary(vocab, str(path))
    assert "sports_ball" in path.read_text()
    back = load_vocabulary(str(path))
    assert back.tokens == ["person", "sports ball"]
    assert back.lookup("sports ball") == 1


def test_vocabulary_file_names_the_line_of_a_repeated_token(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("a\nsports_ball\n\na\n")
    with pytest.raises(DataError) as info:
        load_vocabulary(str(path))
    assert str(info.value) == f"{path}:4: duplicate token 'a'"


def test_bounding_box_rejects_degenerate():
    with pytest.raises(DataError):
        BoundingBox(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(DataError):
        BoundingBox(0.0, 2.0, 1.0, 2.0)


def test_dataset_counts_single_positive():
    counts = triplet_counts(tiny_dataset())
    assert counts[Triplet(0, 0, 0)] == 1
    assert counts[Triplet(0, 0, 1)] == 1
    assert counts[Triplet(0, 1, 1)] == 1
    assert Triplet(1, 0, 0) not in counts  # all-negative pair


def test_dataset_file_round_trip(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "d.ds"
    write_dataset(ds, str(path))
    back = load_dataset(str(path))
    assert_datasets_equal(ds, back)


def test_empty_dataset_round_trip(tmp_path):
    ds = tiny_dataset()
    ds = Dataset(ds.subjects, ds.predicates, ds.objects, ds.pairs.take([]))
    path = tmp_path / "d.ds"
    write_dataset(ds, str(path))
    back = load_dataset(str(path))
    assert len(back.pairs) == 0 and back.pairs.a_s.shape == (0, 3)
    assert triplet_counts(back) == {}
    assert_datasets_equal(ds, back)


def oracle_rows(path) -> tuple[list[tuple], int]:
    """The rows of a well-formed dataset file and its appearance dim, read
    straight from the fixed field positions of each line."""
    with open(path) as fh:
        lines = [line.split() for line in fh if line.strip()]
    header = {parts[0][1:]: parts[1] for parts in lines if parts[0].startswith("#")}
    d = int(header["appearance_dim"])
    base = os.path.dirname(path)
    vocabs = {k: load_vocabulary(os.path.join(base, header[k])).index for k in ("subjects", "predicates", "objects")}
    rows = []
    for parts in lines:
        if parts[0] != "pair":
            continue
        reals = [float(t) for t in parts[4:8] + parts[9:13] + parts[18 : 18 + d] + parts[19 + d : 19 + 2 * d]]
        preds = [vocabs["predicates"][entry.split(":", 1)[1].replace("_", " ")] for entry in parts[20 + 2 * d :]]
        rows.append((
            int(parts[1]), int(parts[2]), BoundingBox(*reals[:4]), BoundingBox(*reals[4:8]),
            vocabs["subjects"][parts[14].replace("_", " ")], vocabs["objects"][parts[16].replace("_", " ")],
            reals[8 : 8 + d], reals[8 + d :], preds,
        ))
    return rows, d


def stacked_table(rows: list[tuple], d: int) -> PairTable:
    """The table of ``rows`` built by stacking each whole column at once."""
    n = len(rows)
    ids, images, subs, objs, scat, ocat, a_s, a_o, preds = zip(*rows) if rows else [()] * 9
    return PairTable(
        *(np.array(column, dtype=np.int64) for column in (ids, images, scat, ocat)),
        *(np.array(a, dtype=np.float64).reshape(n, d) for a in (a_s, a_o)),
        np.array([s.coords() + o.coords() for s, o in zip(subs, objs)], np.float64).reshape(n, 8),
        np.cumsum([0, *map(len, preds)], dtype=np.int64),
        np.array([p for ps in preds for p in ps], dtype=np.int64),
    )


@pytest.mark.parametrize("world", ["desk", "wide"])
def test_loader_columns_equal_the_straight_line_oracle(tmp_path, world):
    """load_dataset's columnar reader and from_rows give every column the
    bytes of whole-column stacking over rows parsed field by field."""
    cfg = desk_config() if world == "desk" else wide_config()
    _, test, _, _ = synth_generate(cfg, 0)
    path = str(tmp_path / "test.ds")
    write_dataset(test, path)
    rows, d = oracle_rows(path)
    want = stacked_table(rows, d)
    assert len(want) == len(test.pairs) and d == cfg.synth_appearance_dim
    assert_tables_equal(load_dataset(path).pairs, want)
    assert_tables_equal(PairTable.from_rows(rows, d), want)
    assert_tables_equal(test.pairs, want)


def write_then_edit(tmp_path, transform):
    ds = tiny_dataset()
    path = tmp_path / "d.ds"
    write_dataset(ds, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(transform(lines)) + "\n")
    return str(path)


def test_loader_reports_line_number_for_bad_keyword(tmp_path):
    def mangle(lines):
        lines[4] = lines[4].replace(" sub ", " sux ", 1)
        return lines

    path = write_then_edit(tmp_path, mangle)
    with pytest.raises(DataError, match=r"d\.ds:5.*expected 'sub'"):
        load_dataset(path)


def test_loader_rejects_unknown_category_token(tmp_path):
    def mangle(lines):
        lines[5] = lines[5].replace("scat person", "scat unicorn", 1)
        return lines

    path = write_then_edit(tmp_path, mangle)
    with pytest.raises(DataError, match=r"d\.ds:6.*unicorn"):
        load_dataset(path)


def test_loader_rejects_truncated_features(tmp_path):
    def mangle(lines):
        parts = lines[4].split()
        return lines[:4] + [" ".join(parts[:-4])] + lines[5:]

    path = write_then_edit(tmp_path, mangle)
    with pytest.raises(DataError, match=r"d\.ds:5"):
        load_dataset(path)


def test_loader_rejects_duplicate_pair_id(tmp_path):
    def mangle(lines):
        lines[5] = lines[5].replace("pair 1 ", "pair 0 ", 1)
        return lines

    path = write_then_edit(tmp_path, mangle)
    with pytest.raises(DataError, match="duplicate pair id 0"):
        load_dataset(path)


def test_loader_rejects_bad_label_entry(tmp_path):
    def mangle(lines):
        lines[4] = lines[4].replace("labels p1:ride", "labels ride", 1)
        return lines

    path = write_then_edit(tmp_path, mangle)
    with pytest.raises(DataError, match="bad label entry"):
        load_dataset(path)


def _set(at, tok):
    def edit(parts):
        parts[at] = tok
        return parts

    return edit


# The first pair line of ``tiny_dataset`` (appearance dim 3), by position:
# 0 pair, 1 id, 2 image, 3 sub, 4-7, 8 obj, 9-12, 13 scat, 14, 15 ocat, 16,
# 17 afeat_s, 18-20, 21 afeat_o, 22-24, 25 labels, 26 p1:ride
_KEYWORDS = ((0, "pair"), (3, "sub"), (8, "obj"), (13, "scat"), (15, "ocat"),
             (17, "afeat_s"), (21, "afeat_o"), (25, "labels"))
_MALFORMED_PAIR_LINES = [
    *(
        pytest.param(_set(at, word + "x"), f"expected '{word}', found '{word}x'", id=f"keyword_{word}")
        for at, word in _KEYWORDS
    ),
    pytest.param(_set(1, "x1"), "bad pair id 'x1'", id="pair_id"),
    pytest.param(_set(2, "7.5"), "bad image id '7.5'", id="image_id"),
    pytest.param(_set(1, str(2**63)), f"pair id {2**63} outside the int64 range", id="pair_id_int64"),
    pytest.param(
        _set(2, str(-(2**63) - 1)), f"image id {-(2**63) - 1} outside the int64 range", id="image_id_int64"
    ),
    pytest.param(_set(5, "oops"), "bad real in sub box: 'oops'", id="real_sub"),
    pytest.param(_set(10, "1,5"), "bad real in obj box: '1,5'", id="real_obj"),
    pytest.param(_set(19, "0x1"), "bad real in afeat_s: '0x1'", id="real_afeat_s"),
    pytest.param(_set(24, "e"), "bad real in afeat_o: 'e'", id="real_afeat_o"),
    pytest.param(_set(14, "unicorn"), "unknown subject category token 'unicorn'", id="scat"),
    pytest.param(_set(16, "unicorn"), "unknown object category token 'unicorn'", id="ocat"),
    pytest.param(_set(26, "ride"), "bad label entry 'ride', expected p<n>:<token>", id="label_entry"),
    pytest.param(_set(26, "p1:fly"), "unknown predicate token 'fly'", id="label_predicate"),
    pytest.param(_set(6, "0.0"), "degenerate box (0.0, 0.0, 0.0, 10.0)", id="degenerate_box"),
    pytest.param(lambda parts: parts[:23], "truncated line", id="cut_in_afeat_o"),
]


@pytest.mark.parametrize("edit, message", _MALFORMED_PAIR_LINES)
def test_loader_names_file_and_line_for_each_malformed_pair_field(tmp_path, edit, message):
    def mangle(lines):
        assert lines[4].split()[26] == "p1:ride"  # the layout the cases index
        lines[4] = " ".join(edit(lines[4].split()))
        return lines

    path = write_then_edit(tmp_path, mangle)
    with pytest.raises(DataError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}:5: {message}"


def test_loader_rejects_undecodable_bytes_in_one_line(tmp_path):
    path = write_then_edit(tmp_path, lambda lines: lines)
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(raw.replace(b"labels p1:ride", b"labels p1:r\xffde", 1))
    with pytest.raises(DataError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}: undecodable text: invalid start byte"


def test_loader_accepts_a_space_after_the_header_hash(tmp_path):
    def spaced(lines):
        return ["# " + line[1:] if line.startswith("#") else line for line in lines]

    path = write_then_edit(tmp_path, spaced)
    assert open(path).readline() == "# appearance_dim 3\n"
    assert_datasets_equal(load_dataset(path), tiny_dataset())


def test_loader_rejects_a_header_after_the_pair_lines(tmp_path):
    path = write_then_edit(tmp_path, lambda lines: lines + ["#appearance_dim 2"])
    with pytest.raises(DataError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}:8: header line after the first pair line"


@pytest.mark.parametrize(
    "header",
    ["#subjects subjects.txt", "#appearance_dim 3", "# objects objects.txt"],
    ids=("subjects", "appearance_dim", "objects"),
)
def test_loader_rejects_a_header_key_given_twice(tmp_path, header):
    """A repeated header is an error even when it repeats the same value."""
    path = write_then_edit(tmp_path, lambda lines: lines[:4] + [header] + lines[4:])
    with pytest.raises(DataError) as info:
        load_dataset(path)
    key = header.lstrip("# ").split()[0]
    assert str(info.value) == f"{path}:5: duplicate header key {key!r}"


def test_loader_requires_headers_before_pairs(tmp_path):
    def mangle(lines):
        return lines[1:]  # drop #appearance_dim

    path = write_then_edit(tmp_path, mangle)
    with pytest.raises(DataError, match="appearance_dim"):
        load_dataset(path)


def test_loader_rejects_an_appearance_dim_above_the_ceiling(tmp_path):
    """A checkpoint cannot hold a wider appearance vector, so no dataset may ask for one."""
    path = write_then_edit(tmp_path, lambda lines: [f"#appearance_dim {10**18}"] + lines[1:])
    with pytest.raises(DataError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}:1: appearance dim must be from 1 to 4096, got {10**18}"


def test_word_table_rejects_a_dim_above_the_ceiling(tmp_path):
    """A checkpoint cannot hold wider word vectors, so no word table may ask for them."""
    path = tmp_path / "w.txt"
    path.write_text(f"dim {10**18}\na 1 2\n")
    with pytest.raises(DataError) as info:
        load_word_table(str(path), [Vocabulary(["a"])])
    assert str(info.value) == f"{path}:1: dimension must be from 1 to 4096, got {10**18}"


def test_word_table_round_trip_and_extras(tmp_path):
    vocab = Vocabulary(["person", "sports ball"])
    path = tmp_path / "w.txt"
    path.write_text(
        "dim 3\n"
        "person 0.5 -1.25 3.0\n"
        "extra_token 9 9 9\n"
        "sports_ball 1.0 2.0 -0.125\n"
    )
    table = load_word_table(str(path), [vocab])
    assert np.array_equal(table.lookup("person"), [0.5, -1.25, 3.0])
    assert np.array_equal(table.lookup("sports ball"), [1.0, 2.0, -0.125])
    assert "extra_token" not in table.vectors
    out = tmp_path / "w2.txt"
    write_word_table(table, str(out))
    back = load_word_table(str(out), [vocab])
    assert np.array_equal(back.lookup("person"), table.lookup("person"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("dim 2\na 1 2\na 3 4\n", "3: duplicate token 'a'"),
        ("dim 2\nb_c 1 2\na 1 2\nb_c 1 2\n", "4: duplicate token 'b_c'"),
    ],
    ids=("wanted", "unwanted"),
)
def test_word_table_rejects_a_token_listed_twice(tmp_path, text, message):
    """Also when both lines agree, and also for a token no vocabulary asks for."""
    path = tmp_path / "w.txt"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        load_word_table(str(path), [Vocabulary(["a"])])
    assert str(info.value) == f"{path}:{message}"


def test_word_table_lists_all_missing_tokens(tmp_path):
    vocab = Vocabulary(["a", "b", "c"])
    path = tmp_path / "w.txt"
    path.write_text("dim 2\nb 1 2\n")
    with pytest.raises(DataError, match="a, c"):
        load_word_table(str(path), [vocab])


def test_word_table_rejects_wrong_dim(tmp_path):
    vocab = Vocabulary(["a"])
    path = tmp_path / "w.txt"
    path.write_text("dim 3\na 1 2\n")
    with pytest.raises(DataError, match=r"w\.txt:2"):
        load_word_table(str(path), [vocab])
    path.write_text("dim 3\na 1 x 2\n")
    with pytest.raises(DataError, match=r"w\.txt:2: bad real in the vector of 'a': 'x'$"):
        load_word_table(str(path), [vocab])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_triplet_codes_keep_triplet_order_round_trip_and_commute_with_masks(data):
    """Code order is lexicographic (s, p, o) order, so tie rules, label
    universe order and stage-2 target order read the same on codes."""
    dims = tuple(data.draw(st.integers(1, 2**20)) for _ in range(3))
    rows = data.draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in dims)), max_size=30))
    slots = np.array(rows, np.int64).reshape(-1, 3).T
    codes = triplet_codes(dims, slots)
    assert codes.dtype == np.int64
    assert np.argsort(codes, kind="stable").tolist() == sorted(range(len(rows)), key=rows.__getitem__)
    assert decode(dims, codes) == rows
    for mask, flags in LANGUAGE_MASKS.items():
        masked = [tuple(v * int(keep) for v, keep in zip(row, flags)) for row in rows]
        assert np.array_equal(triplet_codes(dims, slots, mask), encode(dims, masked))
        assert np.array_equal(triplet_codes(dims, np.unravel_index(codes, dims), mask), encode(dims, masked))


def test_query_file_round_trip(tmp_path):
    ds = tiny_dataset()
    queries = [Triplet(0, 0, 0), Triplet(1, 1, 1)]
    path = tmp_path / "q.txt"
    write_queries(queries, ds, str(path))
    assert load_queries(str(path), ds) == queries


def test_triplet_text_prints_the_slots_a_mask_keeps():
    ds = tiny_dataset()
    vocabs = (ds.subjects, ds.predicates, ds.objects)
    t = Triplet(1, 0, 1)
    assert triplet_text(vocabs, t) == "dog ride sports_ball"
    assert triplet_text(vocabs, Triplet(0, 0, 1), "o") == "sports_ball"
    assert triplet_text(vocabs, Triplet(1, 1, 0), "sp") == "dog hold"
    assert triplet_text(vocabs, Triplet(0, 1, 1), "po") == "hold sports_ball"
    assert parse_triplet(vocabs, triplet_text(vocabs, t).split()) == t


def test_query_file_reports_the_bad_line(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "q.txt"
    path.write_text("person ride horse\ndog ride unicorn\n")
    with pytest.raises(DataError, match=r"q\.txt:2: unknown object token 'unicorn'"):
        load_queries(str(path), ds)
    path.write_text("\nperson ride\n")
    with pytest.raises(DataError, match=r"q\.txt:2: expected subject predicate object, got 2"):
        load_queries(str(path), ds)


def test_synth_zero_noise_features_equal_planted_prototypes():
    cfg = desk_config(synth_noise=0.0, synth_heldout=0, synth_train_pairs=3)
    train, _, _, heldout = synth_generate(cfg, seed=1)
    assert heldout == []
    by_triplet = {}
    rows, codes = train.pairs.positives(train.dims)
    for i, t in zip(rows.tolist(), decode(train.dims, codes)):
        if t in by_triplet:
            ref = by_triplet[t]
            assert np.array_equal(train.pairs.a_s[i], train.pairs.a_s[ref])
            assert np.array_equal(train.pairs.a_o[i], train.pairs.a_o[ref])
        else:
            by_triplet[t] = i
    assert len(by_triplet) >= 2


def test_synth_heldout_absent_from_train_present_in_test():
    cfg = desk_config()
    train, test, table, heldout = synth_generate(cfg, seed=2)
    assert len(heldout) == cfg.synth_heldout
    train_counts, test_counts = triplet_counts(train), triplet_counts(test)
    for t in heldout:
        assert train_counts.get(t, 0) == 0
        assert test_counts[t] >= 20
    # every non-heldout triplet is frequent enough to act as a source
    model = build_model(desk_config(rare_threshold=10), train, table, seed=0)
    assert set(decode(model.dims, source_pool(model))) == set(train_counts)
    assert not set(heldout) & set(train_counts)


def test_synth_counts_match_independent_recount():
    train, _, table, _ = synth_generate(desk_config(), seed=5)
    rows = row_triplets(train.pairs)
    recount = Counter(t for row in rows for t in row)
    assert recount == triplet_counts(train) == model_counts(build_model(desk_config(), train, table, 0))
    assert sum(bool(row) for row in rows) >= 50


def test_synth_same_seed_is_bit_identical_different_seed_not():
    a_train, a_test, a_table, a_held = synth_generate(desk_config(), seed=9)
    b_train, b_test, b_table, b_held = synth_generate(desk_config(), seed=9)
    assert_datasets_equal(a_train, b_train)
    assert_datasets_equal(a_test, b_test)
    assert a_held == b_held
    for tok in a_table.vectors:
        assert np.array_equal(a_table.vectors[tok], b_table.vectors[tok])
    c_train, _, _, _ = synth_generate(desk_config(), seed=10)
    assert not np.array_equal(a_train.pairs.a_s[0], c_train.pairs.a_s[0])


def test_synth_word_vectors_cluster_structure():
    cfg = desk_config()
    _, _, table, _ = synth_generate(cfg, seed=0)
    same = table.lookup("obj0") @ table.lookup("obj1")  # same cluster of 3
    other = table.lookup("obj0") @ table.lookup("obj3")  # different cluster
    assert same > other + 0.3


def _linear_argmax_accuracy(feats, labels, n_classes):
    x = np.column_stack([np.array(feats), np.ones(len(feats))])
    y = np.zeros((len(feats), n_classes))
    y[np.arange(len(feats)), labels] = 1.0
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    return np.mean(np.argmax(x @ coef, axis=1) == labels)


def test_synth_object_structure_linearly_recoverable():
    cfg = RunConfig()
    train, _, _, _ = synth_generate(cfg, seed=0)
    labelled = np.diff(train.pairs.pos_offsets) > 0
    feats = train.pairs.a_o[labelled]
    idents = train.pairs.ocat[labelled]
    clusters = idents // cfg.synth_cluster_size
    n_clusters = (cfg.synth_objects + cfg.synth_cluster_size - 1) // cfg.synth_cluster_size
    # the cluster is cleanly decodable; exact identity is deliberately
    # ambiguous so that telling near-synonyms apart needs the pair-level
    # style component, not the object appearance alone
    assert _linear_argmax_accuracy(feats, clusters, n_clusters) >= 0.95
    ident_acc = _linear_argmax_accuracy(feats, idents, cfg.synth_objects)
    assert 1.0 / cfg.synth_cluster_size < ident_acc < 0.95


def test_synth_predicate_changes_object_appearance():
    cfg = desk_config(synth_noise=0.0, synth_heldout=0, synth_train_pairs=2)
    _, test, _, _ = synth_generate(cfg, seed=3)
    proto = {}
    rows, codes = test.pairs.positives(test.dims)
    for i, t in zip(rows.tolist(), decode(test.dims, codes)):
        proto[t] = test.pairs.a_o[i]
    checked = 0
    for a in proto:
        for b in proto:
            if a.o == b.o and a.p != b.p:
                assert not np.array_equal(proto[a], proto[b])
                checked += 1
    assert checked >= 2


def test_synth_generated_files_reload_cleanly(tmp_path):
    train, test, table, heldout = synth_generate(desk_config(), seed=4)
    write_dataset(train, str(tmp_path / "train.ds"))
    write_dataset(test, str(tmp_path / "test.ds"), write_vocabularies=False)
    write_word_table(table, str(tmp_path / "words.txt"))
    write_queries(heldout, train, str(tmp_path / "heldout.txt"))
    train2 = load_dataset(str(tmp_path / "train.ds"))
    test2 = load_dataset(str(tmp_path / "test.ds"))
    assert_datasets_equal(train, train2)
    assert_datasets_equal(test, test2)
    table2 = load_word_table(
        str(tmp_path / "words.txt"), [train2.subjects, train2.predicates, train2.objects]
    )
    for tok, vec in table.vectors.items():
        assert np.array_equal(vec, table2.lookup(tok))
    assert load_queries(str(tmp_path / "heldout.txt"), test2) == heldout


SYNTH_KEYS = [f.name for f in fields(RunConfig) if f.name.startswith("synth_")]


def synth_files(cfg, out) -> dict[str, bytes]:
    """The bytes of every file ``relembed synth`` writes for ``cfg`` at seed 0."""
    train, test, table, heldout = synth_generate(cfg, seed=0)
    out.mkdir()
    write_dataset(train, str(out / "train.ds"))
    write_dataset(test, str(out / "test.ds"), write_vocabularies=False)
    write_word_table(table, str(out / "words.tbl"))
    write_queries(heldout, train, str(out / "heldout.txt"))
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("key", SYNTH_KEYS)
def test_every_synth_key_reaches_the_generator(tmp_path, key):
    """Moving any one synth_* key of the desk world changes the train set,
    the test set, the word table or the held-out list."""
    base = desk_config()
    value = getattr(base, key)
    changed = desk_config(**{key: value + (1 if isinstance(value, int) else 0.5)})
    assert synth_files(changed, tmp_path / "changed") != synth_files(base, tmp_path / "base")


def test_synth_rejects_excessive_heldout():
    with pytest.raises(DataError, match="synth_heldout 6 exceeds synth_families 5"):
        synth_generate(desk_config(synth_heldout=6), seed=0)
