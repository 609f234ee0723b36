import dataclasses
import os
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relembed import data as relembed_data
from relembed.analogy import source_pool
from relembed.config import RunConfig
from relembed.data import (
    LANGUAGE_MASKS,
    READ_ROWS,
    BoundingBox,
    DataError,
    Dataset,
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
    rows_table,
    triplet_counts,
    wide_config,
)
from synth_reference import reference_pairs
from test_error_contract_fuzz import FUZZ, mutate_lines


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
    return Dataset(subjects, predicates, objects, rows_table(rows, 3))


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
    assert back.index["sports ball"] == 1


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


@pytest.mark.parametrize("world", ["desk", "wide"])
def test_loader_columns_equal_the_straight_line_oracle(tmp_path, world):
    """load_dataset's columnar reader and the generator give every column
    the bytes of whole-column stacking over rows parsed field by field."""
    cfg = desk_config() if world == "desk" else wide_config()
    _, test, _, _ = synth_generate(cfg, 0)
    path = str(tmp_path / "test.ds")
    write_dataset(test, path)
    rows, d = oracle_rows(path)
    want = rows_table(rows, d)
    assert len(want) == len(test.pairs) and d == cfg.synth_appearance_dim
    assert_tables_equal(load_dataset(path).pairs, want)
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
    pytest.param(_set(26, "q1:ride"), "bad label entry 'q1:ride', expected p<n>:<token>", id="label_tag"),
    pytest.param(_set(26, "p:ride"), "bad label entry 'p:ride', expected p<n>:<token>", id="label_number"),
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


# reals whose bits a parser could lose: NaN signs, infinities, overflow,
# the smallest subnormal and normal, negative zero, underscores and a
# non-ASCII digit (Arabic-Indic three)
_SPECIAL_REALS = ["nan", "-nan", "inf", "-inf", "1_0", "1e400", "-1e400", "5e-324",
                  "2.2250738585072014e-308", "-0.0", "٣"]


@pytest.mark.parametrize("tok", _SPECIAL_REALS)
def test_loader_keeps_the_bits_of_float_for_every_real_field(tmp_path, tok):
    """A real read into an appearance field, and into a box field wherever
    the box stays valid, has the bits ``float`` gives it, NaN's sign included."""
    value = float(tok)
    # the first pair line's subject box is (0, 0, 10, 10): x_min at 4, x_max at 6
    box_at = 4 if value < 10.0 else 6 if value > 0.0 else None

    def mangle(lines):
        parts = lines[4].split()
        for at in (18, 22) if box_at is None else (18, 22, box_at):
            parts[at] = tok
        lines[4] = " ".join(parts)
        return lines

    pairs = load_dataset(write_then_edit(tmp_path, mangle)).pairs
    want = np.float64(value).tobytes()
    assert pairs.a_s[0, 0].tobytes() == want and pairs.a_o[0, 0].tobytes() == want
    if box_at is not None:
        assert pairs.coords[0, box_at - 4].tobytes() == want


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


# rows of the second and the third block of pair lines
_SECOND, _THIRD = READ_ROWS, 2 * READ_ROWS


def write_blocks(tmp_path, transform) -> str:
    """A dataset of 3 blocks of pair lines and 5 more, every row a copy of
    ``tiny_dataset``'s first with pair id = row, edited as in ``write_then_edit``;
    row r sits on line 5 + r."""
    ds = tiny_dataset()
    n = 3 * READ_ROWS + 5
    pairs = dataclasses.replace(ds.pairs.take([0] * n), pair_id=np.arange(n, dtype=np.int64))
    path = tmp_path / "d.ds"
    write_dataset(Dataset(ds.subjects, ds.predicates, ds.objects, pairs), str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(transform(lines)) + "\n")
    return str(path)


def edit_rows(edits):
    """A transform applying each (row, edit) of ``edits`` to that row's fields."""
    def transform(lines):
        for row, edit in edits:
            lines[4 + row] = " ".join(edit(lines[4 + row].split()))
        return lines

    return transform


@pytest.mark.parametrize("edit, message", _MALFORMED_PAIR_LINES)
def test_loader_names_a_malformed_line_at_either_end_of_a_later_block(tmp_path, edit, message):
    for row in (_SECOND, _THIRD + READ_ROWS - 1):  # first line of the second block, last of the third
        path = write_blocks(tmp_path, edit_rows([(row, edit)]))
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}:{5 + row}: {message}"


@pytest.mark.parametrize(
    "first, second",
    [(_SECOND + 3, _THIRD + 1), (_SECOND + 3, _SECOND + 9), (_THIRD - 1, _THIRD)],
    ids=("blocks_apart", "one_block", "adjacent_blocks"),
)
def test_loader_names_the_earlier_of_two_malformed_lines(tmp_path, first, second):
    """The earlier line is named whichever of the two errors a line would
    meet first: a bad real comes before a keyword in a line's own order."""
    bad_real, bad_keyword = _set(19, "oops"), _set(17, "afeat_x")
    for edits, message in (
        ([(first, bad_real), (second, bad_keyword)], "bad real in afeat_s: 'oops'"),
        ([(first, bad_keyword), (second, bad_real)], "expected 'afeat_s', found 'afeat_x'"),
    ):
        path = write_blocks(tmp_path, edit_rows(edits))
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}:{5 + first}: {message}"


def test_loader_names_a_duplicate_of_a_pair_id_from_an_earlier_block(tmp_path):
    path = write_blocks(tmp_path, edit_rows([(_THIRD + 7, _set(1, "5"))]))
    with pytest.raises(DataError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}:{5 + _THIRD + 7}: duplicate pair id 5"


def test_loader_rejects_a_header_inside_a_later_block(tmp_path):
    row = _THIRD + 4
    path = write_blocks(tmp_path, lambda lines: lines[: 4 + row] + ["#appearance_dim 3"] + lines[4 + row :])
    with pytest.raises(DataError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}:{5 + row}: header line after the first pair line"


@pytest.fixture(scope="module")
def desk_train_file(tmp_path_factory):
    """The desk world's train set, 594 pair lines (many blocks), and the
    index of its first pair line."""
    path = tmp_path_factory.mktemp("blocks") / "train.ds"
    write_dataset(synth_generate(desk_config(), 0)[0], str(path))
    text = path.read_bytes()
    return path, text, text[: text.index(b"\npair")].count(b"\n") + 1


def load_line_by_line(path):
    """``load_dataset`` with every pair line put through ``_check_pair_line``
    alone, in file order; the table it returns is empty."""
    def per_line(lines, d, vocabs):
        seen_ids = set()
        for line in lines:
            relembed_data._check_pair_line(line, d, vocabs, seen_ids)
        return iter(())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relembed_data, "_read_pairs", per_line)
        return load_dataset(path)


@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_block_reader_agrees_with_the_per_line_checks_on_mutated_lines(desk_train_file, data):
    """On 1-3 mutated pair lines, the block reader raises what the per-line
    checks over the whole file raise, or both pass and the table has the
    bytes of the straight-line oracle."""
    path, text, first = desk_train_file
    tmp = path.with_name("mutated.ds")
    tmp.write_bytes(mutate_lines(data, text, first))
    try:
        load_line_by_line(str(tmp))
    except ValueError as e:
        with pytest.raises(ValueError) as info:
            load_dataset(str(tmp))
        assert (type(info.value), str(info.value)) == (type(e), str(e))
    else:
        rows, d = oracle_rows(str(tmp))
        assert_tables_equal(load_dataset(str(tmp)).pairs, rows_table(rows, d))


def test_loader_names_a_bad_line_before_undecodable_text_in_its_block(desk_train_file):
    """A malformed pair line, then undecodable bytes 31 lines (about 22 KB)
    later in the same block: the error is the malformed line's, as the
    per-line checks give it, not the undecodable text's."""
    path, text, first = desk_train_file
    lines = text.split(b"\n")
    row = first + READ_ROWS  # the first line of the second block
    lines[row] = lines[row].replace(b" obj ", b" objx ", 1)
    lines[row + READ_ROWS - 1] = lines[row + READ_ROWS - 1].replace(b" labels", b" \xff labels", 1)
    bad = path.with_name("undecodable.ds")
    bad.write_bytes(b"\n".join(lines))
    with pytest.raises(DataError) as want:
        load_line_by_line(str(bad))
    with pytest.raises(DataError) as got:
        load_dataset(str(bad))
    assert str(got.value) == str(want.value) == f"{bad}:{row + 1}: expected 'obj', found 'objx'"


def traced_bytes(build) -> tuple[object, int, int]:
    """``build()``, and the traced bytes it leaves held and its traced peak."""
    tracemalloc.start()
    try:
        value = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, held, peak


def test_loader_holds_a_few_blocks_of_lines_besides_its_table(tmp_path):
    """What ``load_dataset`` allocates besides the table it returns and one
    int64 copy of its pair ids stays under one bound whatever the file's size.

    While it reads, the loader holds the split pair lines of at most two
    blocks (the block it converts, and the one before it until its names are
    rebound) and the conversions of a block: a flat list of its real tokens
    and their float array, 16 bytes per real against the 49-byte header of
    each real's ``str``. So the bound is 3 x READ_ROWS x the bytes of one
    split line (its tokens and their list, the longest line of the file):
    two blocks of lines, and one more for the conversions and the reader's
    buffers. A ``wide`` line is about 7.7 KB split, so with 32-row blocks
    the bound is about 0.74 MB, where a whole-file reader would hold every
    line's tokens, about 31 MB for ``wide``'s 3,904 test pairs. The table's bytes are the traced
    bytes still held after the call: its columns' buffers, over-allocation
    included. Duplicate pair ids are found in a sorted copy of the table's
    pair id column, 8 bytes a pair, which grows with the file.
    Measured on ``wide``'s test set and on its pair lines written 4 times
    with new pair ids (15,616 pairs)."""
    _, test, _, _ = synth_generate(wide_config(), 0)
    path = tmp_path / "test.ds"
    write_dataset(test, str(path))
    lines = path.read_text().splitlines(keepends=True)
    head, pair_lines = lines[:4], [line.split(" ") for line in lines[4:]]
    n = len(pair_lines)
    four = tmp_path / "four.ds"
    four.write_text("".join(head + [
        " ".join([parts[0], str(copy * n + int(parts[1])), *parts[2:]]) for copy in range(4) for parts in pair_lines
    ]))
    line_bytes = max(sys.getsizeof(parts) + sum(map(sys.getsizeof, parts)) for parts in map(str.split, lines[4:]))
    bound = 3 * READ_ROWS * line_bytes
    for file, rows in ((path, n), (four, 4 * n)):
        dataset, held, peak = traced_bytes(lambda: load_dataset(str(file)))
        id_bytes = 8 * rows
        assert len(dataset.pairs) == rows
        assert peak - held - id_bytes < bound, (file.name, peak - held, id_bytes, bound)


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


# header edits of ``tiny_dataset``'s file (lines 1-4: appearance_dim,
# subjects, predicates, objects), each with what follows the path in its error
_MALFORMED_HEADERS = [
    pytest.param(lambda lines: lines[:1] + ["#"] + lines[1:], ":2: empty header line", id="empty"),
    pytest.param(
        lambda lines: ["#appearance_dim 3 4"] + lines[1:], ":1: expected '#appearance_dim <d_a>'",
        id="appearance_dim_fields",
    ),
    pytest.param(lambda lines: lines[:1] + ["#subjects"] + lines[2:], ":2: expected '#subjects <path>'",
                 id="subjects_fields"),
    pytest.param(lambda lines: lines[:4] + ["#colour red"] + lines[4:], ":5: unknown header key 'colour'",
                 id="unknown_key"),
    pytest.param(lambda lines: lines[:3], ": incomplete header (no pairs and missing declarations)",
                 id="incomplete"),
    pytest.param(
        lambda lines: lines[:1] + lines[3:], ":3: pair line before vocabulary headers: subjects, predicates",
        id="vocabularies_missing",
    ),
]


@pytest.mark.parametrize("edit, message", _MALFORMED_HEADERS)
def test_loader_names_file_and_line_for_each_malformed_header(tmp_path, edit, message):
    path = write_then_edit(tmp_path, edit)
    with pytest.raises(DataError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}{message}"


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


def _word_table(path):
    return load_word_table(path, [Vocabulary(["a"])])


@pytest.mark.parametrize(
    "load, text, message",
    [
        (_word_table, "dim\na 1 2\n", ":1: expected header 'dim <d_w>'"),
        (_word_table, "\n\n", ": empty word table"),
        (load_vocabulary, "a\nb c\n", ":2: vocabulary lines hold exactly one token"),
    ],
    ids=("no_dim", "empty", "vocabulary_two_tokens"),
)
def test_word_table_and_vocabulary_refuse_a_malformed_file(tmp_path, load, text, message):
    path = tmp_path / "w.txt"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        load(str(path))
    assert str(info.value) == f"{path}{message}"


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


# the desk world and its variants; "default" and "wide" are the benchmark's worlds
SYNTH_WORLDS = {
    "desk": {},
    "ratio-0": dict(synth_negative_ratio=0.0),
    "ratio-0.5": dict(synth_negative_ratio=0.5),
    "ratio-2.7": dict(synth_negative_ratio=2.7),
    "no-train-pairs": dict(synth_train_pairs=0),
    "no-noise": dict(synth_noise=0.0),
}


def synth_world(name: str) -> RunConfig:
    if name == "default":
        return RunConfig()
    return wide_config() if name == "wide" else desk_config(**SYNTH_WORLDS[name])


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("world", ["default", "wide", *SYNTH_WORLDS])
def test_synth_columns_equal_the_row_at_a_time_reference(monkeypatch, world, seed):
    """Every column, word vector and held-out triplet the block emitter
    generates has the bytes of the row-at-a-time reference's."""
    cfg = synth_world(world)
    got = synth_generate(cfg, seed)
    monkeypatch.setattr(relembed_data, "_synth_pairs", reference_pairs)
    want = synth_generate(cfg, seed)
    for split, reference in zip(got[:2], want[:2]):
        assert_tables_equal(split.pairs, reference.pairs)
    assert {tok: v.tobytes() for tok, v in got[2].vectors.items()} == {
        tok: v.tobytes() for tok, v in want[2].vectors.items()}
    assert got[3] == want[3]


@pytest.mark.parametrize("noise", [1e20, 1e200])
def test_synth_degenerate_box_is_the_reference_first(monkeypatch, noise):
    """With boxes so large that adding a half-width is lost, the first
    degenerate box, in row order and subject box first, is the reference's."""
    for seed in (0, 1, 7):
        with pytest.raises(DataError, match=r"^degenerate box \(") as got:
            synth_generate(desk_config(synth_noise=noise), seed)
        with monkeypatch.context() as patch:
            patch.setattr(relembed_data, "_synth_pairs", reference_pairs)
            with pytest.raises(DataError) as want:
                synth_generate(desk_config(synth_noise=noise), seed)
        assert str(got.value) == str(want.value)


def test_synth_rejects_excessive_heldout():
    with pytest.raises(DataError, match="synth_heldout 6 exceeds synth_families 5"):
        synth_generate(desk_config(synth_heldout=6), seed=0)
