import numpy as np
import pytest

from relembed.analogy import source_pool
from relembed.data import (
    BoundingBox,
    CandidatePair,
    DataError,
    Dataset,
    SynthConfig,
    Triplet,
    Vocabulary,
    WordTable,
    load_dataset,
    load_queries,
    load_vocabulary,
    load_word_table,
    synth_generate,
    write_dataset,
    write_queries,
    write_vocabulary,
    write_word_table,
)
from relembed.model import build_model

from conftest import desk_config


def tiny_dataset() -> Dataset:
    subjects = Vocabulary(["person", "dog"])
    predicates = Vocabulary(["ride", "hold"])
    objects = Vocabulary(["horse", "sports ball"])
    rng = np.random.default_rng(0)
    pairs = [
        CandidatePair(
            0, 0,
            BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(5.0, 0.0, 15.0, 10.0),
            0, 0, rng.normal(size=3), rng.normal(size=3), (0,),
        ),
        CandidatePair(
            1, 0,
            BoundingBox(1.5, 2.5, 3.5, 4.5), BoundingBox(2.0, 2.0, 9.0, 9.0),
            0, 1, rng.normal(size=3), rng.normal(size=3), (0, 1),
        ),
        CandidatePair(
            2, 1,
            BoundingBox(0.0, 0.0, 4.0, 4.0), BoundingBox(1.0, 1.0, 2.0, 2.0),
            1, 0, rng.normal(size=3), rng.normal(size=3), (),
        ),
    ]
    return Dataset.build(subjects, predicates, objects, pairs, 3)


def assert_datasets_equal(a: Dataset, b: Dataset):
    assert a.subjects.tokens == b.subjects.tokens
    assert a.predicates.tokens == b.predicates.tokens
    assert a.objects.tokens == b.objects.tokens
    assert a.appearance_dim == b.appearance_dim
    assert a.counts == b.counts
    assert a.observed == b.observed
    assert len(a.pairs) == len(b.pairs)
    for pa, pb in zip(a.pairs, b.pairs):
        assert pa.pair_id == pb.pair_id
        assert pa.image_id == pb.image_id
        assert pa.sub_box == pb.sub_box
        assert pa.obj_box == pb.obj_box
        assert pa.subject_cat == pb.subject_cat
        assert pa.object_cat == pb.object_cat
        assert np.array_equal(pa.appear_sub, pb.appear_sub)
        assert np.array_equal(pa.appear_obj, pb.appear_obj)
        assert pa.positive_predicates == pb.positive_predicates


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


def test_bounding_box_rejects_degenerate():
    with pytest.raises(DataError):
        BoundingBox(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(DataError):
        BoundingBox(0.0, 2.0, 1.0, 2.0)


def test_dataset_counts_single_positive():
    ds = tiny_dataset()
    assert ds.counts[Triplet(0, 0, 0)] == 1
    assert ds.counts[Triplet(0, 0, 1)] == 1
    assert ds.counts[Triplet(0, 1, 1)] == 1
    assert Triplet(1, 0, 0) not in ds.observed  # all-negative pair


def test_dataset_file_round_trip(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "d.ds"
    write_dataset(ds, str(path))
    back = load_dataset(str(path))
    assert_datasets_equal(ds, back)


def test_empty_dataset_round_trip(tmp_path):
    ds = tiny_dataset()
    ds.pairs = []
    ds = Dataset.build(ds.subjects, ds.predicates, ds.objects, [], 3)
    path = tmp_path / "d.ds"
    write_dataset(ds, str(path))
    back = load_dataset(str(path))
    assert back.pairs == []
    assert back.observed == set()


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


def test_loader_requires_headers_before_pairs(tmp_path):
    def mangle(lines):
        return lines[1:]  # drop #appearance_dim

    path = write_then_edit(tmp_path, mangle)
    with pytest.raises(DataError, match="appearance_dim"):
        load_dataset(path)


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


def test_query_file_round_trip(tmp_path):
    ds = tiny_dataset()
    queries = [Triplet(0, 0, 0), Triplet(1, 1, 1)]
    path = tmp_path / "q.txt"
    write_queries(queries, ds, str(path))
    assert load_queries(str(path), ds) == queries


def small_cfg(**kw) -> SynthConfig:
    base = dict(
        n_subjects=4,
        n_predicates=5,
        n_objects=6,
        cluster_size=3,
        n_families=5,
        train_pairs_per_triplet=11,
        test_pairs_per_triplet=2,
        heldout_count=3,
        heldout_test_pairs=21,
        appearance_dim=12,
    )
    base.update(kw)
    return SynthConfig(**base)


def test_synth_zero_noise_features_equal_planted_prototypes():
    cfg = small_cfg(noise=0.0, heldout_count=0, train_pairs_per_triplet=3)
    train, _, _, heldout = synth_generate(cfg, seed=1)
    assert heldout == []
    by_triplet = {}
    for pair in train.pairs:
        if not pair.positive_predicates:
            continue
        t = pair.positives()[0]
        if t in by_triplet:
            ref = by_triplet[t]
            assert np.array_equal(pair.appear_sub, ref.appear_sub)
            assert np.array_equal(pair.appear_obj, ref.appear_obj)
        else:
            by_triplet[t] = pair
    assert len(by_triplet) >= 2


def test_synth_heldout_absent_from_train_present_in_test():
    cfg = small_cfg()
    train, test, table, heldout = synth_generate(cfg, seed=2)
    assert len(heldout) == cfg.heldout_count
    for t in heldout:
        assert train.counts.get(t, 0) == 0
        assert test.counts[t] >= 20
    # every non-heldout triplet is frequent enough to act as a source
    frequent = source_pool(build_model(desk_config(rare_threshold=10), train, table, seed=0))
    assert set(frequent) == train.observed
    assert not set(heldout) & train.observed


def test_synth_counts_match_independent_recount():
    train, _, _, _ = synth_generate(small_cfg(), seed=5)
    recount = {}
    for pair in train.pairs:
        for p in pair.positive_predicates:
            t = Triplet(pair.subject_cat, p, pair.object_cat)
            recount[t] = recount.get(t, 0) + 1
    assert recount == train.counts
    assert sum(len(p.positive_predicates) > 0 for p in train.pairs) >= 50


def test_synth_same_seed_is_bit_identical_different_seed_not():
    a_train, a_test, a_table, a_held = synth_generate(small_cfg(), seed=9)
    b_train, b_test, b_table, b_held = synth_generate(small_cfg(), seed=9)
    assert_datasets_equal(a_train, b_train)
    assert_datasets_equal(a_test, b_test)
    assert a_held == b_held
    for tok in a_table.vectors:
        assert np.array_equal(a_table.vectors[tok], b_table.vectors[tok])
    c_train, _, _, _ = synth_generate(small_cfg(), seed=10)
    assert not np.array_equal(a_train.pairs[0].appear_sub, c_train.pairs[0].appear_sub)


def test_synth_word_vectors_cluster_structure():
    cfg = small_cfg()
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
    cfg = SynthConfig()
    train, _, _, _ = synth_generate(cfg, seed=0)
    feats, idents, clusters = [], [], []
    for pair in train.pairs:
        if pair.positive_predicates:
            feats.append(pair.appear_obj)
            idents.append(pair.object_cat)
            clusters.append(pair.object_cat // cfg.cluster_size)
    n_clusters = (cfg.n_objects + cfg.cluster_size - 1) // cfg.cluster_size
    # the cluster is cleanly decodable; exact identity is deliberately
    # ambiguous so that telling near-synonyms apart needs the pair-level
    # style component, not the object appearance alone
    assert _linear_argmax_accuracy(feats, clusters, n_clusters) >= 0.95
    ident_acc = _linear_argmax_accuracy(feats, idents, cfg.n_objects)
    assert 1.0 / cfg.cluster_size < ident_acc < 0.95


def test_synth_predicate_changes_object_appearance():
    cfg = small_cfg(noise=0.0, heldout_count=0, train_pairs_per_triplet=2)
    _, test, _, _ = synth_generate(cfg, seed=3)
    proto = {}
    for pair in test.pairs:
        for t in pair.positives():
            proto[t] = pair.appear_obj
    checked = 0
    for a in proto:
        for b in proto:
            if a.o == b.o and a.p != b.p:
                assert not np.array_equal(proto[a], proto[b])
                checked += 1
    assert checked >= 2


def test_synth_generated_files_reload_cleanly(tmp_path):
    train, test, table, heldout = synth_generate(small_cfg(), seed=4)
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


def test_synth_rejects_excessive_heldout():
    with pytest.raises(DataError, match="hold out"):
        synth_generate(small_cfg(heldout_count=6), seed=0)
