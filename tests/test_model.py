import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from relembed import model as model_mod
from relembed.analogy import gamma_init, train_stage2
from relembed.config import RunConfig, validate
from relembed.data import (
    BoundingBox,
    DataError,
    Dataset,
    PairTable,
    Triplet,
    Vocabulary,
    WordTable,
    synth_generate,
    triplet_dims,
)
from relembed.features import BRANCH_KINDS
from relembed.model import (
    batch_iter,
    branch_universe,
    build_model,
    embed_language_batch,
    joint_loss,
    label_matrix,
    logistic_terms,
    new_model,
    pair_embeddings,
    reuse_pair_embeddings,
    score_from_embeddings,
    score_pairs,
    train_stage1,
    trainable,
)
from relembed.numkit import log_sigmoid, mlp_forward, rng_stream, sigmoid

from conftest import code, decode, desk_config, rows_table, wide_config
from gradcheck import finite_diff_grad, max_relative_error


def bench_model(bench, seed=0, **overrides):
    cfg, (train, test, table, heldout) = bench
    cfg = desk_config(**overrides)
    return build_model(cfg, train, table, seed), train, test, heldout


def one_label_world():
    """Single-token vocabularies and one interacting pair."""
    subjects, predicates, objects = Vocabulary(["s0"]), Vocabulary(["p0"]), Vocabulary(["o0"])
    rng = np.random.default_rng(3)
    pair = rows_table(
        [(0, 0, BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 15, 10),
          0, 0, rng.normal(size=4), rng.normal(size=4), (0,))],
        4,
    )
    ds = Dataset(subjects, predicates, objects, pair)
    table = WordTable(3, {t: v for t, v in zip(["s0", "p0", "o0"], rng.normal(size=(3, 3)))})
    return ds, table, pair


def first_positive(table: PairTable) -> tuple[int, Triplet]:
    """The first labelled row of a table and its first positive triplet."""
    i = int(np.flatnonzero(np.diff(table.pos_offsets))[0])
    p = int(table.pos_preds[table.pos_offsets[i]])
    return i, Triplet(int(table.scat[i]), p, int(table.ocat[i]))


def zero_out(mlp):
    mlp.second.w[:] = 0.0
    mlp.second.b[:] = 0.0


def test_language_embeddings_are_unit_norm(small_bench):
    model, train, _, _ = bench_model(small_bench)
    for kind in model.active_kinds:
        w = embed_language_batch(model, kind, model.observed)
        norms = np.linalg.norm(w, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_language_masking_ignores_masked_slots(small_bench):
    model, _, _, _ = bench_model(small_bench)
    a = embed_language_batch(model, "p", [code(model, Triplet(0, 2, 1))])[0]
    b = embed_language_batch(model, "p", [code(model, Triplet(3, 2, 5))])[0]
    assert np.array_equal(a, b)
    c = embed_language_batch(model, "vp", [code(model, Triplet(0, 2, 1))])[0]
    d = embed_language_batch(model, "vp", [code(model, Triplet(3, 2, 1))])[0]
    assert not np.array_equal(c, d)


def test_language_embedding_matches_by_hand(small_bench):
    model, _, _, _ = bench_model(small_bench)
    t = Triplet(1, 0, 2)
    br = model.branches["vp"]
    q = np.concatenate([model.e_sub[t.s], model.e_pre[t.p], model.e_obj[t.o]])
    h = np.maximum(br.f_w.first.w @ q + br.f_w.first.b, 0.0)
    raw = br.f_w.second.w @ h + br.f_w.second.b
    expect = raw / np.linalg.norm(raw)
    assert np.allclose(embed_language_batch(model, "vp", [code(model, t)])[0], expect, rtol=0, atol=1e-12)


def test_language_zero_vector_is_an_error(small_bench):
    model, _, _, _ = bench_model(small_bench)
    zero_out(model.branches["p"].f_w)
    with pytest.raises(FloatingPointError):
        embed_language_batch(model, "p", [code(model, Triplet(0, 0, 0))])[0]


def test_visual_subject_branch_ignores_object_appearance(small_bench):
    model, train, _, _ = bench_model(small_bench)
    pair = train.pairs.take([0])
    v1 = pair_embeddings(model, pair)["s"]
    bumped = dataclasses.replace(pair, a_o=pair.a_o + 1.0)
    v2 = pair_embeddings(model, bumped)["s"]
    assert np.array_equal(v1, v2)
    assert not np.array_equal(
        pair_embeddings(model, pair)["o"], pair_embeddings(model, bumped)["o"]
    )


def test_visual_branch_matches_by_hand(small_bench):
    model, train, _, _ = bench_model(small_bench)
    pair = train.pairs.take([3])
    from relembed.features import pair_arrays, visual_forward

    a_s, a_o, r = pair_arrays(pair)
    x = visual_forward(model.visual, a_s, a_o, r)[0][0]
    br = model.branches["vp"]
    h = np.maximum(br.f_v.first.w @ x + br.f_v.first.b, 0.0)
    expect = br.f_v.second.w @ h + br.f_v.second.b
    got = pair_embeddings(model, pair)["vp"][0]
    assert np.allclose(got, expect, rtol=0, atol=1e-12)


def test_inactive_branch_is_an_error(small_bench):
    model, train, _, _ = bench_model(small_bench, branches="s,o")
    with pytest.raises(DataError, match="not active"):
        joint_loss(model, train.pairs.take([0]), kinds=("vp",))


def test_single_positive_zero_dot_loss_is_log_two():
    ds, table, pair = one_label_world()
    cfg = desk_config(branches="s", dropout=0.0, embed_dim=4, branch_hidden=16)
    model = build_model(cfg, ds, table, seed=0)
    zero_out(model.branches["s"].f_v)  # v = 0 so every dot is 0
    loss, _ = joint_loss(model, pair, kinds=("s",))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_saturated_positive_loss_vanishes():
    ds, table, pair = one_label_world()
    cfg = desk_config(branches="s", dropout=0.0, embed_dim=4, branch_hidden=16)
    model = build_model(cfg, ds, table, seed=0)
    w = embed_language_batch(model, "s", [code(model, Triplet(0, 0, 0))])[0]
    zero_out(model.branches["s"].f_v)
    model.branches["s"].f_v.second.b[:] = 50.0 * w  # dot = 50
    loss, _ = joint_loss(model, pair, kinds=("s",))
    assert 0.0 < loss < 1e-9


def test_one_pass_loss_equals_two_pass_formula_bit_for_bit():
    """log_sigmoid of the label-signed dot equals y*ls(d) + (1-y)*ls(-d)
    entry for entry, so the loss sum keeps its bits, also where
    log_sigmoid saturates."""
    rng = np.random.default_rng(6)
    v = rng.normal(size=(40, 5)) * rng.choice([1e-3, 1.0, 30.0, 160.0], size=(40, 1))
    w = rng.normal(size=(6, 5))
    w = np.vstack([w, w[[0, 3]]]) / np.linalg.norm(w, axis=1).max()  # columns 6, 7 repeat 0, 3
    d = v @ w.T
    assert np.abs(d).max() > 300.0 and np.abs(d).max() <= 800.0
    y = (rng.random(d.shape) < 0.4).astype(np.float64)
    y[:, 6:] = y[:, [0, 3]]
    two_pass = y * log_sigmoid(d) + (1.0 - y) * log_sigmoid(-d)
    assert np.array_equal(log_sigmoid(np.where(y == 1.0, d, -d)), two_pass)
    loss, _, _ = logistic_terms(v, w, y)
    assert loss == -float(np.sum(two_pass)) / d.size


def test_language_inputs_are_built_once_per_stage_unless_words_train(small_bench, monkeypatch):
    """The word vectors never train, so each branch's language input is
    built once per training stage, and the word vectors end as they began."""
    _, (train, _, table, _) = small_bench
    built, build = [], model_mod.language_matrix

    def counted(codes, *args):
        built.append(codes)
        return build(codes, *args)

    monkeypatch.setattr(model_mod, "language_matrix", counted)
    cfg = desk_config(branches="s,o,p,vp", stage1_epochs=2, stage2_epochs=1)
    model = build_model(cfg, train, table, seed=0)
    words = [model.e_sub.copy(), model.e_pre.copy(), model.e_obj.copy()]
    built.clear()
    train_stage1(model, train, seed=0)
    assert len(built) == 4
    built.clear()
    gamma = gamma_init(cfg, 0)
    train_stage2(model, gamma, train, seed=0)
    assert sum(codes is model.labels["vp"] for codes in built) == 1
    assert all(np.array_equal(a, b) for a, b in zip(words, (model.e_sub, model.e_pre, model.e_obj)))


def test_branch_loss_gradients_match_finite_differences(small_bench):
    _, (train, _, table, _) = small_bench
    worst = 0.0
    for seed in range(2):
        cfg = desk_config(
            dropout=0.0, embed_dim=5, branch_hidden=10, app_out=3,
            spatial_hidden=4, spatial_out=3,
        )
        model = build_model(cfg, train, table, seed=seed)
        rng = np.random.default_rng(seed)
        batch = train.pairs.take(rng.choice(len(train.pairs), size=8, replace=False))
        for kind in ("s", "p", "vp"):
            loss_fn = lambda: joint_loss(model, batch, kinds=(kind,))[0]
            _, grads = joint_loss(model, batch, kinds=(kind,))
            named = [
                (n, a)
                for n, a in trainable(model, 1)
                if n.startswith(("visual.", f"branch.{kind}."))
            ]
            numeric = finite_diff_grad(loss_fn, [a for _, a in named])
            analytic = [grads.get(name, np.zeros_like(a)) for name, a in named]
            worst = max(worst, max_relative_error(analytic, numeric))
    assert worst < 1e-5


def test_joint_loss_is_sum_of_branch_losses(small_bench):
    model, train, _, _ = bench_model(small_bench, dropout=0.0)
    batch = train.pairs.take(range(10))
    total, joint_grads = joint_loss(model, batch)
    parts = [joint_loss(model, batch, kinds=(k,)) for k in model.active_kinds]
    assert total == pytest.approx(sum(p[0] for p in parts), rel=1e-12)
    single, _ = joint_loss(model, batch, kinds=("vp",))
    assert single == pytest.approx(parts[-1][0], rel=1e-12)
    # shared front-end gradients accumulate across branches
    name = "visual.sub_proj.w"
    acc = sum(p[1].get(name, 0.0) for p in parts)
    assert np.allclose(joint_grads[name], acc, rtol=1e-9, atol=1e-12)


def test_joint_loss_batch_order_invariance(small_bench):
    model, train, _, _ = bench_model(small_bench, dropout=0.0)
    batch = train.pairs.take(range(12))
    a, _ = joint_loss(model, batch)
    b, _ = joint_loss(model, batch.take(range(11, -1, -1)))
    assert a == pytest.approx(b, rel=1e-12)


def test_positive_gains_from_moving_along_language_direction():
    ds, table, pair = one_label_world()
    cfg = desk_config(branches="s", dropout=0.0, embed_dim=4, branch_hidden=4)
    model = build_model(cfg, ds, table, seed=1)
    w = embed_language_batch(model, "s", [code(model, Triplet(0, 0, 0))])[0]
    base, _ = joint_loss(model, pair, kinds=("s",))
    model.branches["s"].f_v.second.b[:] += 0.05 * w
    moved, _ = joint_loss(model, pair, kinds=("s",))
    assert moved < base


def test_score_four_zero_dots_gives_sixteenth(small_bench):
    model, train, _, _ = bench_model(small_bench)
    for kind in model.active_kinds:
        zero_out(model.branches[kind].f_v)
    s = score_pairs(model, code(model, Triplet(0, 0, 0)), train.pairs.take(range(3)))
    assert np.allclose(s, 0.0625, rtol=0, atol=1e-15)


def test_score_single_branch_log_three_dot():
    ds, table, pair = one_label_world()
    cfg = desk_config(branches="s", dropout=0.0, embed_dim=4, branch_hidden=16)
    model = build_model(cfg, ds, table, seed=0)
    w = embed_language_batch(model, "s", [code(model, Triplet(0, 0, 0))])[0]
    zero_out(model.branches["s"].f_v)
    model.branches["s"].f_v.second.b[:] = np.log(3.0) * w
    s = score_pairs(model, code(model, Triplet(0, 0, 0)), pair)
    assert s[0] == pytest.approx(0.75, abs=1e-12)


def test_score_extra_zero_dot_branch_halves(small_bench):
    model, train, _, _ = bench_model(small_bench)
    t = Triplet(0, 0, 0)
    pairs = train.pairs.take(range(5))
    visual = pair_embeddings(model, pairs)
    language = {k: embed_language_batch(model, k, [code(model, t)])[0] for k in model.active_kinds}
    without_o = {k: v for k, v in visual.items() if k != "o"}
    base = score_from_embeddings(without_o, language)
    zero_out(model.branches["o"].f_v)  # o-branch dot becomes 0 for every pair
    withextra = score_from_embeddings(pair_embeddings(model, pairs), language)
    assert np.allclose(withextra, 0.5 * base, rtol=1e-12, atol=0)


def test_reused_pair_embeddings_are_the_same_only_inside_the_block(small_bench):
    model, train, _, _ = bench_model(small_bench)
    pairs = train.pairs.take(range(5))
    fresh = pair_embeddings(model, pairs)
    with reuse_pair_embeddings(model, pairs):
        first = pair_embeddings(model, pairs)
        with reuse_pair_embeddings(model, pairs):  # nested: same entry
            again = pair_embeddings(model, pairs)
        assert all(again[k] is first[k] for k in first)
        assert pair_embeddings(model, pairs)["s"] is first["s"]  # outer entry kept
        assert all(np.array_equal(first[k], fresh[k]) for k in fresh)
        assert not any(v.flags.writeable for v in first.values())
        assert pair_embeddings(model, train.pairs.take(range(5)))["s"] is not first["s"]  # other table
    zero_out(model.branches["s"].f_v)
    assert not np.array_equal(pair_embeddings(model, pairs)["s"], first["s"])


@pytest.fixture(scope="module")
def wide_test_world():
    """The default model, untrained, and the wide world's 3,904 test pairs."""
    cfg = wide_config()
    train, test, table, _ = synth_generate(cfg, 0)
    return build_model(cfg, train, table, 0), test.pairs


@pytest.mark.parametrize("copies", [1, 4])
def test_embedding_peak_does_not_grow_with_the_table(wide_test_world, copies):
    """Apart from its outputs, embedding a table allocates less than two pair
    descriptors of the largest block, 2 * EMBED_ROWS - 1 rows: one block's
    descriptor, one appearance part or hidden activation at a time, and the
    table's geometry features. So the wide test table and four copies of it
    meet the same bound."""
    model, test_pairs = wide_test_world
    pairs = test_pairs.take(np.tile(np.arange(len(test_pairs)), copies))
    block_descriptor = (2 * model_mod.EMBED_ROWS - 1) * model.visual.d_v * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = pair_embeddings(model, pairs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    held = peak - sum(v.nbytes for v in out.values())
    assert held <= 2.0 * block_descriptor, held / block_descriptor


def test_block_embeddings_match_the_whole_table_pass(wide_test_world):
    """Under 2 * EMBED_ROWS rows the table is one block and the bytes are
    the whole-table pass's; from there on, a block's products may differ
    from the whole table's in their last bits."""
    model, test_pairs = wide_test_world
    assert model_mod.EMBED_ROWS == 512  # the row counts below sit at its block edges
    for n in (1, 511, 976, 1023, 1024, 1535, 1536, 3904):
        pairs = test_pairs.take(np.arange(n))
        blocks = pair_embeddings(model, pairs)
        inputs = model_mod.branch_inputs(model, pairs, model.active_kinds)[0]
        assert list(blocks) == list(inputs)
        for kind, inp in inputs.items():
            whole = mlp_forward(model.branch(kind).f_v, inp)[0]
            assert blocks[kind].shape == whole.shape
            if n < 1024:
                assert blocks[kind].tobytes() == whole.tobytes(), (n, kind)
            else:
                np.testing.assert_allclose(blocks[kind], whole, rtol=0, atol=1e-12, err_msg=f"{n} {kind}")


def test_scores_strictly_inside_unit_interval(small_bench):
    model, train, test, _ = bench_model(small_bench)
    for t in [Triplet(0, 0, 0), Triplet(3, 4, 5)]:
        s = score_pairs(model, code(model, t), test.pairs.take(range(50)))
        assert np.all(s > 0.0)
        assert np.all(s < 1.0)
    # even with an absurdly saturated branch
    model.branches["s"].f_v.second.b[:] += 1e6
    s = score_pairs(model, code(model, Triplet(0, 0, 0)), test.pairs.take(range(5)))
    assert np.all(s < 1.0)
    model.branches["s"].f_v.second.b[:] -= 2e6
    s = score_pairs(model, code(model, Triplet(0, 0, 0)), test.pairs.take(range(5)))
    assert np.all(s > 0.0)


def test_score_without_predicate_branches_ignores_predicate(small_bench):
    model, _, test, _ = bench_model(small_bench, branches="s,o")
    a = score_pairs(model, code(model, Triplet(1, 0, 2)), test.pairs.take(range(20)))
    b = score_pairs(model, code(model, Triplet(1, 4, 2)), test.pairs.take(range(20)))
    assert np.allclose(a, b, rtol=0, atol=0)


def test_universe_shapes(small_bench):
    model, train, _, _ = bench_model(small_bench)
    assert list(model.labels) == list(model.active_kinds)
    for kind, labels in model.labels.items():
        assert labels.dtype == np.int64 and labels.ndim == 1, kind
        assert np.array_equal(branch_universe(model, kind), labels), kind
    assert decode(model.dims, model.labels["s"]) == [(i, 0, 0) for i in range(4)]
    assert model.labels["vp"].tolist() == model.observed.tolist()
    cart = bench_model(small_bench, vp_negatives="cartesian")[0]
    labels = decode(cart.dims, cart.labels["vp"])
    assert len(labels) == 4 * 5 * 6
    assert labels == sorted(set(labels))


def test_bigram_universes_and_loss(small_bench):
    model, train, _, _ = bench_model(small_bench, branches="s,o,p,vp,sp,po")
    assert decode(model.dims, model.labels["sp"]) == [
        (s, p, 0) for s, p in sorted({(t.s, t.p) for t in decode(model.dims, model.observed)})
    ]
    loss, grads = joint_loss(model, train.pairs.take(range(8)))
    assert np.isfinite(loss)
    assert "branch.sp.f_w.first.w" in grads
    assert "branch.po.f_v.second.w" in grads


def test_training_builds_no_label_universe(small_bench, monkeypatch):
    """The constructor builds each active branch's universe once; neither
    training stage builds one again."""
    _, (train, _, table, _) = small_bench
    built, universe = [], model_mod.branch_universe

    def counted(model, kind):
        built.append(kind)
        return universe(model, kind)

    monkeypatch.setattr(model_mod, "branch_universe", counted)
    cfg = desk_config(branches="s,o,p,vp,sp,po", stage1_epochs=1, stage2_epochs=1)
    model = build_model(cfg, train, table, seed=0)
    assert built == list(cfg.branch_list())
    built.clear()
    train_stage1(model, train, seed=0)
    gamma = gamma_init(cfg, 0)
    assert train_stage2(model, gamma, train, seed=0)[0]
    assert built == []


def positive_keys(pair: PairTable, kind: str) -> list:
    """Oracle: the labels a one-row table is positive for, keyed per branch."""
    s, o, preds = int(pair.scat[0]), int(pair.ocat[0]), pair.pos_preds.tolist()
    if kind == "s":
        return [s] if preds else []
    if kind == "o":
        return [o] if preds else []
    if kind == "p":
        return preds
    if kind == "vp":
        return [Triplet(s, p, o) for p in preds]
    if kind == "sp":
        return [(s, p) for p in preds]
    return [(p, o) for p in preds]


def label_key(t: Triplet, kind: str):
    """Oracle: the key of a masked triplet label in ``positive_keys``."""
    return {"s": t.s, "o": t.o, "p": t.p, "vp": t, "sp": (t.s, t.p), "po": (t.p, t.o)}[kind]


def test_label_matrix_matches_positive_keys_oracle(small_bench):
    _, (train, _, _, _) = small_bench
    for cartesian in (False, True):
        model = bench_model(
            small_bench, branches="s,o,p,vp,sp,po",
            vp_negatives="cartesian" if cartesian else "observed",
        )[0]
        batch = train.pairs.take(range(0, len(train.pairs), 7))
        labelled = np.diff(batch.pos_offsets) > 0
        assert labelled.any() and not labelled.all()
        for kind in BRANCH_KINDS:
            labels = model.labels[kind]
            keys = [label_key(t, kind) for t in decode(model.dims, labels)]
            assert len(set(keys)) == len(keys)
            want = np.zeros((len(batch), len(keys)))
            for i in range(len(batch)):
                for key in positive_keys(batch.take([i]), kind):
                    want[i, keys.index(key)] = 1.0
            got = label_matrix(batch, labels, kind, model.dims, kind)
            assert np.array_equal(got, want), kind


def test_label_matrix_labels_every_copy_of_a_repeated_column(small_bench):
    """Analogy columns repeat a target drawn with two sources; each copy is
    labeled, as the analogy loss's per-column loop did."""
    model, train, _, _ = bench_model(small_bench)
    i, t = first_positive(train.pairs)
    t = code(model, t)
    other = next(u for u in model.observed.tolist() if u != t)
    y = label_matrix(train.pairs.take([i, len(train.pairs) - 1]), [t, other, t], "vp", model.dims)
    assert y.tolist() == [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]


def test_label_outside_branch_universe_is_an_error(small_bench):
    model, train, _, _ = bench_model(small_bench)
    i, t = first_positive(train.pairs)
    pair = train.pairs.take([i])
    kept = model.labels["vp"] != code(model, t)
    assert np.count_nonzero(~kept) == 1
    model.labels["vp"] = model.labels["vp"][kept]
    message = re.escape(f"positive label {tuple(t)} outside the 'vp' branch universe")
    with pytest.raises(DataError, match=message):
        joint_loss(model, pair, kinds=("vp",))
    # without a branch named, the positive stays unlabeled
    y = label_matrix(pair, model.labels["vp"], "vp", model.dims)
    assert y.shape == (1, len(model.labels["vp"])) and not y.any()


def test_batch_iter_composition(small_bench):
    _, (train, _, _, _) = small_bench
    rng = rng_stream(11, "stage1")
    batches = list(batch_iter(train, 4, 12, rng))
    n_pos_total = int(np.count_nonzero(np.diff(train.pairs.pos_offsets)))
    assert len(batches) == -(-n_pos_total // 4)
    for batch in batches:
        assert len(batch) == 16
        labelled = np.diff(batch.pos_offsets) > 0
        assert labelled[:4].all() and not labelled[4:].any()
        combos = set(zip(batch.scat[:4].tolist(), batch.ocat[:4].tolist()))
        for combo in zip(batch.scat[4:].tolist(), batch.ocat[4:].tolist()):
            assert combo in combos


def test_batch_iter_deterministic(small_bench):
    _, (train, _, _, _) = small_bench
    a = [b.pair_id.tolist() for b in batch_iter(train, 4, 12, rng_stream(3, "stage1"))]
    b = [b.pair_id.tolist() for b in batch_iter(train, 4, 12, rng_stream(3, "stage1"))]
    assert a == b


def test_batch_iter_requires_positives(small_bench):
    _, (train, _, _, _) = small_bench
    negatives = train.pairs.take(np.flatnonzero(np.diff(train.pairs.pos_offsets) == 0))
    ds = Dataset(train.subjects, train.predicates, train.objects, negatives)
    with pytest.raises(DataError, match="no positive"):
        list(batch_iter(ds, 4, 12, np.random.default_rng(0)))


def batch_iter_per_pair(table: PairTable, n_pos: int, n_neg: int, rng):
    """Oracle: the list-based sampler ``batch_iter`` replaced; yields row lists."""
    labelled = [n > 0 for n in np.diff(table.pos_offsets).tolist()]
    cats = list(zip(table.scat.tolist(), table.ocat.tolist()))
    positives = [i for i, lab in enumerate(labelled) if lab]
    by_combo: dict[tuple[int, int], list[int]] = {}
    all_negatives = []
    for i, lab in enumerate(labelled):
        if not lab:
            by_combo.setdefault(cats[i], []).append(i)
            all_negatives.append(i)
    order = rng.permutation(len(positives))
    for start in range(0, len(order), n_pos):
        chunk = [positives[j] for j in order[start : start + n_pos]]
        if len(chunk) < n_pos:
            extra = rng.choice(len(positives), size=n_pos - len(chunk), replace=True)
            chunk += [positives[j] for j in extra]
        combos = {cats[i] for i in chunk}
        eligible = sorted(set().union(*(by_combo.get(c, []) for c in combos)))
        if not eligible:
            eligible = all_negatives
        if eligible and n_neg > 0:
            neg = rng.choice(eligible, size=n_neg, replace=len(eligible) < n_neg)
            chunk = chunk + [int(i) for i in neg]
        yield chunk


def test_batch_iter_yields_the_per_pair_oracles_rows(small_bench):
    _, (train, _, _, _) = small_bench
    pairs = train.pairs
    labelled = np.diff(pairs.pos_offsets) > 0
    combo = pairs.scat * 100 + pairs.ocat
    first = combo[np.flatnonzero(labelled)[0]]
    cases = {
        # 7 does not divide the positives: the last chunk is short and resampled
        "short final chunk": (np.arange(len(pairs)), 7, 9),
        # one category pair's positives, negatives of every other one only
        "no matched negative": (np.flatnonzero((combo == first) == labelled), 4, 12),
        "no negatives": (np.flatnonzero(labelled), 4, 12),
    }
    assert labelled.sum() % 7
    for name, (rows, n_pos, n_neg) in cases.items():
        ds = Dataset(train.subjects, train.predicates, train.objects, pairs.take(rows))
        got = [b.pair_id.tolist() for b in batch_iter(ds, n_pos, n_neg, rng_stream(5, "stage1"))]
        oracle = batch_iter_per_pair(ds.pairs, n_pos, n_neg, rng_stream(5, "stage1"))
        want = [ds.pairs.pair_id[chunk].tolist() for chunk in oracle]
        assert got == want, name
        assert len(got[-1]) == n_pos + (n_neg if name != "no negatives" else 0), name


def test_train_zero_learning_rate_leaves_parameters(small_bench):
    _, (train, _, table, _) = small_bench
    cfg = desk_config(stage1_epochs=1)
    cfg.lr = 0.0  # a config file may not say this (lr > 0), but Adam must honour it
    model = build_model(cfg, train, table, seed=2)
    before = [(n, a.copy()) for n, a in trainable(model, 1)]
    train_stage1(model, train, seed=2)
    for (_, old), (_, new) in zip(before, trainable(model, 1)):
        assert np.array_equal(old, new)


def test_train_reduces_loss(small_bench):
    _, (train, _, table, _) = small_bench
    cfg = desk_config(stage1_epochs=3, embed_dim=12, branch_hidden=12)
    model = build_model(cfg, train, table, seed=0)
    trace = train_stage1(model, train, seed=0)
    assert len(trace) == 3
    assert trace[-1] < trace[0]


def test_training_is_bit_reproducible(small_bench):
    _, (train, _, table, _) = small_bench

    def run():
        cfg = desk_config(stage1_epochs=1)
        model = build_model(cfg, train, table, seed=4)
        train_stage1(model, train, seed=4)
        return [a.copy() for _, a in trainable(model, 1)]

    for pa, pb in zip(run(), run()):
        assert np.array_equal(pa, pb)


class Sized:
    """A stand-in vocabulary that only reports its length."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n


def test_vocabularies_past_int64_codes_are_one_data_error():
    """Without the check, coding 2**63 triplets ends in numpy's 'invalid
    dims' ValueError."""
    none = np.zeros(0, np.int64)
    message = r"^2097152 x 2097152 x 2097152 triplets do not fit int64 codes$"
    with pytest.raises(DataError, match=message):
        new_model(desk_config(), (Sized(2**21),) * 3, none, none, 3, 4, seed=0)
    with pytest.raises(DataError, match="do not fit int64 codes"):
        triplet_dims((Sized(2**62), Sized(2), Sized(1)))
    assert triplet_dims((Sized(2**21 - 1),) * 3) == (2**21 - 1,) * 3
    assert triplet_dims((Sized(2**62), Sized(1), Sized(1))) == (2**62, 1, 1)


def test_default_model_trains_the_entry_counts_readme_states():
    """README's "Model size": a width default that regrows fails here."""
    cfg = validate(RunConfig())
    train, _, table, _ = synth_generate(cfg, 0)
    model = build_model(cfg, train, table, 0)
    gamma = gamma_init(cfg, 0)
    assert model.visual.d_v == 800
    assert sum(a.size for _, a in trainable(model, 1)) == 217_928
    assert sum(a.size for _, a in trainable(model, 2, gamma)) == 114_944
