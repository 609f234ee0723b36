import numpy as np
import pytest

from relembed.data import (
    BoundingBox,
    CandidatePair,
    DataError,
    Dataset,
    Triplet,
    Vocabulary,
    WordTable,
)
from relembed.model import (
    batch_iter,
    branch_universe,
    build_model,
    embed_language_batch,
    embed_visual_batch,
    joint_loss,
    pair_embeddings,
    reuse_pair_embeddings,
    score_from_embeddings,
    score_pairs,
    train_stage1,
    trainable,
)
from relembed.numkit import finite_diff_grad, max_relative_error, rng_stream, sigmoid

from conftest import desk_config


def bench_model(bench, seed=0, **overrides):
    cfg, (train, test, table, heldout) = bench
    cfg = desk_config(**overrides)
    return build_model(cfg, train, table, seed), train, test, heldout


def one_label_world():
    """Single-token vocabularies and one interacting pair."""
    subjects, predicates, objects = Vocabulary(["s0"]), Vocabulary(["p0"]), Vocabulary(["o0"])
    rng = np.random.default_rng(3)
    pair = CandidatePair(
        0, 0,
        BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 15, 10),
        0, 0, rng.normal(size=4), rng.normal(size=4), (0,),
    )
    ds = Dataset.build(subjects, predicates, objects, [pair], 4)
    table = WordTable(3, {t: v for t, v in zip(["s0", "p0", "o0"], rng.normal(size=(3, 3)))})
    return ds, table, pair


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
    a = embed_language_batch(model, "p", [Triplet(0, 2, 1)])[0]
    b = embed_language_batch(model, "p", [Triplet(3, 2, 5)])[0]
    assert np.array_equal(a, b)
    c = embed_language_batch(model, "vp", [Triplet(0, 2, 1)])[0]
    d = embed_language_batch(model, "vp", [Triplet(3, 2, 1)])[0]
    assert not np.array_equal(c, d)


def test_language_embedding_matches_by_hand(small_bench):
    model, _, _, _ = bench_model(small_bench)
    t = Triplet(1, 0, 2)
    br = model.branches["vp"]
    q = np.concatenate([model.e_sub[t.s], model.e_pre[t.p], model.e_obj[t.o]])
    h = np.maximum(br.f_w.first.w @ q + br.f_w.first.b, 0.0)
    raw = br.f_w.second.w @ h + br.f_w.second.b
    expect = raw / np.linalg.norm(raw)
    assert np.allclose(embed_language_batch(model, "vp", [t])[0], expect, rtol=0, atol=1e-12)


def test_language_zero_vector_is_an_error(small_bench):
    model, _, _, _ = bench_model(small_bench)
    zero_out(model.branches["p"].f_w)
    with pytest.raises(FloatingPointError):
        embed_language_batch(model, "p", [Triplet(0, 0, 0)])[0]


def test_visual_subject_branch_ignores_object_appearance(small_bench):
    model, train, _, _ = bench_model(small_bench)
    pair = train.pairs[0]
    v1 = embed_visual_batch(model, "s", [pair])
    bumped = CandidatePair(
        pair.pair_id, pair.image_id, pair.sub_box, pair.obj_box,
        pair.subject_cat, pair.object_cat,
        pair.appear_sub, pair.appear_obj + 1.0, pair.positive_predicates,
    )
    v2 = embed_visual_batch(model, "s", [bumped])
    assert np.array_equal(v1, v2)
    assert not np.array_equal(
        embed_visual_batch(model, "o", [pair]), embed_visual_batch(model, "o", [bumped])
    )


def test_visual_branch_matches_by_hand(small_bench):
    model, train, _, _ = bench_model(small_bench)
    pair = train.pairs[3]
    from relembed.features import pair_arrays, visual_forward

    a_s, a_o, r = pair_arrays([pair], model.cfg.spatial_norm)
    x = visual_forward(model.visual, a_s, a_o, r)[0][0]
    br = model.branches["vp"]
    h = np.maximum(br.f_v.first.w @ x + br.f_v.first.b, 0.0)
    expect = br.f_v.second.w @ h + br.f_v.second.b
    got = embed_visual_batch(model, "vp", [pair])[0]
    assert np.allclose(got, expect, rtol=0, atol=1e-12)


def test_inactive_branch_is_an_error(small_bench):
    model, train, _, _ = bench_model(small_bench, branches="s,o")
    with pytest.raises(DataError, match="not active"):
        embed_visual_batch(model, "vp", [train.pairs[0]])


def test_single_positive_zero_dot_loss_is_log_two():
    ds, table, pair = one_label_world()
    cfg = desk_config(branches="s", dropout=0.0, embed_dim=4, branch_hidden=16)
    model = build_model(cfg, ds, table, seed=0)
    zero_out(model.branches["s"].f_v)  # v = 0 so every dot is 0
    loss, _ = joint_loss(model, [pair], kinds=("s",))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_saturated_positive_loss_vanishes():
    ds, table, pair = one_label_world()
    cfg = desk_config(branches="s", dropout=0.0, embed_dim=4, branch_hidden=16)
    model = build_model(cfg, ds, table, seed=0)
    w = embed_language_batch(model, "s", [Triplet(0, 0, 0)])[0]
    zero_out(model.branches["s"].f_v)
    model.branches["s"].f_v.second.b[:] = 50.0 * w  # dot = 50
    loss, _ = joint_loss(model, [pair], kinds=("s",))
    assert 0.0 < loss < 1e-9


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
        batch = [train.pairs[i] for i in rng.choice(len(train.pairs), size=8, replace=False)]
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
    batch = train.pairs[:10]
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
    batch = train.pairs[:12]
    a, _ = joint_loss(model, batch)
    b, _ = joint_loss(model, list(reversed(batch)))
    assert a == pytest.approx(b, rel=1e-12)


def test_positive_gains_from_moving_along_language_direction():
    ds, table, pair = one_label_world()
    cfg = desk_config(branches="s", dropout=0.0, embed_dim=4, branch_hidden=4)
    model = build_model(cfg, ds, table, seed=1)
    w = embed_language_batch(model, "s", [Triplet(0, 0, 0)])[0]
    base, _ = joint_loss(model, [pair], kinds=("s",))
    model.branches["s"].f_v.second.b[:] += 0.05 * w
    moved, _ = joint_loss(model, [pair], kinds=("s",))
    assert moved < base


def test_score_four_zero_dots_gives_sixteenth(small_bench):
    model, train, _, _ = bench_model(small_bench)
    for kind in model.active_kinds:
        zero_out(model.branches[kind].f_v)
    s = score_pairs(model, Triplet(0, 0, 0), train.pairs[:3])
    assert np.allclose(s, 0.0625, rtol=0, atol=1e-15)


def test_score_single_branch_log_three_dot():
    ds, table, pair = one_label_world()
    cfg = desk_config(branches="s", dropout=0.0, embed_dim=4, branch_hidden=16)
    model = build_model(cfg, ds, table, seed=0)
    w = embed_language_batch(model, "s", [Triplet(0, 0, 0)])[0]
    zero_out(model.branches["s"].f_v)
    model.branches["s"].f_v.second.b[:] = np.log(3.0) * w
    s = score_pairs(model, Triplet(0, 0, 0), [pair])
    assert s[0] == pytest.approx(0.75, abs=1e-12)


def test_score_extra_zero_dot_branch_halves(small_bench):
    model, train, _, _ = bench_model(small_bench)
    t = Triplet(0, 0, 0)
    pairs = train.pairs[:5]
    visual = pair_embeddings(model, pairs)
    language = {k: embed_language_batch(model, k, [t])[0] for k in model.active_kinds}
    without_o = {k: v for k, v in visual.items() if k != "o"}
    base = score_from_embeddings(without_o, language)
    zero_out(model.branches["o"].f_v)  # o-branch dot becomes 0 for every pair
    withextra = score_from_embeddings(pair_embeddings(model, pairs), language)
    assert np.allclose(withextra, 0.5 * base, rtol=1e-12, atol=0)


def test_reused_pair_embeddings_are_the_same_only_inside_the_block(small_bench):
    model, train, _, _ = bench_model(small_bench)
    pairs = train.pairs[:5]
    fresh = pair_embeddings(model, pairs)
    with reuse_pair_embeddings(model, pairs):
        first = pair_embeddings(model, pairs)
        with reuse_pair_embeddings(model, pairs):  # nested: same entry
            again = pair_embeddings(model, pairs)
        assert all(again[k] is first[k] for k in first)
        assert pair_embeddings(model, pairs)["s"] is first["s"]  # outer entry kept
        assert all(np.array_equal(first[k], fresh[k]) for k in fresh)
        assert not any(v.flags.writeable for v in first.values())
        assert pair_embeddings(model, train.pairs[:5])["s"] is not first["s"]  # other list
    zero_out(model.branches["s"].f_v)
    assert not np.array_equal(pair_embeddings(model, pairs)["s"], first["s"])


def test_scores_strictly_inside_unit_interval(small_bench):
    model, train, test, _ = bench_model(small_bench)
    for t in [Triplet(0, 0, 0), Triplet(3, 4, 5)]:
        s = score_pairs(model, t, test.pairs[:50])
        assert np.all(s > 0.0)
        assert np.all(s < 1.0)
    # even with an absurdly saturated branch
    model.branches["s"].f_v.second.b[:] += 1e6
    s = score_pairs(model, Triplet(0, 0, 0), test.pairs[:5])
    assert np.all(s < 1.0)
    model.branches["s"].f_v.second.b[:] -= 2e6
    s = score_pairs(model, Triplet(0, 0, 0), test.pairs[:5])
    assert np.all(s > 0.0)


def test_score_without_predicate_branches_ignores_predicate(small_bench):
    model, _, test, _ = bench_model(small_bench, branches="s,o")
    a = score_pairs(model, Triplet(1, 0, 2), test.pairs[:20])
    b = score_pairs(model, Triplet(1, 4, 2), test.pairs[:20])
    assert np.allclose(a, b, rtol=0, atol=0)


def test_universe_shapes(small_bench):
    model, train, _, _ = bench_model(small_bench)
    keys, rows = branch_universe(model, "s")
    assert keys == list(range(4))
    keys, _ = branch_universe(model, "vp")
    assert keys == model.observed
    cart = bench_model(small_bench, vp_negatives="cartesian")[0]
    keys, _ = branch_universe(cart, "vp")
    assert len(keys) == 4 * 5 * 6


def test_bigram_universes_and_loss(small_bench):
    model, train, _, _ = bench_model(small_bench, branches="s,o,p,vp,sp,po")
    keys, _ = branch_universe(model, "sp")
    assert keys == sorted({(t.s, t.p) for t in model.observed})
    loss, grads = joint_loss(model, train.pairs[:8])
    assert np.isfinite(loss)
    assert "branch.sp.f_w.first.w" in grads
    assert "branch.po.f_v.second.w" in grads


def test_batch_iter_composition(small_bench):
    _, (train, _, _, _) = small_bench
    rng = rng_stream(11, "stage1")
    batches = list(batch_iter(train, 4, 12, rng))
    n_pos_total = sum(1 for p in train.pairs if p.positive_predicates)
    assert len(batches) == -(-n_pos_total // 4)
    for batch in batches:
        assert len(batch) == 16
        pos, neg = batch[:4], batch[4:]
        assert all(p.positive_predicates for p in pos)
        assert all(not n.positive_predicates for n in neg)
        combos = {(p.subject_cat, p.object_cat) for p in pos}
        for n in neg:
            assert (n.subject_cat, n.object_cat) in combos


def test_batch_iter_deterministic(small_bench):
    _, (train, _, _, _) = small_bench
    a = [[p.pair_id for p in b] for b in batch_iter(train, 4, 12, rng_stream(3, "stage1"))]
    b = [[p.pair_id for p in b] for b in batch_iter(train, 4, 12, rng_stream(3, "stage1"))]
    assert a == b


def test_batch_iter_requires_positives(small_bench):
    _, (train, _, _, _) = small_bench
    negatives = [p for p in train.pairs if not p.positive_predicates]
    ds = Dataset.build(train.subjects, train.predicates, train.objects, negatives, train.appearance_dim)
    with pytest.raises(DataError, match="no positive"):
        list(batch_iter(ds, 4, 12, np.random.default_rng(0)))


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
