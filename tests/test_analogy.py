"""Tests for analogy-based transfer: Gamma, similarity, source selection,
aggregation, the analogy loss, and stage-2 training."""

import numpy as np
import pytest

from relembed.analogy import (
    Gamma,
    analogy_loss,
    build_source_sets,
    corrected_embeddings,
    gamma_backward,
    gamma_forward,
    gamma_init,
    gamma_input_matrix,
    sample_q_pairs,
    select_sources,
    similarity_many,
    source_pool,
    train_stage2,
    transfer_embedding,
    transfer_from_sources,
)
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
    build_model,
    embed_language_batch,
    named_parameters,
    score_pairs,
    train_stage1,
    trainable,
)
from relembed.numkit import finite_diff_grad, max_relative_error, rng_stream

from conftest import desk_config


def bench_model(bench, seed=0, **overrides):
    cfg, (train, test, table, heldout) = bench
    cfg = desk_config(**overrides)
    return cfg, train, table, build_model(cfg, train, table, seed)


def make_gamma(model, kind, seed=1):
    cfg = model.cfg
    return gamma_init(kind, cfg.embed_dim, cfg.gamma_hidden_dim(), rng_stream(seed, "init"))


# ---------------------------------------------------------------------------
# Gamma basics
# ---------------------------------------------------------------------------


def test_gamma_self_correction_is_bitwise_zero(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    for kind in ("zero", "linear", "deep"):
        gamma = make_gamma(model, kind)
        t = model.observed[0]
        diffs = gamma_input_matrix(model, [(t, t)])
        assert np.all(diffs == 0.0)
        corr, _ = gamma_forward(gamma, diffs)
        assert np.all(corr == 0.0), kind


def test_gamma_input_isolates_changed_slot(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    d = cfg.embed_dim
    t = Triplet(0, 1, 2)
    u = Triplet(0, 1, 3)  # object differs, subject and predicate identical
    diffs = gamma_input_matrix(model, [(t, u)])
    assert diffs.shape == (1, 3 * d)
    assert np.all(diffs[0, : 2 * d] == 0.0)
    assert np.any(diffs[0, 2 * d :] != 0.0)


def test_gamma_has_no_biases(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    for kind in ("linear", "deep"):
        gamma = make_gamma(model, kind)
        named = [(n, a) for n, a in named_parameters(model, gamma) if n.startswith("gamma.")]
        assert named, kind
        for name, arr in named:
            assert name.endswith(".w"), name
            assert arr.ndim == 2


def test_gamma_deep_forward_by_hand():
    rng = np.random.default_rng(7)
    gamma = gamma_init("deep", 2, 3, rng)
    x = rng.normal(size=(4, 6))
    h = np.maximum(x @ gamma.net.first.w.T, 0.0)
    want = h @ gamma.net.second.w.T
    got, _ = gamma_forward(gamma, x)
    assert np.array_equal(got, want)


def test_gamma_linear_grad_matches_finite_differences(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    rng = np.random.default_rng(3)
    gamma = gamma_init("linear", cfg.embed_dim, 0, rng)
    x = rng.normal(size=(5, 3 * cfg.embed_dim))
    upstream = rng.normal(size=(5, cfg.embed_dim))

    def loss_fn():
        out, _ = gamma_forward(gamma, x)
        return float(np.sum(out * upstream))

    out, cache = gamma_forward(gamma, x)
    grads = gamma_backward(gamma, cache, upstream)
    named = [(n, a) for n, a in named_parameters(model, gamma) if n.startswith("gamma.")]
    assert [n for n, _ in named] == ["gamma.lin.w"]
    numeric = finite_diff_grad(loss_fn, [a for _, a in named])
    for (name, _), num in zip(named, numeric):
        assert max_relative_error(grads[name], num) < 1e-6


def test_gamma_unknown_kind_rejected():
    with pytest.raises(DataError):
        gamma_init("cubic", 4, 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Similarity G
# ---------------------------------------------------------------------------


def _word_mode_world():
    """Tiny model in word-similarity mode with hand-picked word vectors."""
    subs = Vocabulary(["a", "b"])
    pres = Vocabulary(["p", "q"])
    objs = Vocabulary(["x", "y"])
    half = np.sqrt(3.0) / 2.0
    vectors = {
        "a": np.array([1.0, 0.0]),
        "b": np.array([0.5, half]),  # cos(a, b) = 0.5
        "p": np.array([0.0, 1.0]),
        "q": np.array([1.0, 0.0]),  # cos(p, q) = 0
        "x": np.array([2.0, 0.0]),
        "y": np.array([0.0, 3.0]),  # cos(x, y) = 0
    }
    table = WordTable(2, vectors)
    box = BoundingBox(0.0, 0.0, 10.0, 10.0)
    pairs = [
        CandidatePair(0, 0, box, box, 0, 0, np.zeros(4), np.zeros(4), (0,)),
        CandidatePair(1, 0, box, box, 1, 1, np.zeros(4), np.zeros(4), (1,)),
    ]
    ds = Dataset.build(subs, pres, objs, pairs, 4)
    cfg = desk_config(similarity_input="words", synth_appearance_dim=4)
    model = build_model(cfg, ds, table, seed=0)
    return model


def test_similarity_words_mode_hand_value():
    model = _word_mode_world()
    t = Triplet(0, 0, 0)  # (a, p, x)
    u = Triplet(1, 0, 0)  # (b, p, x): only the subject differs
    # 0.1 * 0.5 + 0.8 * 1 + 0.1 * 1 = 0.95
    assert abs(similarity_many(model, [t], [u])[0, 0] - 0.95) < 1e-12
    v = Triplet(1, 1, 1)  # everything differs: 0.1*0.5 + 0 + 0 = 0.05
    assert abs(similarity_many(model, [t], [v])[0, 0] - 0.05) < 1e-12


def test_similarity_self_is_one(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    for t in model.observed[:5]:
        assert abs(similarity_many(model, [t], [t])[0, 0] - 1.0) < 1e-12


def test_similarity_clamped_to_unit_interval(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    g = similarity_many(model, model.observed, model.observed)
    assert np.all(g >= 0.0) and np.all(g <= 1.0)


def test_similarity_unclamped_can_leave_interval():
    model = _word_mode_world()
    model.cfg.clamp_similarity = False
    t = Triplet(0, 0, 0)
    u = Triplet(0, 1, 1)  # cos by slot: 1, 0, 0 -> 0.1 exactly
    assert abs(similarity_many(model, [t], [u])[0, 0] - 0.1) < 1e-12


def test_similarity_branch_mode_needs_unigram_branches(small_bench):
    cfg, train, table, model = bench_model(small_bench, branches="s,o,vp")
    with pytest.raises(DataError, match="missing p"):
        similarity_many(model, [model.observed[0]], model.observed)


# ---------------------------------------------------------------------------
# Source selection
# ---------------------------------------------------------------------------


def test_select_sources_matches_full_sort(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    pool = model.observed
    u = pool[len(pool) // 2]
    got = select_sources(model, u, pool)
    g = similarity_many(model, [u], pool)[0]
    ranked = sorted(zip(pool, g), key=lambda tg: (-tg[1], tg[0]))
    want = [(t, float(gv)) for t, gv in ranked[: cfg.k]]
    assert got == want
    assert len(got) == cfg.k


def test_select_sources_small_pool_returns_all(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    pool = model.observed[:3]
    got = select_sources(model, model.observed[0], pool)
    assert len(got) == 3


def test_select_sources_empty_pool_rejected(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    with pytest.raises(DataError, match="empty source pool"):
        select_sources(model, model.observed[0], [])


def test_source_pool_applies_rare_threshold(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    pool = source_pool(model)
    assert pool == sorted(t for t, c in model.counts.items() if c >= cfg.rare_threshold)
    model.cfg.rare_threshold = 10**9
    assert source_pool(model) == []


def test_source_pool_threshold_boundary():
    subjects, predicates, objects = Vocabulary(["s"]), Vocabulary(["p0", "p1", "p2"]), Vocabulary(["o"])
    rng = np.random.default_rng(0)
    pairs = []
    for p, count in ((0, 5), (1, 10), (2, 11)):
        for _ in range(count):
            pid = len(pairs)
            pairs.append(
                CandidatePair(
                    pid, pid,
                    BoundingBox(0, 0, 1, 1), BoundingBox(0, 0, 1, 1),
                    0, 0, rng.normal(size=2), rng.normal(size=2), (p,),
                )
            )
    ds = Dataset.build(subjects, predicates, objects, pairs, 2)
    table = WordTable(2, {tok: rng.normal(size=2) for tok in ("s", "p0", "p1", "p2", "o")})
    model = build_model(desk_config(rare_threshold=10), ds, table, seed=0)
    assert model.counts == {Triplet(0, 0, 0): 5, Triplet(0, 1, 0): 10, Triplet(0, 2, 0): 11}
    assert source_pool(model) == [Triplet(0, 1, 0), Triplet(0, 2, 0)]
    model.cfg.rare_threshold = 12
    assert source_pool(model) == []


def test_build_source_sets_exclude_target(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    pool = source_pool(model)
    sets = build_source_sets(model, model.observed, pool)
    for u, sources in sets.items():
        assert all(t != u for t, _ in sources)


# ---------------------------------------------------------------------------
# Transfer
# ---------------------------------------------------------------------------


def test_transfer_weighted_sum_by_hand(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "zero")
    u = model.observed[0]
    t1, t2 = model.observed[1], model.observed[2]
    w1 = embed_language_batch(model, "vp", [t1])[0]
    w2 = embed_language_batch(model, "vp", [t2])[0]
    got = transfer_from_sources(model, gamma, u, [(t1, 0.6), (t2, 0.3)])
    assert np.allclose(got, 0.6 * w1 + 0.3 * w2, rtol=0.0, atol=1e-15)


def test_transfer_normalized_aggregation(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    model.cfg.normalize_aggregation = True
    gamma = make_gamma(model, "zero")
    u = model.observed[0]
    t1, t2 = model.observed[1], model.observed[2]
    w1 = embed_language_batch(model, "vp", [t1])[0]
    w2 = embed_language_batch(model, "vp", [t2])[0]
    got = transfer_from_sources(model, gamma, u, [(t1, 0.6), (t2, 0.3)])
    assert np.allclose(got, (0.6 * w1 + 0.3 * w2) / 0.9, rtol=0.0, atol=1e-15)


def test_transfer_all_zero_weights_rejected(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "zero")
    u, t1 = model.observed[0], model.observed[1]
    with pytest.raises(DataError, match="no informative sources"):
        transfer_from_sources(model, gamma, u, [(t1, 0.0)])


def test_self_transfer_equals_direct_embedding(small_bench):
    """k=1 with the target in the pool: G=1 weight on an uncorrected self."""
    cfg, train, table, model = bench_model(small_bench, k=1)
    for kind in ("zero", "linear", "deep"):
        gamma = make_gamma(model, kind)
        for u in model.observed[:4]:
            direct = embed_language_batch(model, "vp", [u])[0]
            transferred = transfer_embedding(model, gamma, u, pool=model.observed)
            assert np.max(np.abs(transferred - direct)) < 1e-12, kind


def test_transfer_absent_gamma_skips_correction(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    absent = Gamma("absent")
    zero = make_gamma(model, "zero")
    u = model.observed[0]
    sources = select_sources(model, u, [t for t in model.observed if t != u])
    a = transfer_from_sources(model, absent, u, sources)
    b = transfer_from_sources(model, zero, u, sources)
    assert np.array_equal(a, b)


def test_corrected_embeddings_shift_by_gamma(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "linear")
    t, u = model.observed[1], model.observed[0]
    base = embed_language_batch(model, "vp", [t])
    corr, _ = gamma_forward(gamma, gamma_input_matrix(model, [(t, u)]))
    got = corrected_embeddings(model, gamma, [(t, u)])
    assert np.array_equal(got, base + corr)


# ---------------------------------------------------------------------------
# Analogy loss
# ---------------------------------------------------------------------------


def _batch(dataset, n=8):
    return dataset.pairs[:n]


def test_analogy_loss_grads_touch_only_gamma_and_vp_visual(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "deep")
    batch = _batch(train)
    u = model.observed[0]
    q = [(model.observed[1], u), (model.observed[2], u)]
    loss, grads = analogy_loss(model, gamma, batch, q)
    assert loss > 0.0
    for name in grads:
        assert name.startswith("gamma.") or name.startswith("branch.vp.f_v."), name
    assert any(name.startswith("gamma.") for name in grads)
    assert any(name.startswith("branch.vp.f_v.") for name in grads)
    assert not any(name.startswith("branch.vp.f_w.") for name in grads)


def test_analogy_loss_zero_gamma_has_no_gamma_grads(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "zero")
    q = [(model.observed[1], model.observed[0])]
    _, grads = analogy_loss(model, gamma, _batch(train), q)
    assert all(name.startswith("branch.vp.f_v.") for name in grads)


def test_analogy_loss_empty_q_is_zero(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "deep")
    loss, grads = analogy_loss(model, gamma, _batch(train), [])
    assert loss == 0.0 and grads == {}


def test_analogy_loss_absent_gamma_rejected(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    with pytest.raises(DataError, match="absent"):
        analogy_loss(model, Gamma("absent"), _batch(train), [])


def test_analogy_loss_matches_finite_differences(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    batch = _batch(train, 6)
    u0, u1 = model.observed[0], model.observed[1]
    q = [(model.observed[2], u0), (model.observed[3], u1), (u0, u0)]
    for kind in ("linear", "deep"):
        gamma = make_gamma(model, kind)
        named = trainable(model, 2, gamma)
        named = [(n, a) for n, a in named if not n.startswith("branch.vp.f_w")]
        _, grads = analogy_loss(model, gamma, batch, q)

        def loss_fn():
            return analogy_loss(model, gamma, batch, q)[0]

        numeric = finite_diff_grad(loss_fn, [a for _, a in named])
        for (name, arr), num in zip(named, numeric):
            analytic = grads.get(name, np.zeros_like(arr))
            assert max_relative_error(analytic, num) < 1e-5, (kind, name)


def test_analogy_loss_language_side_sees_zero_gradient(small_bench):
    """Finite differences on f_w^vp confirm the stop-gradient: the loss is
    flat in the language parameters (the analogy column uses them, but no
    gradient is defined through it)."""
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "deep")
    batch = _batch(train, 6)
    q = [(model.observed[1], model.observed[0])]
    _, grads = analogy_loss(model, gamma, batch, q)
    fw = [(n, a) for n, a in trainable(model, 2, gamma) if n.startswith("branch.vp.f_w")]
    assert fw
    for name, _ in fw:
        assert name not in grads


def test_analogy_loss_uninformative_prediction_is_log2(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "zero")
    br = model.branch("vp")
    br.f_v.second.w[:] = 0.0
    br.f_v.second.b[:] = 0.0
    q = [(model.observed[1], model.observed[0])]
    loss, _ = analogy_loss(model, gamma, _batch(train), q)
    assert abs(loss - np.log(2.0)) < 1e-12


# ---------------------------------------------------------------------------
# Q-pair sampling
# ---------------------------------------------------------------------------


def test_sample_q_pairs_one_per_target(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    pool = source_pool(model)
    sets = build_source_sets(model, model.observed, pool)
    batch = train.pairs[:16]
    targets = sorted({t for pair in batch for t in pair.positives()})
    q, skipped = sample_q_pairs(batch, sets, rng_stream(0, "stage2"))
    assert skipped == 0
    assert [u for _, u in q] == targets
    for src, u in q:
        assert src in [t for t, _ in sets[u]]


def test_sample_q_pairs_counts_missing_targets(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    batch = train.pairs[:16]
    targets = sorted({t for pair in batch for t in pair.positives()})
    sets = {targets[0]: []}
    q, skipped = sample_q_pairs(batch, sets, rng_stream(0, "stage2"))
    assert q == []
    assert skipped == len(targets)


# ---------------------------------------------------------------------------
# Stage-2 training
# ---------------------------------------------------------------------------


def test_stage2_trains_only_vp_and_gamma(small_bench):
    """Every registry entry outside stage 2's set is bit-identical after
    train_stage2; both vp nets and Gamma move."""
    cfg, train, table, model = bench_model(
        small_bench, branches="s,o,p,vp,sp,po", stage2_epochs=1
    )
    train_stage1(model, train, seed=0)
    gamma = make_gamma(model, "deep")
    before = {n: a.copy() for n, a in named_parameters(model, gamma)}
    stage2 = {n for n, _ in trainable(model, 2, gamma)}
    trace, skipped = train_stage2(model, gamma, train, seed=0)
    assert len(trace) == 1
    after = dict(named_parameters(model, gamma))
    assert after.keys() == before.keys()
    frozen = [n for n in before if n not in stage2]
    assert any(n.startswith("branch.sp.") for n in frozen)
    assert any(n.startswith("branch.po.") for n in frozen)
    for name in frozen:
        assert np.array_equal(before[name], after[name]), name
    for prefix in ("branch.vp.f_v.", "branch.vp.f_w.", "gamma."):
        moved = [n for n in stage2 if n.startswith(prefix)]
        assert moved, prefix
        assert all(not np.array_equal(before[n], after[n]) for n in moved), prefix


def test_stage2_absent_gamma_is_noop(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    before = model.branch("vp").f_v.first.w.copy()
    trace, skipped = train_stage2(model, Gamma("absent"), train, seed=0)
    assert trace == [] and skipped == 0
    assert np.array_equal(before, model.branch("vp").f_v.first.w)


def test_stage2_requires_vp_branch(small_bench):
    cfg, train, table, model = bench_model(small_bench, branches="s,o,p")
    with pytest.raises(DataError, match="vp branch"):
        train_stage2(model, make_gamma(model, "zero"), train, seed=0)


def test_stage2_loss_decreases(small_bench):
    cfg, train, table, model = bench_model(small_bench, stage2_epochs=3)
    train_stage1(model, train, seed=0)
    gamma = make_gamma(model, "deep")
    trace, _ = train_stage2(model, gamma, train, seed=0)
    assert trace[-1] < trace[0]


def test_stage2_bit_reproducible(small_bench):
    cfg, train, table, model_a = bench_model(small_bench, stage2_epochs=1)
    _, _, _, model_b = bench_model(small_bench, stage2_epochs=1)
    train_stage1(model_a, train, seed=3)
    train_stage1(model_b, train, seed=3)
    ga = make_gamma(model_a, "deep")
    gb = make_gamma(model_b, "deep")
    ta, sa = train_stage2(model_a, ga, train, seed=5)
    tb, sb = train_stage2(model_b, gb, train, seed=5)
    assert ta == tb and sa == sb
    assert np.array_equal(ga.net.first.w, gb.net.first.w)
    assert np.array_equal(
        model_a.branch("vp").f_v.second.w, model_b.branch("vp").f_v.second.w
    )


def test_stage2_changes_transfer_scores(small_bench):
    cfg, train, table, model = bench_model(small_bench, stage2_epochs=1)
    train_stage1(model, train, seed=0)
    gamma = make_gamma(model, "deep")
    u = model.observed[0]
    pairs = train.pairs[:4]
    before = score_pairs(
        model, u, pairs, vp_override=transfer_embedding(model, gamma, u)
    )
    train_stage2(model, gamma, train, seed=0)
    after = score_pairs(
        model, u, pairs, vp_override=transfer_embedding(model, gamma, u)
    )
    assert not np.array_equal(before, after)
