"""Tests for analogy-based transfer: Gamma, similarity, source selection,
aggregation, the analogy loss, and stage-2 training."""

import dataclasses

import numpy as np
import pytest

from relembed import analogy
from relembed.analogy import (
    analogy_loss,
    build_source_sets,
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
    transferred_embeddings,
)
from relembed.data import (
    BoundingBox,
    DataError,
    Dataset,
    Triplet,
    Vocabulary,
    WordTable,
)
from relembed.model import (
    branch_inputs,
    build_model,
    embed_language_batch,
    named_parameters,
    score_pairs,
    train_stage1,
    trainable,
)
from relembed.numkit import Linear, normalize_rows

from conftest import decode, desk_config, encode, model_counts, row_triplets, rows_table
from gradcheck import finite_diff_grad, max_relative_error


def bench_model(bench, seed=0, **overrides):
    cfg, (train, test, table, heldout) = bench
    cfg = desk_config(**overrides)
    return cfg, train, table, build_model(cfg, train, table, seed)


def make_gamma(model, kind, seed=1):
    return gamma_init(dataclasses.replace(model.cfg, gamma=kind), seed)


# ---------------------------------------------------------------------------
# Gamma basics
# ---------------------------------------------------------------------------


def test_gamma_self_correction_is_bitwise_zero(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    for kind in ("linear", "deep"):
        gamma = make_gamma(model, kind)
        t = model.observed[0]
        diffs = gamma_input_matrix(model, [t], [t])
        assert np.all(diffs == 0.0)
        corr, _ = gamma_forward(gamma, diffs)
        assert np.all(corr == 0.0), kind


def test_gamma_input_isolates_changed_slot(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    d = cfg.embed_dim
    t = Triplet(0, 1, 2)
    u = Triplet(0, 1, 3)  # object differs, subject and predicate identical
    diffs = gamma_input_matrix(model, encode(model.dims, [t]), encode(model.dims, [u]))
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
    gamma = gamma_init(desk_config(embed_dim=2), 7)
    x = rng.normal(size=(4, 6))
    h = np.maximum(x @ gamma.net.first.w.T, 0.0)
    want = h @ gamma.net.second.w.T
    got, _ = gamma_forward(gamma, x)
    assert np.array_equal(got, want)


def test_gamma_linear_grad_matches_finite_differences(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    rng = np.random.default_rng(3)
    gamma = gamma_init(dataclasses.replace(cfg, gamma="linear"), 3)
    assert isinstance(gamma.net, Linear) and gamma.net.b is None
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


# ---------------------------------------------------------------------------
# Similarity G
# ---------------------------------------------------------------------------


def _word_mode_world():
    """Tiny model with hand-picked word vectors and no s branch, so G
    compares word vectors."""
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
    pairs = rows_table(
        [
            (0, 0, box, box, 0, 0, np.zeros(4), np.zeros(4), (0,)),
            (1, 0, box, box, 1, 1, np.zeros(4), np.zeros(4), (1,)),
        ],
        4,
    )
    ds = Dataset(subs, pres, objs, pairs)
    cfg = desk_config(branches="o,p,vp", synth_appearance_dim=4)
    model = build_model(cfg, ds, table, seed=0)
    return model


def test_similarity_words_mode_hand_value():
    model = _word_mode_world()
    t = Triplet(0, 0, 0)  # (a, p, x)
    u = Triplet(1, 0, 0)  # (b, p, x): only the subject differs
    # 0.1 * 0.5 + 0.8 * 1 + 0.1 * 1 = 0.95
    t, u, v = encode(model.dims, [t, u, Triplet(1, 1, 1)])  # v: everything differs
    assert abs(similarity_many(model, [t], [u])[0, 0] - 0.95) < 1e-12
    # 0.1*0.5 + 0 + 0 = 0.05
    assert abs(similarity_many(model, [t], [v])[0, 0] - 0.05) < 1e-12


def test_similarity_self_is_one(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    for t in model.observed[:5]:
        assert abs(similarity_many(model, [t], [t])[0, 0] - 1.0) < 1e-12


def test_similarity_clamped_to_unit_interval(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    g = similarity_many(model, model.observed, model.observed)
    assert np.all(g >= 0.0) and np.all(g <= 1.0)


def test_similarity_branch_mode_needs_unigram_branches(small_bench):
    """G compares branch embeddings only when s, p and o are all active;
    without p it compares the word vectors, slot by slot."""
    cfg, train, table, model = bench_model(small_bench, branches="s,o,vp")
    codes = model.observed
    words = [
        normalize_rows(arr[index])[0]
        for arr, index in zip((model.e_sub, model.e_pre, model.e_obj), np.unravel_index(codes, model.dims))
    ]
    want = sum(a * (w @ w.T) for a, w in zip((cfg.alpha_s, cfg.alpha_p, cfg.alpha_o), words))
    assert np.allclose(similarity_many(model, codes, codes), np.clip(want, 0.0, 1.0), rtol=0, atol=1e-12)
    full = bench_model(small_bench)[3]
    assert not np.array_equal(similarity_many(full, codes, codes), similarity_many(model, codes, codes))


# ---------------------------------------------------------------------------
# Source selection
# ---------------------------------------------------------------------------


def test_select_sources_matches_full_sort(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    pool = model.observed
    u = pool[len(pool) // 2]
    sources, weights, count = select_sources(model, [u], pool)
    assert count.tolist() == [cfg.k]
    got = list(zip(decode(model.dims, sources[0]), weights[0].tolist()))
    g = similarity_many(model, [u], pool)[0]
    ranked = sorted(zip(decode(model.dims, pool), g.tolist()), key=lambda tg: (-tg[1], tg[0]))
    want = [(t, float(gv)) for t, gv in ranked[: cfg.k]]
    assert got == want
    assert len(got) == cfg.k


def test_select_sources_small_pool_returns_all(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    pool = model.observed[:3]
    sources, weights, count = select_sources(model, model.observed[:1], pool)
    assert sources.shape == weights.shape == (1, 3) and count.tolist() == [3]


def test_source_pool_applies_rare_threshold(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    pool = source_pool(model)
    assert decode(model.dims, pool) == sorted(t for t, c in model_counts(model).items() if c >= cfg.rare_threshold)
    model.cfg.rare_threshold = 10**9
    with pytest.raises(DataError, match="^no transfer sources: every observed triplet is rare$"):
        source_pool(model)


def test_source_pool_threshold_boundary():
    subjects, predicates, objects = Vocabulary(["s"]), Vocabulary(["p0", "p1", "p2"]), Vocabulary(["o"])
    rng = np.random.default_rng(0)
    rows = []
    for p, count in ((0, 5), (1, 10), (2, 11)):
        for _ in range(count):
            pid = len(rows)
            rows.append(
                (
                    pid, pid,
                    BoundingBox(0, 0, 1, 1), BoundingBox(0, 0, 1, 1),
                    0, 0, rng.normal(size=2), rng.normal(size=2), (p,),
                )
            )
    ds = Dataset(subjects, predicates, objects, rows_table(rows, 2))
    table = WordTable(2, {tok: rng.normal(size=2) for tok in ("s", "p0", "p1", "p2", "o")})
    model = build_model(desk_config(rare_threshold=10), ds, table, seed=0)
    assert model_counts(model) == {Triplet(0, 0, 0): 5, Triplet(0, 1, 0): 10, Triplet(0, 2, 0): 11}
    assert decode(model.dims, source_pool(model)) == [Triplet(0, 1, 0), Triplet(0, 2, 0)]
    model.cfg.rare_threshold = 12
    with pytest.raises(DataError, match="^no transfer sources: every observed triplet is rare$"):
        source_pool(model)


def test_build_source_sets_exclude_target(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    sources, _, count = build_source_sets(model, source_pool(model))
    for u, row, n in zip(model.observed.tolist(), sources, count):
        assert u not in row[:n]


def test_build_source_sets_computes_g_once(small_bench, monkeypatch):
    cfg, train, table, model = bench_model(small_bench)
    calls = []

    def counted(model, targets, pool):
        calls.append(len(targets))
        return similarity_many(model, targets, pool)

    monkeypatch.setattr(analogy, "similarity_many", counted)
    sources, _, _ = build_source_sets(model, source_pool(model))
    assert calls == [len(model.observed)]
    assert len(sources) == len(model.observed) > 1


def test_build_source_sets_agree_with_select_sources(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    pool = source_pool(model)
    sources, weights, count = build_source_sets(model, pool)
    assert len(sources) == len(weights) == len(count) == len(model.observed)
    for u, row, w, n in zip(model.observed, sources, weights, count):
        want_sources, want_weights, _ = select_sources(model, [u], pool[pool != u])
        assert row[:n].tolist() == want_sources[0].tolist(), u
        assert np.allclose(w[:n], want_weights[0], rtol=0, atol=1e-12), u


# ---------------------------------------------------------------------------
# Transfer
# ---------------------------------------------------------------------------


def _two_sources(model, normalize=False):
    model.cfg.normalize_aggregation = normalize
    u, t1, t2 = model.observed[:3]
    w1, w2 = embed_language_batch(model, "vp", [t1, t2])
    return u, np.array([[t1, t2]]), np.array([[0.6, 0.3]]), w1, w2


def test_transfer_weighted_sum_by_hand(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    u, sources, weights, w1, w2 = _two_sources(model)
    got, _ = transferred_embeddings(model, make_gamma(model, "zero"), [u], sources, weights)
    assert np.allclose(got[0], 0.6 * w1 + 0.3 * w2, rtol=0.0, atol=1e-15)


def test_transfer_normalized_aggregation(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    u, sources, weights, w1, w2 = _two_sources(model, normalize=True)
    got, _ = transferred_embeddings(model, make_gamma(model, "zero"), [u], sources, weights)
    assert np.allclose(got[0], (0.6 * w1 + 0.3 * w2) / 0.9, rtol=0.0, atol=1e-15)


def test_transfer_all_zero_weights_rejected(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "zero")
    u, t1 = model.observed[0], model.observed[1]
    with pytest.raises(DataError, match="no informative sources"):
        transferred_embeddings(model, gamma, [t1, u], [[u], [t1]], [[0.5], [0.0]])


def test_self_transfer_equals_direct_embedding(small_bench):
    """k=1 with the target in the pool: G=1 weight on an uncorrected self."""
    cfg, train, table, model = bench_model(small_bench, k=1)
    for kind in ("zero", "linear", "deep"):
        gamma = make_gamma(model, kind)
        for u in model.observed[:4]:
            direct = embed_language_batch(model, "vp", [u])[0]
            transferred = transfer_embedding(model, gamma, [u], model.observed)[0]
            assert np.max(np.abs(transferred - direct)) < 1e-12, kind


def test_transfer_absent_gamma_skips_correction(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    absent = make_gamma(model, "absent")
    zero = make_gamma(model, "zero")
    u = model.observed[0]
    sources, weights, _ = select_sources(model, [u], model.observed[model.observed != u])
    a, _ = transferred_embeddings(model, absent, [u], sources, weights)
    b, _ = transferred_embeddings(model, zero, [u], sources, weights)
    assert np.array_equal(a, b)


def test_corrected_embeddings_absent_gamma_is_uncorrected(small_bench):
    """One source at weight 1 transfers its own embedding under Gamma absent."""
    cfg, train, table, model = bench_model(small_bench)
    sources = model.observed[1:4]
    u = model.observed[0]
    absent = make_gamma(model, "absent")
    got, (_, cache) = transferred_embeddings(model, absent, [u] * 3, sources[:, None], np.ones((3, 1)))
    assert np.array_equal(got, embed_language_batch(model, "vp", sources))
    assert cache is None


def test_corrected_embeddings_shift_by_gamma(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "linear")
    t, u = model.observed[1], model.observed[0]
    base = embed_language_batch(model, "vp", [t])
    corr, _ = gamma_forward(gamma, gamma_input_matrix(model, [t], [u]))
    got, _ = transferred_embeddings(model, gamma, [u], [[t]], [[1.0]])
    assert np.array_equal(got, base + corr)


# ---------------------------------------------------------------------------
# Analogy loss
# ---------------------------------------------------------------------------


def _batch(dataset, n=8):
    return dataset.pairs.take(range(n))


def _vp_input(model, batch):
    return branch_inputs(model, batch, ("vp",))[0]["vp"]


def test_analogy_loss_grads_touch_only_gamma_and_vp_visual(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "deep")
    batch = _batch(train)
    u, t1, t2 = model.observed[:3]
    q = ([u], [[t1, t2]], [[0.7, 0.2]])  # (targets, sources, weights)
    loss, grads = analogy_loss(model, gamma, batch, _vp_input(model, batch), *q)
    assert loss > 0.0
    for name in grads:
        assert name.startswith("gamma.") or name.startswith("branch.vp.f_v."), name
    assert any(name.startswith("gamma.") for name in grads)
    assert any(name.startswith("branch.vp.f_v.") for name in grads)
    assert not any(name.startswith("branch.vp.f_w.") for name in grads)


def test_analogy_loss_zero_gamma_has_no_gamma_grads(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "zero")
    q = ([model.observed[0]], [[model.observed[1]]], [[0.5]])
    _, grads = analogy_loss(model, gamma, _batch(train), _vp_input(model, _batch(train)), *q)
    assert all(name.startswith("branch.vp.f_v.") for name in grads)


def test_analogy_loss_empty_q_is_zero(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "deep")
    loss, grads = analogy_loss(model, gamma, _batch(train), _vp_input(model, _batch(train)), [], [], [])
    assert loss == 0.0 and grads == {}


def test_analogy_loss_absent_gamma_rejected(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    with pytest.raises(DataError, match="absent"):
        analogy_loss(model, make_gamma(model, "absent"), _batch(train), _vp_input(model, _batch(train)), [], [], [])


def test_analogy_loss_matches_finite_differences(small_bench):
    """The loss of k-source sums, one ragged set among them, with unequal
    weights: gradients in Gamma and vp f_v under raw and normalized
    aggregation."""
    cfg, train, table, model = bench_model(small_bench, embed_dim=8)
    batch = _batch(train, 6)
    x = _vp_input(model, batch)
    u0 = batch.positives(model.dims)[1][0]  # labelled in the batch
    u1, *others = model.observed[model.observed != u0]
    # the second set is ragged: its count is 2 of k = 3, as select_sources pads it
    q = ([u0, u1], [others[:3], [others[3], others[4], u1]], [[0.9, 0.5, 0.2], [0.7, 0.3, 0.0]])
    for normalize in (False, True):
        model.cfg.normalize_aggregation = normalize
        for kind in ("linear", "deep"):
            gamma = make_gamma(model, kind)
            named = [(n, a) for n, a in trainable(model, 2, gamma) if not n.startswith("branch.vp.f_w")]
            assert any(n.startswith("gamma.") for n, _ in named)
            _, grads = analogy_loss(model, gamma, batch, x, *q)
            numeric = finite_diff_grad(lambda: analogy_loss(model, gamma, batch, x, *q)[0], [a for _, a in named])
            for (name, arr), num in zip(named, numeric):
                analytic = grads.get(name, np.zeros_like(arr))
                assert max_relative_error([analytic], [num]) < 1e-5, (normalize, kind, name)


def test_analogy_loss_scores_the_embedding_eval_transfers(small_bench, monkeypatch):
    """For every observed target, the column the analogy loss scores is the
    embedding eval transfers to it from the pool without it. Eval transfers
    all its queries in one call; each row is the query's transfer alone,
    from the same source codes."""
    scored = []
    real = analogy.logistic_terms

    def spy(v, w, y):
        scored.append(w)
        return real(v, w, y)

    monkeypatch.setattr(analogy, "logistic_terms", spy)
    for normalize in (False, True):
        cfg, train, table, model = bench_model(small_bench, normalize_aggregation=normalize)
        gamma = make_gamma(model, "deep")
        pool = source_pool(model)
        *q, skipped = sample_q_pairs(model, train.pairs, build_source_sets(model, pool))
        assert skipped == 0 and np.array_equal(q[0], model.observed)
        analogy_loss(model, gamma, train.pairs, _vp_input(model, train.pairs), *q)
        for u, w in zip(model.observed, scored.pop()):
            assert np.max(np.abs(w - transfer_embedding(model, gamma, [u], pool[pool != u])[0])) <= 1e-12, u
        codes = np.concatenate([encode(model.dims, small_bench[1][3]), model.observed])
        batch, (sources, _, _) = transfer_embedding(model, gamma, codes, pool), select_sources(model, codes, pool)
        for u, w, row in zip(codes, batch, sources):
            assert np.max(np.abs(w - transfer_embedding(model, gamma, [u], pool)[0])) <= 1e-12, u
            assert row.tolist() == select_sources(model, [u], pool)[0][0].tolist(), u


def test_analogy_loss_language_side_sees_zero_gradient(small_bench):
    """Finite differences on f_w^vp confirm the stop-gradient: the loss is
    flat in the language parameters (the analogy column uses them, but no
    gradient is defined through it)."""
    cfg, train, table, model = bench_model(small_bench)
    gamma = make_gamma(model, "deep")
    batch = _batch(train, 6)
    q = ([model.observed[0]], [[model.observed[1]]], [[0.5]])
    _, grads = analogy_loss(model, gamma, batch, _vp_input(model, batch), *q)
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
    q = ([model.observed[0]], [[model.observed[1]]], [[0.5]])
    loss, _ = analogy_loss(model, gamma, _batch(train), _vp_input(model, _batch(train)), *q)
    assert abs(loss - np.log(2.0)) < 1e-12


# ---------------------------------------------------------------------------
# Q-pair sampling
# ---------------------------------------------------------------------------


def test_sample_q_pairs_one_per_target(small_bench):
    """Each distinct positive triplet of the batch, with its whole row of
    the source sets."""
    cfg, train, table, model = bench_model(small_bench)
    sets = build_source_sets(model, source_pool(model))
    batch = train.pairs.take(range(16))
    targets = sorted({t for row in row_triplets(batch) for t in row})
    got, sources, weights, skipped = sample_q_pairs(model, batch, sets)
    assert skipped == 0
    assert decode(model.dims, got) == targets
    rows = np.searchsorted(model.observed, got)
    assert np.array_equal(sources, sets[0][rows]) and np.array_equal(weights, sets[1][rows])
    assert sources.shape == (len(targets), cfg.k)


def test_sample_q_pairs_counts_missing_targets(small_bench):
    cfg, train, table, model = bench_model(small_bench)
    batch = train.pairs.take(range(16))
    targets = sorted({t for row in row_triplets(batch) for t in row})
    n = len(model.observed)
    sets = (np.zeros((n, 0), np.int64), np.zeros((n, 0)), np.zeros(n, np.int64))  # no sources anywhere
    got, sources, weights, skipped = sample_q_pairs(model, batch, sets)
    assert got.tolist() == [] and sources.shape == weights.shape == (0, 0)
    assert skipped == len(targets)
    # a triplet the model never observed has no row in the source sets
    _, (_, test, _, heldout) = small_bench
    listed = [[t in row for t in (heldout[0], targets[0])] for row in row_triplets(test.pairs)]
    batch = test.pairs.take([listed.index([True, False]), listed.index([False, True])])
    sets = build_source_sets(model, source_pool(model))
    got, sources, _, skipped = sample_q_pairs(model, batch, sets)
    assert skipped == 1 and decode(model.dims, got) == targets[:1] and len(sources) == 1


def test_one_triplet_pool_gives_ragged_source_sets(small_bench):
    """The lone pool triplet has no source but itself, which is excluded
    and weighs 0; every other target gets it, and sampling skips only the
    lone one."""
    cfg, train, table, model = bench_model(small_bench)
    batch = train.pairs.take(range(0, len(train.pairs), 7))
    targets = np.unique(batch.positives(model.dims)[1])
    assert len(targets) > 1
    lone = targets[0]
    sets = build_source_sets(model, np.array([lone]))
    sources, weights, count = sets
    assert sources.shape == weights.shape == (len(model.observed), 1)
    alone = model.observed == lone
    assert count[alone].tolist() == [0] and (count[~alone] == 1).all()
    assert weights[alone].tolist() == [[0.0]]
    assert (sources[~alone, 0] == lone).all()
    got_targets, got_sources, _, skipped = sample_q_pairs(model, batch, sets)
    assert skipped == 1
    assert got_targets.tolist() == targets[1:].tolist()
    assert (got_sources == lone).all()


def test_zero_weight_target_is_skipped_in_stage2_and_refused_in_eval(small_bench, monkeypatch):
    """A target whose G row is all 0 is skipped and counted in every stage-2
    batch that holds it, raw or normalized, with every loss finite; its
    transfer in eval is the data error."""
    dead = bench_model(small_bench)[3].observed[0]
    real_g, real_sample, real_loss = similarity_many, sample_q_pairs, analogy_loss

    def g(model, targets, pool):
        out = real_g(model, targets, pool)
        out[np.asarray(targets) == dead] = 0.0
        return out

    seen, losses = [], []

    def sample(model, batch, sets):
        out = real_sample(model, batch, sets)
        seen.append((dead in batch.positives(model.dims)[1], dead in out[0], out[3]))
        return out

    def loss(*args, **kwargs):
        out = real_loss(*args, **kwargs)
        losses.append(out[0])
        return out

    monkeypatch.setattr(analogy, "similarity_many", g)
    monkeypatch.setattr(analogy, "sample_q_pairs", sample)
    monkeypatch.setattr(analogy, "analogy_loss", loss)
    for normalize in (False, True):
        seen.clear()
        cfg, train, table, model = bench_model(small_bench, stage2_epochs=1, normalize_aggregation=normalize)
        gamma = make_gamma(model, "deep")
        trace, skipped = train_stage2(model, gamma, train, seed=0)
        assert skipped == sum(held for held, _, _ in seen) > 0
        assert [n for _, _, n in seen] == [int(held) for held, _, _ in seen]
        assert not any(kept for _, kept, _ in seen)
        assert np.all(np.isfinite(trace)) and np.all(np.isfinite(losses))
        with pytest.raises(DataError, match="no informative sources"):
            transfer_embedding(model, gamma, [dead], source_pool(model))


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
    trace, skipped = train_stage2(model, make_gamma(model, "absent"), train, seed=0)
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
    pairs = train.pairs.take(range(4))
    before = score_pairs(
        model, u, pairs, vp_override=transfer_embedding(model, gamma, [u], source_pool(model))[0]
    )
    train_stage2(model, gamma, train, seed=0)
    after = score_pairs(
        model, u, pairs, vp_override=transfer_embedding(model, gamma, [u], source_pool(model))[0]
    )
    assert not np.array_equal(before, after)
