"""Transfer of visual-phrase embeddings to triplets without training data.

A target triplet u borrows the embeddings of its k most similar seen
triplets (weighting G: convex combination of per-slot language cosine
similarities), each corrected by a learned map Gamma of the word-level
differences between source and target. Gamma has no bias terms anywhere,
so a triplet transferred from itself is corrected by exactly zero.

The second training stage finetunes the visual-phrase branch while
learning Gamma from analogies among seen triplets. Gradients of the
analogy term reach only Gamma and the visual-phrase visual projection;
language projections receive none of it by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, Triplet
from .features import pair_arrays, visual_forward
from .model import (
    JointModel,
    adam_update,
    batch_iter,
    embed_language_batch,
    embed_language_masked,
    joint_loss,
    trainable,
)
from .numkit import (
    Array,
    Linear,
    Mlp,
    adam_init,
    glorot_uniform,
    layer_params,
    log_sigmoid,
    mlp_backward,
    mlp_forward,
    normalize_rows,
    rng_stream,
    sigmoid,
)

SLOTS = ("s", "p", "o")


# ---------------------------------------------------------------------------
# Gamma: the analogy correction
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Gamma:
    """Correction map applied to a source embedding during transfer.

    kind 'absent': no correction and no analogy training at all;
    kind 'zero': analogy training happens but the correction is zero;
    kind 'linear': single d x 3d matrix; kind 'deep': two bias-free layers
    with ReLU between. No variant carries bias terms.
    """

    kind: str
    lin: Linear | None = None
    net: Mlp | None = None


def gamma_init(kind: str, embed_dim: int, hidden: int, rng: np.random.Generator) -> Gamma:
    if kind in ("absent", "zero"):
        return Gamma(kind)
    if kind == "linear":
        return Gamma(kind, lin=Linear(glorot_uniform(rng, embed_dim, 3 * embed_dim)))
    if kind == "deep":
        first = Linear(glorot_uniform(rng, hidden, 3 * embed_dim))
        second = Linear(glorot_uniform(rng, embed_dim, hidden))
        return Gamma(kind, net=Mlp(first, second))
    raise DataError(f"unknown gamma kind {kind!r}")


def gamma_forward(gamma: Gamma, diffs: Array) -> tuple[Array, tuple | None]:
    """Corrections for stacked difference vectors (n, 3d) -> (n, d)."""
    if gamma.kind == "zero":
        d = diffs.shape[1] // 3
        return np.zeros((diffs.shape[0], d)), None
    if gamma.kind == "linear":
        return diffs @ gamma.lin.w.T, (diffs,)
    if gamma.kind == "deep":
        return mlp_forward(gamma.net, diffs)
    raise DataError(f"gamma kind {gamma.kind!r} computes no correction")


def gamma_backward(gamma: Gamma, cache, grad_out: Array) -> dict[str, Array]:
    if gamma.kind == "zero":
        return {}
    if gamma.kind == "linear":
        (diffs,) = cache
        return {"gamma.lin.w": grad_out.T @ diffs}
    g, _ = mlp_backward(gamma.net, cache, grad_out)
    return dict(layer_params("gamma.net", g))


# ---------------------------------------------------------------------------
# Word-level inputs to Gamma
# ---------------------------------------------------------------------------


def unigram_vp_embeddings(model: JointModel, slot: str, indices: list[int]) -> Array:
    """Visual-phrase language embeddings of single words (other slots zero)."""
    if slot == "s":
        triplets = [Triplet(i, 0, 0) for i in indices]
    elif slot == "p":
        triplets = [Triplet(0, i, 0) for i in indices]
    elif slot == "o":
        triplets = [Triplet(0, 0, i) for i in indices]
    else:
        raise DataError(f"unknown slot {slot!r}")
    return embed_language_masked(model, "vp", triplets, slot)


def gamma_input_matrix(model: JointModel, pairs_st: list[tuple[Triplet, Triplet]]) -> Array:
    """Stacked [target - source] unigram-embedding differences, (n, 3d).

    Each unique word is embedded once, so identical source and target
    produce an exactly zero row.
    """
    if not pairs_st:
        return np.zeros((0, 3 * model.cfg.embed_dim))
    per_slot = []
    for slot_pos, slot in enumerate(SLOTS):
        indices = sorted({t[slot_pos] for st in pairs_st for t in st})
        embeds = unigram_vp_embeddings(model, slot, indices)
        at = {idx: embeds[j] for j, idx in enumerate(indices)}
        per_slot.append(np.stack([at[u[slot_pos]] - at[t[slot_pos]] for t, u in pairs_st]))
    return np.concatenate(per_slot, axis=1)


def corrected_embeddings(
    model: JointModel, gamma: Gamma, pairs_st: list[tuple[Triplet, Triplet]]
) -> Array:
    """w_source + Gamma(source, target) for each (source, target) pair."""
    if gamma.kind == "absent":
        raise DataError("gamma kind 'absent' defines no correction")
    w_src = embed_language_batch(model, "vp", [t for t, _ in pairs_st])
    corr, _ = gamma_forward(gamma, gamma_input_matrix(model, pairs_st))
    return w_src + corr


# ---------------------------------------------------------------------------
# Similarity weighting G and source selection
# ---------------------------------------------------------------------------


def _slot_vectors(model: JointModel, triplets: list[Triplet]) -> dict[str, Array]:
    """Per-slot unit vectors used by G, per configured input mode."""
    cfg = model.cfg
    out = {}
    if cfg.similarity_input == "branches":
        for slot in SLOTS:
            out[slot] = embed_language_batch(model, slot, triplets)
    else:
        tables = {"s": model.e_sub, "p": model.e_pre, "o": model.e_obj}
        for slot_pos, slot in enumerate(SLOTS):
            rows = tables[slot][[t[slot_pos] for t in triplets]]
            out[slot] = normalize_rows(rows)[0]
    return out


def similarity_many(model: JointModel, targets: list[Triplet], pool: list[Triplet]) -> Array:
    """G between every target (rows) and pool triplet (columns)."""
    cfg = model.cfg
    if cfg.similarity_input == "branches":
        missing = [b for b in SLOTS if b not in model.branches]
        if missing:
            raise DataError(
                f"similarity over branch embeddings needs branches {','.join(SLOTS)};"
                f" missing {','.join(missing)} (set similarity_input = words)"
            )
    alphas = {"s": cfg.alpha_s, "p": cfg.alpha_p, "o": cfg.alpha_o}
    vt = _slot_vectors(model, targets)
    vp = _slot_vectors(model, pool)
    g = sum(alphas[slot] * (vt[slot] @ vp[slot].T) for slot in SLOTS)
    if cfg.clamp_similarity:
        g = np.clip(g, 0.0, 1.0)
    return g


def source_pool(model: JointModel) -> list[Triplet]:
    """Seen triplets frequent enough to donate embeddings, sorted."""
    thr = model.cfg.rare_threshold
    return sorted(t for t, c in model.counts.items() if c >= thr)


def select_sources(
    model: JointModel, u: Triplet, pool: list[Triplet]
) -> list[tuple[Triplet, float]]:
    """Top-k pool triplets by G, descending; ties by ascending triplet.

    The pool is taken as given: training passes the frequent seen triplets
    minus the target itself, evaluation passes them all.
    """
    if not pool:
        raise DataError(f"empty source pool for target {tuple(u)}")
    g = similarity_many(model, [u], pool)[0]
    order = sorted(range(len(pool)), key=lambda j: (-g[j], pool[j]))
    return [(pool[j], float(g[j])) for j in order[: model.cfg.k]]


# ---------------------------------------------------------------------------
# Transferred embedding
# ---------------------------------------------------------------------------


def transfer_from_sources(
    model: JointModel, gamma: Gamma, u: Triplet, sources: list[tuple[Triplet, float]]
) -> Array:
    """Weighted sum of (corrected) source embeddings: sum G * (w + Gamma).

    Unnormalized by default; set normalize_aggregation to divide by sum G.
    """
    weights = np.array([g for _, g in sources])
    if not np.any(weights > 0.0):
        raise DataError(f"no informative sources for target {tuple(u)}: all weights zero")
    if gamma.kind == "absent":
        w = embed_language_batch(model, "vp", [t for t, _ in sources])
    else:
        w = corrected_embeddings(model, gamma, [(t, u) for t, _ in sources])
    out = weights @ w
    if model.cfg.normalize_aggregation:
        out = out / float(np.sum(weights))
    return out


def transfer_embedding(
    model: JointModel, gamma: Gamma, u: Triplet, pool: list[Triplet] | None = None
) -> Array:
    if pool is None:
        pool = source_pool(model)
    return transfer_from_sources(model, gamma, u, select_sources(model, u, pool))


# ---------------------------------------------------------------------------
# Analogy loss
# ---------------------------------------------------------------------------


def sample_q_pairs(
    batch,
    source_sets: dict[Triplet, list[tuple[Triplet, float]]],
    rng: np.random.Generator,
) -> tuple[list[tuple[Triplet, Triplet]], int]:
    """One uniformly drawn source per target present in the batch.

    Targets with an empty source set are skipped and counted.
    """
    targets = sorted({t for pair in batch for t in pair.positives()})
    q, skipped = [], 0
    for u in targets:
        sources = source_sets.get(u, [])
        if not sources:
            skipped += 1
            continue
        pick = int(rng.integers(len(sources)))
        q.append((sources[pick][0], u))
    return q, skipped


def analogy_loss(
    model: JointModel,
    gamma: Gamma,
    batch,
    q_pairs: list[tuple[Triplet, Triplet]],
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, Array]]:
    """Mean binary log-likelihood of batch pairs against transferred
    embeddings, one column per (source, target) analogy.

    Gradients flow only to Gamma parameters and the vp visual projection;
    the language side and the shared descriptor front end get none.
    """
    if gamma.kind == "absent":
        raise DataError("gamma kind 'absent' has no analogy loss")
    if not q_pairs:
        return 0.0, {}
    br = model.branch("vp")
    a_s, a_o, r = pair_arrays(batch, model.cfg.spatial_norm)
    x, _ = visual_forward(model.visual, a_s, a_o, r)
    v, v_cache = mlp_forward(br.f_v, x, training=training, rng=rng)

    w_src = embed_language_batch(model, "vp", [t for t, _ in q_pairs])
    diffs = gamma_input_matrix(model, q_pairs)
    corr, g_cache = gamma_forward(gamma, diffs)
    w = w_src + corr  # (Q, d), treated as constant in w_src

    y = np.zeros((len(batch), len(q_pairs)))
    for j, (_, u) in enumerate(q_pairs):
        for i, pair in enumerate(batch):
            if u in pair.positives():
                y[i, j] = 1.0

    d = v @ w.T
    m = d.size
    loss = -float(np.sum(y * log_sigmoid(d) + (1.0 - y) * log_sigmoid(-d))) / m
    dd = (sigmoid(d) - y) / m

    g_v = dd @ w
    g_w = dd.T @ v  # flows into the correction only, never into w_src
    grads = gamma_backward(gamma, g_cache, g_w)
    g_fv, _ = mlp_backward(br.f_v, v_cache, g_v)
    grads.update(layer_params("branch.vp.f_v", g_fv))
    return loss, grads


# ---------------------------------------------------------------------------
# Stage-2 training
# ---------------------------------------------------------------------------


def build_source_sets(
    model: JointModel, targets: list[Triplet], pool: list[Triplet]
) -> dict[Triplet, list[tuple[Triplet, float]]]:
    """Source sets for every target, each excluding the target itself."""
    sets = {}
    for u in targets:
        own = [t for t in pool if t != u]
        sets[u] = select_sources(model, u, own) if own else []
    return sets


def train_stage2(
    model: JointModel, gamma: Gamma, dataset: Dataset, seed: int
) -> tuple[list[float], int]:
    """Optimize vp-branch loss plus weighted analogy loss.

    Returns (per-epoch mean combined loss, count of skipped empty-source
    targets). With gamma 'absent' there is nothing to train: no-op.
    """
    cfg = model.cfg
    if gamma.kind == "absent":
        return [], 0
    if "vp" not in model.branches:
        raise DataError("stage-2 training requires an active vp branch")
    rng = rng_stream(seed, "stage2")
    named = trainable(model, 2, gamma)
    opt = adam_init([a for _, a in named], lr=cfg.lr)
    n_pos = cfg.positives_per_batch()
    n_neg = cfg.batch_size - n_pos
    pool = source_pool(model)
    trace: list[float] = []
    skipped_total = 0
    for _ in range(cfg.stage2_epochs):
        # source sets refresh each epoch; the slots G reads stay frozen, so
        # this is stable, but it keeps the rule in one place
        source_sets = build_source_sets(model, model.observed, pool)
        losses = []
        for batch in batch_iter(dataset, n_pos, n_neg, rng):
            loss_vp, grads = joint_loss(
                model, batch, kinds=("vp",), training=True, rng=rng, through_visual=False
            )
            q_pairs, skipped = sample_q_pairs(batch, source_sets, rng)
            skipped_total += skipped
            loss_an, g_an = analogy_loss(model, gamma, batch, q_pairs, training=True, rng=rng)
            for name, arr in g_an.items():
                lam = cfg.analogy_weight
                grads[name] = grads[name] + lam * arr if name in grads else lam * arr
            adam_update(opt, named, grads)
            losses.append(loss_vp + cfg.analogy_weight * loss_an)
        trace.append(float(np.mean(losses)))
    return trace, skipped_total
