"""Transfer of visual-phrase embeddings to triplets without training data.

A target triplet u borrows the embeddings of its k most similar seen
triplets (weighting G: convex combination of per-slot language cosine
similarities), each corrected by a learned map Gamma of the word-level
differences between source and target. Gamma has no bias terms anywhere,
so a triplet transferred from itself is corrected by exactly zero.

The second training stage finetunes the visual-phrase branch while
learning Gamma from analogies among seen triplets, with source sets taken
from one G matrix. Gradients of the analogy term reach only Gamma and the
visual-phrase visual projection; language projections receive none of it
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LANGUAGE_MASKS, DataError, Dataset, PairTable, Triplet
from .model import (
    JointModel,
    add_grads,
    branch_inputs,
    branch_terms,
    embed_language_batch,
    fit,
    label_matrix,
    logistic_terms,
    trainable,
)
from .numkit import (
    Array,
    Linear,
    Mlp,
    glorot_uniform,
    layer_params,
    linear_backward,
    linear_forward,
    mlp_backward,
    mlp_forward,
    normalize_rows,
    rng_stream,
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
    net: Linear | Mlp | None = None

    @property
    def prefix(self) -> str:  # registry name of ``net``
        return "gamma.lin" if self.kind == "linear" else "gamma.net"


def gamma_init(kind: str, embed_dim: int, hidden: int, rng: np.random.Generator) -> Gamma:
    if kind in ("absent", "zero"):
        return Gamma(kind)
    if kind == "linear":
        return Gamma(kind, Linear(glorot_uniform(rng, embed_dim, 3 * embed_dim)))
    if kind == "deep":
        first = Linear(glorot_uniform(rng, hidden, 3 * embed_dim))
        second = Linear(glorot_uniform(rng, embed_dim, hidden))
        return Gamma(kind, Mlp(first, second))
    raise DataError(f"unknown gamma kind {kind!r}")


def gamma_forward(gamma: Gamma, diffs: Array) -> tuple[Array, tuple | None]:
    """Corrections for stacked difference vectors (n, 3d) -> (n, d)."""
    if gamma.kind == "zero":
        return np.zeros((diffs.shape[0], diffs.shape[1] // 3)), None
    if gamma.kind == "linear":
        return linear_forward(gamma.net, diffs)
    if gamma.kind == "deep":
        return mlp_forward(gamma.net, diffs)
    raise DataError(f"gamma kind {gamma.kind!r} computes no correction")


def gamma_backward(gamma: Gamma, cache, grad_out: Array) -> dict[str, Array]:
    if gamma.kind == "zero":
        return {}
    backward = linear_backward if gamma.kind == "linear" else mlp_backward
    g, _ = backward(gamma.net, cache, grad_out)
    return dict(layer_params(gamma.prefix, g))


# ---------------------------------------------------------------------------
# Word-level inputs to Gamma
# ---------------------------------------------------------------------------


def gamma_input_matrix(model: JointModel, pairs_st: list[tuple[Triplet, Triplet]]) -> Array:
    """Stacked [target - source] differences of the vp language embeddings
    of single words (each slot's masked triplets), (n, 3d).

    Each unique word is embedded once, so identical source and target
    produce an exactly zero row.
    """
    st = np.asarray(pairs_st, dtype=np.int64).reshape(-1, 3)  # source, target, source, ...
    per_slot = []
    for col, slot in enumerate(SLOTS):
        # a slot's mask keeps one column, so its unique values are the unique words
        _, first, at = np.unique(st[:, col], return_index=True, return_inverse=True)
        words = st[first] * np.array(LANGUAGE_MASKS[slot], dtype=np.int64)
        emb = embed_language_batch(model, "vp", words, slot)
        at = at.reshape(-1, 2)
        per_slot.append(emb[at[:, 1]] - emb[at[:, 0]])
    return np.concatenate(per_slot, axis=1)


def corrected_embeddings(
    model: JointModel, gamma: Gamma, pairs_st: list[tuple[Triplet, Triplet]]
) -> tuple[Array, tuple | None]:
    """w_source + Gamma(source, target) for each (source, target) pair, and
    Gamma's cache for its backward pass. Gamma 'absent' corrects nothing:
    the source embeddings come back as they are, with no cache."""
    w_src = embed_language_batch(model, "vp", [t for t, _ in pairs_st])
    if gamma.kind == "absent":
        return w_src, None
    corr, cache = gamma_forward(gamma, gamma_input_matrix(model, pairs_st))
    return w_src + corr, cache


# ---------------------------------------------------------------------------
# Similarity weighting G and source selection
# ---------------------------------------------------------------------------


def _slot_vectors(model: JointModel, triplets: list[Triplet]) -> list[Array]:
    """Per-slot unit vectors used by G, in SLOTS order, per configured input mode."""
    if model.cfg.similarity_input == "branches":
        return [embed_language_batch(model, slot, triplets) for slot in SLOTS]
    rows = np.asarray(triplets, dtype=np.intp).reshape(-1, 3)
    words = (model.e_sub, model.e_pre, model.e_obj)
    return [normalize_rows(table[rows[:, i]])[0] for i, table in enumerate(words)]


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
    alphas = (cfg.alpha_s, cfg.alpha_p, cfg.alpha_o)
    vt, vp = _slot_vectors(model, targets), _slot_vectors(model, pool)
    g = sum(a * (t @ p.T) for a, t, p in zip(alphas, vt, vp))
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
    return _top_k(similarity_many(model, [u], pool)[0], pool, model.cfg.k)


def _top_k(g: Array, pool: list[Triplet], k: int, exclude=None) -> list[tuple[Triplet, float]]:
    """The k pool triplets but ``exclude`` of largest G, descending; ties by ascending triplet."""
    g = g.tolist()
    order = sorted((j for j, t in enumerate(pool) if t != exclude), key=lambda j: (-g[j], pool[j]))
    return [(pool[j], g[j]) for j in order[:k]]


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
    w, _ = corrected_embeddings(model, gamma, [(t, u) for t, _ in sources])
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
    batch: PairTable,
    source_sets: dict[Triplet, list[tuple[Triplet, float]]],
    rng: np.random.Generator,
) -> tuple[list[tuple[Triplet, Triplet]], int]:
    """One uniformly drawn source per target present in the batch.

    Targets with an empty source set are skipped and counted.
    """
    targets = np.unique(batch.positives()[1], axis=0).tolist()
    q, skipped = [], 0
    for u in map(Triplet._make, targets):
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
    batch: PairTable,
    x: Array,
    q_pairs: list[tuple[Triplet, Triplet]],
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, Array]]:
    """Mean binary log-likelihood of batch pairs against transferred
    embeddings, one column per (source, target) analogy; ``x`` is the vp
    branch input of the batch (``branch_inputs``).

    Gradients flow only to Gamma parameters and the vp visual projection;
    the language side and the shared descriptor front end get none.
    """
    if gamma.kind == "absent":
        raise DataError("gamma kind 'absent' has no analogy loss")
    if not q_pairs:
        return 0.0, {}
    br = model.branch("vp")
    v, v_cache = mlp_forward(br.f_v, x, training=training, rng=rng)
    w, g_cache = corrected_embeddings(model, gamma, q_pairs)  # constant in the source part
    y = label_matrix(batch, [u for _, u in q_pairs], "full")
    loss, g_v, g_w = logistic_terms(v, w, y)
    grads = gamma_backward(gamma, g_cache, g_w)  # g_w reaches the correction only
    g_fv, _ = mlp_backward(br.f_v, v_cache, g_v)
    grads.update(layer_params("branch.vp.f_v", g_fv))
    return loss, grads


# ---------------------------------------------------------------------------
# Stage-2 training
# ---------------------------------------------------------------------------


def build_source_sets(
    model: JointModel, targets: list[Triplet], pool: list[Triplet]
) -> dict[Triplet, list[tuple[Triplet, float]]]:
    """Source sets for every target, each excluding the target itself, by
    ``select_sources``' rule from one G matrix, whose weights may differ in
    the last bits from one-target calls (stage 2 reads only the winners)."""
    g = similarity_many(model, targets, pool)
    return {u: _top_k(row, pool, model.cfg.k, exclude=u) for u, row in zip(targets, g)}


def train_stage2(
    model: JointModel, gamma: Gamma, dataset: Dataset, seed: int
) -> tuple[list[float], int]:
    """Optimize vp-branch loss plus weighted analogy loss.

    Returns (per-epoch mean combined loss, count of skipped empty-source
    targets). With gamma 'absent' there is nothing to train: no-op. With no
    frequent triplet to draw sources from, every target would be skipped
    and Gamma would learn nothing: an error.
    """
    cfg = model.cfg
    if gamma.kind == "absent":
        return [], 0
    if "vp" not in model.branches:
        raise DataError("stage-2 training requires an active vp branch")
    pool = source_pool(model)
    if not pool:
        raise DataError("no transfer sources: every observed triplet is rare")
    if cfg.stage2_epochs == 0:
        return [], 0
    # G reads only nets stage 2 does not train, so the sets hold for every epoch
    source_sets = build_source_sets(model, model.observed, pool)
    rng = rng_stream(seed, "stage2")
    skipped_total = 0

    def step(batch):
        nonlocal skipped_total
        # the descriptor front end is frozen and has no dropout: one input
        # serves both terms
        x = branch_inputs(model, batch, ("vp",))[0]["vp"]
        loss_vp, grads, _ = branch_terms(model, "vp", batch, x, True, rng)
        q_pairs, skipped = sample_q_pairs(batch, source_sets, rng)
        skipped_total += skipped
        loss_an, g_an = analogy_loss(model, gamma, batch, x, q_pairs, training=True, rng=rng)
        add_grads(grads, g_an, cfg.analogy_weight)
        return loss_vp + cfg.analogy_weight * loss_an, grads

    trace = fit(model, dataset, trainable(model, 2, gamma), cfg.stage2_epochs, rng, step)
    return trace, skipped_total
