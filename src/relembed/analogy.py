"""Transfer of visual-phrase embeddings to triplets without training data.

A target triplet u borrows the embeddings of its k most similar seen
triplets (weighting G: convex combination of per-slot language cosine
similarities), each corrected by a learned map Gamma of the word-level
differences between source and target, and sums them with their G weights
(``transferred_embeddings``). Gamma has no bias terms anywhere, so a
triplet transferred from itself is corrected by exactly zero.

Sources are selected by one function, ``select_sources``, for many targets
at once from one G matrix (targets x pool): evaluation passes every query
with the frequent seen triplets as the pool (``transfer_embedding``), and
stage 2 every seen triplet with the others (``build_source_sets``).

The second training stage finetunes the visual-phrase branch while
learning Gamma from analogies among seen triplets: each target is scored
against that same k-source sum over the other seen triplets. Gradients of
the analogy term reach only Gamma and the visual-phrase visual projection.
Targets, pools and sources are triplet codes: a pool is an ascending code
array, and ties in G go to the smaller code, which is the lexicographically
smaller triplet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .data import DataError, Dataset, PairTable, triplet_codes, triplet_of
from .model import (
    JointModel,
    add_grads,
    branch_inputs,
    branch_terms,
    embed_language_batch,
    fit,
    label_matrix,
    language_input,
    logistic_terms,
    trainable,
)
from .numkit import (
    Array,
    Linear,
    Mlp,
    glorot_uniform,
    layer_params,
    linear_forward,
    linear_param_grads,
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

    kind 'absent': no analogy training at all; kind 'zero': analogy training
    happens. Neither has a net, and neither corrects anything. kind
    'linear': single d x 3d matrix; kind 'deep': two bias-free layers with
    ReLU between. No variant carries bias terms.
    """

    kind: str
    net: Linear | Mlp | None = None

    @property
    def prefix(self) -> str:  # registry name of ``net``
        return "gamma.net" if isinstance(self.net, Mlp) else "gamma.lin"


def gamma_init(cfg: RunConfig, seed: int) -> Gamma:
    """The config's Gamma: kind ``cfg.gamma``, drawn from the seed's "gamma" stream."""
    d, hidden, rng = cfg.embed_dim, cfg.gamma_hidden_dim(), rng_stream(seed, "gamma")
    if cfg.gamma == "linear":
        return Gamma(cfg.gamma, Linear(glorot_uniform(rng, d, 3 * d)))
    if cfg.gamma == "deep":
        first = Linear(glorot_uniform(rng, hidden, 3 * d))
        second = Linear(glorot_uniform(rng, d, hidden))
        return Gamma(cfg.gamma, Mlp(first, second))
    return Gamma(cfg.gamma)


def gamma_forward(gamma: Gamma, diffs: Array) -> tuple[Array, tuple]:
    """Corrections for stacked difference vectors (n, 3d) -> (n, d)."""
    if isinstance(gamma.net, Mlp):
        return mlp_forward(gamma.net, diffs)
    return linear_forward(gamma.net, diffs)


def gamma_backward(gamma: Gamma, cache, grad_out: Array) -> dict[str, Array]:
    if isinstance(gamma.net, Mlp):
        g, _ = mlp_backward(gamma.net, cache, grad_out, need_input=False)
    else:
        g = linear_param_grads(gamma.net, cache, grad_out)
    return dict(layer_params(gamma.prefix, g))


# ---------------------------------------------------------------------------
# Word-level inputs to Gamma
# ---------------------------------------------------------------------------


def gamma_input_matrix(model: JointModel, sources, targets) -> Array:
    """Stacked [target - source] differences of the vp language embeddings
    of single words (each slot's masked triplets), (n, 3d), for aligned
    source and target codes. Each unique word is embedded once, so identical
    source and target produce an exactly zero row.
    """
    n = len(sources)
    slots = np.unravel_index(np.concatenate([sources, targets]), model.dims)
    per_slot = []
    for slot, index in zip(SLOTS, slots):
        words, at = np.unique(index, return_inverse=True)
        # the slot's mask zeroes the other two slots of each word's code
        emb = embed_language_batch(model, "vp", triplet_codes(model.dims, (words,) * 3, slot), slot)
        per_slot.append(emb[at[n:]] - emb[at[:n]])
    return np.concatenate(per_slot, axis=1)


# ---------------------------------------------------------------------------
# Similarity weighting G and source selection
# ---------------------------------------------------------------------------


def slot_vectors(model: JointModel, codes) -> list[Array]:
    """Per-slot unit vectors used by G, in SLOTS order: the s, p and o branch
    embeddings when all three branches are active, the word vectors otherwise."""
    if all(slot in model.branches for slot in SLOTS):
        return [embed_language_batch(model, slot, codes) for slot in SLOTS]
    slots = np.unravel_index(np.asarray(codes, np.int64), model.dims)
    words = (model.e_sub, model.e_pre, model.e_obj)
    return [normalize_rows(table[index])[0] for index, table in zip(slots, words)]


def similarity_many(model: JointModel, targets, pool) -> Array:
    """G between every target code (rows) and pool code (columns), clipped
    to [0, 1]."""
    cfg = model.cfg
    alphas = (cfg.alpha_s, cfg.alpha_p, cfg.alpha_o)
    vt, vp = slot_vectors(model, targets), slot_vectors(model, pool)
    g = sum(a * (t @ p.T) for a, t, p in zip(alphas, vt, vp))
    return np.clip(g, 0.0, 1.0)


def source_pool(model: JointModel) -> Array:
    """Codes of the seen triplets frequent enough to donate embeddings,
    ascending; an error when there is none."""
    pool = model.observed[model.counts >= model.cfg.rare_threshold]
    if not pool.size:
        raise DataError("no transfer sources: every observed triplet is rare")
    return pool


def select_sources(model: JointModel, targets, pool, exclude: Array | None = None) -> tuple[Array, Array, Array]:
    """Per target code, from one G matrix, the k pool codes of largest G but
    the target's ``exclude`` code, descending, ties by ascending code: codes
    and weights, (targets, min(k, pool)), and each target's count of
    sources, which come first; the weights past a target's count are 0. The
    pool is taken as given: evaluation passes the frequent seen triplets,
    a target among them or not."""
    g = similarity_many(model, targets, pool)
    pool = np.broadcast_to(np.asarray(pool, np.int64), g.shape)
    skip = np.zeros(g.shape, bool) if exclude is None else pool == exclude[:, None]
    order = np.lexsort((pool, -g, skip), axis=-1)[:, : model.cfg.k]
    count = np.minimum(model.cfg.k, g.shape[1] - skip.sum(axis=1))
    weights = np.where(np.arange(order.shape[1]) < count[:, None], np.take_along_axis(g, order, 1), 0.0)
    return np.take_along_axis(pool, order, 1), weights, count


# ---------------------------------------------------------------------------
# Transferred embedding
# ---------------------------------------------------------------------------


def transferred_embeddings(model: JointModel, gamma: Gamma, targets, sources, weights) -> tuple[Array, tuple]:
    """A @ (w_source + Gamma(source, target)), (targets, d), and the backward
    cache (A, Gamma's cache), from each target code's (targets, k) source
    codes and G weights, 0 past its count: row t of A is target t's weights,
    divided by their sum under normalize_aggregation. Weights summing to 0
    are an error."""
    weights = np.asarray(weights, np.float64)
    total = weights.sum(axis=1)
    if np.any(total == 0.0):
        target = triplet_of(model.dims, np.asarray(targets)[np.argmin(total)])
        raise DataError(f"no informative sources for target {target}: all weights zero")
    a = weights / total[:, None] if model.cfg.normalize_aggregation else weights
    n, k = weights.shape
    sources = np.ravel(sources)
    w, cache = embed_language_batch(model, "vp", sources), None  # constant: no gradient
    if gamma.net is not None:  # absent and zero correct nothing
        corr, cache = gamma_forward(gamma, gamma_input_matrix(model, sources, np.repeat(targets, k)))
        w = w + corr
    return (a[:, None, :] @ w.reshape(n, k, w.shape[1]))[:, 0], (a, cache)


def transfer_embedding(model: JointModel, gamma: Gamma, targets, pool) -> Array:
    """The embeddings of target codes, (targets, d), each transferred from
    its ``select_sources`` in ``pool``."""
    sources, weights, _ = select_sources(model, targets, pool)
    return transferred_embeddings(model, gamma, targets, sources, weights)[0]


# ---------------------------------------------------------------------------
# Analogy loss
# ---------------------------------------------------------------------------


def sample_q_pairs(model: JointModel, batch: PairTable, source_sets) -> tuple[Array, Array, Array, int]:
    """The batch's distinct positive triplet codes, ascending, their rows of
    ``build_source_sets``' codes and weights, and the count skipped: those
    with no source, or whose weights sum to 0."""
    sources, weights, _ = source_sets
    targets = np.unique(batch.positives(model.dims)[1])
    at = np.minimum(np.searchsorted(model.observed, targets), len(model.observed) - 1)
    kept = (model.observed[at] == targets) & (weights[at].sum(axis=1) > 0.0)
    return targets[kept], sources[at[kept]], weights[at[kept]], int(np.sum(~kept))


def analogy_loss(
    model: JointModel,
    gamma: Gamma,
    batch: PairTable,
    x: Array,
    targets: Array,
    sources: Array,
    weights: Array,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, Array]]:
    """Mean binary log-likelihood of batch pairs against the targets'
    ``transferred_embeddings`` from their source sets, one column per
    target; ``x`` is the vp branch input of the batch (``branch_inputs``).

    Gradients flow only to Gamma parameters and the vp visual projection;
    the language side and the shared descriptor front end get none.
    """
    if gamma.kind == "absent":
        raise DataError("gamma kind 'absent' has no analogy loss")
    if not len(targets):
        return 0.0, {}
    br = model.branch("vp")
    v, v_cache = mlp_forward(br.f_v, x, training=training, rng=rng)
    w, (a, g_cache) = transferred_embeddings(model, gamma, targets, sources, weights)
    y = label_matrix(batch, targets, "vp", model.dims)
    loss, g_v, g_w = logistic_terms(v, w, y)
    grads = {}
    if gamma.net is not None:  # A.T @ g_w, one row per (target, source), reaches only the correction
        grads = gamma_backward(gamma, g_cache, (a[:, :, None] * g_w[:, None, :]).reshape(-1, g_w.shape[1]))
    g_fv, _ = mlp_backward(br.f_v, v_cache, g_v, need_input=False)
    grads.update(layer_params("branch.vp.f_v", g_fv))
    return loss, grads


# ---------------------------------------------------------------------------
# Stage-2 training
# ---------------------------------------------------------------------------


def build_source_sets(model: JointModel, pool: Array) -> tuple[Array, Array, Array]:
    """The ``select_sources`` of every observed triplet, itself excluded."""
    return select_sources(model, model.observed, pool, exclude=model.observed)


def stage2_pool(model: JointModel, kind: str) -> Array | None:
    """The source pool stage 2 draws from with a Gamma of ``kind``; None for
    'absent', which trains nothing. A model without a vp branch, or whose
    observed triplets are all rare, cannot train stage 2: an error. It reads
    nothing stage 1 trains, so a run can check before stage 1."""
    if kind == "absent":
        return None
    if "vp" not in model.branches:
        raise DataError("stage-2 training requires an active vp branch")
    return source_pool(model)


def train_stage2(
    model: JointModel, gamma: Gamma, dataset: Dataset, seed: int
) -> tuple[list[float], int]:
    """Optimize vp-branch loss plus weighted analogy loss.

    Returns (per-epoch mean combined loss, count of skipped targets, those
    without an informative source). With gamma 'absent' there is nothing to
    train: no-op. With no frequent triplet to draw sources from, every
    target would be skipped and Gamma would learn nothing: an error.
    """
    cfg = model.cfg
    pool = stage2_pool(model, gamma.kind)
    if pool is None:
        return [], 0
    # G reads only nets stage 2 does not train, so the sets hold for every epoch
    source_sets = build_source_sets(model, pool)
    rng = rng_stream(seed, "stage2")
    skipped_total = 0
    q = language_input(model, "vp")  # stage 2 trains no word vectors

    def step(batch):
        nonlocal skipped_total
        # the descriptor front end is frozen and has no dropout: one input
        # serves both terms, and nothing trained reads its gradient
        x = branch_inputs(model, batch, ("vp",))[0]["vp"]
        loss_vp, grads, _ = branch_terms(model, "vp", batch, x, True, rng, need_input=False, q=q)
        *analogies, skipped = sample_q_pairs(model, batch, source_sets)
        skipped_total += skipped
        loss_an, g_an = analogy_loss(model, gamma, batch, x, *analogies, training=True, rng=rng)
        add_grads(grads, g_an, cfg.analogy_weight)
        return loss_vp + cfg.analogy_weight * loss_an, grads

    trace = fit(model, dataset, trainable(model, 2, gamma), cfg.stage2_epochs, rng, step)
    return trace, skipped_total
