"""Joint visual-language embedding model.

Each active branch kind owns two projections into a shared d-dim space: f_v
maps the branch's visual input (raw subject/object appearance for kinds s/o,
the full pair descriptor otherwise) and f_w maps the masked language input.
Language outputs are L2-normalized; visual outputs are not. Training
maximizes, over every (pair, label) combination in a batch, the
log-likelihood of sigmoid(w . v) matching the binary label; a pair scores
against a triplet query as the product of per-branch sigmoids. Every
triplet is an int64 code over the vocabulary sizes ``dims``
(``data.triplet_codes``); the observed triplets and each label universe are
ascending code arrays.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import RunConfig
from .data import DataError, Dataset, PairTable, Vocabulary, WordTable, triplet_codes, triplet_dims, triplet_of
from .features import (
    BRANCH_MASK,
    LANGUAGE_MASKS,
    VisualInputParams,
    language_matrix,
    pair_arrays,
    visual_backward,
    visual_forward,
    visual_init,
)
from .numkit import (
    AdamState,
    Array,
    Mlp,
    adam_init,
    adam_step,
    layer_params,
    log_sigmoid,
    mlp_backward,
    mlp_forward,
    mlp_init,
    normalize_rows,
    rng_stream,
    sigmoid,
)

if TYPE_CHECKING:
    from .analogy import Gamma

# dot products are clipped here before the sigmoid when scoring, keeping
# every score strictly inside (0, 1) in float64
DOT_CLAMP = 30.0


@dataclass(eq=False)
class Branch:
    f_v: Mlp
    f_w: Mlp


@dataclass(eq=False)
class JointModel:
    cfg: RunConfig
    subjects: Vocabulary
    predicates: Vocabulary
    objects: Vocabulary
    dims: tuple[int, int, int]  # (|S|, |P|, |O|), the sizes triplet codes are taken over
    word_dim: int
    e_sub: Array  # (|V_s|, d_w) word vectors, row per token
    e_pre: Array
    e_obj: Array
    visual: VisualInputParams
    branches: dict[str, Branch]
    observed: Array  # codes of the training triplets with >= 1 positive, ascending
    counts: Array  # positives per observed triplet, aligned with ``observed``
    appearance_dim: int
    labels: dict[str, Array]  # active branch kind -> its ``branch_universe``

    @property
    def active_kinds(self) -> tuple[str, ...]:
        return self.cfg.branch_list()

    def branch(self, kind: str) -> Branch:
        try:
            return self.branches[kind]
        except KeyError:
            raise DataError(f"branch {kind!r} not active (have {','.join(self.branches)})") from None


def new_model(
    cfg: RunConfig, vocabs: tuple[Vocabulary, Vocabulary, Vocabulary], observed: Array,
    counts: Array, word_dim: int, appearance_dim: int, seed: int,
) -> JointModel:
    """The one model constructor: seeded visual front end and active
    branches (a deterministic layout), zero word vectors, the observed
    triplets (ascending codes) with their positive counts, and every active
    branch's label universe."""
    dims = triplet_dims(vocabs)  # every triplet has a code before anything is allocated
    rng = rng_stream(seed, "init")
    visual = visual_init(rng, appearance_dim, cfg.app_out, cfg.spatial_hidden, cfg.spatial_out)
    branches = {}
    for kind in cfg.branch_list():
        vis_in = appearance_dim if kind in ("s", "o") else visual.d_v
        branches[kind] = Branch(
            f_v=mlp_init(rng, vis_in, cfg.branch_hidden, cfg.embed_dim, dropout=cfg.dropout),
            f_w=mlp_init(rng, 3 * word_dim, cfg.branch_hidden, cfg.embed_dim),
        )
    subjects, predicates, objects = vocabs
    model = JointModel(
        cfg=cfg, subjects=subjects, predicates=predicates, objects=objects, dims=dims, word_dim=word_dim,
        e_sub=np.zeros((len(subjects), word_dim)),
        e_pre=np.zeros((len(predicates), word_dim)),
        e_obj=np.zeros((len(objects), word_dim)),
        visual=visual, branches=branches, observed=observed, counts=counts,
        appearance_dim=appearance_dim, labels={},
    )
    model.labels = {kind: branch_universe(model, kind) for kind in model.active_kinds}
    return model


def build_model(cfg: RunConfig, dataset: Dataset, table: WordTable, seed: int) -> JointModel:
    """Fresh model: ``new_model`` with word vectors copied from the table."""
    observed, counts = np.unique(dataset.pairs.positives(dataset.dims)[1], return_counts=True)
    if not observed.size:
        raise DataError("dataset has no positive pairs")
    vocabs = (dataset.subjects, dataset.predicates, dataset.objects)
    model = new_model(cfg, vocabs, observed, counts, table.dim, dataset.appearance_dim, seed)
    for words, vocab in zip((model.e_sub, model.e_pre, model.e_obj), vocabs):
        words[...] = [table.lookup(t) for t in vocab.tokens]
    return model


# ---------------------------------------------------------------------------
# Parameter registry
# ---------------------------------------------------------------------------


def named_parameters(model: JointModel, gamma: Gamma | None = None) -> list[tuple[str, Array]]:
    """Every persistent array, in checkpoint order: word vectors, the visual
    front end, each active branch's f_v and f_w in branch order, then Gamma.

    Training stages, checkpoints and tests all take their parameter lists
    from here (see ``trainable``).
    """
    named = [("words.sub", model.e_sub), ("words.pre", model.e_pre), ("words.obj", model.e_obj)]
    named.extend(model.visual.params())
    for kind in model.active_kinds:
        br = model.branch(kind)
        named.extend(layer_params(f"branch.{kind}.f_v", br.f_v))
        named.extend(layer_params(f"branch.{kind}.f_w", br.f_w))
    if gamma is not None and gamma.net is not None:
        named.extend(layer_params(gamma.prefix, gamma.net))
    return named


def trainable(model: JointModel, stage: int, gamma: Gamma | None = None) -> list[tuple[str, Array]]:
    """The registry entries a training stage updates, in registry order.

    Stage 1: every branch, and the visual front end when a branch reads the
    pair descriptor. Stage 2: both nets of the vp branch plus Gamma. No
    stage trains the word vectors.
    """
    if stage == 1:
        prefixes = ("branch.",)
        if any(k not in ("s", "o") for k in model.active_kinds):
            prefixes += ("visual.",)
    elif stage == 2:
        prefixes = ("branch.vp.", "gamma.")
    else:
        raise ValueError(f"no training stage {stage!r}")
    named = named_parameters(model, gamma)
    return [(name, arr) for name, arr in named if name.startswith(prefixes)]


def adam_update(opt: AdamState, named: list[tuple[str, Array]], grads: dict[str, Array]) -> None:
    """One Adam step on the arrays of ``named``; a name missing from
    ``grads`` gets a zero gradient."""
    adam_step(
        opt,
        [arr for _, arr in named],
        [grads[name] if name in grads else np.zeros_like(arr) for name, arr in named],
    )


# ---------------------------------------------------------------------------
# Label universes
# ---------------------------------------------------------------------------


def branch_universe(model: JointModel, kind: str) -> Array:
    """Every label a branch scores: the codes of its masked triplets,
    ascending. ``new_model`` builds each active branch's universe once, into
    ``model.labels``.

    Unigram branches label against their whole vocabulary; phrase and bigram
    branches against the masked triplets observed in training, or against
    every subject-predicate-object combination when ``vp_negatives`` is
    ``cartesian``.
    """
    if kind not in BRANCH_MASK:
        raise DataError(f"unknown branch kind {kind!r}")
    mask = BRANCH_MASK[kind]
    if kind in ("s", "p", "o") or (kind == "vp" and model.cfg.vp_negatives == "cartesian"):
        sizes = [n if keep else 1 for n, keep in zip(model.dims, LANGUAGE_MASKS[mask])]
        labels = triplet_codes(model.dims, np.indices(sizes).reshape(3, -1))
    else:
        labels = np.unique(triplet_codes(model.dims, np.unravel_index(model.observed, model.dims), mask))
    if not len(labels):
        raise DataError(f"empty label universe for branch {kind!r}")
    return labels


def label_matrix(batch: PairTable, columns, mask: str, dims, branch: str | None = None) -> Array:
    """1 where a pair's positive triplet, masked, equals the column label;
    ``columns`` holds codes over ``dims``, and a repeated column is labelled
    in every copy.

    With ``branch`` named, a positive that matches no column is an error;
    without, it stays unlabeled (the analogy columns hold only the targets
    with an informative source).
    """
    rows, labels = batch.positives(dims, mask)
    hits = labels[:, None] == np.asarray(columns, np.int64)[None, :]  # (positives, columns)
    if branch is not None:
        missing = np.flatnonzero(~hits.any(axis=1))
        if missing.size:
            label = triplet_of(dims, labels[missing[0]])
            raise DataError(f"positive label {label} outside the {branch!r} branch universe")
    e, u = np.nonzero(hits)
    y = np.zeros((len(batch), len(columns)))
    y[rows[e], u] = 1.0
    return y


# ---------------------------------------------------------------------------
# Embedding forward passes
# ---------------------------------------------------------------------------


def language_input(model: JointModel, kind: str) -> Array:
    """A branch's language input, one row per label of its universe."""
    return language_matrix(model.labels[kind], model.e_sub, model.e_pre, model.e_obj, BRANCH_MASK[kind])


def embed_language_batch(model: JointModel, kind: str, codes, mask: str | None = None) -> Array:
    """Unit-norm language embeddings of a branch, one row per triplet code,
    under the branch's slot mask or an explicit ``mask``."""
    br = model.branch(kind)
    q = language_matrix(codes, model.e_sub, model.e_pre, model.e_obj, mask or BRANCH_MASK[kind])
    w, _ = mlp_forward(br.f_w, q)
    return normalize_rows(w)[0]


def branch_inputs(model: JointModel, pairs: PairTable, kinds) -> tuple[dict[str, Array], tuple | None]:
    """The visual input of each branch in ``kinds``, one row per pair: the
    subject or object appearance for s and o, the shared pair descriptor
    (computed once) for every other kind. Also returns the descriptor's
    cache, None when no kind reads it."""
    a_s, a_o, r = pair_arrays(pairs)
    x, x_cache = None, None
    if any(k not in ("s", "o") for k in kinds):
        x, x_cache = visual_forward(model.visual, a_s, a_o, r)
    return {k: a_s if k == "s" else a_o if k == "o" else x for k in kinds}, x_cache


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def logistic_terms(v: Array, w: Array, y: Array) -> tuple[float, Array, Array]:
    """Mean over all (row, column) combinations of the negative
    log-likelihood of the binary labels ``y`` under sigmoid(v . w), with its
    gradients wrt v and w."""
    d = v @ w.T  # (N, U)
    m = d.size
    # y is 0 or 1, so the log-sigmoid of the signed dot equals
    # y*log_sigmoid(d) + (1-y)*log_sigmoid(-d) entry for entry
    loss = -float(np.sum(log_sigmoid(np.where(y == 1.0, d, -d)))) / m
    dd = (sigmoid(d) - y) / m
    return loss, dd @ w, dd.T @ v


def add_grads(total: dict[str, Array], grads: dict[str, Array], scale: float = 1.0):
    """total[name] += scale * grads[name] for every name, into new arrays."""
    for name, arr in grads.items():
        term = arr if scale == 1.0 else scale * arr
        total[name] = total[name] + term if name in total else term


def branch_terms(model, kind, batch, inp, training, rng, need_input, q=None):
    """Loss of one branch on its visual input ``inp``, its parameter
    gradients and, when ``need_input``, the gradient wrt ``inp`` (else
    None). ``q`` is the branch's ``language_input``, built here if not given."""
    br = model.branch(kind)
    labels = model.labels[kind]
    if q is None:
        q = language_input(model, kind)
    y = label_matrix(batch, labels, BRANCH_MASK[kind], model.dims, kind)

    v, v_cache = mlp_forward(br.f_v, inp, training=training, rng=rng)
    w_raw, w_cache = mlp_forward(br.f_w, q)
    w, norms = normalize_rows(w_raw)

    loss, g_v, g_w = logistic_terms(v, w, y)
    # back through row normalization
    g_w_raw = (g_w - np.sum(g_w * w, axis=1, keepdims=True) * w) / norms

    g_fv, g_inp = mlp_backward(br.f_v, v_cache, g_v, need_input)
    g_fw, _ = mlp_backward(br.f_w, w_cache, g_w_raw, need_input=False)  # word vectors stay fixed
    grads = dict(layer_params(f"branch.{kind}.f_v", g_fv))
    grads.update(layer_params(f"branch.{kind}.f_w", g_fw))
    return loss, grads, g_inp


def joint_loss(
    model: JointModel,
    batch,
    kinds: tuple[str, ...] | None = None,
    training: bool = False,
    rng: np.random.Generator | None = None,
    language: dict[str, Array] | None = None,
) -> tuple[float, dict[str, Array]]:
    """Sum of branch losses over ``kinds`` (default: all active branches).

    The shared pair descriptor is computed once; its parameter gradients
    accumulate over branches. ``language`` maps each kind to its
    ``language_input`` when the caller holds them.
    """
    if not batch:
        raise DataError("empty batch")
    kinds = tuple(kinds) if kinds is not None else model.active_kinds
    inputs, x_cache = branch_inputs(model, batch, kinds)
    grad_x = np.zeros((len(batch), model.visual.d_v))  # summed over descriptor kinds

    total = 0.0
    grads: dict[str, Array] = {}
    for kind in kinds:
        descriptor = kind not in ("s", "o")  # s and o read raw appearance, which takes no gradient
        q = None if language is None else language[kind]
        loss, g, g_inp = branch_terms(model, kind, batch, inputs[kind], training, rng, descriptor, q)
        total += loss
        add_grads(grads, g)
        if descriptor:
            grad_x += g_inp
    if x_cache is not None:
        grads.update(visual_backward(model.visual, x_cache, grad_x))
    return total, grads


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


# (id(model), id(pairs)) -> their embeddings, or None until first computed;
# an entry lives only inside ``reuse_pair_embeddings``
_REUSED: dict[tuple[int, int], dict[str, Array] | None] = {}


@contextlib.contextmanager
def reuse_pair_embeddings(model: JointModel, pairs: PairTable):
    """Inside the block, ``pair_embeddings(model, pairs)`` for this model and
    this pair table computes once and returns the same read-only arrays after.

    The caller holds both objects for the whole block and does not change
    the model's weights in it.
    """
    key = (id(model), id(pairs))
    if key in _REUSED:  # nested: the outer block owns the entry
        yield
        return
    _REUSED[key] = None
    try:
        yield
    finally:
        del _REUSED[key]


def pair_embeddings(model: JointModel, pairs: PairTable) -> dict[str, Array]:
    """Eval-mode visual embeddings per branch, shared across queries."""
    key = (id(model), id(pairs))
    if key not in _REUSED:
        return _embed_pairs(model, pairs)
    if _REUSED[key] is None:
        out = _embed_pairs(model, pairs)
        for v in out.values():
            v.flags.writeable = False
        _REUSED[key] = out
    return dict(_REUSED[key])


def _embed_pairs(model: JointModel, pairs: PairTable) -> dict[str, Array]:
    inputs = branch_inputs(model, pairs, model.active_kinds)[0]  # the descriptor's cache is freed here
    return {kind: mlp_forward(model.branch(kind).f_v, inp)[0] for kind, inp in inputs.items()}


def score_from_embeddings(
    visual: dict[str, Array], language: dict[str, Array]
) -> Array:
    """Product over branches of sigmoid(w . v), strictly inside (0, 1)."""
    score = None
    for kind, v in visual.items():
        dots = np.clip(v @ language[kind], -DOT_CLAMP, DOT_CLAMP)
        factor = sigmoid(dots)
        score = factor if score is None else score * factor
    return score


def score_pairs(model: JointModel, query: int, pairs: PairTable, vp_override: Array | None = None) -> Array:
    """Scores of every pair against the triplet of code ``query`` (eval mode).

    ``vp_override`` substitutes a transferred embedding for the vp factor,
    used when the query was never observed in training.
    """
    language = {kind: embed_language_batch(model, kind, [query])[0] for kind in model.active_kinds}
    if vp_override is not None:
        language["vp"] = vp_override
    return score_from_embeddings(pair_embeddings(model, pairs), language)


# ---------------------------------------------------------------------------
# Batch sampling and the training loop
# ---------------------------------------------------------------------------


def batch_iter(dataset: Dataset, n_pos: int, n_neg: int, rng: np.random.Generator):
    """One epoch of mini-batches: n_pos positives then n_neg negatives each.

    Negatives are drawn among non-interacting pairs sharing subject and
    object category with the batch positives; the short final positive
    chunk is completed by resampling with replacement, so every batch is
    full. If no category-matched negative exists the whole negative pool is
    used; with no negatives at all, batches are positives-only. A batch is
    a row selection of ``dataset.pairs``.
    """
    table = dataset.pairs
    labelled = np.diff(table.pos_offsets) > 0
    positives = np.flatnonzero(labelled)
    if not positives.size:
        raise DataError("dataset has no positive pairs")
    combo = table.scat * (int(table.ocat.max()) + 1) + table.ocat
    negatives = np.flatnonzero(~labelled)
    grouped = negatives[np.argsort(combo[negatives], kind="stable")]  # by category pair, then row
    keys, starts = np.unique(combo[grouped], return_index=True)
    by_combo = dict(zip(keys.tolist(), np.split(grouped, starts[1:])))
    order = rng.permutation(len(positives))
    for start in range(0, len(order), n_pos):
        chunk = positives[order[start : start + n_pos]]
        if len(chunk) < n_pos:
            extra = rng.choice(len(positives), size=n_pos - len(chunk), replace=True)
            chunk = np.concatenate([chunk, positives[extra]])
        found = [by_combo[k] for k in np.unique(combo[chunk]).tolist() if k in by_combo]
        eligible = np.sort(np.concatenate(found)) if found else negatives
        if eligible.size and n_neg > 0:
            neg = rng.choice(eligible, size=n_neg, replace=len(eligible) < n_neg)
            chunk = np.concatenate([chunk, neg])
        yield table.take(chunk)


def fit(model: JointModel, dataset: Dataset, named, epochs: int, rng, step) -> list[float]:
    """Adam on the arrays of ``named`` over ``epochs`` epochs of
    ``batch_iter`` batches; ``step(batch)`` returns the batch's (loss,
    gradients by name). Returns the mean batch loss per epoch."""
    cfg = model.cfg
    opt = adam_init([a for _, a in named], lr=cfg.lr)
    n_pos = cfg.positives_per_batch()
    n_neg = cfg.batch_size - n_pos
    trace = []
    for _ in range(epochs):
        losses = []
        for batch in batch_iter(dataset, n_pos, n_neg, rng):
            loss, grads = step(batch)
            adam_update(opt, named, grads)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return trace


def train_stage1(model: JointModel, dataset: Dataset, seed: int) -> list[float]:
    """Optimize the joint loss; returns mean batch loss per epoch."""
    if not dataset.pairs.pos_preds.size:
        raise DataError("dataset has no positive pairs")
    rng = rng_stream(seed, "stage1")
    # the word vectors do not train, so each language input holds for the whole fit
    language = {k: language_input(model, k) for k in model.active_kinds}
    return fit(
        model, dataset, trainable(model, 1), model.cfg.stage1_epochs, rng,
        lambda batch: joint_loss(model, batch, training=True, rng=rng, language=language),
    )
