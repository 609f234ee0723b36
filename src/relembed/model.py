"""Joint visual-language embedding model.

Each active branch kind owns two projections into a shared d-dim space: f_v
maps the branch's visual input (raw subject/object appearance for kinds s/o,
the full pair descriptor otherwise) and f_w maps the masked language input.
Language outputs are L2-normalized; visual outputs are not. Training
maximizes, over every (pair, label) combination in a batch, the
log-likelihood of sigmoid(w . v) matching the binary label; a pair scores
against a triplet query as the product of per-branch sigmoids.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import RunConfig
from .data import DataError, Dataset, Triplet, Vocabulary, WordTable
from .features import (
    BRANCH_MASK,
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
    kind: str
    f_v: Mlp
    f_w: Mlp


@dataclass(eq=False)
class JointModel:
    cfg: RunConfig
    subjects: Vocabulary
    predicates: Vocabulary
    objects: Vocabulary
    word_dim: int
    e_sub: Array  # (|V_s|, d_w) word vectors, row per token
    e_pre: Array
    e_obj: Array
    visual: VisualInputParams
    branches: dict[str, Branch]
    observed: list[Triplet]  # training triplets with >= 1 positive, sorted
    counts: dict[Triplet, int]
    appearance_dim: int

    @property
    def active_kinds(self) -> tuple[str, ...]:
        return self.cfg.branch_list()

    def branch(self, kind: str) -> Branch:
        try:
            return self.branches[kind]
        except KeyError:
            raise DataError(f"branch {kind!r} not active (have {','.join(self.branches)})") from None


def init_layers(
    cfg: RunConfig, word_dim: int, appearance_dim: int, seed: int
) -> tuple[VisualInputParams, dict[str, Branch]]:
    """Seeded visual front end and active branches; layout is deterministic."""
    rng = rng_stream(seed, "init")
    visual = visual_init(rng, appearance_dim, cfg.app_out, cfg.spatial_hidden, cfg.spatial_out)
    branches = {}
    for kind in cfg.branch_list():
        vis_in = appearance_dim if kind in ("s", "o") else visual.d_v
        branches[kind] = Branch(
            kind,
            f_v=mlp_init(rng, vis_in, cfg.branch_hidden, cfg.embed_dim, dropout=cfg.dropout),
            f_w=mlp_init(rng, 3 * word_dim, cfg.branch_hidden, cfg.embed_dim),
        )
    return visual, branches


def build_model(cfg: RunConfig, dataset: Dataset, table: WordTable, seed: int) -> JointModel:
    """Fresh model: word vectors from the table, layers from ``init_layers``."""
    visual, branches = init_layers(cfg, table.dim, dataset.appearance_dim, seed)
    return JointModel(
        cfg=cfg,
        subjects=dataset.subjects,
        predicates=dataset.predicates,
        objects=dataset.objects,
        word_dim=table.dim,
        e_sub=np.stack([table.lookup(t) for t in dataset.subjects.tokens]),
        e_pre=np.stack([table.lookup(t) for t in dataset.predicates.tokens]),
        e_obj=np.stack([table.lookup(t) for t in dataset.objects.tokens]),
        visual=visual,
        branches=branches,
        observed=dataset.observed_sorted(),
        counts=dict(dataset.counts),
        appearance_dim=dataset.appearance_dim,
    )


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
    if gamma is not None and gamma.lin is not None:
        named.extend(layer_params("gamma.lin", gamma.lin))
    if gamma is not None and gamma.net is not None:
        named.extend(layer_params("gamma.net", gamma.net))
    return named


def trainable(model: JointModel, stage: int, gamma: Gamma | None = None) -> list[tuple[str, Array]]:
    """The registry entries a training stage updates, in registry order.

    Stage 1: every branch, the visual front end when a branch reads the pair
    descriptor, and the word vectors when ``finetune_words`` is set.
    Stage 2: both nets of the vp branch plus Gamma.
    """
    if stage == 1:
        prefixes = ("branch.",)
        if any(k not in ("s", "o") for k in model.active_kinds):
            prefixes += ("visual.",)
        if model.cfg.finetune_words:
            prefixes += ("words.",)
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


def branch_universe(model: JointModel, kind: str) -> tuple[list, list[Triplet]]:
    """Keys of all labels scored by a branch plus their language-row triplets.

    Unigram branches label against the whole vocabulary; phrase and bigram
    branches against the combinations observed in training (or the full
    cartesian product when configured). Masked slots use index 0, which the
    mask zeroes out.
    """
    if kind == "s":
        keys = list(range(len(model.subjects)))
        rows = [Triplet(i, 0, 0) for i in keys]
    elif kind == "o":
        keys = list(range(len(model.objects)))
        rows = [Triplet(0, 0, i) for i in keys]
    elif kind == "p":
        keys = list(range(len(model.predicates)))
        rows = [Triplet(0, i, 0) for i in keys]
    elif kind == "vp":
        if model.cfg.vp_negatives == "cartesian":
            keys = [
                Triplet(s, p, o)
                for s, p, o in itertools.product(
                    range(len(model.subjects)),
                    range(len(model.predicates)),
                    range(len(model.objects)),
                )
            ]
        else:
            keys = list(model.observed)
        rows = keys
    elif kind == "sp":
        keys = sorted({(t.s, t.p) for t in model.observed})
        rows = [Triplet(s, p, 0) for s, p in keys]
    elif kind == "po":
        keys = sorted({(t.p, t.o) for t in model.observed})
        rows = [Triplet(0, p, o) for p, o in keys]
    else:
        raise DataError(f"unknown branch kind {kind!r}")
    if not keys:
        raise DataError(f"empty label universe for branch {kind!r}")
    return keys, rows


def _positive_keys(pair, kind: str) -> list:
    if kind == "s":
        return [pair.subject_cat] if pair.positive_predicates else []
    if kind == "o":
        return [pair.object_cat] if pair.positive_predicates else []
    if kind == "p":
        return list(pair.positive_predicates)
    if kind == "vp":
        return list(pair.positives())
    if kind == "sp":
        return [(pair.subject_cat, p) for p in pair.positive_predicates]
    if kind == "po":
        return [(p, pair.object_cat) for p in pair.positive_predicates]
    raise DataError(f"unknown branch kind {kind!r}")


def _label_matrix(model: JointModel, kind: str, batch, keys: list) -> Array:
    col = {key: j for j, key in enumerate(keys)}
    y = np.zeros((len(batch), len(keys)))
    for i, pair in enumerate(batch):
        for key in _positive_keys(pair, kind):
            j = col.get(key)
            if j is None:
                raise DataError(f"positive label {key} outside the {kind!r} branch universe")
            y[i, j] = 1.0
    return y


# ---------------------------------------------------------------------------
# Embedding forward passes
# ---------------------------------------------------------------------------


def embed_language_masked(
    model: JointModel, kind: str, triplets: list[Triplet], mask: str
) -> Array:
    """Unit-norm language embeddings of a branch under an explicit slot mask."""
    br = model.branch(kind)
    q = language_matrix(triplets, model.e_sub, model.e_pre, model.e_obj, mask)
    w, _ = mlp_forward(br.f_w, q)
    return normalize_rows(w)[0]


def embed_language_batch(model: JointModel, kind: str, triplets: list[Triplet]) -> Array:
    """Unit-norm language embeddings, one row per triplet."""
    return embed_language_masked(model, kind, triplets, BRANCH_MASK[kind])


def embed_visual_batch(
    model: JointModel,
    kind: str,
    pairs,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Array:
    """Visual embeddings (unnormalized), one row per candidate pair."""
    br = model.branch(kind)
    a_s, a_o, r = pair_arrays(pairs, model.cfg.spatial_norm)
    if kind == "s":
        inp = a_s
    elif kind == "o":
        inp = a_o
    else:
        inp, _ = visual_forward(model.visual, a_s, a_o, r)
    v, _ = mlp_forward(br.f_v, inp, training=training, rng=rng)
    return v


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def _branch_terms(model, kind, batch, a_s, a_o, x, x_is_input, training, rng):
    """Loss and gradients of one branch given precomputed inputs.

    Returns (loss, grads dict, grad wrt x or None). The loss is the mean
    over all (pair, label) combinations of the negative log-likelihood of
    the binary labels under sigmoid(w . v).
    """
    br = model.branch(kind)
    keys, rows = branch_universe(model, kind)
    y = _label_matrix(model, kind, batch, keys)

    if kind == "s":
        inp = a_s
    elif kind == "o":
        inp = a_o
    else:
        inp = x
    v, v_cache = mlp_forward(br.f_v, inp, training=training, rng=rng)
    q = language_matrix(rows, model.e_sub, model.e_pre, model.e_obj, BRANCH_MASK[kind])
    w_raw, w_cache = mlp_forward(br.f_w, q)
    w, norms = normalize_rows(w_raw)

    d = v @ w.T  # (N, U)
    m = d.size
    loss = -float(np.sum(y * log_sigmoid(d) + (1.0 - y) * log_sigmoid(-d))) / m

    dd = (sigmoid(d) - y) / m
    g_v = dd @ w
    g_w = dd.T @ v
    # back through row normalization
    g_w_raw = (g_w - np.sum(g_w * w, axis=1, keepdims=True) * w) / norms

    g_fv, g_inp = mlp_backward(br.f_v, v_cache, g_v)
    g_fw, g_q = mlp_backward(br.f_w, w_cache, g_w_raw)
    grads = dict(layer_params(f"branch.{kind}.f_v", g_fv))
    grads.update(layer_params(f"branch.{kind}.f_w", g_fw))
    if model.cfg.finetune_words:
        _accumulate_word_grads(model, grads, rows, BRANCH_MASK[kind], g_q)
    return loss, grads, (g_inp if x_is_input else None)


def _accumulate_word_grads(model, grads, rows, mask, g_q):
    from .features import LANGUAGE_MASKS

    ms, mp, mo = LANGUAGE_MASKS[mask]
    dw = model.word_dim
    idx = np.array([tuple(t) for t in rows], dtype=np.intp).reshape(-1, 3)
    for name, arr, flag, sl, col in (
        ("words.sub", model.e_sub, ms, slice(0, dw), 0),
        ("words.pre", model.e_pre, mp, slice(dw, 2 * dw), 1),
        ("words.obj", model.e_obj, mo, slice(2 * dw, 3 * dw), 2),
    ):
        if not flag:
            continue
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(arr)
            grads[name] = g
        np.add.at(g, idx[:, col], g_q[:, sl] * flag)


def joint_loss(
    model: JointModel,
    batch,
    kinds: tuple[str, ...] | None = None,
    training: bool = False,
    rng: np.random.Generator | None = None,
    through_visual: bool = True,
) -> tuple[float, dict[str, Array]]:
    """Sum of branch losses over ``kinds`` (default: all active branches).

    The shared pair descriptor is computed once; its parameter gradients
    accumulate over branches unless ``through_visual`` is false (used when
    the descriptor front end is frozen).
    """
    if not batch:
        raise DataError("empty batch")
    kinds = tuple(kinds) if kinds is not None else model.active_kinds
    a_s, a_o, r = pair_arrays(batch, model.cfg.spatial_norm)
    needs_x = any(k not in ("s", "o") for k in kinds)
    x, x_cache = visual_forward(model.visual, a_s, a_o, r) if needs_x else (None, None)
    grad_x = np.zeros_like(x) if needs_x else None

    total = 0.0
    grads: dict[str, Array] = {}
    for kind in kinds:
        loss, g, g_x = _branch_terms(
            model, kind, batch, a_s, a_o, x, x_is_input=kind not in ("s", "o"),
            training=training, rng=rng,
        )
        total += loss
        for name, arr in g.items():
            if name in grads:
                grads[name] = grads[name] + arr
            else:
                grads[name] = arr
        if g_x is not None:
            grad_x += g_x
    if needs_x and through_visual:
        grads.update(visual_backward(model.visual, x_cache, grad_x))
    return total, grads


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


# (id(model), id(pairs)) -> their embeddings, or None until first computed;
# an entry lives only inside ``reuse_pair_embeddings``
_REUSED: dict[tuple[int, int], dict[str, Array] | None] = {}


@contextlib.contextmanager
def reuse_pair_embeddings(model: JointModel, pairs):
    """Inside the block, ``pair_embeddings(model, pairs)`` for this model and
    this pair list computes once and returns the same read-only arrays after.

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


def pair_embeddings(model: JointModel, pairs) -> dict[str, Array]:
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


def _embed_pairs(model: JointModel, pairs) -> dict[str, Array]:
    a_s, a_o, r = pair_arrays(pairs, model.cfg.spatial_norm)
    needs_x = any(k not in ("s", "o") for k in model.active_kinds)
    x = visual_forward(model.visual, a_s, a_o, r)[0] if needs_x else None
    out = {}
    for kind in model.active_kinds:
        br = model.branch(kind)
        inp = a_s if kind == "s" else a_o if kind == "o" else x
        out[kind] = mlp_forward(br.f_v, inp)[0]
    return out


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


def score_pairs(
    model: JointModel, t: Triplet, pairs, vp_override: Array | None = None
) -> Array:
    """Scores of every pair against query t (eval mode).

    ``vp_override`` substitutes a transferred embedding for the vp factor,
    used when t was never observed in training.
    """
    language = {kind: embed_language_batch(model, kind, [t])[0] for kind in model.active_kinds}
    if vp_override is not None:
        language["vp"] = vp_override
    return score_from_embeddings(pair_embeddings(model, pairs), language)


# ---------------------------------------------------------------------------
# Batch sampling and stage-1 training
# ---------------------------------------------------------------------------


def batch_iter(dataset: Dataset, n_pos: int, n_neg: int, rng: np.random.Generator):
    """One epoch of mini-batches: n_pos positives then n_neg negatives each.

    Negatives are drawn among non-interacting pairs sharing subject and
    object category with the batch positives; the short final positive
    chunk is completed by resampling with replacement, so every batch is
    full. If no category-matched negative exists the whole negative pool is
    used; with no negatives at all, batches are positives-only.
    """
    positives = [i for i, p in enumerate(dataset.pairs) if p.positive_predicates]
    if not positives:
        raise DataError("dataset has no positive pairs")
    by_combo: dict[tuple[int, int], list[int]] = {}
    all_negatives = []
    for i, p in enumerate(dataset.pairs):
        if not p.positive_predicates:
            by_combo.setdefault((p.subject_cat, p.object_cat), []).append(i)
            all_negatives.append(i)
    order = rng.permutation(len(positives))
    for start in range(0, len(order), n_pos):
        chunk = [positives[j] for j in order[start : start + n_pos]]
        if len(chunk) < n_pos:
            extra = rng.choice(len(positives), size=n_pos - len(chunk), replace=True)
            chunk += [positives[j] for j in extra]
        combos = {(dataset.pairs[i].subject_cat, dataset.pairs[i].object_cat) for i in chunk}
        eligible = sorted(set().union(*(by_combo.get(c, []) for c in combos)))
        if not eligible:
            eligible = all_negatives
        if eligible and n_neg > 0:
            neg = rng.choice(eligible, size=n_neg, replace=len(eligible) < n_neg)
            chunk = chunk + [int(i) for i in neg]
        yield [dataset.pairs[i] for i in chunk]


def train_stage1(model: JointModel, dataset: Dataset, seed: int) -> list[float]:
    """Optimize the joint loss; returns mean batch loss per epoch."""
    cfg = model.cfg
    if not any(p.positive_predicates for p in dataset.pairs):
        raise DataError("dataset has no positive pairs")
    rng = rng_stream(seed, "stage1")
    named = trainable(model, 1)
    opt = adam_init([a for _, a in named], lr=cfg.lr)
    n_pos = cfg.positives_per_batch()
    n_neg = cfg.batch_size - n_pos
    trace = []
    for _ in range(cfg.stage1_epochs):
        losses = []
        for batch in batch_iter(dataset, n_pos, n_neg, rng):
            loss, grads = joint_loss(model, batch, training=True, rng=rng)
            adam_update(opt, named, grads)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return trace
